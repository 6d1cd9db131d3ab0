//! Type checker and semantic analysis for Brook Auto programs.
//!
//! Produces a [`CheckedProgram`]: the parsed tree plus a type for every
//! expression node and a per-kernel summary (reduce operation, outputs,
//! gather ranks) consumed by the certification pass, the CPU backend and
//! the code generator.

use crate::ast::*;
use crate::builtins::{builtin, builtin_arity, builtin_result_type, BuiltinSig};
use crate::diag::{CompileError, Diagnostic};
use crate::span::Span;
use glsl_es::math::Bin;
use std::collections::HashMap;

/// Associative operations supported by reduction kernels.
///
/// Reductions are executed as multi-pass tree combines (paper §5.5), which
/// is only meaningful for associative operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// `r += a`
    Add,
    /// `r *= a`
    Mul,
    /// `r = min(r, a)`
    Min,
    /// `r = max(r, a)`
    Max,
}

impl ReduceOp {
    /// Identity element of the operation.
    pub fn identity(&self) -> f32 {
        match self {
            ReduceOp::Add => 0.0,
            ReduceOp::Mul => 1.0,
            ReduceOp::Min => f32::INFINITY,
            ReduceOp::Max => f32::NEG_INFINITY,
        }
    }

    /// Applies the operation to two scalars.
    pub fn apply(&self, a: f32, b: f32) -> f32 {
        match self {
            ReduceOp::Add => a + b,
            ReduceOp::Mul => a * b,
            ReduceOp::Min => Bin::Min.apply(a, b),
            ReduceOp::Max => Bin::Max.apply(a, b),
        }
    }
}

/// Summary of one kernel, extracted during checking.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSummary {
    /// Kernel name.
    pub name: String,
    /// True for reduce kernels.
    pub is_reduce: bool,
    /// The reduction operation, for reduce kernels.
    pub reduce_op: Option<ReduceOp>,
    /// Names of `out` stream parameters.
    pub outputs: Vec<String>,
    /// Names of input streams (`<>`).
    pub stream_inputs: Vec<String>,
    /// Names and ranks of gather parameters.
    pub gathers: Vec<(String, u8)>,
    /// Names of scalar (uniform) parameters.
    pub scalars: Vec<String>,
    /// Helper functions (transitively) called by this kernel.
    pub called_functions: Vec<String>,
    /// Whether `indexof` is used (forces the hidden dimension uniform).
    pub uses_indexof: bool,
}

/// A fully checked program.
#[derive(Debug, Clone)]
pub struct CheckedProgram {
    /// The syntax tree.
    pub program: Program,
    /// Type of every expression node.
    pub types: HashMap<NodeId, Type>,
    /// Per-kernel summaries, in source order.
    pub kernels: Vec<KernelSummary>,
    /// Non-error diagnostics produced during checking.
    pub warnings: Vec<Diagnostic>,
}

impl CheckedProgram {
    /// Type of an expression, as recorded by the checker.
    ///
    /// # Panics
    /// Panics if the node id does not belong to this program — that is a
    /// toolchain bug, not a user error.
    pub fn type_of(&self, e: &Expr) -> Type {
        *self
            .types
            .get(&e.id)
            .unwrap_or_else(|| panic!("untyped node {}", e.id))
    }

    /// Finds a kernel summary by name.
    pub fn summary(&self, kernel: &str) -> Option<&KernelSummary> {
        self.kernels.iter().find(|k| k.name == kernel)
    }
}

/// Type-checks a parsed program.
///
/// # Errors
/// Returns every type error found; checking continues past individual
/// errors so all problems surface in one run.
pub fn check(program: Program) -> Result<CheckedProgram, CompileError> {
    let mut cx = Checker {
        types: HashMap::new(),
        diags: Vec::new(),
        functions: HashMap::new(),
        scopes: Vec::new(),
        current_params: HashMap::new(),
        calls: Vec::new(),
        uses_indexof: false,
        reduce_param: None,
        reduce_op: None,
        current_return: None,
    };
    for f in program.functions() {
        if cx
            .functions
            .insert(f.name.clone(), (f.params.clone(), f.return_ty))
            .is_some()
        {
            cx.diags.push(Diagnostic::error(
                "T012",
                format!("duplicate function `{}`", f.name),
                f.span,
            ));
        }
    }
    let mut kernels = Vec::new();
    let mut seen_kernels: HashMap<String, Span> = HashMap::new();
    for f in program.functions() {
        cx.check_function(f);
    }
    for k in program.kernels() {
        if let Some(prev) = seen_kernels.insert(k.name.clone(), k.span) {
            let _ = prev;
            cx.diags.push(Diagnostic::error(
                "T012",
                format!("duplicate kernel `{}`", k.name),
                k.span,
            ));
        }
        kernels.push(cx.check_kernel(k));
    }
    let (errors, warnings): (Vec<_>, Vec<_>) = cx
        .diags
        .into_iter()
        .partition(|d| d.severity == crate::diag::Severity::Error);
    if errors.is_empty() {
        Ok(CheckedProgram {
            program,
            types: cx.types,
            kernels,
            warnings,
        })
    } else {
        let mut all = errors;
        all.extend(warnings);
        Err(CompileError::new(all))
    }
}

/// Convenience: parse then check.
///
/// # Errors
/// Returns lexical, syntactic or semantic diagnostics.
pub fn parse_and_check(src: &str) -> Result<CheckedProgram, CompileError> {
    check(crate::parser::parse(src)?)
}

/// Helper-function signature: parameters and optional return type.
type FnSig = (Vec<(String, Type)>, Option<Type>);

struct Checker {
    types: HashMap<NodeId, Type>,
    diags: Vec<Diagnostic>,
    functions: HashMap<String, FnSig>,
    scopes: Vec<HashMap<String, Type>>,
    /// Kernel parameters of the kernel being checked: name -> (type, kind).
    current_params: HashMap<String, (Type, ParamKind)>,
    calls: Vec<String>,
    uses_indexof: bool,
    reduce_param: Option<String>,
    reduce_op: Option<ReduceOp>,
    current_return: Option<Type>,
}

impl Checker {
    fn err(&mut self, code: &str, msg: impl Into<String>, span: Span) {
        self.diags.push(Diagnostic::error(code, msg, span));
    }

    fn lookup(&self, name: &str) -> Option<Type> {
        for scope in self.scopes.iter().rev() {
            if let Some(t) = scope.get(name) {
                return Some(*t);
            }
        }
        self.current_params.get(name).map(|(t, _)| *t)
    }

    fn declare(&mut self, name: &str, ty: Type, span: Span) {
        if self.current_params.contains_key(name) {
            self.err("T013", format!("`{name}` shadows a kernel parameter"), span);
        }
        if let Some(scope) = self.scopes.last_mut() {
            if scope.insert(name.to_owned(), ty).is_some() {
                self.err("T014", format!("`{name}` redeclared in the same scope"), span);
            }
        }
    }

    fn check_function(&mut self, f: &FunctionDef) {
        self.scopes.clear();
        self.current_params.clear();
        self.current_return = f.return_ty;
        let mut scope = HashMap::new();
        for (name, ty) in &f.params {
            scope.insert(name.clone(), *ty);
        }
        self.scopes.push(scope);
        self.check_block(&f.body, false);
        self.scopes.pop();
        self.current_return = None;
    }

    fn check_kernel(&mut self, k: &KernelDef) -> KernelSummary {
        self.scopes.clear();
        self.current_params.clear();
        self.calls.clear();
        self.uses_indexof = false;
        self.reduce_param = None;
        self.reduce_op = None;
        let mut outputs = Vec::new();
        let mut stream_inputs = Vec::new();
        let mut gathers = Vec::new();
        let mut scalars = Vec::new();
        for p in &k.params {
            if self
                .current_params
                .insert(p.name.clone(), (p.ty, p.kind))
                .is_some()
            {
                self.err("T015", format!("duplicate parameter `{}`", p.name), p.span);
            }
            match p.kind {
                ParamKind::OutStream => outputs.push(p.name.clone()),
                ParamKind::ReduceOut => {
                    if self.reduce_param.is_some() {
                        self.err(
                            "T016",
                            "a reduce kernel has exactly one `reduce` parameter",
                            p.span,
                        );
                    }
                    self.reduce_param = Some(p.name.clone());
                    outputs.push(p.name.clone());
                }
                ParamKind::Stream => stream_inputs.push(p.name.clone()),
                ParamKind::Gather { rank } => gathers.push((p.name.clone(), rank)),
                ParamKind::Scalar => scalars.push(p.name.clone()),
            }
            if !p.ty.is_float() && !matches!(p.kind, ParamKind::Scalar) {
                self.err(
                    "T017",
                    format!("stream `{}` must have a float element type", p.name),
                    p.span,
                );
            }
        }
        if k.is_reduce {
            if self.reduce_param.is_none() {
                self.err("T016", "reduce kernels require a `reduce` parameter", k.span);
            }
            if stream_inputs.len() != 1 {
                self.err("T018", "reduce kernels take exactly one input stream", k.span);
            }
        } else if self.reduce_param.is_some() {
            self.err(
                "T019",
                "`reduce` parameters are only allowed in `reduce` kernels",
                k.span,
            );
        } else if outputs.is_empty() {
            self.err(
                "T020",
                format!("kernel `{}` has no output stream", k.name),
                k.span,
            );
        }
        self.scopes.push(HashMap::new());
        self.check_block(&k.body, true);
        self.scopes.pop();
        if k.is_reduce && self.reduce_op.is_none() {
            self.err(
                "T021",
                "reduce kernel must update its accumulator with an associative operation \
                 (`r += a`, `r *= a`, `r = min(r, a)` or `r = max(r, a)`)",
                k.span,
            );
        }
        let mut called = Vec::new();
        let mut queue: Vec<String> = self.calls.clone();
        while let Some(c) = queue.pop() {
            if called.contains(&c) {
                continue;
            }
            if self.functions.contains_key(&c) {
                called.push(c.clone());
                // Transitive calls are collected later by brook-cert's call
                // graph pass; direct calls suffice here.
            }
        }
        KernelSummary {
            name: k.name.clone(),
            is_reduce: k.is_reduce,
            reduce_op: self.reduce_op,
            outputs,
            stream_inputs,
            gathers,
            scalars,
            called_functions: called,
            uses_indexof: self.uses_indexof,
        }
    }

    fn check_block(&mut self, b: &Block, in_kernel: bool) {
        self.scopes.push(HashMap::new());
        for s in &b.stmts {
            self.check_stmt(s, in_kernel);
        }
        self.scopes.pop();
    }

    fn check_stmt(&mut self, s: &Stmt, in_kernel: bool) {
        match s {
            Stmt::Decl { name, ty, init, span } => {
                if let Some(init) = init {
                    let it = self.check_expr(init);
                    if let Some(it) = it {
                        if !assignable(*ty, it) {
                            self.err("T001", format!("cannot initialize `{ty}` from `{it}`"), *span);
                        }
                    }
                }
                self.declare(name, *ty, *span);
            }
            Stmt::Assign {
                target,
                op,
                value,
                span,
            } => {
                let tt = self.check_lvalue(target, *span);
                let vt = self.check_expr(value);
                if let (Some(tt), Some(vt)) = (tt, vt) {
                    if !assignable(tt, vt) {
                        self.err("T001", format!("cannot assign `{vt}` to `{tt}`"), *span);
                    }
                }
                // Detect reduction accumulator updates.
                if in_kernel {
                    self.detect_reduce_update(target, *op, value, *span);
                }
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
                span,
            } => {
                self.expect_bool(cond, *span);
                self.check_block(then_block, in_kernel);
                if let Some(e) = else_block {
                    self.check_block(e, in_kernel);
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                span,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(init) = init {
                    self.check_stmt(init, in_kernel);
                }
                if let Some(cond) = cond {
                    self.expect_bool(cond, *span);
                }
                if let Some(step) = step {
                    self.check_stmt(step, in_kernel);
                }
                self.check_block(body, in_kernel);
                self.scopes.pop();
            }
            Stmt::While { cond, body, span } => {
                self.expect_bool(cond, *span);
                self.check_block(body, in_kernel);
            }
            Stmt::DoWhile { body, cond, span } => {
                self.check_block(body, in_kernel);
                self.expect_bool(cond, *span);
            }
            Stmt::Return { value, span } => {
                if in_kernel {
                    if value.is_some() {
                        self.err("T002", "kernels cannot return values", *span);
                    }
                } else {
                    match (self.current_return, value) {
                        (Some(rt), Some(v)) => {
                            if let Some(vt) = self.check_expr(v) {
                                if !assignable(rt, vt) {
                                    self.err(
                                        "T003",
                                        format!("return type mismatch: expected `{rt}`, found `{vt}`"),
                                        *span,
                                    );
                                }
                            }
                        }
                        (Some(rt), None) => {
                            self.err("T003", format!("expected a `{rt}` return value"), *span);
                        }
                        (None, Some(_)) => {
                            self.err("T003", "void function returns a value", *span);
                        }
                        (None, None) => {}
                    }
                }
            }
            Stmt::Expr { expr, .. } => {
                self.check_expr(expr);
            }
            Stmt::Block(b) => self.check_block(b, in_kernel),
        }
    }

    /// Records the reduce op when the statement matches an accumulator
    /// update pattern (`r += a`, `r = min(r, x)`, ...).
    fn detect_reduce_update(&mut self, target: &Expr, op: AssignOp, value: &Expr, span: Span) {
        let Some(reduce_name) = self.reduce_param.clone() else {
            return;
        };
        let ExprKind::Var(tname) = &target.kind else {
            return;
        };
        if tname != &reduce_name {
            return;
        }
        let found = match op {
            AssignOp::AddAssign => Some(ReduceOp::Add),
            AssignOp::MulAssign => Some(ReduceOp::Mul),
            AssignOp::Assign => match &value.kind {
                ExprKind::Call { callee, args } if args.len() == 2 => {
                    let touches_acc = args
                        .iter()
                        .any(|a| matches!(&a.kind, ExprKind::Var(n) if n == &reduce_name));
                    match (callee.as_str(), touches_acc) {
                        ("min", true) => Some(ReduceOp::Min),
                        ("max", true) => Some(ReduceOp::Max),
                        _ => None,
                    }
                }
                // `r = r + a` / `r = a + r` / `r = r * a`.
                ExprKind::Binary { op: bop, lhs, rhs } => {
                    let touches_acc = [lhs, rhs]
                        .iter()
                        .any(|e| matches!(&e.kind, ExprKind::Var(n) if n == &reduce_name));
                    match (bop, touches_acc) {
                        (BinOp::Add, true) => Some(ReduceOp::Add),
                        (BinOp::Mul, true) => Some(ReduceOp::Mul),
                        _ => None,
                    }
                }
                _ => None,
            },
            _ => None,
        };
        match found {
            Some(op) => {
                if let Some(prev) = self.reduce_op {
                    if prev != op {
                        self.err(
                            "T022",
                            "reduce kernel mixes different accumulator operations",
                            span,
                        );
                    }
                }
                self.reduce_op = Some(op);
            }
            None => {
                self.err(
                    "T021",
                    "unsupported accumulator update in reduce kernel: only associative \
                     `+`, `*`, `min`, `max` forms are allowed",
                    span,
                );
            }
        }
    }

    fn expect_bool(&mut self, e: &Expr, span: Span) {
        if let Some(t) = self.check_expr(e) {
            if t != Type::BOOL {
                self.err("T004", format!("condition must be `bool`, found `{t}`"), span);
            }
        }
    }

    fn check_lvalue(&mut self, e: &Expr, span: Span) -> Option<Type> {
        if !e.is_lvalue() {
            self.err("T005", "expression is not assignable", span);
            return None;
        }
        // Writing to a pure-input parameter is rejected.
        if let ExprKind::Var(name) = &e.kind {
            if let Some((_, kind)) = self.current_params.get(name.as_str()) {
                if kind.is_input() && !kind.is_output() {
                    self.err("T006", format!("cannot write to input parameter `{name}`"), span);
                }
            }
        }
        self.check_expr(e)
    }

    fn check_expr(&mut self, e: &Expr) -> Option<Type> {
        let t = self.infer(e)?;
        self.types.insert(e.id, t);
        Some(t)
    }

    fn infer(&mut self, e: &Expr) -> Option<Type> {
        match &e.kind {
            ExprKind::FloatLit(_) => Some(Type::FLOAT),
            ExprKind::IntLit(_) => Some(Type::INT),
            ExprKind::BoolLit(_) => Some(Type::BOOL),
            ExprKind::Var(name) => {
                // Reading an out-stream is rejected (write-only, paper §4).
                if let Some((ty, kind)) = self.current_params.get(name.as_str()).copied() {
                    if kind == ParamKind::OutStream {
                        // Permit reads only through being an assign target;
                        // check_lvalue runs infer too, so allow and let the
                        // dedicated rule in cert flag read-before-write.
                    }
                    if let ParamKind::Gather { .. } = kind {
                        return Some(ty); // Element type; indexing checked at use.
                    }
                    return Some(ty);
                }
                match self.lookup(name) {
                    Some(t) => Some(t),
                    None => {
                        self.err("T007", format!("unknown identifier `{name}`"), e.span);
                        None
                    }
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let lt = self.check_expr(lhs)?;
                let rt = self.check_expr(rhs)?;
                if op.is_logical() {
                    if lt != Type::BOOL || rt != Type::BOOL {
                        self.err(
                            "T008",
                            format!("`{}` requires bool operands", op.as_str()),
                            e.span,
                        );
                        return None;
                    }
                    return Some(Type::BOOL);
                }
                if op.is_comparison() {
                    if unify(lt, rt).is_none() || lt.width != rt.width && lt.width != 1 && rt.width != 1 {
                        self.err("T009", format!("cannot compare `{lt}` with `{rt}`"), e.span);
                        return None;
                    }
                    if lt.width > 1 || rt.width > 1 {
                        self.err("T009", "comparisons require scalar operands", e.span);
                        return None;
                    }
                    return Some(Type::BOOL);
                }
                match unify(lt, rt) {
                    Some(t) => {
                        if *op == BinOp::Rem && t.scalar == ScalarKind::Float && t.width > 1 {
                            self.err("T010", "`%` requires scalar operands", e.span);
                            return None;
                        }
                        Some(t)
                    }
                    None => {
                        self.err(
                            "T009",
                            format!("mismatched operand types `{lt}` and `{rt}`"),
                            e.span,
                        );
                        None
                    }
                }
            }
            ExprKind::Unary { op, operand } => {
                let t = self.check_expr(operand)?;
                match op {
                    UnOp::Neg => {
                        if t == Type::BOOL {
                            self.err("T009", "cannot negate a bool", e.span);
                            return None;
                        }
                        Some(t)
                    }
                    UnOp::Not => {
                        if t != Type::BOOL {
                            self.err("T009", "`!` requires a bool operand", e.span);
                            return None;
                        }
                        Some(Type::BOOL)
                    }
                }
            }
            ExprKind::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                let ct = self.check_expr(cond)?;
                if ct != Type::BOOL {
                    self.err(
                        "T004",
                        format!("ternary condition must be `bool`, found `{ct}`"),
                        e.span,
                    );
                }
                let tt = self.check_expr(then_expr)?;
                let et = self.check_expr(else_expr)?;
                match unify(tt, et) {
                    Some(t) => Some(t),
                    None => {
                        self.err(
                            "T009",
                            format!("ternary arms have mismatched types `{tt}` and `{et}`"),
                            e.span,
                        );
                        None
                    }
                }
            }
            ExprKind::Call { callee, args } => self.infer_call(e, callee, args),
            ExprKind::Index { base, indices } => {
                let ExprKind::Var(name) = &base.kind else {
                    self.err("T011", "only gather parameters can be indexed", e.span);
                    return None;
                };
                let Some((ty, kind)) = self.current_params.get(name.as_str()).copied() else {
                    self.err("T011", format!("`{name}` is not a gather parameter"), e.span);
                    return None;
                };
                let ParamKind::Gather { rank } = kind else {
                    self.err("T011", format!("`{name}` is not a gather parameter"), e.span);
                    return None;
                };
                self.types.insert(base.id, ty);
                if indices.len() != rank as usize {
                    self.err(
                        "T011",
                        format!(
                            "gather `{name}` has rank {rank} but {} indices were given",
                            indices.len()
                        ),
                        e.span,
                    );
                }
                for ix in indices {
                    if let Some(it) = self.check_expr(ix) {
                        if !(it == Type::INT || it == Type::FLOAT) {
                            self.err(
                                "BA011",
                                format!("gather index must be scalar int or float, found `{it}`"),
                                ix.span,
                            );
                        }
                    }
                }
                Some(ty)
            }
            ExprKind::Swizzle { base, components } => {
                let bt = self.check_expr(base)?;
                if !bt.is_float() {
                    self.err("T023", format!("cannot swizzle `{bt}`"), e.span);
                    return None;
                }
                let max = components
                    .bytes()
                    .map(|c| match c {
                        b'x' => 1,
                        b'y' => 2,
                        b'z' => 3,
                        _ => 4,
                    })
                    .max()
                    .unwrap_or(1);
                if max > bt.width {
                    self.err(
                        "T023",
                        format!("swizzle `.{components}` out of range for `{bt}`"),
                        e.span,
                    );
                    return None;
                }
                Some(Type::float(components.len() as u8))
            }
            ExprKind::Indexof { stream } => {
                self.uses_indexof = true;
                match self.current_params.get(stream.as_str()) {
                    Some((_, ParamKind::Stream | ParamKind::OutStream | ParamKind::ReduceOut)) => {
                        Some(Type::FLOAT2)
                    }
                    Some(_) => {
                        self.err(
                            "T024",
                            format!("`indexof` requires a stream parameter, `{stream}` is not one"),
                            e.span,
                        );
                        None
                    }
                    None => {
                        self.err("T007", format!("unknown identifier `{stream}`"), e.span);
                        None
                    }
                }
            }
        }
    }

    fn infer_call(&mut self, e: &Expr, callee: &str, args: &[Expr]) -> Option<Type> {
        // Vector constructors and casts.
        if let Some(width) = match callee {
            "float" => Some(1u8),
            "float2" => Some(2),
            "float3" => Some(3),
            "float4" => Some(4),
            _ => None,
        } {
            let mut total = 0u8;
            for a in args {
                let at = self.check_expr(a)?;
                if !(at.is_float() || at == Type::INT) {
                    self.err(
                        "T025",
                        format!("constructor argument must be numeric, found `{at}`"),
                        a.span,
                    );
                    return None;
                }
                total += if at == Type::INT { 1 } else { at.width };
            }
            if args.len() == 1 && total == 1 {
                // Splat or scalar cast.
                return Some(Type::float(width));
            }
            if total != width {
                self.err(
                    "T025",
                    format!("`{callee}` constructor needs {width} components, found {total}"),
                    e.span,
                );
                return None;
            }
            return Some(Type::float(width));
        }
        if callee == "int" {
            if args.len() != 1 {
                self.err("T025", "`int` cast takes one argument", e.span);
                return None;
            }
            let at = self.check_expr(&args[0])?;
            if !(at == Type::FLOAT || at == Type::INT) {
                self.err("T025", format!("cannot cast `{at}` to int"), e.span);
                return None;
            }
            return Some(Type::INT);
        }
        // Builtins.
        if let Some(b) = builtin(callee) {
            if args.len() != builtin_arity(b) {
                self.err(
                    "T026",
                    format!(
                        "`{callee}` takes {} argument(s), found {}",
                        builtin_arity(b),
                        args.len()
                    ),
                    e.span,
                );
                return None;
            }
            let mut width = 1u8;
            let mut tys = Vec::new();
            for a in args {
                let at = self.check_expr(a)?;
                let at = if at == Type::INT { Type::FLOAT } else { at };
                if !at.is_float() {
                    self.err(
                        "T026",
                        format!("`{callee}` requires float arguments, found `{at}`"),
                        a.span,
                    );
                    return None;
                }
                width = width.max(at.width);
                tys.push(at);
            }
            // All non-scalar arguments must agree on the width.
            if tys.iter().any(|t| t.width != 1 && t.width != width) {
                self.err(
                    "T026",
                    format!("`{callee}` arguments have mismatched widths"),
                    e.span,
                );
                return None;
            }
            if matches!(b.sig(), BuiltinSig::DotLike) && tys.iter().any(|t| t.width != width) {
                self.err("T026", format!("`{callee}` requires equal-width vectors"), e.span);
                return None;
            }
            return Some(builtin_result_type(b, width));
        }
        // Helper functions.
        if let Some((params, ret)) = self.functions.get(callee).cloned() {
            if args.len() != params.len() {
                self.err(
                    "T027",
                    format!(
                        "`{callee}` takes {} argument(s), found {}",
                        params.len(),
                        args.len()
                    ),
                    e.span,
                );
                return None;
            }
            for (a, (pname, pty)) in args.iter().zip(&params) {
                if let Some(at) = self.check_expr(a) {
                    if !assignable(*pty, at) {
                        self.err(
                            "T027",
                            format!("argument `{pname}` of `{callee}` expects `{pty}`, found `{at}`"),
                            a.span,
                        );
                    }
                }
            }
            self.calls.push(callee.to_owned());
            return match ret {
                Some(t) => Some(t),
                None => {
                    self.err(
                        "T027",
                        format!("void function `{callee}` used as a value"),
                        e.span,
                    );
                    None
                }
            };
        }
        self.err(
            "BA008",
            format!(
                "call to unknown function `{callee}`: only builtins and helper functions \
                 defined in the translation unit are allowed (no external linkage, no allocation)"
            ),
            e.span,
        );
        None
    }
}

/// Implicit-conversion-aware type equality used for assignments.
fn assignable(dst: Type, src: Type) -> bool {
    if dst == src {
        return true;
    }
    // int literals / ints convert to float implicitly (C-style).
    if dst.is_float() && src == Type::INT {
        return dst.width == 1;
    }
    // scalar float broadcasts into a vector on assignment.
    if dst.is_float() && src == Type::FLOAT {
        return true;
    }
    false
}

/// Binary-operation result type with scalar broadcast and int->float
/// promotion; `None` when incompatible.
fn unify(a: Type, b: Type) -> Option<Type> {
    if a == b {
        return Some(a);
    }
    let promote = |t: Type| if t == Type::INT { Type::FLOAT } else { t };
    let (a, b) = (promote(a), promote(b));
    if a == b {
        return Some(a);
    }
    if a.is_float() && b.is_float() {
        if a.width == 1 {
            return Some(b);
        }
        if b.width == 1 {
            return Some(a);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_ok(src: &str) -> CheckedProgram {
        parse_and_check(src).unwrap_or_else(|e| panic!("check failed: {:?}", e.diagnostics))
    }

    fn check_err(src: &str) -> CompileError {
        parse_and_check(src).expect_err("expected type error")
    }

    #[test]
    fn simple_kernel_types() {
        let cp = check_ok("kernel void add(float a<>, float b<>, out float c<>) { c = a + b; }");
        assert_eq!(cp.kernels.len(), 1);
        assert_eq!(cp.kernels[0].outputs, vec!["c"]);
        assert_eq!(cp.kernels[0].stream_inputs, vec!["a", "b"]);
    }

    #[test]
    fn reduce_kernel_add_detected() {
        let cp = check_ok("reduce void sum(float a<>, reduce float r<>) { r += a; }");
        assert_eq!(cp.kernels[0].reduce_op, Some(ReduceOp::Add));
    }

    #[test]
    fn reduce_kernel_min_detected() {
        let cp = check_ok("reduce void m(float a<>, reduce float r<>) { r = min(r, a); }");
        assert_eq!(cp.kernels[0].reduce_op, Some(ReduceOp::Min));
    }

    #[test]
    fn reduce_kernel_explicit_add_form() {
        let cp = check_ok("reduce void s(float a<>, reduce float r<>) { r = r + a; }");
        assert_eq!(cp.kernels[0].reduce_op, Some(ReduceOp::Add));
    }

    #[test]
    fn reduce_without_update_rejected() {
        let e = check_err("reduce void bad(float a<>, reduce float r<>) { float x = a; }");
        assert!(e.has_code("T021"));
    }

    #[test]
    fn reduce_with_sub_rejected() {
        let e = check_err("reduce void bad(float a<>, reduce float r<>) { r -= a; }");
        assert!(e.has_code("T021"));
    }

    #[test]
    fn kernel_without_output_rejected() {
        let e = check_err("kernel void f(float a<>) { float x = a; }");
        assert!(e.has_code("T020"));
    }

    #[test]
    fn writing_input_rejected() {
        let e = check_err("kernel void f(float a<>, out float o<>) { a = 1.0; o = a; }");
        assert!(e.has_code("T006"));
    }

    #[test]
    fn unknown_identifier_rejected() {
        let e = check_err("kernel void f(float a<>, out float o<>) { o = zz; }");
        assert!(e.has_code("T007"));
    }

    #[test]
    fn unknown_function_is_ba008() {
        let e = check_err("kernel void f(float a<>, out float o<>) { o = malloc(a); }");
        assert!(e.has_code("BA008"));
    }

    #[test]
    fn condition_must_be_bool() {
        let e = check_err("kernel void f(float a<>, out float o<>) { if (a) { o = 1.0; } }");
        assert!(e.has_code("T004"));
    }

    #[test]
    fn vector_broadcast_allowed() {
        check_ok("kernel void f(float4 a<>, out float4 o<>) { o = a * 2.0; }");
        check_ok("kernel void f2(float4 a<>, out float4 o<>) { o = 2.0 * a; }");
    }

    #[test]
    fn mismatched_vectors_rejected() {
        let e = check_err("kernel void f(float2 a<>, float3 b<>, out float3 o<>) { o = a + b; }");
        assert!(e.has_code("T009"));
    }

    #[test]
    fn int_promotes_to_float() {
        check_ok("kernel void f(float a<>, out float o<>) { o = a + 1; }");
    }

    #[test]
    fn swizzle_types() {
        let cp = check_ok("kernel void f(float4 a<>, out float2 o<>) { o = a.xw; }");
        assert_eq!(cp.kernels.len(), 1);
    }

    #[test]
    fn swizzle_out_of_range_rejected() {
        let e = check_err("kernel void f(float2 a<>, out float o<>) { o = a.z; }");
        assert!(e.has_code("T023"));
    }

    #[test]
    fn gather_rank_checked() {
        let e = check_err("kernel void f(float g[][], float i<>, out float o<>) { o = g[1]; }");
        assert!(e.has_code("T011"));
    }

    #[test]
    fn gather_ok() {
        let cp = check_ok("kernel void f(float g[][], float i<>, out float o<>) { o = g[int(i)][0]; }");
        assert_eq!(cp.kernels[0].gathers, vec![("g".to_string(), 2)]);
    }

    #[test]
    fn indexof_types_as_float2() {
        let cp =
            check_ok("kernel void f(float a<>, out float o<>) { float2 p = indexof(o); o = p.x + p.y; }");
        assert!(cp.kernels[0].uses_indexof);
    }

    #[test]
    fn indexof_on_scalar_param_rejected() {
        let e = check_err("kernel void f(float a<>, float s, out float o<>) { o = indexof(s).x; }");
        assert!(e.has_code("T024"));
    }

    #[test]
    fn helper_function_call_checked() {
        let cp = check_ok(
            "float sq(float x) { return x * x; }
             kernel void f(float a<>, out float o<>) { o = sq(a); }",
        );
        assert_eq!(cp.kernels[0].called_functions, vec!["sq"]);
    }

    #[test]
    fn helper_wrong_arity_rejected() {
        let e = check_err(
            "float sq(float x) { return x * x; }
             kernel void f(float a<>, out float o<>) { o = sq(a, a); }",
        );
        assert!(e.has_code("T027"));
    }

    #[test]
    fn constructor_component_count_checked() {
        let e = check_err("kernel void f(float a<>, out float4 o<>) { o = float4(a, a); }");
        assert!(e.has_code("T025"));
    }

    #[test]
    fn constructor_splat_allowed() {
        check_ok("kernel void f(float a<>, out float4 o<>) { o = float4(a); }");
    }

    #[test]
    fn duplicate_kernel_rejected() {
        let e = check_err(
            "kernel void f(float a<>, out float o<>) { o = a; }
             kernel void f(float a<>, out float o<>) { o = a; }",
        );
        assert!(e.has_code("T012"));
    }

    #[test]
    fn shadowing_parameter_rejected() {
        let e = check_err("kernel void f(float a<>, out float o<>) { float a = 1.0; o = a; }");
        assert!(e.has_code("T013"));
    }

    #[test]
    fn reduce_op_identities() {
        assert_eq!(ReduceOp::Add.identity(), 0.0);
        assert_eq!(ReduceOp::Mul.identity(), 1.0);
        assert_eq!(ReduceOp::Min.apply(3.0, 1.0), 1.0);
        assert_eq!(ReduceOp::Max.apply(3.0, 1.0), 3.0);
    }
}
