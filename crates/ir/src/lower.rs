//! Lowering: checked Brook AST → BrookIR.
//!
//! The lowering is *semantics-preserving by construction* against the
//! AST tree walker (the differential oracle):
//!
//! * expression evaluation order is preserved instruction-for-node;
//! * Brook's dynamic implicit conversions (int→float promotion,
//!   scalar→vector broadcast at assignment sites) are kept dynamic —
//!   [`Inst::DeclInit`], [`Inst::AssignLocal`] and [`Inst::WriteOut`]
//!   call the exact helpers the walker calls;
//! * helper functions are inlined. Early `return`s are predicated: a
//!   per-call-site `done` flag guards the remaining statements, loop
//!   conditions gain `&& !done`, and a fall-through of a value-returning
//!   helper raises the walker's "did not return a value" fault;
//! * dynamic faults the walker raises (reading a gather without an
//!   index, assigning through a non-lvalue) lower to [`Inst::Fail`]
//!   with the same message, so the error surface is preserved too;
//! * every loop region records the same [`LoopBound`] the certification
//!   engine deduces, so the IR-level re-check in `brook-cert` stays a
//!   syntactic analysis.
//!
//! Lowering can fail only for programs that bypassed certification
//! (`enforce_certification = false`): recursive or over-deep helper
//! chains cannot be inlined. The runtime rejects such programs at
//! compile time, so every kernel a backend receives has IR.

use crate::{Inst, IrKernel, IrParam, IrProgram, LoopKind, LoopNode, Node, Reg};
use brook_lang::ast::*;
use brook_lang::builtins::BUILTINS;
use brook_lang::loopbound::{for_loop_bound, LoopBound};
use brook_lang::span::Span;
use brook_lang::CheckedProgram;
use glsl_es::Value;
use std::collections::HashMap;

/// Maximum helper-inlining depth; far above any certifiable call chain,
/// low enough to reject recursion quickly in unchecked mode.
const MAX_INLINE_DEPTH: usize = 32;

/// Why one kernel could not be lowered. Any such error rejects the
/// whole program at compile time: a certification error (BA004 for
/// recursion) when the report has one, an internal error otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerError {
    /// Kernel name.
    pub kernel: String,
    /// Reason.
    pub msg: String,
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot lower kernel `{}`: {}", self.kernel, self.msg)
    }
}

/// Lowers every kernel of a checked program. Kernels that cannot lower
/// (possible only past a disabled certification gate) are reported and
/// omitted from the returned program; callers reject it when any error
/// is reported.
pub fn lower_program(checked: &CheckedProgram) -> (IrProgram, Vec<LowerError>) {
    let mut kernels = Vec::new();
    let mut errors = Vec::new();
    for k in checked.program.kernels() {
        match lower_kernel(checked, k) {
            Ok(ir) => kernels.push(ir),
            Err(msg) => errors.push(LowerError {
                kernel: k.name.clone(),
                msg,
            }),
        }
    }
    (IrProgram { kernels }, errors)
}

/// Lowers one kernel.
///
/// # Errors
/// Returns a human-readable reason (recursion, malformed tree) — see
/// [`lower_program`].
pub fn lower_kernel(checked: &CheckedProgram, kdef: &KernelDef) -> Result<IrKernel, String> {
    let mut lw = Lowerer {
        checked,
        params: Vec::new(),
        param_index: HashMap::new(),
        out_slots: HashMap::new(),
        acc_name: None,
        acc_reg: None,
        regs: Vec::new(),
        insts: Vec::new(),
        spans: Vec::new(),
        scopes: vec![HashMap::new()],
        ctx: vec![Ctx {
            nodes: Vec::new(),
            seq_start: 0,
        }],
        inline: Vec::new(),
    };
    let mut outputs = Vec::new();
    for p in &kdef.params {
        let idx = lw.params.len() as u16;
        lw.params.push(IrParam {
            name: p.name.clone(),
            ty: p.ty,
            kind: p.kind,
        });
        lw.param_index.insert(p.name.clone(), idx);
        match p.kind {
            ParamKind::OutStream => {
                lw.out_slots.insert(p.name.clone(), outputs.len() as u16);
                outputs.push(idx);
            }
            ParamKind::ReduceOut => {
                let r = lw.new_reg(p.ty);
                lw.acc_reg = Some(r);
                lw.acc_name = Some(p.name.clone());
            }
            _ => {}
        }
    }
    lw.lower_stmts(&kdef.body.stmts)?;
    lw.flush_seq();
    let summary = checked.summary(&kdef.name);
    let body = lw.ctx.pop().expect("root ctx").nodes;
    Ok(IrKernel {
        name: kdef.name.clone(),
        is_reduce: kdef.is_reduce,
        reduce_op: summary.and_then(|s| s.reduce_op),
        params: lw.params,
        outputs,
        acc_reg: lw.acc_reg,
        regs: lw.regs,
        insts: lw.insts,
        spans: lw.spans,
        body,
        span: kdef.span,
        uses_indexof: summary.map(|s| s.uses_indexof).unwrap_or(false),
    })
}

/// One node-accumulation context (function body, branch, loop section).
struct Ctx {
    nodes: Vec<Node>,
    seq_start: u32,
}

/// One inlined helper call frame.
struct Frame {
    ret: Reg,
    done: Reg,
}

struct Lowerer<'a> {
    checked: &'a CheckedProgram,
    params: Vec<IrParam>,
    param_index: HashMap<String, u16>,
    out_slots: HashMap<String, u16>,
    acc_name: Option<String>,
    acc_reg: Option<Reg>,
    regs: Vec<Type>,
    insts: Vec<Inst>,
    spans: Vec<Span>,
    scopes: Vec<HashMap<String, Reg>>,
    ctx: Vec<Ctx>,
    inline: Vec<Frame>,
}

impl<'a> Lowerer<'a> {
    fn new_reg(&mut self, ty: Type) -> Reg {
        self.regs.push(ty);
        (self.regs.len() - 1) as Reg
    }

    fn emit(&mut self, inst: Inst, span: Span) -> u32 {
        self.insts.push(inst);
        self.spans.push(span);
        (self.insts.len() - 1) as u32
    }

    /// Emits a control-flow instruction outside any `Seq` node.
    fn emit_ctl(&mut self, inst: Inst, span: Span) -> u32 {
        self.flush_seq();
        let at = self.emit(inst, span);
        self.ctx.last_mut().expect("ctx").seq_start = self.insts.len() as u32;
        at
    }

    fn flush_seq(&mut self) {
        let end = self.insts.len() as u32;
        let ctx = self.ctx.last_mut().expect("ctx");
        if ctx.seq_start < end {
            ctx.nodes.push(Node::Seq {
                start: ctx.seq_start,
                end,
            });
        }
        ctx.seq_start = end;
    }

    fn begin_ctx(&mut self) {
        self.ctx.push(Ctx {
            nodes: Vec::new(),
            seq_start: self.insts.len() as u32,
        });
    }

    fn end_ctx(&mut self) -> Vec<Node> {
        self.flush_seq();
        let nodes = self.ctx.pop().expect("ctx").nodes;
        // The child consumed instructions the parent must not re-cover.
        if let Some(p) = self.ctx.last_mut() {
            p.seq_start = self.insts.len() as u32;
        }
        nodes
    }

    fn push_node(&mut self, n: Node) {
        self.flush_seq();
        let ctx = self.ctx.last_mut().expect("ctx");
        ctx.nodes.push(n);
        ctx.seq_start = self.insts.len() as u32;
    }

    fn lookup_local(&self, name: &str) -> Option<Reg> {
        for s in self.scopes.iter().rev() {
            if let Some(r) = s.get(name) {
                return Some(*r);
            }
        }
        None
    }

    fn ty_of(&self, e: &Expr) -> Type {
        self.checked.type_of(e)
    }

    fn zero_of(ty: Type) -> Value {
        Value::zero(crate::eval::brook_to_glsl_type(ty))
    }

    // -- statements ----------------------------------------------------------

    fn lower_stmts(&mut self, stmts: &[Stmt]) -> Result<(), String> {
        for (i, s) in stmts.iter().enumerate() {
            self.lower_stmt(s)?;
            // Predicate the rest of the block on "the inlined helper has
            // not returned yet" — exactly the tree walker's early-exit.
            if !self.inline.is_empty() && stmt_has_return(s) && i + 1 < stmts.len() {
                let done = self.inline.last().expect("frame").done;
                let nd = self.new_reg(Type::BOOL);
                self.emit(
                    Inst::Un {
                        dst: nd,
                        op: UnOp::Not,
                        src: done,
                    },
                    s.span(),
                );
                let rest = &stmts[i + 1..];
                self.emit_if(
                    nd,
                    s.span(),
                    |lw| lw.lower_stmts(rest),
                    None::<fn(&mut Self) -> Result<(), String>>,
                )?;
                return Ok(());
            }
        }
        Ok(())
    }

    fn lower_block(&mut self, b: &Block) -> Result<(), String> {
        self.scopes.push(HashMap::new());
        let r = self.lower_stmts(&b.stmts);
        self.scopes.pop();
        r
    }

    fn lower_stmt(&mut self, s: &Stmt) -> Result<(), String> {
        let span = s.span();
        match s {
            Stmt::Decl { name, ty, init, .. } => {
                let r = match init {
                    Some(e) => {
                        let v = self.lower_expr(e)?;
                        let r = self.new_reg(*ty);
                        self.emit(
                            Inst::DeclInit {
                                dst: r,
                                src: v,
                                ty: *ty,
                            },
                            span,
                        );
                        r
                    }
                    None => {
                        let r = self.new_reg(*ty);
                        self.emit(
                            Inst::Const {
                                dst: r,
                                v: Self::zero_of(*ty),
                            },
                            span,
                        );
                        r
                    }
                };
                self.scopes.last_mut().expect("scope").insert(name.clone(), r);
                Ok(())
            }
            Stmt::Assign {
                target, op, value, ..
            } => {
                let src = self.lower_expr(value)?;
                self.lower_assign_target(target, *op, src, span)
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
                ..
            } => {
                let c = self.lower_expr(cond)?;
                self.emit_if(
                    c,
                    span,
                    |lw| lw.lower_block(then_block),
                    else_block.as_ref().map(|e| {
                        let e = e.clone();
                        move |lw: &mut Self| lw.lower_block(&e)
                    }),
                )
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                span,
            } => {
                let bound = for_loop_bound(init.as_deref(), cond.as_ref(), step.as_deref(), body);
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.lower_stmt(i)?;
                }
                let cond = cond.clone();
                let step = step.clone();
                let body = body.clone();
                let needs_done_exit = self.loop_needs_done_exit(&body, step.as_deref());
                let r = self.emit_loop(
                    LoopKind::For,
                    bound,
                    *span,
                    |lw| match &cond {
                        Some(c) => {
                            let r = lw.lower_expr(c)?;
                            lw.combine_with_not_done(r, needs_done_exit, *span)
                        }
                        None => {
                            let r = lw.new_reg(Type::BOOL);
                            lw.emit(
                                Inst::Const {
                                    dst: r,
                                    v: Value::Bool(true),
                                },
                                *span,
                            );
                            lw.combine_with_not_done(r, needs_done_exit, *span)
                        }
                    },
                    |lw| {
                        lw.lower_block(&body)?;
                        if let Some(st) = &step {
                            lw.lower_stmt(st)?;
                        }
                        Ok(())
                    },
                );
                self.scopes.pop();
                r
            }
            Stmt::While { cond, body, span } => {
                let cond = cond.clone();
                let body = body.clone();
                let needs_done_exit = self.loop_needs_done_exit(&body, None);
                self.emit_loop(
                    LoopKind::While,
                    LoopBound::Unbounded {
                        reason: "while loop".into(),
                    },
                    *span,
                    |lw| {
                        let r = lw.lower_expr(&cond)?;
                        lw.combine_with_not_done(r, needs_done_exit, *span)
                    },
                    |lw| lw.lower_block(&body),
                )
            }
            Stmt::DoWhile { body, cond, span } => {
                let cond = cond.clone();
                let body = body.clone();
                let needs_done_exit = self.loop_needs_done_exit(&body, None);
                self.emit_do_while(
                    LoopBound::Unbounded {
                        reason: "do/while loop".into(),
                    },
                    *span,
                    |lw| lw.lower_block(&body),
                    |lw| {
                        let r = lw.lower_expr(&cond)?;
                        lw.combine_with_not_done(r, needs_done_exit, *span)
                    },
                )
            }
            Stmt::Return { value, .. } => {
                if let Some(frame_idx) = self.inline.len().checked_sub(1) {
                    if let Some(v) = value {
                        let vr = self.lower_expr(v)?;
                        let ret = self.inline[frame_idx].ret;
                        self.emit(Inst::Mov { dst: ret, src: vr }, span);
                    }
                    let done = self.inline[frame_idx].done;
                    self.emit(
                        Inst::Const {
                            dst: done,
                            v: Value::Bool(true),
                        },
                        span,
                    );
                    Ok(())
                } else {
                    // Kernel-level bare `return;` finishes the element.
                    if value.is_some() {
                        return Err("kernel-level return with a value".into());
                    }
                    self.emit(Inst::Ret, span);
                    Ok(())
                }
            }
            Stmt::Expr { expr, .. } => {
                self.lower_expr(expr)?;
                Ok(())
            }
            Stmt::Block(b) => self.lower_block(b),
        }
    }

    /// Whether a loop lowered inside an inline frame must also exit when
    /// the helper has returned.
    fn loop_needs_done_exit(&self, body: &Block, step: Option<&Stmt>) -> bool {
        !self.inline.is_empty() && (block_has_return(body) || step.map(stmt_has_return).unwrap_or(false))
    }

    /// Combines a loop condition with `!done` so predicated returns exit
    /// the loop promptly.
    fn combine_with_not_done(&mut self, cond: Reg, needed: bool, span: Span) -> Result<Reg, String> {
        if !needed {
            return Ok(cond);
        }
        let done = self.inline.last().expect("frame").done;
        let nd = self.new_reg(Type::BOOL);
        self.emit(
            Inst::Un {
                dst: nd,
                op: UnOp::Not,
                src: done,
            },
            span,
        );
        let c2 = self.new_reg(Type::BOOL);
        self.emit(
            Inst::Bin {
                dst: c2,
                op: BinOp::And,
                lhs: cond,
                rhs: nd,
            },
            span,
        );
        Ok(c2)
    }

    fn lower_assign_target(
        &mut self,
        target: &Expr,
        op: AssignOp,
        src: Reg,
        span: Span,
    ) -> Result<(), String> {
        match &target.kind {
            ExprKind::Var(name) => {
                if let Some(slot) = self.out_slots.get(name.as_str()).copied() {
                    self.emit(Inst::WriteOut { out: slot, op, src }, span);
                    return Ok(());
                }
                if let Some(r) = self.lookup_local(name) {
                    self.emit(Inst::AssignLocal { dst: r, op, src }, span);
                    return Ok(());
                }
                if self.acc_name.as_deref() == Some(name.as_str()) {
                    let r = self.acc_reg.expect("acc register");
                    self.emit(Inst::AssignLocal { dst: r, op, src }, span);
                    return Ok(());
                }
                // The tree walker reports this as an unknown variable at
                // run time (e.g. writing an input parameter slipped past
                // a disabled front-end).
                self.emit(
                    Inst::Fail {
                        msg: format!("unknown variable `{name}`"),
                        codegen_fatal: true,
                    },
                    span,
                );
                Ok(())
            }
            ExprKind::Swizzle { base, components } => {
                let ExprKind::Var(name) = &base.kind else {
                    self.emit(
                        Inst::Fail {
                            msg: "swizzled assignment target must be a variable".into(),
                            codegen_fatal: true,
                        },
                        span,
                    );
                    return Ok(());
                };
                let dst = self
                    .lookup_local(name)
                    .or(if self.acc_name.as_deref() == Some(name.as_str()) {
                        self.acc_reg
                    } else {
                        None
                    });
                match dst {
                    Some(r) => {
                        self.emit(
                            Inst::SwizzleStore {
                                dst: r,
                                op,
                                src,
                                sel: components.clone(),
                            },
                            span,
                        );
                        Ok(())
                    }
                    None => {
                        self.emit(
                            Inst::Fail {
                                msg: format!("unknown variable `{name}`"),
                                codegen_fatal: true,
                            },
                            span,
                        );
                        Ok(())
                    }
                }
            }
            _ => {
                self.emit(
                    Inst::Fail {
                        msg: "assignment target is not an lvalue".into(),
                        codegen_fatal: true,
                    },
                    span,
                );
                Ok(())
            }
        }
    }

    // -- control-flow scaffolding -------------------------------------------

    fn emit_if<FT, FE>(&mut self, cond: Reg, span: Span, f_then: FT, f_else: Option<FE>) -> Result<(), String>
    where
        FT: FnOnce(&mut Self) -> Result<(), String>,
        FE: FnOnce(&mut Self) -> Result<(), String>,
    {
        let branch_at = self.emit_ctl(
            Inst::BranchIfFalse {
                cond,
                target: u32::MAX,
            },
            span,
        );
        self.begin_ctx();
        f_then(self)?;
        let then = self.end_ctx();
        let (jump_at, els) = match f_else {
            Some(f) => {
                let jump_at = self.emit_ctl(Inst::Jump { target: u32::MAX }, span);
                self.patch(branch_at, self.insts.len() as u32);
                self.begin_ctx();
                f(self)?;
                let els = self.end_ctx();
                self.patch(jump_at, self.insts.len() as u32);
                (Some(jump_at), els)
            }
            None => {
                self.patch(branch_at, self.insts.len() as u32);
                (None, Vec::new())
            }
        };
        self.push_node(Node::If {
            cond,
            branch_at,
            then,
            jump_at,
            els,
        });
        Ok(())
    }

    fn emit_loop<FH, FB>(
        &mut self,
        kind: LoopKind,
        bound: LoopBound,
        span: Span,
        f_header: FH,
        f_body: FB,
    ) -> Result<(), String>
    where
        FH: FnOnce(&mut Self) -> Result<Reg, String>,
        FB: FnOnce(&mut Self) -> Result<(), String>,
    {
        self.flush_seq();
        let header_start = self.insts.len() as u32;
        self.begin_ctx();
        let cond = f_header(self)?;
        let header = self.end_ctx();
        let exit_at = self.emit_ctl(
            Inst::BranchIfFalse {
                cond,
                target: u32::MAX,
            },
            span,
        );
        self.begin_ctx();
        f_body(self)?;
        let body = self.end_ctx();
        let back_at = self.emit_ctl(Inst::Jump { target: header_start }, span);
        self.patch(exit_at, self.insts.len() as u32);
        self.push_node(Node::Loop(Box::new(LoopNode {
            kind,
            bound,
            span,
            header,
            cond,
            exit_at,
            body,
            back_at,
        })));
        Ok(())
    }

    fn emit_do_while<FB, FH>(
        &mut self,
        bound: LoopBound,
        span: Span,
        f_body: FB,
        f_header: FH,
    ) -> Result<(), String>
    where
        FB: FnOnce(&mut Self) -> Result<(), String>,
        FH: FnOnce(&mut Self) -> Result<Reg, String>,
    {
        self.flush_seq();
        let body_start = self.insts.len() as u32;
        self.begin_ctx();
        f_body(self)?;
        let body = self.end_ctx();
        self.begin_ctx();
        let cond = f_header(self)?;
        let header = self.end_ctx();
        let exit_at = self.emit_ctl(
            Inst::BranchIfFalse {
                cond,
                target: u32::MAX,
            },
            span,
        );
        let back_at = self.emit_ctl(Inst::Jump { target: body_start }, span);
        self.patch(exit_at, self.insts.len() as u32);
        self.push_node(Node::Loop(Box::new(LoopNode {
            kind: LoopKind::DoWhile,
            bound,
            span,
            header,
            cond,
            exit_at,
            body,
            back_at,
        })));
        Ok(())
    }

    fn patch(&mut self, at: u32, target: u32) {
        match &mut self.insts[at as usize] {
            Inst::Jump { target: t } | Inst::BranchIfFalse { target: t, .. } => *t = target,
            other => unreachable!("patching a non-branch instruction {other:?}"),
        }
    }

    // -- expressions ---------------------------------------------------------

    fn lower_expr(&mut self, e: &Expr) -> Result<Reg, String> {
        let span = e.span;
        match &e.kind {
            ExprKind::FloatLit(v) => {
                let r = self.new_reg(Type::FLOAT);
                self.emit(
                    Inst::Const {
                        dst: r,
                        v: Value::Float(*v),
                    },
                    span,
                );
                Ok(r)
            }
            ExprKind::IntLit(v) => {
                let r = self.new_reg(Type::INT);
                self.emit(
                    Inst::Const {
                        dst: r,
                        v: Value::Int(*v as i32),
                    },
                    span,
                );
                Ok(r)
            }
            ExprKind::BoolLit(v) => {
                let r = self.new_reg(Type::BOOL);
                self.emit(
                    Inst::Const {
                        dst: r,
                        v: Value::Bool(*v),
                    },
                    span,
                );
                Ok(r)
            }
            ExprKind::Var(name) => {
                if let Some(r) = self.lookup_local(name) {
                    return Ok(r);
                }
                if self.acc_name.as_deref() == Some(name.as_str()) {
                    return Ok(self.acc_reg.expect("acc register"));
                }
                let Some(&pi) = self.param_index.get(name.as_str()) else {
                    return Err(format!("unknown identifier `{name}`"));
                };
                let p = &self.params[pi as usize];
                let ty = p.ty;
                match p.kind {
                    ParamKind::Stream => {
                        let r = self.new_reg(ty);
                        self.emit(Inst::ReadElem { dst: r, param: pi }, span);
                        Ok(r)
                    }
                    ParamKind::Scalar => {
                        let r = self.new_reg(ty);
                        self.emit(Inst::ReadScalar { dst: r, param: pi }, span);
                        Ok(r)
                    }
                    ParamKind::OutStream => {
                        let slot = self.out_slots[name.as_str()];
                        let r = self.new_reg(ty);
                        self.emit(Inst::ReadOut { dst: r, out: slot }, span);
                        Ok(r)
                    }
                    ParamKind::ReduceOut => Ok(self.acc_reg.expect("acc register")),
                    ParamKind::Gather { .. } => {
                        // Same dynamic fault as the tree walker.
                        self.emit(
                            Inst::Fail {
                                msg: format!("gather `{name}` used without an index"),
                                codegen_fatal: true,
                            },
                            span,
                        );
                        Ok(self.new_reg(ty))
                    }
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let l = self.lower_expr(lhs)?;
                let r = self.lower_expr(rhs)?;
                let dst = self.new_reg(self.ty_of(e));
                self.emit(
                    Inst::Bin {
                        dst,
                        op: *op,
                        lhs: l,
                        rhs: r,
                    },
                    span,
                );
                Ok(dst)
            }
            ExprKind::Unary { op, operand } => {
                let s = self.lower_expr(operand)?;
                let dst = self.new_reg(self.ty_of(e));
                self.emit(Inst::Un { dst, op: *op, src: s }, span);
                Ok(dst)
            }
            ExprKind::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                let c = self.lower_expr(cond)?;
                if expr_calls_helper(then_expr, &self.checked.program)
                    || expr_calls_helper(else_expr, &self.checked.program)
                    || self.expr_would_fault(then_expr)
                    || self.expr_would_fault(else_expr)
                {
                    // Helper calls inline to control flow, and an arm
                    // that lowers to a `Fail` (e.g. a bare gather read)
                    // must only fault when *taken* — in both cases the
                    // arms must stay conditional: lower to if/else with
                    // a result register (the walker evaluates one arm).
                    let dst = self.new_reg(self.ty_of(e));
                    let te = (**then_expr).clone();
                    let ee = (**else_expr).clone();
                    self.emit_if(
                        c,
                        span,
                        |lw| {
                            let a = lw.lower_expr(&te)?;
                            lw.emit(Inst::Mov { dst, src: a }, te.span);
                            Ok(())
                        },
                        Some(move |lw: &mut Self| {
                            let b = lw.lower_expr(&ee)?;
                            lw.emit(Inst::Mov { dst, src: b }, ee.span);
                            Ok(())
                        }),
                    )?;
                    Ok(dst)
                } else {
                    // Pure arms: evaluating both and selecting is
                    // value-identical to evaluating one (no traps in the
                    // value domain), and keeps the stream flat.
                    let a = self.lower_expr(then_expr)?;
                    let b = self.lower_expr(else_expr)?;
                    let dst = self.new_reg(self.ty_of(e));
                    self.emit(Inst::Select { dst, cond: c, a, b }, span);
                    Ok(dst)
                }
            }
            ExprKind::Call { callee, args } => self.lower_call(e, callee, args),
            ExprKind::Index { base, indices } => {
                let ExprKind::Var(name) = &base.kind else {
                    return Err("indexed expression is not a gather".into());
                };
                let Some(&pi) = self.param_index.get(name.as_str()) else {
                    return Err(format!("`{name}` is not a gather parameter"));
                };
                let mut idx = Vec::with_capacity(indices.len());
                for ix in indices {
                    idx.push(self.lower_expr(ix)?);
                }
                let dst = self.new_reg(self.ty_of(e));
                self.emit(
                    Inst::Gather {
                        dst,
                        param: pi,
                        idx,
                        proven: None,
                    },
                    span,
                );
                Ok(dst)
            }
            ExprKind::Swizzle { base, components } => {
                let b = self.lower_expr(base)?;
                let dst = self.new_reg(self.ty_of(e));
                self.emit(
                    Inst::Swizzle {
                        dst,
                        src: b,
                        sel: components.clone(),
                    },
                    span,
                );
                Ok(dst)
            }
            ExprKind::Indexof { stream } => {
                let Some(&pi) = self.param_index.get(stream.as_str()) else {
                    return Err(format!("indexof on unknown stream `{stream}`"));
                };
                let dst = self.new_reg(Type::FLOAT2);
                self.emit(Inst::Indexof { dst, param: pi }, span);
                Ok(dst)
            }
        }
    }

    /// True when lowering the expression would emit a `Fail`
    /// instruction (a dynamic fault the tree walker raises only when
    /// the expression is actually evaluated): a bare gather parameter
    /// read outside an index position.
    fn expr_would_fault(&self, e: &Expr) -> bool {
        let is_bare_gather = |e: &Expr| {
            if let ExprKind::Var(name) = &e.kind {
                if let Some(&pi) = self.param_index.get(name.as_str()) {
                    if self.lookup_local(name).is_none() {
                        return matches!(self.params[pi as usize].kind, ParamKind::Gather { .. });
                    }
                }
            }
            false
        };
        match &e.kind {
            ExprKind::Var(_) => is_bare_gather(e),
            ExprKind::Binary { lhs, rhs, .. } => self.expr_would_fault(lhs) || self.expr_would_fault(rhs),
            ExprKind::Unary { operand, .. } => self.expr_would_fault(operand),
            ExprKind::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                self.expr_would_fault(cond)
                    || self.expr_would_fault(then_expr)
                    || self.expr_would_fault(else_expr)
            }
            ExprKind::Call { args, .. } => args.iter().any(|a| self.expr_would_fault(a)),
            // An indexed gather is the *legitimate* use; only the
            // indices can fault.
            ExprKind::Index { indices, .. } => indices.iter().any(|i| self.expr_would_fault(i)),
            ExprKind::Swizzle { base, .. } => self.expr_would_fault(base),
            _ => false,
        }
    }

    fn lower_call(&mut self, e: &Expr, callee: &str, args: &[Expr]) -> Result<Reg, String> {
        let span = e.span;
        // Vector constructors / casts.
        if let Some(width) = match callee {
            "float" => Some(1u8),
            "float2" => Some(2),
            "float3" => Some(3),
            "float4" => Some(4),
            _ => None,
        } {
            let mut regs = Vec::with_capacity(args.len());
            for a in args {
                regs.push(self.lower_expr(a)?);
            }
            let dst = self.new_reg(Type::float(width));
            self.emit(
                Inst::Construct {
                    dst,
                    width,
                    args: regs,
                },
                span,
            );
            return Ok(dst);
        }
        if callee == "int" {
            let s = self.lower_expr(&args[0])?;
            let dst = self.new_reg(Type::INT);
            self.emit(Inst::CastInt { dst, src: s }, span);
            return Ok(dst);
        }
        if let Some(which) = BUILTINS.iter().position(|b| b.name == callee) {
            let mut regs = Vec::with_capacity(args.len());
            for a in args {
                regs.push(self.lower_expr(a)?);
            }
            let dst = self.new_reg(self.ty_of(e));
            self.emit(
                Inst::Builtin {
                    dst,
                    which: which as u16,
                    args: regs,
                },
                span,
            );
            return Ok(dst);
        }
        // Helper function: inline with return predication.
        let Some(f) = self.checked.program.function(callee) else {
            return Err(format!("unknown function `{callee}`"));
        };
        if self.inline.len() >= MAX_INLINE_DEPTH {
            return Err(format!(
                "helper `{callee}` exceeds the inlining depth ({MAX_INLINE_DEPTH}) — recursive helpers \
                 cannot be lowered"
            ));
        }
        let f = f.clone();
        // Evaluate arguments in the caller's scope, coerced to the
        // parameter types exactly as the walker does.
        let mut frame_scope = HashMap::new();
        for (a, (pname, pty)) in args.iter().zip(&f.params) {
            let ar = self.lower_expr(a)?;
            let pr = self.new_reg(*pty);
            self.emit(
                Inst::DeclInit {
                    dst: pr,
                    src: ar,
                    ty: *pty,
                },
                a.span,
            );
            frame_scope.insert(pname.clone(), pr);
        }
        let ret_ty = f.return_ty.unwrap_or(Type::FLOAT);
        let ret = self.new_reg(ret_ty);
        self.emit(
            Inst::Const {
                dst: ret,
                v: Self::zero_of(ret_ty),
            },
            span,
        );
        let done = self.new_reg(Type::BOOL);
        self.emit(
            Inst::Const {
                dst: done,
                v: Value::Bool(false),
            },
            span,
        );
        let saved_scopes = std::mem::replace(&mut self.scopes, vec![frame_scope]);
        self.inline.push(Frame { ret, done });
        let body_result = self.lower_stmts(&f.body.stmts);
        self.inline.pop();
        self.scopes = saved_scopes;
        body_result?;
        if f.return_ty.is_some() && !always_returns(&f.body) {
            // The walker faults when a value-returning helper falls off
            // its end; replicate, guarded on the done flag.
            let name = f.name.clone();
            self.emit_if(
                done,
                span,
                |_| Ok(()),
                Some(move |lw: &mut Self| {
                    lw.emit(
                        Inst::Fail {
                            msg: format!("function `{name}` did not return a value"),
                            codegen_fatal: false,
                        },
                        span,
                    );
                    Ok(())
                }),
            )?;
        }
        Ok(ret)
    }
}

/// True when the statement syntactically contains a `return` (not
/// looking into called functions — their returns are their own frame's).
fn stmt_has_return(s: &Stmt) -> bool {
    match s {
        Stmt::Return { .. } => true,
        Stmt::If {
            then_block,
            else_block,
            ..
        } => block_has_return(then_block) || else_block.as_ref().map(block_has_return).unwrap_or(false),
        Stmt::For { init, step, body, .. } => {
            init.as_deref().map(stmt_has_return).unwrap_or(false)
                || step.as_deref().map(stmt_has_return).unwrap_or(false)
                || block_has_return(body)
        }
        Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => block_has_return(body),
        Stmt::Block(b) => block_has_return(b),
        Stmt::Decl { .. } | Stmt::Assign { .. } | Stmt::Expr { .. } => false,
    }
}

fn block_has_return(b: &Block) -> bool {
    b.stmts.iter().any(stmt_has_return)
}

/// True when every path through the block executes a `return`
/// (conservative: last-statement analysis, as in classic C checkers).
fn always_returns(b: &Block) -> bool {
    match b.stmts.last() {
        Some(Stmt::Return { .. }) => true,
        Some(Stmt::If {
            then_block,
            else_block: Some(e),
            ..
        }) => always_returns(then_block) && always_returns(e),
        Some(Stmt::Block(inner)) => always_returns(inner),
        _ => false,
    }
}

/// True when the expression calls a helper function defined in the
/// program (builtins and constructors excluded).
fn expr_calls_helper(e: &Expr, program: &Program) -> bool {
    match &e.kind {
        ExprKind::Call { callee, args } => {
            program.function(callee).is_some() || args.iter().any(|a| expr_calls_helper(a, program))
        }
        ExprKind::Binary { lhs, rhs, .. } => {
            expr_calls_helper(lhs, program) || expr_calls_helper(rhs, program)
        }
        ExprKind::Unary { operand, .. } => expr_calls_helper(operand, program),
        ExprKind::Ternary {
            cond,
            then_expr,
            else_expr,
        } => {
            expr_calls_helper(cond, program)
                || expr_calls_helper(then_expr, program)
                || expr_calls_helper(else_expr, program)
        }
        ExprKind::Index { base, indices } => {
            expr_calls_helper(base, program) || indices.iter().any(|i| expr_calls_helper(i, program))
        }
        ExprKind::Swizzle { base, .. } => expr_calls_helper(base, program),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brook_lang::parse_and_check;

    fn lower_src(src: &str) -> IrKernel {
        let checked = parse_and_check(src).expect("front-end");
        let kdef = checked.program.kernels().next().expect("kernel");
        lower_kernel(&checked, kdef).expect("lower")
    }

    #[test]
    fn straight_line_kernel_lowers_flat() {
        let k = lower_src("kernel void add(float a<>, float b<>, out float c<>) { c = a + b; }");
        assert_eq!(k.params.len(), 3);
        assert_eq!(k.outputs, vec![2]);
        assert!(matches!(k.body.as_slice(), [Node::Seq { .. }]));
        assert!(k
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Bin { op: BinOp::Add, .. })));
        assert!(k.insts.iter().any(|i| matches!(i, Inst::WriteOut { .. })));
    }

    #[test]
    fn for_loop_records_static_bound() {
        let k = lower_src(
            "kernel void f(float a<>, out float o<>) {
                float s = 0.0;
                int i;
                for (i = 0; i < 16; i++) { s += a; }
                o = s;
            }",
        );
        let Some(Node::Loop(l)) = k.body.iter().find(|n| matches!(n, Node::Loop(_))) else {
            panic!("no loop node: {:?}", k.body);
        };
        assert_eq!(l.bound.trips(), Some(16));
        assert_eq!(l.kind, LoopKind::For);
        assert!(matches!(k.insts[l.back_at as usize], Inst::Jump { .. }));
    }

    #[test]
    fn while_loop_is_unbounded() {
        let k = lower_src(
            "kernel void f(float a<>, out float o<>) { float s = a; while (s < 1.0) { s += 1.0; } o = s; }",
        );
        let Some(Node::Loop(l)) = k.body.iter().find(|n| matches!(n, Node::Loop(_))) else {
            panic!("no loop node");
        };
        assert_eq!(l.bound.trips(), None);
        assert_eq!(l.kind, LoopKind::While);
    }

    #[test]
    fn helper_is_inlined() {
        let k = lower_src(
            "float sq(float x) { return x * x; }
             kernel void f(float a<>, out float o<>) { o = sq(a) + 1.0; }",
        );
        // No call instruction exists in the IR at all; the multiply from
        // the helper body appears inline.
        assert!(k
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Bin { op: BinOp::Mul, .. })));
    }

    #[test]
    fn recursive_helper_fails_to_lower() {
        let checked = parse_and_check(
            "float f(float x) { return f(x); }
             kernel void k(float a<>, out float o<>) { o = f(a); }",
        )
        .expect("front-end");
        let kdef = checked.program.kernels().next().expect("kernel");
        let err = lower_kernel(&checked, kdef).expect_err("must not lower");
        assert!(err.contains("inlining depth"), "{err}");
    }

    #[test]
    fn spans_point_at_source() {
        let src = "kernel void f(float a<>, out float o<>) {\n    o = a * 2.0;\n}";
        let k = lower_src(src);
        let write = k
            .insts
            .iter()
            .position(|i| matches!(i, Inst::WriteOut { .. }))
            .expect("write");
        assert_eq!(k.spans[write].line, 2, "WriteOut must carry the source line");
    }

    #[test]
    fn untaken_faulting_ternary_arm_stays_conditional() {
        // `g` without an index is a dynamic fault in the tree walker —
        // but only when that arm is *taken*. The lowering must keep the
        // arms conditional (if/else), not hoist the Fail into
        // straight-line code ahead of a Select.
        let checked =
            parse_and_check("kernel void f(float g[], float a<>, out float o<>) { o = a > 0.0 ? a : g; }")
                .expect("front-end");
        let kdef = checked.program.kernels().next().expect("kernel");
        let k = lower_kernel(&checked, kdef).expect("lower");
        assert!(
            !matches!(k.body.as_slice(), [Node::Seq { .. }]),
            "faulting arm must lower to control flow, not a flat Select: {:?}",
            k.body
        );
        // Executing with every condition true never reaches the fault.
        let shape = [2usize];
        let gather = [5.0f32];
        let input = [1.0f32, 2.0];
        let gshape = [1usize];
        let bindings = vec![
            crate::interp::Binding::Gather {
                data: &gather,
                shape: &gshape,
                width: 1,
            },
            crate::interp::Binding::Elem {
                data: &input,
                shape: &shape,
                width: 1,
            },
            crate::interp::Binding::Out(0),
        ];
        let mut buf = vec![0.0f32; 2];
        {
            let mut outs: Vec<&mut [f32]> = vec![&mut buf];
            crate::interp::run_kernel_range(&k, &bindings, &mut outs, &shape, 0..2)
                .expect("untaken arm must not fault");
        }
        assert_eq!(buf, vec![1.0, 2.0]);
    }

    #[test]
    fn early_return_helper_is_predicated() {
        let k = lower_src(
            "float pick(float x) { if (x > 0.0) { return 1.0; } return 0.0; }
             kernel void f(float a<>, out float o<>) { o = pick(a); }",
        );
        // The predication introduces an If node guarding the trailing
        // `return 0.0` on the not-done flag.
        fn count_ifs(nodes: &[Node]) -> usize {
            nodes
                .iter()
                .map(|n| match n {
                    Node::If { then, els, .. } => 1 + count_ifs(then) + count_ifs(els),
                    Node::Loop(l) => count_ifs(&l.header) + count_ifs(&l.body),
                    Node::Seq { .. } => 0,
                })
                .sum()
        }
        assert!(count_ifs(&k.body) >= 2, "{:?}", k.body);
    }
}
