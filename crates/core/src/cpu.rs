//! The CPU backend: a direct interpreter for Brook Auto kernels.
//!
//! Brook has always shipped a CPU backend (the paper lists it among the
//! four original backends); it serves as the reference semantics every
//! GPU backend must match, and the evaluation validates every GPU result
//! against it (§6: "the correctness of the GPU implementation is
//! retained by validating it with the CPU output").
//!
//! Out-of-range gather indices clamp to the nearest valid element,
//! mirroring the texture-unit semantics of the OpenGL ES 2.0 backend so
//! both backends compute identical results even for sloppy kernels.

use crate::backend::{ir_kernel, BackendExecutor, BoundArg, KernelLaunch};
use crate::error::{BrookError, Result};
use crate::stream::StreamDesc;
use brook_ir::eval::{
    apply_assign, brook_bin_op, brook_to_glsl_type, coerce_to, gather_clamped, lane_index, swizzle,
    value_from_slice,
};
use brook_ir::interp as ir_interp;
use brook_ir::lanes::LaneSlabs;
use brook_lang::ast::*;
use brook_lang::{CheckedProgram, ReduceOp};
use glsl_es::Value;
use std::collections::HashMap;

/// Iteration budget per element, defending against runaway loops that
/// slipped past certification (e.g. `compile_unchecked`).
const MAX_ITERATIONS: u64 = 1 << 22;

/// A parameter binding for a CPU kernel run.
pub enum CpuBinding<'a> {
    /// Elementwise input stream.
    Elem {
        /// Backing values (`width` floats per element).
        data: &'a [f32],
        /// Logical shape.
        shape: &'a [usize],
        /// Element width.
        width: u8,
    },
    /// Random-access gather.
    Gather {
        /// Backing values.
        data: &'a [f32],
        /// Logical shape.
        shape: &'a [usize],
        /// Element width.
        width: u8,
    },
    /// Scalar argument.
    Scalar(Value),
    /// Output stream (index into the output buffer list).
    Out(usize),
}

struct Interp<'a> {
    checked: &'a CheckedProgram,
    bindings: &'a HashMap<String, CpuBinding<'a>>,
    /// Output buffers over the full domain.
    outputs: &'a mut [Vec<f32>],
    out_shapes: Vec<(String, Vec<usize>, u8)>,
    /// Current output element index: (x = innermost/linear, y = row).
    pos: (usize, usize),
    /// Output domain extents (innermost, rows).
    domain: (usize, usize),
    /// Whether the domain is linear (rank != 2).
    linear: bool,
    scopes: Vec<HashMap<String, Value>>,
    iterations: u64,
}

enum Flow {
    Normal,
    Return(Option<Value>),
}

/// Runs a (non-reduce) kernel on the CPU over the full output domain.
///
/// `bindings` maps every kernel parameter name to its binding; `outputs`
/// holds one preallocated buffer per `Out` binding index.
///
/// # Errors
/// Reports usage errors (missing bindings, shape mismatches) and
/// evaluation faults (type confusion in unchecked programs).
pub fn run_kernel(
    checked: &CheckedProgram,
    kernel: &str,
    bindings: &HashMap<String, CpuBinding<'_>>,
    outputs: &mut [Vec<f32>],
) -> Result<()> {
    let kdef = checked
        .program
        .kernel(kernel)
        .ok_or_else(|| BrookError::Usage(format!("unknown kernel `{kernel}`")))?;
    for p in &kdef.params {
        if !bindings.contains_key(&p.name) {
            return Err(BrookError::Usage(format!(
                "missing binding for parameter `{}`",
                p.name
            )));
        }
    }
    // Outputs share the domain of the inputs; kernels without any
    // elementwise input must state the domain via `run_kernel_shaped`.
    let mut out_shapes = Vec::new();
    let domain_shape = bindings
        .iter()
        .find_map(|(_, b)| match b {
            CpuBinding::Elem { shape, .. } => Some(shape.to_vec()),
            _ => None,
        })
        .ok_or_else(|| {
            BrookError::Usage(
                "CPU kernels need at least one elementwise input to infer the domain; use run_kernel_shaped"
                    .into(),
            )
        })?;
    for p in &kdef.params {
        if let Some(CpuBinding::Out(idx)) = bindings.get(&p.name) {
            out_shapes.push((p.name.clone(), domain_shape.clone(), p.ty.width));
            let want: usize = domain_shape.iter().product::<usize>() * p.ty.width as usize;
            if outputs[*idx].len() != want {
                return Err(BrookError::Usage(format!(
                    "output buffer for `{}` has {} values, expected {want}",
                    p.name,
                    outputs[*idx].len()
                )));
            }
        }
    }
    run_domain(checked, kdef, bindings, outputs, out_shapes, &domain_shape)
}

/// Like [`run_kernel`] but with an explicit output domain shape (needed
/// when the kernel has no elementwise inputs, e.g. Mandelbrot, which
/// only uses `indexof`).
///
/// # Errors
/// Same as [`run_kernel`].
pub fn run_kernel_shaped(
    checked: &CheckedProgram,
    kernel: &str,
    bindings: &HashMap<String, CpuBinding<'_>>,
    outputs: &mut [Vec<f32>],
    domain_shape: &[usize],
) -> Result<()> {
    let kdef = checked
        .program
        .kernel(kernel)
        .ok_or_else(|| BrookError::Usage(format!("unknown kernel `{kernel}`")))?;
    let mut out_shapes = Vec::new();
    for p in &kdef.params {
        if let Some(CpuBinding::Out(_)) = bindings.get(&p.name) {
            out_shapes.push((p.name.clone(), domain_shape.to_vec(), p.ty.width));
        }
    }
    run_domain(checked, kdef, bindings, outputs, out_shapes, domain_shape)
}

fn run_domain(
    checked: &CheckedProgram,
    kdef: &KernelDef,
    bindings: &HashMap<String, CpuBinding<'_>>,
    outputs: &mut [Vec<f32>],
    out_shapes: Vec<(String, Vec<usize>, u8)>,
    domain_shape: &[usize],
) -> Result<()> {
    let (dx, dy, linear) = domain_extents(domain_shape);
    let mut interp = Interp {
        checked,
        bindings,
        outputs,
        out_shapes,
        pos: (0, 0),
        domain: (dx, dy),
        linear,
        scopes: Vec::new(),
        iterations: 0,
    };
    for p in 0..dx * dy {
        interp.pos = (p % dx, p / dx);
        interp.scopes.clear();
        interp.scopes.push(HashMap::new());
        interp.iterations = 0;
        interp.exec_block(&kdef.body)?;
    }
    Ok(())
}

/// Serial CPU reduction: folds the kernel body over every input element.
///
/// # Errors
/// Usage errors for non-reduce kernels or missing bindings.
pub fn run_reduce(checked: &CheckedProgram, kernel: &str, data: &[f32]) -> Result<f32> {
    let kdef = checked
        .program
        .kernel(kernel)
        .ok_or_else(|| BrookError::Usage(format!("unknown kernel `{kernel}`")))?;
    if !kdef.is_reduce {
        return Err(BrookError::Usage(format!(
            "kernel `{kernel}` is not a reduce kernel"
        )));
    }
    let summary = checked
        .summary(kernel)
        .ok_or_else(|| BrookError::Usage("missing kernel summary".into()))?;
    let op = summary
        .reduce_op
        .ok_or_else(|| BrookError::Usage("reduce kernel without a detected operation".into()))?;
    let input_name = kdef
        .params
        .iter()
        .find(|p| p.kind == ParamKind::Stream)
        .map(|p| p.name.clone())
        .ok_or_else(|| BrookError::Usage("reduce kernel without an input stream".into()))?;
    let acc_name = kdef
        .params
        .iter()
        .find(|p| p.kind == ParamKind::ReduceOut)
        .map(|p| p.name.clone())
        .ok_or_else(|| BrookError::Usage("reduce kernel without an accumulator".into()))?;
    let mut acc = op.identity();
    let shape = [data.len()];
    for (i, v) in data.iter().enumerate() {
        // Execute the actual kernel body so user-written reduction bodies
        // (not just the canonical ops) behave as written.
        let mut bindings: HashMap<String, CpuBinding<'_>> = HashMap::new();
        let elem = [*v];
        bindings.insert(
            input_name.clone(),
            CpuBinding::Elem {
                data: &elem,
                shape: &[1],
                width: 1,
            },
        );
        bindings.insert(acc_name.clone(), CpuBinding::Scalar(Value::Float(acc)));
        let mut interp = Interp {
            checked,
            bindings: &bindings,
            outputs: &mut [],
            out_shapes: vec![],
            pos: (i % shape[0], 0),
            domain: (1, 1),
            linear: true,
            scopes: vec![HashMap::new()],
            iterations: 0,
        };
        // Seed the accumulator as a mutable local so assignments to it
        // work, then read it back.
        interp.scopes[0].insert(acc_name.clone(), Value::Float(acc));
        interp.exec_block(&kdef.body)?;
        let result = interp.scopes[0]
            .get(&acc_name)
            .and_then(|v| v.as_float())
            .ok_or_else(|| BrookError::Usage("reduce accumulator lost its value".into()))?;
        acc = result;
    }
    Ok(acc)
}

pub(crate) fn domain_extents(shape: &[usize]) -> (usize, usize, bool) {
    if shape.len() == 2 {
        (shape[1], shape[0], false)
    } else {
        (shape.iter().product(), 1, true)
    }
}

impl Interp<'_> {
    fn err(&self, msg: impl Into<String>) -> BrookError {
        BrookError::Usage(msg.into())
    }

    /// Scalar offset of the current position inside the output buffer
    /// of an output of shape `shape`.
    fn out_offset(&self, shape: &[usize], width: u8) -> usize {
        let (x, y) = self.pos;
        let elem = if shape.len() == 2 {
            y * shape[1] + x
        } else {
            y * self.domain.0 + x
        };
        elem * width as usize
    }

    fn lookup(&self, name: &str) -> Option<Value> {
        for s in self.scopes.iter().rev() {
            if let Some(v) = s.get(name) {
                return Some(*v);
            }
        }
        None
    }

    fn set_var(&mut self, name: &str, v: Value) -> bool {
        for s in self.scopes.iter_mut().rev() {
            if let Some(slot) = s.get_mut(name) {
                *slot = v;
                return true;
            }
        }
        false
    }

    /// Proportional element index of input stream `shape` for the current
    /// output position — identical arithmetic to the generated GLSL.
    fn elem_value(&self, data: &[f32], shape: &[usize], width: u8) -> Value {
        let (ix, iy) = self.input_index(shape);
        let cols = if shape.len() == 2 {
            shape[1]
        } else {
            shape.iter().product()
        };
        let idx = (iy * cols + ix) * width as usize;
        value_from_slice(&data[idx..idx + width as usize])
    }

    fn input_index(&self, shape: &[usize]) -> (usize, usize) {
        let (dx, dy) = self.domain;
        let (x, y) = self.pos;
        if shape.len() == 2 {
            let (rows, cols) = (shape[0], shape[1]);
            let ix = ((x as f32 + 0.5) / dx as f32 * cols as f32).floor() as usize;
            let iy = ((y as f32 + 0.5) / dy as f32 * rows as f32).floor() as usize;
            (ix.min(cols - 1), iy.min(rows - 1))
        } else {
            let len: usize = shape.iter().product();
            let l = y * dx + x;
            (l.min(len - 1), 0)
        }
    }

    fn exec_block(&mut self, b: &Block) -> Result<Flow> {
        self.scopes.push(HashMap::new());
        let mut flow = Flow::Normal;
        for s in &b.stmts {
            match self.exec_stmt(s)? {
                Flow::Normal => {}
                ret => {
                    flow = ret;
                    break;
                }
            }
        }
        self.scopes.pop();
        Ok(flow)
    }

    fn exec_stmt(&mut self, s: &Stmt) -> Result<Flow> {
        match s {
            Stmt::Decl { name, ty, init, .. } => {
                let v = match init {
                    Some(e) => coerce_to(self.eval(e)?, *ty),
                    None => Value::zero(brook_to_glsl_type(*ty)),
                };
                let scope = self
                    .scopes
                    .last_mut()
                    .ok_or_else(|| BrookError::Internal("declaration executed outside any scope".into()))?;
                scope.insert(name.clone(), v);
                Ok(Flow::Normal)
            }
            Stmt::Assign {
                target, op, value, ..
            } => {
                let rhs = self.eval(value)?;
                self.assign(target, *op, rhs)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
                ..
            } => {
                let c = self
                    .eval(cond)?
                    .as_bool()
                    .ok_or_else(|| self.err("if condition is not a bool"))?;
                if c {
                    self.exec_block(then_block)
                } else if let Some(e) = else_block {
                    self.exec_block(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.exec_stmt(i)?;
                }
                loop {
                    if let Some(c) = cond {
                        let cv = self
                            .eval(c)?
                            .as_bool()
                            .ok_or_else(|| self.err("for condition is not a bool"))?;
                        if !cv {
                            break;
                        }
                    }
                    self.iterations += 1;
                    if self.iterations > MAX_ITERATIONS {
                        self.scopes.pop();
                        return Err(self.err("iteration budget exceeded (unbounded loop)"));
                    }
                    match self.exec_block(body)? {
                        Flow::Normal => {}
                        ret => {
                            self.scopes.pop();
                            return Ok(ret);
                        }
                    }
                    if let Some(st) = step {
                        self.exec_stmt(st)?;
                    }
                }
                self.scopes.pop();
                Ok(Flow::Normal)
            }
            Stmt::While { cond, body, .. } => loop {
                let c = self
                    .eval(cond)?
                    .as_bool()
                    .ok_or_else(|| self.err("while condition is not a bool"))?;
                if !c {
                    return Ok(Flow::Normal);
                }
                self.iterations += 1;
                if self.iterations > MAX_ITERATIONS {
                    return Err(self.err("iteration budget exceeded (unbounded loop)"));
                }
                match self.exec_block(body)? {
                    Flow::Normal => {}
                    ret => return Ok(ret),
                }
            },
            Stmt::DoWhile { body, cond, .. } => loop {
                self.iterations += 1;
                if self.iterations > MAX_ITERATIONS {
                    return Err(self.err("iteration budget exceeded (unbounded loop)"));
                }
                match self.exec_block(body)? {
                    Flow::Normal => {}
                    ret => return Ok(ret),
                }
                let c = self
                    .eval(cond)?
                    .as_bool()
                    .ok_or_else(|| self.err("do/while condition is not a bool"))?;
                if !c {
                    return Ok(Flow::Normal);
                }
            },
            Stmt::Return { value, .. } => {
                let v = match value {
                    Some(e) => Some(self.eval(e)?),
                    None => None,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Expr { expr, .. } => {
                self.eval(expr)?;
                Ok(Flow::Normal)
            }
            Stmt::Block(b) => self.exec_block(b),
        }
    }

    fn assign(&mut self, target: &Expr, op: AssignOp, rhs: Value) -> Result<()> {
        match &target.kind {
            ExprKind::Var(name) => {
                // Output stream parameter?
                if let Some(CpuBinding::Out(idx)) = self.bindings.get(name.as_str()) {
                    let (shape, width) = self
                        .out_shapes
                        .iter()
                        .find(|(n, _, _)| n == name)
                        .map(|(_, s, w)| (s.clone(), *w))
                        .ok_or_else(|| self.err("unknown output shape"))?;
                    let base = self.out_offset(&shape, width);
                    let idx = *idx;
                    let current = value_from_slice(&self.outputs[idx][base..base + width as usize]);
                    let combined = apply_assign(current, op, rhs).map_err(|m| self.err(m))?;
                    let lanes = combined.to_vec4();
                    for (i, slot) in self.outputs[idx][base..base + width as usize]
                        .iter_mut()
                        .enumerate()
                    {
                        *slot = lanes[i];
                    }
                    return Ok(());
                }
                let current = self
                    .lookup(name)
                    .ok_or_else(|| self.err(format!("unknown variable `{name}`")))?;
                let combined = apply_assign(current, op, rhs).map_err(|m| self.err(m))?;
                if !self.set_var(name, combined) {
                    return Err(self.err(format!("cannot assign `{name}`")));
                }
                Ok(())
            }
            ExprKind::Swizzle { base, components } => {
                let ExprKind::Var(name) = &base.kind else {
                    return Err(self.err("swizzled assignment target must be a variable"));
                };
                let current = self
                    .lookup(name)
                    .ok_or_else(|| self.err(format!("unknown variable `{name}`")))?;
                let mut lanes: Vec<f32> = current.lanes().to_vec();
                if lanes.is_empty() {
                    return Err(self.err("cannot swizzle a non-float value"));
                }
                let view = swizzle(&current, components).map_err(|m| self.err(m))?;
                let combined = apply_assign(view, op, rhs).map_err(|m| self.err(m))?;
                let src = combined.lanes();
                for (i, c) in components.bytes().enumerate() {
                    let li = lane_index(c);
                    if li >= lanes.len() || i >= src.len() {
                        return Err(self.err("swizzle assignment out of range"));
                    }
                    lanes[li] = src[i];
                }
                let v = value_from_slice(&lanes);
                if !self.set_var(name, v) {
                    return Err(self.err(format!("cannot assign `{name}`")));
                }
                Ok(())
            }
            _ => Err(self.err("assignment target is not an lvalue")),
        }
    }

    fn eval(&mut self, e: &Expr) -> Result<Value> {
        Ok(match &e.kind {
            ExprKind::FloatLit(v) => Value::Float(*v),
            ExprKind::IntLit(v) => Value::Int(*v as i32),
            ExprKind::BoolLit(v) => Value::Bool(*v),
            ExprKind::Var(name) => {
                if let Some(v) = self.lookup(name) {
                    return Ok(v);
                }
                match self.bindings.get(name.as_str()) {
                    Some(CpuBinding::Elem { data, shape, width }) => self.elem_value(data, shape, *width),
                    Some(CpuBinding::Scalar(v)) => *v,
                    Some(CpuBinding::Out(idx)) => {
                        // Reading an output returns its current value.
                        let (shape, width) = self
                            .out_shapes
                            .iter()
                            .find(|(n, _, _)| n == name)
                            .map(|(_, s, w)| (s.clone(), *w))
                            .ok_or_else(|| self.err("unknown output shape"))?;
                        let base = self.out_offset(&shape, width);
                        value_from_slice(&self.outputs[*idx][base..base + width as usize])
                    }
                    Some(CpuBinding::Gather { .. }) => {
                        return Err(self.err(format!("gather `{name}` used without an index")))
                    }
                    None => return Err(self.err(format!("unknown identifier `{name}`"))),
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                brook_bin_op(*op, l, r).map_err(|m| self.err(m))?
            }
            ExprKind::Unary { op, operand } => {
                let v = self.eval(operand)?;
                match op {
                    UnOp::Neg => match v {
                        Value::Int(i) => Value::Int(i.wrapping_neg()),
                        other => other
                            .map(|f| -f)
                            .ok_or_else(|| self.err("cannot negate a bool"))?,
                    },
                    UnOp::Not => Value::Bool(!v.as_bool().ok_or_else(|| self.err("`!` needs a bool"))?),
                }
            }
            ExprKind::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                let c = self
                    .eval(cond)?
                    .as_bool()
                    .ok_or_else(|| self.err("ternary condition is not a bool"))?;
                if c {
                    self.eval(then_expr)?
                } else {
                    self.eval(else_expr)?
                }
            }
            ExprKind::Call { callee, args } => self.eval_call(callee, args)?,
            ExprKind::Index { base, indices } => {
                let ExprKind::Var(name) = &base.kind else {
                    return Err(self.err("indexed expression is not a gather"));
                };
                let Some(CpuBinding::Gather { data, shape, width }) = self.bindings.get(name.as_str()) else {
                    return Err(self.err(format!("`{name}` is not a gather parameter")));
                };
                let mut idx = Vec::with_capacity(indices.len());
                for ix in indices {
                    let v = self.eval(ix)?;
                    let i = match v {
                        Value::Int(i) => i as i64,
                        // Matches the GPU path: (i + 0.5) texel centering
                        // rounds half-up.
                        Value::Float(f) => (f + 0.5).floor() as i64,
                        _ => return Err(self.err("gather index must be scalar")),
                    };
                    idx.push(i);
                }
                gather_clamped(data, shape, *width, &idx)
            }
            ExprKind::Swizzle { base, components } => {
                let v = self.eval(base)?;
                swizzle(&v, components).map_err(|m| self.err(m))?
            }
            ExprKind::Indexof { stream } => {
                // Index in the stream's own space.
                match self.bindings.get(stream.as_str()) {
                    Some(CpuBinding::Elem { shape, .. }) => {
                        let (ix, iy) = self.input_index(shape);
                        if shape.len() == 2 {
                            Value::Vec2([ix as f32, iy as f32])
                        } else {
                            Value::Vec2([(iy * self.domain.0 + ix) as f32, 0.0])
                        }
                    }
                    Some(CpuBinding::Out(_)) | Some(CpuBinding::Scalar(_)) => {
                        let (x, y) = self.pos;
                        if self.linear {
                            Value::Vec2([(y * self.domain.0 + x) as f32, 0.0])
                        } else {
                            Value::Vec2([x as f32, y as f32])
                        }
                    }
                    _ => return Err(self.err(format!("indexof on non-stream `{stream}`"))),
                }
            }
        })
    }

    fn eval_call(&mut self, callee: &str, args: &[Expr]) -> Result<Value> {
        // Constructors / casts.
        if let Some(width) = match callee {
            "float" => Some(1usize),
            "float2" => Some(2),
            "float3" => Some(3),
            "float4" => Some(4),
            _ => None,
        } {
            let mut lanes = Vec::new();
            for a in args {
                let v = self.eval(a)?;
                match v {
                    Value::Int(i) => lanes.push(i as f32),
                    other => lanes.extend_from_slice(other.lanes()),
                }
            }
            if lanes.len() == 1 && width > 1 {
                return Ok(value_from_slice(&vec![lanes[0]; width]));
            }
            if lanes.len() < width {
                return Err(self.err(format!("`{callee}` constructor needs {width} components")));
            }
            lanes.truncate(width);
            return Ok(value_from_slice(&lanes));
        }
        if callee == "int" {
            let v = self.eval(&args[0])?;
            return Ok(Value::Int(match v {
                Value::Float(f) => f as i32,
                Value::Int(i) => i,
                _ => return Err(self.err("int() needs a scalar")),
            }));
        }
        if let Some(b) = brook_lang::builtins::builtin(callee) {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(self.eval(a)?);
            }
            return b.eval(&vals).map_err(|m| self.err(m));
        }
        // Helper function.
        let Some(f) = self.checked.program.function(callee) else {
            return Err(self.err(format!("unknown function `{callee}`")));
        };
        if self.scopes.len() > 128 {
            return Err(self.err("call depth exceeded"));
        }
        let mut frame = HashMap::new();
        for (a, (pname, pty)) in args.iter().zip(&f.params) {
            let v = coerce_to(self.eval(a)?, *pty);
            frame.insert(pname.clone(), v);
        }
        let f = f.clone();
        let saved = std::mem::take(&mut self.scopes);
        self.scopes = vec![frame];
        let flow = self.exec_block(&f.body)?;
        self.scopes = saved;
        match flow {
            Flow::Return(Some(v)) => Ok(v),
            Flow::Return(None) | Flow::Normal => {
                if f.return_ty.is_none() {
                    Ok(Value::Float(0.0))
                } else {
                    Err(self.err(format!("function `{callee}` did not return a value")))
                }
            }
        }
    }
}

// The scalar semantics (binary ops, builtins, swizzles, gather
// clamping, implicit conversions) moved to `brook_ir::eval` so the flat
// IR interpreter and this tree walker execute the same functions —
// bit-exactness between the oracle and the IR path is a property of
// construction. The imports above keep the walker's call sites
// unchanged.

// ---------------------------------------------------------------------------
// Host-side stream storage and the serial CPU backend.
// ---------------------------------------------------------------------------

/// Validates a host stream shape and allocates its zero-filled buffer.
pub(crate) fn host_create_stream(
    streams: &mut Vec<(StreamDesc, Vec<f32>)>,
    desc: StreamDesc,
) -> Result<usize> {
    if desc.shape.is_empty() || desc.shape.len() > 4 || desc.shape.contains(&0) {
        return Err(BrookError::Usage(
            "streams have 1 to 4 positive dimensions".into(),
        ));
    }
    let len = desc.scalar_len();
    streams.push((desc, vec![0.0; len]));
    Ok(streams.len() - 1)
}

/// Size-checked host stream write.
pub(crate) fn host_write_stream(
    streams: &mut [(StreamDesc, Vec<f32>)],
    index: usize,
    values: &[f32],
) -> Result<()> {
    let (desc, buf) = &mut streams[index];
    if values.len() != desc.scalar_len() {
        return Err(BrookError::Usage(format!(
            "stream expects {} values, got {}",
            desc.scalar_len(),
            values.len()
        )));
    }
    buf.copy_from_slice(values);
    Ok(())
}

/// Builds the [`CpuBinding`] map for a launch over host streams, hands
/// the taken-out output buffers to `runner`, and restores them afterwards
/// (whether or not the run succeeded).
///
/// `runner` receives `(program, kernel, bindings, output buffers, domain
/// shape)`; the output domain is the first output stream's shape, as on
/// the GPU path.
pub(crate) fn dispatch_on_host<F>(
    streams: &mut [(StreamDesc, Vec<f32>)],
    launch: &KernelLaunch<'_>,
    runner: F,
) -> Result<()>
where
    F: FnOnce(
        &CheckedProgram,
        &str,
        &HashMap<String, CpuBinding<'_>>,
        &mut [Vec<f32>],
        &[usize],
    ) -> Result<()>,
{
    // Move output buffers out so the binding map can borrow the
    // remaining streams immutably.
    let mut out_bufs: Vec<Vec<f32>> = Vec::with_capacity(launch.outputs.len());
    let mut out_index_of: HashMap<&str, usize> = HashMap::new();
    for (name, idx) in &launch.outputs {
        out_index_of.insert(name.as_str(), out_bufs.len());
        out_bufs.push(std::mem::take(&mut streams[*idx].1));
    }
    let domain_shape = streams
        .get(launch.outputs[0].1)
        .map(|(desc, _)| desc.shape.clone())
        .ok_or_else(|| BrookError::Internal("launch output index out of range of the stream table".into()))?;
    let result = {
        let mut bindings: HashMap<String, CpuBinding<'_>> = HashMap::new();
        for (name, arg) in &launch.args {
            let binding = match arg {
                BoundArg::Elem(i) => {
                    let (desc, data) = &streams[*i];
                    CpuBinding::Elem {
                        data,
                        shape: &desc.shape,
                        width: desc.width,
                    }
                }
                BoundArg::Gather(i) => {
                    let (desc, data) = &streams[*i];
                    CpuBinding::Gather {
                        data,
                        shape: &desc.shape,
                        width: desc.width,
                    }
                }
                BoundArg::Scalar(v) => CpuBinding::Scalar(*v),
                BoundArg::Out(_) => CpuBinding::Out(out_index_of[name.as_str()]),
            };
            bindings.insert(name.clone(), binding);
        }
        runner(
            launch.checked,
            launch.kernel,
            &bindings,
            &mut out_bufs,
            &domain_shape,
        )
    };
    for ((_, idx), buf) in launch.outputs.iter().zip(out_bufs) {
        streams[*idx].1 = buf;
    }
    result
}

/// Serial CPU reduction over a host stream.
pub(crate) fn reduce_on_host(
    streams: &[(StreamDesc, Vec<f32>)],
    checked: &CheckedProgram,
    kernel: &str,
    input: usize,
) -> Result<f32> {
    run_reduce(checked, kernel, &streams[input].1)
}

// ---------------------------------------------------------------------------
// The flat-IR execution path (the default since BrookIR).
// ---------------------------------------------------------------------------

/// Converts an IR interpreter fault into the runtime's error type,
/// keeping the source provenance the IR threads through.
pub(crate) fn exec_err(e: ir_interp::ExecError) -> BrookError {
    BrookError::Usage(e.render())
}

/// Builds the *positional* binding vector for an IR kernel launch.
/// `launch.args` pairs every parameter in declaration order, which is
/// exactly the IR's parameter order, so the translation is index-wise.
/// `launch.outputs` lists the `Out` bindings in that same order, so the
/// k-th `Out` binding writes output buffer k.
pub(crate) fn ir_bindings<'a>(
    streams: &'a [(StreamDesc, Vec<f32>)],
    launch_args: &[(String, BoundArg)],
) -> Vec<ir_interp::Binding<'a>> {
    let mut next_out = 0;
    launch_args
        .iter()
        .map(|(_, arg)| match arg {
            BoundArg::Elem(i) => {
                let (desc, data) = &streams[*i];
                ir_interp::Binding::Elem {
                    data,
                    shape: &desc.shape,
                    width: desc.width,
                }
            }
            BoundArg::Gather(i) => {
                let (desc, data) = &streams[*i];
                ir_interp::Binding::Gather {
                    data,
                    shape: &desc.shape,
                    width: desc.width,
                }
            }
            BoundArg::Scalar(v) => ir_interp::Binding::Scalar(*v),
            BoundArg::Out(_) => {
                next_out += 1;
                ir_interp::Binding::Out(next_out - 1)
            }
        })
        .collect()
}

/// Dispatches a launch through the flat IR interpreter. `run_range`
/// receives `(kernel, bindings, output buffers, domain shape)` and
/// partitions the domain however it likes (serially here; the parallel
/// backend fans chunks out to workers).
pub(crate) fn dispatch_ir_on_host<F>(
    streams: &mut [(StreamDesc, Vec<f32>)],
    launch: &KernelLaunch<'_>,
    kernel: &brook_ir::IrKernel,
    runner: F,
) -> Result<()>
where
    F: FnOnce(&brook_ir::IrKernel, &[ir_interp::Binding<'_>], &mut [Vec<f32>], &[usize]) -> Result<()>,
{
    // Move output buffers out so the binding vector can borrow the
    // remaining streams immutably.
    let mut out_bufs: Vec<Vec<f32>> = launch
        .outputs
        .iter()
        .map(|(_, idx)| std::mem::take(&mut streams[*idx].1))
        .collect();
    let domain_idx = launch.outputs[0].1;
    let result = match streams.get(domain_idx) {
        Some((desc, _)) => {
            let bindings = ir_bindings(streams, &launch.args);
            runner(kernel, &bindings, &mut out_bufs, &desc.shape)
        }
        None => Err(BrookError::Internal(
            "launch output index out of range of the stream table".into(),
        )),
    };
    for ((_, idx), buf) in launch.outputs.iter().zip(out_bufs) {
        streams[*idx].1 = buf;
    }
    result
}

/// Serial full-domain IR run (the default `runner` for
/// [`dispatch_ir_on_host`]): [`ir_run_range`] over the whole domain.
pub(crate) fn ir_run_full(
    slabs: &mut LaneSlabs,
    kernel: &brook_ir::IrKernel,
    lane: Option<&brook_ir::lanes::LaneKernel>,
    tier: Option<&brook_ir::tier::TierKernel>,
    bindings: &[ir_interp::Binding<'_>],
    outputs: &mut [Vec<f32>],
    domain_shape: &[usize],
) -> Result<()> {
    let (dx, dy, _) = ir_interp::domain_extents(domain_shape);
    let mut slices: Vec<&mut [f32]> = outputs.iter_mut().map(|v| v.as_mut_slice()).collect();
    ir_run_range(
        slabs,
        kernel,
        lane,
        tier,
        bindings,
        &mut slices,
        domain_shape,
        0..dx * dy,
    )
}

/// One IR run over `range` of the domain, into `outputs` sliced from
/// `range.start`: the Tier-2 closure chain when the compiler admitted
/// the kernel, the lane engine in element blocks when only the lane
/// planner did, the scalar interpreter otherwise — bit-identical every
/// way, by the engines' fallback guarantees.
#[allow(clippy::too_many_arguments)]
pub(crate) fn ir_run_range(
    slabs: &mut LaneSlabs,
    kernel: &brook_ir::IrKernel,
    lane: Option<&brook_ir::lanes::LaneKernel>,
    tier: Option<&brook_ir::tier::TierKernel>,
    bindings: &[ir_interp::Binding<'_>],
    outputs: &mut [&mut [f32]],
    domain_shape: &[usize],
    range: std::ops::Range<usize>,
) -> Result<()> {
    match (tier, lane) {
        (Some(tk), Some(lk)) => {
            brook_ir::tier::run_kernel_range_in(slabs, tk, lk, kernel, bindings, outputs, domain_shape, range)
        }
        (None, Some(lk)) => {
            brook_ir::lanes::run_kernel_range_in(slabs, lk, kernel, bindings, outputs, domain_shape, range)
        }
        _ => ir_interp::run_kernel_range(kernel, bindings, outputs, domain_shape, range),
    }
    .map_err(exec_err)
}

/// The serial CPU backend — the reference semantics every other backend
/// is validated against (paper §6).
///
/// Since BrookIR, the default execution engine is the flat IR
/// interpreter (`brook_ir::interp`): a preallocated register frame, no
/// tree walk. The AST tree walker in this module is retained as the
/// *differential oracle* — [`CpuBackend::ast_walker`] builds the only
/// backend that executes it, and the fuzz campaigns assert
/// bit-exactness between the two on every generated kernel.
#[derive(Default)]
pub struct CpuBackend {
    streams: Vec<(StreamDesc, Vec<f32>)>,
    use_ast_walker: bool,
    /// The slab frame every serial lane/Tier-2 launch reuses.
    slabs: LaneSlabs,
}

impl CpuBackend {
    /// A backend with no streams, executing the flat IR.
    pub fn new() -> Self {
        CpuBackend::default()
    }

    /// A backend executing the legacy AST tree walker — the
    /// differential oracle the IR interpreter is validated against.
    pub fn ast_walker() -> Self {
        CpuBackend {
            use_ast_walker: true,
            ..CpuBackend::default()
        }
    }
}

impl BackendExecutor for CpuBackend {
    fn name(&self) -> &'static str {
        if self.use_ast_walker {
            "cpu-ast"
        } else {
            "cpu"
        }
    }

    fn create_stream(&mut self, desc: StreamDesc) -> Result<usize> {
        host_create_stream(&mut self.streams, desc)
    }

    fn stream_desc(&self, index: usize) -> &StreamDesc {
        &self.streams[index].0
    }

    fn write_stream(&mut self, index: usize, values: &[f32]) -> Result<()> {
        host_write_stream(&mut self.streams, index, values)
    }

    fn read_stream(&mut self, index: usize) -> Result<Vec<f32>> {
        Ok(self.streams[index].1.clone())
    }

    fn dispatch(&mut self, launch: &KernelLaunch<'_>) -> Result<()> {
        // The walker itself can only execute kernels present in the
        // checked AST; synthetic kernels (the fusion planner's) exist
        // only in IR form, so even the oracle backend runs those
        // through the scalar IR interpreter.
        if self.use_ast_walker && launch.checked.program.kernel(launch.kernel).is_some() {
            return dispatch_on_host(&mut self.streams, launch, run_kernel_shaped);
        }
        let kernel = ir_kernel(launch.ir, launch.kernel)?;
        let (lane, tier) = if self.use_ast_walker {
            (None, None)
        } else {
            (
                launch.lanes.kernel(launch.kernel),
                launch.tiers.kernel(launch.kernel),
            )
        };
        let slabs = &mut self.slabs;
        dispatch_ir_on_host(&mut self.streams, launch, kernel, |k, b, outs, domain| {
            ir_run_full(slabs, k, lane, tier, b, outs, domain)
        })
    }

    fn reduce(
        &mut self,
        checked: &CheckedProgram,
        ir: &brook_ir::IrProgram,
        kernel: &str,
        _op: ReduceOp,
        simd: Option<&brook_ir::simd::ReduceKernel>,
        input: usize,
    ) -> Result<f32> {
        // The interpreters fold the actual kernel body, so the detected
        // canonical op is only needed by ladder-style backends.
        if self.use_ast_walker {
            return reduce_on_host(&self.streams, checked, kernel, input);
        }
        let k = ir_kernel(ir, kernel)?;
        // Admitted vectorized reduce: SIMD per-lane partials +
        // reassociation-safe combine, proven bit-exact with the serial
        // fold; faults rerun the serial fold for the canonical error
        // surface.
        if let Some(rk) = simd {
            return brook_ir::simd::run_reduce(rk, k, &self.streams[input].1).map_err(exec_err);
        }
        ir_interp::run_reduce(k, &self.streams[input].1).map_err(exec_err)
    }
}
