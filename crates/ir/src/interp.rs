//! The flat BrookIR interpreter — the fast CPU execution engine.
//!
//! Executes the flat instruction stream of an [`IrKernel`] over a
//! **preallocated register frame**: no AST walk, no per-scope hash
//! maps, no per-node allocation. Control flow is direct `pc`
//! manipulation through [`Inst::Jump`]/[`Inst::BranchIfFalse`].
//!
//! Semantics are shared with the legacy tree walker through
//! [`crate::eval`], so the two are bit-exact by construction; the fuzz
//! campaigns in `brook-fuzz` assert it on every generated kernel.

use crate::eval;
use crate::{Inst, IrKernel};
use brook_lang::builtins::BUILTINS;
use brook_lang::span::Span;
use glsl_es::Value;
use std::ops::Range;

/// Iteration budget per element, defending against runaway loops that
/// slipped past certification (e.g. with enforcement disabled). Matches
/// the tree walker's budget.
pub const MAX_ITERATIONS: u64 = 1 << 22;

/// A parameter binding for an IR kernel run, in parameter order.
pub enum Binding<'a> {
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

/// A runtime fault, carrying the source span of the faulting
/// instruction and the domain element being computed, so diagnostics
/// point at the original program text *and* the offending data point —
/// for a fault raised out of a lane block, the element index names the
/// exact diverged lane, not the block.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecError {
    /// Human-readable message (tree-walker compatible).
    pub msg: String,
    /// Source location of the instruction that faulted.
    pub span: Span,
    /// Linear domain index of the element whose execution faulted
    /// (row-major; `None` for faults raised outside element execution).
    pub element: Option<usize>,
}

impl ExecError {
    /// Renders the message with its element and source location when
    /// they exist.
    pub fn render(&self) -> String {
        let at_span = !(self.span.is_empty() && self.span.line == 0);
        match (self.element, at_span) {
            (Some(e), true) => format!("{} (element {e}, source line {})", self.msg, self.span),
            (Some(e), false) => format!("{} (element {e})", self.msg),
            (None, true) => format!("{} (source line {})", self.msg, self.span),
            (None, false) => self.msg.clone(),
        }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Splits a logical shape into `(inner extent, rows, is_linear)` — the
/// same domain factorization the tree walker and the GL layout use.
pub fn domain_extents(shape: &[usize]) -> (usize, usize, bool) {
    if shape.len() == 2 {
        (shape[1], shape[0], false)
    } else {
        (shape.iter().product(), 1, true)
    }
}

/// Proportional element index of an input stream of `shape` for output
/// position `pos` in `domain` — identical arithmetic to the tree walker
/// and the generated GLSL. Shared by the scalar interpreter and the
/// lane engine, whose bit-exactness depends on this exact float
/// arithmetic never drifting between the two.
pub fn input_index(pos: (usize, usize), domain: (usize, usize), shape: &[usize]) -> (usize, usize) {
    let (dx, dy) = domain;
    let (x, y) = pos;
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

/// `indexof` of an elementwise input of `shape` at `pos` (both engines).
pub fn indexof_elem(pos: (usize, usize), domain: (usize, usize), shape: &[usize]) -> [f32; 2] {
    let (ix, iy) = input_index(pos, domain, shape);
    if shape.len() == 2 {
        [ix as f32, iy as f32]
    } else {
        [(iy * domain.0 + ix) as f32, 0.0]
    }
}

/// `indexof` of an output or scalar binding at `pos` (both engines).
pub fn indexof_pos(pos: (usize, usize), domain: (usize, usize), linear: bool) -> [f32; 2] {
    let (x, y) = pos;
    if linear {
        [(y * domain.0 + x) as f32, 0.0]
    } else {
        [x as f32, y as f32]
    }
}

struct Machine<'a, 'b> {
    kernel: &'a IrKernel,
    outputs: &'a mut [&'b mut [f32]],
    /// Output-slot -> index into `outputs` (from the `Out` bindings).
    out_buf: Vec<usize>,
    out_width: Vec<usize>,
    /// First domain element the output slices cover.
    out_start: usize,
    pos: (usize, usize),
    domain: (usize, usize),
    linear: bool,
    regs: Vec<Value>,
    iterations: u64,
}

/// Runs a (non-reduce) kernel over a contiguous partition of its output
/// domain — elements `range` in row-major order, writing into output
/// slices covering exactly that partition. `bindings` are in parameter
/// order. The full-domain run is `range = 0..domain_len`.
///
/// # Errors
/// Runtime faults (iteration budget, deliberate [`Inst::Fail`]s) with
/// source provenance.
pub fn run_kernel_range(
    kernel: &IrKernel,
    bindings: &[Binding<'_>],
    outputs: &mut [&mut [f32]],
    domain_shape: &[usize],
    range: Range<usize>,
) -> Result<(), ExecError> {
    let (dx, dy, linear) = domain_extents(domain_shape);
    debug_assert!(range.end <= dx * dy, "domain range exceeds the domain");
    let mut out_buf = Vec::with_capacity(kernel.outputs.len());
    let mut out_width = Vec::with_capacity(kernel.outputs.len());
    for (_, p) in kernel.output_params() {
        let slot_param = kernel.outputs[out_buf.len()] as usize;
        match &bindings[slot_param] {
            Binding::Out(i) => out_buf.push(*i),
            _ => {
                return Err(ExecError {
                    msg: format!("output parameter `{}` is not bound to an output buffer", p.name),
                    span: kernel.span,
                    element: None,
                })
            }
        }
        out_width.push(p.ty.width as usize);
    }
    let mut m = Machine {
        kernel,
        outputs,
        out_buf,
        out_width,
        out_start: range.start,
        pos: (0, 0),
        domain: (dx, dy),
        linear,
        regs: kernel
            .regs
            .iter()
            .map(|t| Value::zero(eval::brook_to_glsl_type(*t)))
            .collect(),
        iterations: 0,
    };
    for p in range {
        m.pos = (p % dx, p / dx);
        m.iterations = 0;
        m.run_element(bindings)?;
    }
    Ok(())
}

/// Serial reduction: folds the kernel body over every input element,
/// seeding the accumulator register per step — the same fold order as
/// the tree walker (bit-identical results).
///
/// # Errors
/// Usage faults (non-reduce kernel) and runtime faults.
pub fn run_reduce(kernel: &IrKernel, data: &[f32]) -> Result<f32, ExecError> {
    let usage = |msg: String| ExecError {
        msg,
        span: kernel.span,
        element: None,
    };
    if !kernel.is_reduce {
        return Err(usage(format!("kernel `{}` is not a reduce kernel", kernel.name)));
    }
    let op = kernel
        .reduce_op
        .ok_or_else(|| usage("reduce kernel without a detected operation".into()))?;
    let acc_reg = kernel
        .acc_reg
        .ok_or_else(|| usage("reduce kernel without an accumulator".into()))?;
    let input_param = kernel
        .params
        .iter()
        .position(|p| p.kind == brook_lang::ast::ParamKind::Stream)
        .ok_or_else(|| usage("reduce kernel without an input stream".into()))?;
    let mut acc = op.identity();
    let elem_shape = [1usize];
    // Binding setup is hoisted out of the fold loop: the vector, the
    // non-input (accumulator-scalar) slot list, the machine and its
    // register frame are all built once and updated in place, so the
    // loop itself allocates nothing and touches exactly two bindings
    // per step. The per-step slice of the input (`&data[i..=i]` with
    // shape `[1]`, position `(i, 0)`, domain `(1, 1)`) mirrors the tree
    // walker exactly, keeping `indexof` and element addressing
    // bit-identical.
    let mut bindings: Vec<Binding<'_>> = kernel
        .params
        .iter()
        .enumerate()
        .map(|(pi, _)| {
            if pi == input_param {
                Binding::Elem {
                    data: &data[..data.len().min(1)],
                    shape: &elem_shape,
                    width: 1,
                }
            } else {
                Binding::Scalar(Value::Float(acc))
            }
        })
        .collect();
    let scalar_slots: Vec<usize> = (0..kernel.params.len()).filter(|pi| *pi != input_param).collect();
    let mut m = Machine {
        kernel,
        outputs: &mut [],
        out_buf: Vec::new(),
        out_width: Vec::new(),
        out_start: 0,
        pos: (0, 0),
        domain: (1, 1),
        linear: true,
        regs: kernel
            .regs
            .iter()
            .map(|t| Value::zero(eval::brook_to_glsl_type(*t)))
            .collect(),
        iterations: 0,
    };
    for i in 0..data.len() {
        bindings[input_param] = Binding::Elem {
            data: &data[i..=i],
            shape: &elem_shape,
            width: 1,
        };
        for pi in &scalar_slots {
            bindings[*pi] = Binding::Scalar(Value::Float(acc));
        }
        m.pos = (i, 0);
        m.iterations = 0;
        m.regs[acc_reg as usize] = Value::Float(acc);
        m.run_element(&bindings)?;
        acc = m.regs[acc_reg as usize]
            .as_float()
            .ok_or_else(|| usage("reduce accumulator lost its value".into()))?;
    }
    Ok(acc)
}

impl Machine<'_, '_> {
    fn err_at(&self, at: usize, msg: impl Into<String>) -> ExecError {
        ExecError {
            msg: msg.into(),
            span: self.kernel.spans[at],
            // Row-major linear index of the faulting element — the lane
            // engine's fault tests pin that this names the diverged
            // lane's element, not its block.
            element: Some(self.pos.1 * self.domain.0 + self.pos.0),
        }
    }

    /// Scalar offset of the current position inside the (possibly
    /// partitioned) output buffers.
    fn out_offset(&self, width: usize) -> usize {
        let (x, y) = self.pos;
        let elem = y * self.domain.0 + x;
        (elem - self.out_start) * width
    }

    /// Proportional element index of input stream `shape` for the
    /// current output position — identical arithmetic to the tree
    /// walker and the generated GLSL.
    fn input_index(&self, shape: &[usize]) -> (usize, usize) {
        input_index(self.pos, self.domain, shape)
    }

    fn elem_value(&self, data: &[f32], shape: &[usize], width: u8) -> Value {
        let (ix, iy) = self.input_index(shape);
        let cols = if shape.len() == 2 {
            shape[1]
        } else {
            shape.iter().product()
        };
        let idx = (iy * cols + ix) * width as usize;
        eval::value_from_slice(&data[idx..idx + width as usize])
    }

    fn read_out(&self, slot: u16) -> Value {
        let w = self.out_width[slot as usize];
        let base = self.out_offset(w);
        eval::value_from_slice(&self.outputs[self.out_buf[slot as usize]][base..base + w])
    }

    fn write_out(&mut self, slot: u16, v: Value) {
        let w = self.out_width[slot as usize];
        let base = self.out_offset(w);
        let lanes = v.to_vec4();
        for (i, out) in self.outputs[self.out_buf[slot as usize]][base..base + w]
            .iter_mut()
            .enumerate()
        {
            *out = lanes[i];
        }
    }

    #[inline]
    fn run_element(&mut self, bindings: &[Binding<'_>]) -> Result<(), ExecError> {
        let insts = &self.kernel.insts;
        let mut pc = 0usize;
        while pc < insts.len() {
            match &insts[pc] {
                Inst::Nop => {}
                Inst::Const { dst, v } => self.regs[*dst as usize] = *v,
                Inst::Mov { dst, src } => self.regs[*dst as usize] = self.regs[*src as usize],
                Inst::DeclInit { dst, src, ty } => {
                    self.regs[*dst as usize] = eval::coerce_to(self.regs[*src as usize], *ty);
                }
                Inst::AssignLocal { dst, op, src } => {
                    let cur = self.regs[*dst as usize];
                    let rhs = self.regs[*src as usize];
                    self.regs[*dst as usize] =
                        eval::apply_assign(cur, *op, rhs).map_err(|m| self.err_at(pc, m))?;
                }
                Inst::Bin { dst, op, lhs, rhs } => {
                    let l = self.regs[*lhs as usize];
                    let r = self.regs[*rhs as usize];
                    self.regs[*dst as usize] =
                        eval::brook_bin_op(*op, l, r).map_err(|m| self.err_at(pc, m))?;
                }
                Inst::Un { dst, op, src } => {
                    let v = self.regs[*src as usize];
                    self.regs[*dst as usize] = match op {
                        brook_lang::ast::UnOp::Neg => match v {
                            Value::Int(i) => Value::Int(i.wrapping_neg()),
                            other => other
                                .map(|f| -f)
                                .ok_or_else(|| self.err_at(pc, "cannot negate a bool"))?,
                        },
                        brook_lang::ast::UnOp::Not => {
                            Value::Bool(!v.as_bool().ok_or_else(|| self.err_at(pc, "`!` needs a bool"))?)
                        }
                    };
                }
                Inst::CastInt { dst, src } => {
                    self.regs[*dst as usize] = Value::Int(match self.regs[*src as usize] {
                        Value::Float(f) => f as i32,
                        Value::Int(i) => i,
                        _ => return Err(self.err_at(pc, "int() needs a scalar")),
                    });
                }
                Inst::Construct { dst, width, args } => {
                    let vals: Vec<Value> = args.iter().map(|r| self.regs[*r as usize]).collect();
                    self.regs[*dst as usize] =
                        eval::construct(*width as usize, &vals).map_err(|m| self.err_at(pc, m))?;
                }
                Inst::Swizzle { dst, src, sel } => {
                    let v = self.regs[*src as usize];
                    self.regs[*dst as usize] = eval::swizzle(&v, sel).map_err(|m| self.err_at(pc, m))?;
                }
                Inst::SwizzleStore { dst, op, src, sel } => {
                    let current = self.regs[*dst as usize];
                    let mut lanes: Vec<f32> = current.lanes().to_vec();
                    if lanes.is_empty() {
                        return Err(self.err_at(pc, "cannot swizzle a non-float value"));
                    }
                    let view = eval::swizzle(&current, sel).map_err(|m| self.err_at(pc, m))?;
                    let combined = eval::apply_assign(view, *op, self.regs[*src as usize])
                        .map_err(|m| self.err_at(pc, m))?;
                    let lanes_src = combined.lanes();
                    for (i, c) in sel.bytes().enumerate() {
                        let li = eval::lane_index(c);
                        if li >= lanes.len() || i >= lanes_src.len() {
                            return Err(self.err_at(pc, "swizzle assignment out of range"));
                        }
                        lanes[li] = lanes_src[i];
                    }
                    self.regs[*dst as usize] = eval::value_from_slice(&lanes);
                }
                Inst::Builtin { dst, which, args } => {
                    let mut vals = [Value::Float(0.0); 3];
                    for (v, r) in vals.iter_mut().zip(args) {
                        *v = self.regs[*r as usize];
                    }
                    self.regs[*dst as usize] = BUILTINS[*which as usize]
                        .eval(&vals[..args.len()])
                        .map_err(|m| self.err_at(pc, m))?;
                }
                Inst::Select { dst, cond, a, b } => {
                    let c = self.regs[*cond as usize]
                        .as_bool()
                        .ok_or_else(|| self.err_at(pc, "ternary condition is not a bool"))?;
                    self.regs[*dst as usize] = if c {
                        self.regs[*a as usize]
                    } else {
                        self.regs[*b as usize]
                    };
                }
                Inst::ReadElem { dst, param } => {
                    let Binding::Elem { data, shape, width } = &bindings[*param as usize] else {
                        return Err(self.err_at(
                            pc,
                            format!(
                                "parameter `{}` is not bound to an elementwise stream",
                                self.kernel.params[*param as usize].name
                            ),
                        ));
                    };
                    self.regs[*dst as usize] = self.elem_value(data, shape, *width);
                }
                Inst::ReadScalar { dst, param } => {
                    let Binding::Scalar(v) = &bindings[*param as usize] else {
                        return Err(self.err_at(
                            pc,
                            format!(
                                "parameter `{}` is not bound to a scalar",
                                self.kernel.params[*param as usize].name
                            ),
                        ));
                    };
                    self.regs[*dst as usize] = *v;
                }
                Inst::ReadOut { dst, out } => {
                    self.regs[*dst as usize] = self.read_out(*out);
                }
                Inst::WriteOut { out, op, src } => {
                    let cur = self.read_out(*out);
                    let rhs = self.regs[*src as usize];
                    let combined = eval::apply_assign(cur, *op, rhs).map_err(|m| self.err_at(pc, m))?;
                    self.write_out(*out, combined);
                }
                Inst::Gather {
                    dst,
                    param,
                    idx,
                    proven,
                } => {
                    let Binding::Gather { data, shape, width } = &bindings[*param as usize] else {
                        return Err(self.err_at(
                            pc,
                            format!(
                                "`{}` is not a gather parameter",
                                self.kernel.params[*param as usize].name
                            ),
                        ));
                    };
                    let mut ix = Vec::with_capacity(idx.len());
                    for r in idx {
                        ix.push(eval::gather_index(self.regs[*r as usize]).map_err(|m| self.err_at(pc, m))?);
                    }
                    let elide = proven.as_ref().is_some_and(|p| {
                        eval::proven_fits_dyn(p, shape, eval::indexof_comp_max(self.domain, self.linear))
                    });
                    self.regs[*dst as usize] = if elide {
                        eval::gather_unclamped(data, shape, *width, &ix)
                    } else {
                        eval::gather_clamped(data, shape, *width, &ix)
                    };
                }
                Inst::Indexof { dst, param } => {
                    self.regs[*dst as usize] = match &bindings[*param as usize] {
                        Binding::Elem { shape, .. } => {
                            Value::Vec2(indexof_elem(self.pos, self.domain, shape))
                        }
                        Binding::Out(_) | Binding::Scalar(_) => {
                            Value::Vec2(indexof_pos(self.pos, self.domain, self.linear))
                        }
                        Binding::Gather { .. } => {
                            return Err(self.err_at(
                                pc,
                                format!(
                                    "indexof on non-stream `{}`",
                                    self.kernel.params[*param as usize].name
                                ),
                            ))
                        }
                    };
                }
                Inst::Jump { target } => {
                    let t = *target as usize;
                    if t <= pc {
                        self.iterations += 1;
                        if self.iterations > MAX_ITERATIONS {
                            return Err(self.err_at(pc, "iteration budget exceeded (unbounded loop)"));
                        }
                    }
                    pc = t;
                    continue;
                }
                Inst::BranchIfFalse { cond, target } => {
                    let c = self.regs[*cond as usize]
                        .as_bool()
                        .ok_or_else(|| self.err_at(pc, "branch condition is not a bool"))?;
                    if !c {
                        let t = *target as usize;
                        if t <= pc {
                            self.iterations += 1;
                            if self.iterations > MAX_ITERATIONS {
                                return Err(self.err_at(pc, "iteration budget exceeded (unbounded loop)"));
                            }
                        }
                        pc = t;
                        continue;
                    }
                }
                Inst::Ret => return Ok(()),
                Inst::Fail { msg, .. } => return Err(self.err_at(pc, msg.clone())),
            }
            pc += 1;
        }
        Ok(())
    }
}

/// One register frame dry-run helper for unit tests: runs a kernel over
/// a tiny 1-D domain with the given scalar inputs.
#[cfg(test)]
pub(crate) fn run_simple(kernel: &IrKernel, inputs: &[&[f32]], n: usize) -> Result<Vec<f32>, ExecError> {
    let shape = [n];
    let mut bindings = Vec::new();
    let mut next_input = 0usize;
    let mut n_outs = 0usize;
    for p in &kernel.params {
        match p.kind {
            brook_lang::ast::ParamKind::Stream => {
                bindings.push(Binding::Elem {
                    data: inputs[next_input],
                    shape: &shape,
                    width: 1,
                });
                next_input += 1;
            }
            brook_lang::ast::ParamKind::OutStream => {
                bindings.push(Binding::Out(n_outs));
                n_outs += 1;
            }
            _ => panic!("run_simple only supports stream params"),
        }
    }
    let mut buf = vec![0.0f32; n];
    {
        let mut outs: Vec<&mut [f32]> = vec![&mut buf];
        run_kernel_range(kernel, &bindings, &mut outs, &shape, 0..n)?;
    }
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_kernel;
    use brook_lang::parse_and_check;

    fn lower_src(src: &str) -> IrKernel {
        let checked = parse_and_check(src).expect("front-end");
        let kdef = checked.program.kernels().next().expect("kernel");
        lower_kernel(&checked, kdef).expect("lower")
    }

    #[test]
    fn straight_line_math() {
        let k = lower_src("kernel void f(float a<>, out float o<>) { o = a * 2.0 + 1.0; }");
        let out = run_simple(&k, &[&[1.0, 2.0, 3.0]], 3).expect("run");
        assert_eq!(out, vec![3.0, 5.0, 7.0]);
    }

    #[test]
    fn loops_and_locals() {
        let k = lower_src(
            "kernel void f(float a<>, out float o<>) {
                float s = 0.0;
                int i;
                for (i = 0; i < 4; i++) { s += a; }
                o = s;
            }",
        );
        let out = run_simple(&k, &[&[1.5, -2.0]], 2).expect("run");
        assert_eq!(out, vec![6.0, -8.0]);
    }

    #[test]
    fn unbounded_loop_hits_budget_with_provenance() {
        let src = "kernel void f(float a<>, out float o<>) {\n    float s = a;\n    while (s > -1.0) { s += 1.0; }\n    o = s;\n}";
        let k = lower_src(src);
        let err = run_simple(&k, &[&[0.0]], 1).expect_err("must exhaust the budget");
        assert!(err.msg.contains("iteration budget"), "{}", err.msg);
        assert_eq!(err.span.line, 3, "error must point at the while loop's line");
    }

    #[test]
    fn reduce_folds_in_order() {
        let k = lower_src("reduce void sum(float a<>, reduce float r<>) { r += a; }");
        let total = run_reduce(&k, &[1.0, 2.0, 3.0, 4.0]).expect("reduce");
        assert_eq!(total, 10.0);
    }

    #[test]
    fn kernel_return_finishes_element() {
        let k = lower_src(
            "kernel void f(float a<>, out float o<>) { o = 5.0; if (a > 0.0) { return; } o = 1.0; }",
        );
        let out = run_simple(&k, &[&[1.0, -1.0]], 2).expect("run");
        assert_eq!(out, vec![5.0, 1.0]);
    }
}
