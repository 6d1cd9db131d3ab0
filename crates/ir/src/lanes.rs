//! Lane-vectorized BrookIR execution: the flat instruction stream run
//! over **blocks of [`LANES`] elements at once**, GPU-predication style.
//!
//! The scalar interpreter in [`crate::interp`] pays full instruction
//! dispatch (one `match`, `Value` copies, register-frame traffic) per
//! element. Brook kernels are elementwise data-parallel by construction,
//! so the same instruction sequence can execute across a block of
//! elements with registers stored as **structure-of-arrays lane slabs**
//! (`[f32; LANES]` per register component) — amortizing dispatch ~L×
//! and handing rustc contiguous `f32` loops it can autovectorize.
//!
//! Divergent control flow is handled by per-lane execution masks over
//! the structured [`Node`] tree: an `if` splits the mask by its
//! condition bits, a loop keeps iterating while *any* lane remains
//! active (lanes whose condition went false simply drop out of the
//! mask), and a kernel-level `return` retires its lanes for the rest of
//! the element. Loops with uniform statically-deduced bounds never
//! diverge, so they run at full mask through the unmasked fast path.
//!
//! # The fallback guarantee
//!
//! Semantics stay **bit-exact with the scalar interpreter by
//! construction**, through two mechanisms:
//!
//! 1. A conservative vectorizability analysis ([`plan_with`]) admits a
//!    kernel only when every register has one stable runtime type (so
//!    slabs have a fixed layout), every register is written before it
//!    is read within an element (so lane execution cannot observe the
//!    scalar interpreter's cross-element register reuse), and every
//!    instruction's dynamic semantics (Brook's implicit conversions,
//!    broadcasts, builtin shape rules) resolve statically. Anything
//!    else is rejected with a reason, and the backends run the scalar
//!    [`crate::interp`] path — the rejection is recorded in the
//!    module's `ComplianceReport`.
//! 2. At run time the engine **stages all output writes in lane slabs**
//!    and flushes them only when a block completes. Any fault — a
//!    deliberate [`Inst::Fail`], the iteration budget, an unexpected
//!    binding — discards the staged block and **re-runs exactly that
//!    block through the scalar interpreter**, which reproduces the
//!    scalar path's partial writes, fault message, element attribution
//!    and source span verbatim.
//!
//! The scalar IR interpreter and the AST walker therefore remain the
//! differential oracles; the `lanes` fuzz campaign asserts bitwise
//! agreement on every generated kernel.

use crate::interp::{
    domain_extents, indexof_elem, indexof_pos, input_index, Binding, ExecError, MAX_ITERATIONS,
};
use crate::{AssignOp, BinOp, Inst, IrKernel, LoopKind, Node, UnOp};
use brook_lang::ast::{ParamKind, ScalarKind, Type};
use brook_lang::builtins::BUILTINS;
use glsl_es::math::{self, Bin, Fun, Un};
use glsl_es::Value;
use std::ops::Range;

/// Elements per execution block. 16 lanes keep every register slab
/// inside one or two cache lines per component while giving rustc
/// full-width autovectorization windows.
pub const LANES: usize = 16;

/// A per-lane execution mask (bit `l` = lane `l` active).
pub type Mask = u32;

/// Mask with every lane of a full block active.
pub const FULL: Mask = (1 << LANES) - 1;

/// The element span of lane-engine block `block` within a stream of
/// `len` elements. `block` is taken modulo the stream's block count, so
/// any index maps onto a real span (fault-injection campaigns address
/// corruption targets this way); the final block is truncated to the
/// stream length. Empty streams yield an empty span.
pub fn block_span(block: usize, len: usize) -> Range<usize> {
    if len == 0 {
        return 0..0;
    }
    let blocks = len.div_ceil(LANES);
    let start = (block % blocks) * LANES;
    start..(start + LANES).min(len)
}

/// The stable runtime type of a register, as the planner deduced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaneTy {
    /// Float vector of width 1..=4 — an `f32` slab per component.
    F(u8),
    /// Scalar int — an `i32` slab.
    I,
    /// Scalar bool — one mask word.
    B,
}

impl LaneTy {
    pub(crate) fn of_type(t: Type) -> LaneTy {
        match t.scalar {
            ScalarKind::Float => LaneTy::F(t.width.clamp(1, 4)),
            ScalarKind::Int => LaneTy::I,
            ScalarKind::Bool => LaneTy::B,
        }
    }

    pub(crate) fn of_value(v: &Value) -> LaneTy {
        match v {
            Value::Float(_) => LaneTy::F(1),
            Value::Vec2(_) => LaneTy::F(2),
            Value::Vec3(_) => LaneTy::F(3),
            Value::Vec4(_) => LaneTy::F(4),
            Value::Int(_) => LaneTy::I,
            Value::Bool(_) => LaneTy::B,
        }
    }
}

// ---------------------------------------------------------------------------
// Lane ops: the pre-decoded, type-specialized execution form.
// ---------------------------------------------------------------------------

/// Componentwise float arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FOp {
    Add,
    Sub,
    Mul,
    Div,
    /// Brook `%` on floats: `a - b * (a / b).floor()`.
    Rem,
}

/// Wrapping int arithmetic (division by zero yields zero, as in the
/// scalar semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
}

/// Scalar comparison, writing a bool slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum COp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

/// Bool-slab logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BOp {
    And,
    Or,
    Eq,
    Ne,
}

/// One pre-decoded lane operation. Offsets index the engine's `f32`
/// slab (`dst`/`src` in units of `f32`, one component = [`LANES`]
/// consecutive entries), the `i32` slab, or the bool-mask slab,
/// according to the op's type.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Op {
    ConstF {
        dst: u32,
        w: u8,
        v: [f32; 4],
    },
    ConstI {
        dst: u32,
        v: i32,
    },
    ConstB {
        dst: u32,
        v: bool,
    },
    CopyF {
        dst: u32,
        src: u32,
        n: u8,
    },
    CopyI {
        dst: u32,
        src: u32,
    },
    CopyB {
        dst: u32,
        src: u32,
    },
    /// `F(1)` source broadcast into all `w` components.
    SplatF {
        dst: u32,
        w: u8,
        src: u32,
    },
    /// Int source broadcast (as f32) into all `w` components.
    SplatI {
        dst: u32,
        w: u8,
        src: u32,
    },
    /// Int slab -> one float component.
    ItoF {
        dst: u32,
        src: u32,
    },
    /// `F(1)` slab -> int slab (truncating cast).
    FtoI {
        dst: u32,
        src: u32,
    },
    ArithF {
        op: FOp,
        dst: u32,
        w: u8,
        a: u32,
        ab: bool,
        b: u32,
        bb: bool,
    },
    ArithI {
        op: IOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    CmpF {
        op: COp,
        dst: u32,
        a: u32,
        b: u32,
    },
    CmpI {
        op: COp,
        dst: u32,
        a: u32,
        b: u32,
    },
    LogicB {
        op: BOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    NotB {
        dst: u32,
        src: u32,
    },
    NegF {
        dst: u32,
        src: u32,
        w: u8,
    },
    NegI {
        dst: u32,
        src: u32,
    },
    Map1 {
        f: Un,
        dst: u32,
        src: u32,
        w: u8,
    },
    Map2 {
        f: Bin,
        dst: u32,
        w: u8,
        a: u32,
        ab: bool,
        b: u32,
        bb: bool,
    },
    Dot {
        dst: u32,
        a: u32,
        b: u32,
        w: u8,
    },
    Length {
        dst: u32,
        src: u32,
        w: u8,
    },
    Normalize {
        dst: u32,
        src: u32,
        w: u8,
    },
    SelF {
        dst: u32,
        cond: u32,
        a: u32,
        b: u32,
        w: u8,
    },
    SelI {
        dst: u32,
        cond: u32,
        a: u32,
        b: u32,
    },
    SelB {
        dst: u32,
        cond: u32,
        a: u32,
        b: u32,
    },
    /// Elementwise stream read; `slot` indexes the plan's `elem_params`.
    ReadElem {
        dst: u32,
        w: u8,
        slot: u16,
    },
    /// Scalar (uniform) broadcast; `slot` indexes `scalar_params`.
    ReadScalarF {
        dst: u32,
        w: u8,
        slot: u16,
    },
    ReadScalarI {
        dst: u32,
        slot: u16,
    },
    /// Random-access gather; `param` is the kernel parameter index and
    /// each index operand is `(offset, is_int)`. `proven` carries the
    /// analyzer's per-dimension in-bounds interval (see
    /// [`crate::Inst::Gather`]); the executor elides the per-lane clamp
    /// when the block's bound shape covers it.
    Gather {
        dst: u32,
        w: u8,
        param: u16,
        idx: Vec<(u32, bool)>,
        proven: Option<Vec<crate::ProvenIdx>>,
    },
    /// `indexof`; `slot` indexes `indexof_params`.
    Indexof {
        dst: u32,
        slot: u16,
    },
    /// Kernel-level `return`: retire the active lanes.
    Ret,
    /// Dynamic situation the lane engine does not model (a deliberate
    /// `Inst::Fail` site): abandon the block and re-run it scalar.
    Bail,
}

// ---------------------------------------------------------------------------
// The compiled plan.
// ---------------------------------------------------------------------------

/// A lane-compiled kernel: the decoded op stream plus the slab layout
/// and the per-parameter access manifest the engine precomputes blocks
/// from. Produced by [`plan_with`]; executed by [`run_kernel_range`].
#[derive(Debug, Clone, PartialEq)]
pub struct LaneKernel {
    pub(crate) ops: Vec<Op>,
    /// `insts[pc]`'s ops live at `ops[op_start[pc]..op_start[pc + 1]]`.
    pub(crate) op_start: Vec<u32>,
    pub(crate) f_len: usize,
    pub(crate) i_len: usize,
    pub(crate) b_len: usize,
    /// Bool-slab offset per register (valid only for `B` registers);
    /// the tree executor reads branch conditions through it.
    pub(crate) cond_off: Vec<u32>,
    /// f-slab staging offset and width per output slot.
    pub(crate) out_off: Vec<u32>,
    pub(crate) out_w: Vec<u8>,
    /// Whether a slot's staging slab must be pre-read from the real
    /// buffer each block: true when the kernel observes current output
    /// values (`ReadOut`, compound `WriteOut`) or may leave lanes
    /// unwritten (conditional write, early return). False — the common
    /// unconditional-overwrite case — skips the pre-read entirely.
    pub(crate) out_preload: Vec<bool>,
    /// Parameters read elementwise (with their planned widths).
    pub(crate) elem_params: Vec<(u16, u8)>,
    /// Parameters used by `indexof`.
    pub(crate) indexof_params: Vec<u16>,
    /// Scalar parameters with their expected runtime types.
    pub(crate) scalar_params: Vec<(u16, LaneTy)>,
    /// Gather parameters with their planned widths.
    pub(crate) gather_params: Vec<(u16, u8)>,
}

/// Lane plans for a whole module, parallel to `IrProgram::kernels`.
/// Kernels the planner rejected carry the reason; backends fall back to
/// the scalar interpreter for them.
#[derive(Debug, Clone, Default)]
pub struct LaneProgram {
    /// `(kernel name, plan or rejection reason)`.
    pub kernels: Vec<(String, Result<LaneKernel, String>)>,
}

impl LaneProgram {
    /// Plans every kernel of a lowered program with analyzer facts
    /// (`brook_cert::absint`), parallel to `ir.kernels` (an empty or
    /// short slice means "no facts"). Facts only ever *expand*
    /// admission: a kernel the syntactic checks reject but the analyzer
    /// proves safe is admitted.
    pub fn plan_program_with(ir: &crate::IrProgram, facts: &[crate::KernelFacts]) -> LaneProgram {
        LaneProgram {
            kernels: ir
                .kernels
                .iter()
                .enumerate()
                .map(|(i, k)| (k.name.clone(), plan_with(k, facts.get(i))))
                .collect(),
        }
    }

    /// The lane plan for `name`, when the planner admitted it.
    pub fn kernel(&self, name: &str) -> Option<&LaneKernel> {
        self.kernels
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, p)| p.as_ref().ok())
    }

    /// The planning decision for `name`: `Ok(())` for lane execution,
    /// `Err(reason)` for scalar fallback.
    pub fn decision(&self, name: &str) -> Option<Result<(), &str>> {
        self.kernels
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p.as_ref().map(|_| ()).map_err(|e| e.as_str()))
    }
}

// ---------------------------------------------------------------------------
// The planner.
// ---------------------------------------------------------------------------

struct Planner<'k> {
    kernel: &'k IrKernel,
    /// Stable runtime type per register.
    tys: Vec<LaneTy>,
    /// Slab offset per register (f, i or b space according to `tys`).
    offs: Vec<u32>,
    f_len: usize,
    i_len: usize,
    b_len: usize,
    ops: Vec<Op>,
    op_start: Vec<u32>,
    out_off: Vec<u32>,
    out_w: Vec<u8>,
    elem_params: Vec<(u16, u8)>,
    indexof_params: Vec<u16>,
    scalar_params: Vec<(u16, LaneTy)>,
    gather_params: Vec<(u16, u8)>,
}

/// Compiles a kernel to the lane form, or explains why it must stay on
/// the scalar interpreter. The analysis is deliberately conservative:
/// admission means "bit-exact with the scalar path by construction",
/// so anything whose dynamic semantics cannot be resolved statically —
/// a register whose runtime type would change, a read the element may
/// not have written yet, a statically present fault site reachable
/// through straight-line code — is rejected, not approximated.
///
/// With analyzer facts that prove definite assignment for every
/// register (`facts.def_before_use_ok`), the planner's own syntactic
/// def-before-use walk — which rejects some loop-carried but safe
/// kernels — is superseded. Unproven facts fall back to the syntactic
/// walk, so admission never shrinks.
///
/// # Errors
/// A human-readable rejection reason (recorded in the compliance
/// report's lane-plan table).
pub fn plan_with(kernel: &IrKernel, facts: Option<&crate::KernelFacts>) -> Result<LaneKernel, String> {
    if kernel.is_reduce {
        return Err("reduce kernels fold serially (cross-element accumulator dependence)".into());
    }
    crate::verify::verify(kernel).map_err(|e| format!("IR failed verification: {e}"))?;
    let mut p = Planner {
        kernel,
        tys: Vec::with_capacity(kernel.regs.len()),
        offs: Vec::with_capacity(kernel.regs.len()),
        f_len: 0,
        i_len: 0,
        b_len: 0,
        ops: Vec::new(),
        op_start: Vec::with_capacity(kernel.insts.len() + 1),
        out_off: Vec::new(),
        out_w: Vec::new(),
        elem_params: Vec::new(),
        indexof_params: Vec::new(),
        scalar_params: Vec::new(),
        gather_params: Vec::new(),
    };
    // Fixed slab layout: one slab per register, typed by its static
    // type (the zero-initialization type, which admission forces every
    // write to preserve).
    for t in &kernel.regs {
        let ty = LaneTy::of_type(*t);
        p.tys.push(ty);
        p.offs.push(match ty {
            LaneTy::F(w) => {
                let off = p.f_len as u32;
                p.f_len += w as usize * LANES;
                off
            }
            LaneTy::I => {
                let off = p.i_len as u32;
                p.i_len += LANES;
                off
            }
            LaneTy::B => {
                let off = p.b_len as u32;
                p.b_len += 1;
                off
            }
        });
    }
    // Output staging slabs live in the same f32 arena as registers.
    for (_, param) in kernel.output_params() {
        if param.ty.scalar != ScalarKind::Float {
            return Err(format!("output `{}` is not a float stream", param.name));
        }
        p.out_off.push(p.f_len as u32);
        p.out_w.push(param.ty.width);
        p.f_len += param.ty.width as usize * LANES;
    }
    if !facts.is_some_and(|f| f.def_before_use_ok) {
        p.check_def_before_use()?;
    }
    for pc in 0..kernel.insts.len() {
        p.op_start.push(p.ops.len() as u32);
        p.decode(pc)
            .map_err(|e| format!("{e} (inst {pc}, source {})", kernel.spans[pc]))?;
    }
    p.op_start.push(p.ops.len() as u32);
    // Output staging must be pre-read whenever staged lanes could be
    // observed (ReadOut / compound WriteOut) or survive unwritten to
    // the flush (conditional write, early return) — flushing garbage
    // over elements the scalar path would have left untouched.
    let mut out_preload = vec![false; p.out_w.len()];
    for inst in &kernel.insts {
        match inst {
            Inst::ReadOut { out, .. } => out_preload[*out as usize] = true,
            Inst::WriteOut { out, op, .. } if *op != AssignOp::Assign => out_preload[*out as usize] = true,
            _ => {}
        }
    }
    let has_ret = kernel.insts.iter().any(|i| matches!(i, Inst::Ret));
    for (slot, need) in out_preload.iter_mut().enumerate() {
        // Skip the pre-read only when every element unconditionally
        // overwrites the whole slot: a plain store in a top-level
        // straight-line region, with no kernel-level return anywhere.
        let definite = !has_ret
            && kernel.body.iter().any(|nd| match nd {
                Node::Seq { start, end } => (*start..*end).any(|pc| {
                    matches!(
                        &kernel.insts[pc as usize],
                        Inst::WriteOut { out, op: AssignOp::Assign, .. } if *out as usize == slot
                    )
                }),
                _ => false,
            });
        *need = *need || !definite;
    }
    let cond_off = p
        .tys
        .iter()
        .zip(&p.offs)
        .map(|(t, o)| if *t == LaneTy::B { *o } else { u32::MAX })
        .collect();
    Ok(LaneKernel {
        ops: p.ops,
        op_start: p.op_start,
        f_len: p.f_len,
        i_len: p.i_len,
        b_len: p.b_len,
        cond_off,
        out_off: p.out_off,
        out_w: p.out_w,
        out_preload,
        elem_params: p.elem_params,
        indexof_params: p.indexof_params,
        scalar_params: p.scalar_params,
        gather_params: p.gather_params,
    })
}

impl<'k> Planner<'k> {
    fn ty(&self, r: crate::Reg) -> LaneTy {
        self.tys[r as usize]
    }

    fn off(&self, r: crate::Reg) -> u32 {
        self.offs[r as usize]
    }

    fn scratch_f(&mut self, w: u8) -> u32 {
        let off = self.f_len as u32;
        self.f_len += w as usize * LANES;
        off
    }

    /// Every register must be definitely written before it is read
    /// within one element, on every path. Otherwise the scalar
    /// interpreter's register frame (which persists across elements)
    /// could leak a previous element's value — sequential semantics the
    /// lane engine cannot reproduce.
    fn check_def_before_use(&self) -> Result<(), String> {
        fn walk(nodes: &[Node], insts: &[Inst], assigned: &mut Vec<bool>) -> Result<(), String> {
            let mut reads = Vec::new();
            for n in nodes {
                match n {
                    Node::Seq { start, end } => {
                        for pc in *start..*end {
                            let inst = &insts[pc as usize];
                            reads.clear();
                            inst.reads(&mut reads);
                            for r in &reads {
                                if !assigned[*r as usize] {
                                    return Err(format!(
                                        "register r{r} may be read before this element writes it"
                                    ));
                                }
                            }
                            if let Some(d) = inst.dst() {
                                assigned[d as usize] = true;
                            }
                        }
                    }
                    Node::If { cond, then, els, .. } => {
                        if !assigned[*cond as usize] {
                            return Err(format!(
                                "branch condition r{cond} may be read before this element writes it"
                            ));
                        }
                        let mut t = assigned.clone();
                        let mut e = assigned.clone();
                        walk(then, insts, &mut t)?;
                        walk(els, insts, &mut e)?;
                        for (a, (tb, eb)) in assigned.iter_mut().zip(t.iter().zip(&e)) {
                            *a = *a || (*tb && *eb);
                        }
                    }
                    Node::Loop(l) => match l.kind {
                        LoopKind::DoWhile => {
                            walk(&l.body, insts, assigned)?;
                            walk(&l.header, insts, assigned)?;
                            if !assigned[l.cond as usize] {
                                return Err("loop condition read before written".into());
                            }
                        }
                        _ => {
                            // Header runs at least once; the body may not.
                            walk(&l.header, insts, assigned)?;
                            if !assigned[l.cond as usize] {
                                return Err("loop condition read before written".into());
                            }
                            let mut b = assigned.clone();
                            walk(&l.body, insts, &mut b)?;
                        }
                    },
                }
            }
            Ok(())
        }
        let mut assigned = vec![false; self.kernel.regs.len()];
        walk(&self.kernel.body, &self.kernel.insts, &mut assigned)
    }

    // -- shared emission helpers --------------------------------------------

    /// Width after `Value::zip` broadcast, or `None` when the scalar
    /// semantics would fault (shape mismatch / non-float operand).
    fn zip_w(a: LaneTy, b: LaneTy) -> Option<u8> {
        let (LaneTy::F(wa), LaneTy::F(wb)) = (a, b) else {
            return None;
        };
        let w = wa.max(wb);
        if (wa == w || wa == 1) && (wb == w || wb == 1) {
            Some(w)
        } else {
            None
        }
    }

    /// Promotes an int operand to a fresh `F(1)` scratch (Brook's
    /// implicit conversion); floats pass through.
    fn promote(&mut self, off: u32, ty: LaneTy) -> Result<(u32, LaneTy), String> {
        match ty {
            LaneTy::I => {
                let s = self.scratch_f(1);
                self.ops.push(Op::ItoF { dst: s, src: off });
                Ok((s, LaneTy::F(1)))
            }
            LaneTy::B => Err("bool operand in arithmetic".into()),
            f => Ok((off, f)),
        }
    }

    /// Emits `brook_bin_op(op, a, b)` into `dst`, returning the result
    /// type. Arithmetic only — comparisons and logic are handled at the
    /// `Inst::Bin` site.
    fn emit_arith(
        &mut self,
        op: FOp,
        iop: IOp,
        dst: u32,
        a: (u32, LaneTy),
        b: (u32, LaneTy),
    ) -> Result<LaneTy, String> {
        if a.1 == LaneTy::I && b.1 == LaneTy::I {
            self.ops.push(Op::ArithI {
                op: iop,
                dst,
                a: a.0,
                b: b.0,
            });
            return Ok(LaneTy::I);
        }
        let (ao, at) = self.promote(a.0, a.1)?;
        let (bo, bt) = self.promote(b.0, b.1)?;
        let w = Self::zip_w(at, bt).ok_or("operand shape mismatch")?;
        let (LaneTy::F(wa), LaneTy::F(wb)) = (at, bt) else {
            unreachable!()
        };
        self.ops.push(Op::ArithF {
            op,
            dst,
            w,
            a: ao,
            ab: wa == 1 && w > 1,
            b: bo,
            bb: wb == 1 && w > 1,
        });
        Ok(LaneTy::F(w))
    }

    /// Emits `apply_assign(current, op, src)` into the float region at
    /// `dst_off` with current type `dst_ty`, returning the combined
    /// type. `to_out` relaxes the exact-type rule for output staging
    /// slabs (the scalar `write_out` truncates wider values to the
    /// output width).
    fn emit_assign(
        &mut self,
        dst_off: u32,
        dst_ty: LaneTy,
        op: AssignOp,
        src_off: u32,
        src_ty: LaneTy,
        to_out: bool,
    ) -> Result<(), String> {
        let (fop, iop) = match op {
            AssignOp::Assign => {
                match (dst_ty, src_ty) {
                    (LaneTy::F(w), LaneTy::F(ws)) if ws == w => {
                        self.ops.push(Op::CopyF {
                            dst: dst_off,
                            src: src_off,
                            n: w,
                        });
                    }
                    (LaneTy::F(w), LaneTy::F(1)) if w > 1 => {
                        self.ops.push(Op::SplatF {
                            dst: dst_off,
                            w,
                            src: src_off,
                        });
                    }
                    (LaneTy::F(1), LaneTy::I) => {
                        self.ops.push(Op::ItoF {
                            dst: dst_off,
                            src: src_off,
                        });
                    }
                    (LaneTy::F(w), LaneTy::F(ws)) if to_out && ws > w => {
                        // write_out keeps the first w lanes of a wider value.
                        self.ops.push(Op::CopyF {
                            dst: dst_off,
                            src: src_off,
                            n: w,
                        });
                    }
                    (LaneTy::I, LaneTy::I) => {
                        self.ops.push(Op::CopyI {
                            dst: dst_off,
                            src: src_off,
                        });
                    }
                    (LaneTy::B, LaneTy::B) => {
                        self.ops.push(Op::CopyB {
                            dst: dst_off,
                            src: src_off,
                        });
                    }
                    _ => {
                        return Err(format!(
                            "assignment would change the register's runtime type \
                             ({dst_ty:?} <- {src_ty:?})"
                        ))
                    }
                }
                return Ok(());
            }
            AssignOp::AddAssign => (FOp::Add, IOp::Add),
            AssignOp::SubAssign => (FOp::Sub, IOp::Sub),
            AssignOp::MulAssign => (FOp::Mul, IOp::Mul),
            AssignOp::DivAssign => (FOp::Div, IOp::Div),
        };
        let combined = self.emit_arith(fop, iop, dst_off, (dst_off, dst_ty), (src_off, src_ty))?;
        if combined != dst_ty {
            return Err(format!(
                "compound assignment would change the register's runtime type \
                 ({dst_ty:?} -> {combined:?})"
            ));
        }
        Ok(())
    }

    // -- per-instruction decoding -------------------------------------------

    fn decode(&mut self, pc: usize) -> Result<(), String> {
        let inst = self.kernel.insts[pc].clone();
        match inst {
            Inst::Nop | Inst::Jump { .. } | Inst::BranchIfFalse { .. } => {
                // Control flow executes through the structured tree.
            }
            Inst::Ret => self.ops.push(Op::Ret),
            Inst::Fail { .. } => self.ops.push(Op::Bail),
            Inst::Const { dst, v } => {
                let ty = self.ty(dst);
                if LaneTy::of_value(&v) != ty {
                    return Err("constant type does not match its register".into());
                }
                let off = self.off(dst);
                match v {
                    Value::Int(i) => self.ops.push(Op::ConstI { dst: off, v: i }),
                    Value::Bool(b) => self.ops.push(Op::ConstB { dst: off, v: b }),
                    other => {
                        let LaneTy::F(w) = ty else { unreachable!() };
                        let mut lanes = [0.0f32; 4];
                        lanes[..other.lanes().len()].copy_from_slice(other.lanes());
                        self.ops.push(Op::ConstF {
                            dst: off,
                            w,
                            v: lanes,
                        });
                    }
                }
            }
            Inst::Mov { dst, src } => {
                let (dt, st) = (self.ty(dst), self.ty(src));
                if dt != st {
                    return Err(format!(
                        "move would change the register's type ({dt:?} <- {st:?})"
                    ));
                }
                let (d, s) = (self.off(dst), self.off(src));
                match dt {
                    LaneTy::F(w) => self.ops.push(Op::CopyF { dst: d, src: s, n: w }),
                    LaneTy::I => self.ops.push(Op::CopyI { dst: d, src: s }),
                    LaneTy::B => self.ops.push(Op::CopyB { dst: d, src: s }),
                }
            }
            Inst::DeclInit { dst, src, ty } => {
                let want = LaneTy::of_type(ty);
                debug_assert_eq!(want, self.ty(dst));
                let (d, s, st) = (self.off(dst), self.off(src), self.ty(src));
                match (want, st) {
                    (LaneTy::F(1), LaneTy::I) => self.ops.push(Op::ItoF { dst: d, src: s }),
                    (LaneTy::F(w), LaneTy::I) => self.ops.push(Op::SplatI { dst: d, w, src: s }),
                    (LaneTy::F(w), LaneTy::F(1)) if w > 1 => self.ops.push(Op::SplatF { dst: d, w, src: s }),
                    (LaneTy::F(w), LaneTy::F(ws)) if w == ws => {
                        self.ops.push(Op::CopyF { dst: d, src: s, n: w })
                    }
                    (LaneTy::I, LaneTy::I) => self.ops.push(Op::CopyI { dst: d, src: s }),
                    (LaneTy::B, LaneTy::B) => self.ops.push(Op::CopyB { dst: d, src: s }),
                    (w, s) => {
                        return Err(format!(
                            "declaration initializer does not coerce to its type ({w:?} <- {s:?})"
                        ))
                    }
                }
            }
            Inst::AssignLocal { dst, op, src } => {
                self.emit_assign(
                    self.off(dst),
                    self.ty(dst),
                    op,
                    self.off(src),
                    self.ty(src),
                    false,
                )?;
            }
            Inst::Bin { dst, op, lhs, rhs } => self.decode_bin(dst, op, lhs, rhs)?,
            Inst::Un { dst, op, src } => {
                let (d, s, st) = (self.off(dst), self.off(src), self.ty(src));
                match op {
                    UnOp::Neg => match st {
                        LaneTy::I => {
                            if self.ty(dst) != LaneTy::I {
                                return Err("negation result type mismatch".into());
                            }
                            self.ops.push(Op::NegI { dst: d, src: s });
                        }
                        LaneTy::F(w) => {
                            if self.ty(dst) != LaneTy::F(w) {
                                return Err("negation result type mismatch".into());
                            }
                            self.ops.push(Op::NegF { dst: d, src: s, w });
                        }
                        LaneTy::B => return Err("cannot negate a bool".into()),
                    },
                    UnOp::Not => {
                        if st != LaneTy::B || self.ty(dst) != LaneTy::B {
                            return Err("`!` needs a bool".into());
                        }
                        self.ops.push(Op::NotB { dst: d, src: s });
                    }
                }
            }
            Inst::CastInt { dst, src } => {
                if self.ty(dst) != LaneTy::I {
                    return Err("int() result register is not an int".into());
                }
                let (d, s) = (self.off(dst), self.off(src));
                match self.ty(src) {
                    LaneTy::F(1) => self.ops.push(Op::FtoI { dst: d, src: s }),
                    LaneTy::I => self.ops.push(Op::CopyI { dst: d, src: s }),
                    _ => return Err("int() needs a scalar".into()),
                }
            }
            Inst::Construct { dst, width, args } => self.decode_construct(dst, width, &args)?,
            Inst::Swizzle { dst, src, sel } => self.decode_swizzle(dst, src, &sel)?,
            Inst::SwizzleStore { dst, op, src, sel } => self.decode_swizzle_store(dst, op, src, &sel)?,
            Inst::Builtin { dst, which, args } => self.decode_builtin(dst, which, &args)?,
            Inst::Select { dst, cond, a, b } => {
                if self.ty(cond) != LaneTy::B {
                    return Err("ternary condition is not a bool".into());
                }
                let (at, bt, dt) = (self.ty(a), self.ty(b), self.ty(dst));
                if at != bt || at != dt {
                    return Err(format!(
                        "ternary arms have lane-divergent types ({at:?} vs {bt:?})"
                    ));
                }
                let (d, c, ao, bo) = (self.off(dst), self.off(cond), self.off(a), self.off(b));
                match dt {
                    LaneTy::F(w) => self.ops.push(Op::SelF {
                        dst: d,
                        cond: c,
                        a: ao,
                        b: bo,
                        w,
                    }),
                    LaneTy::I => self.ops.push(Op::SelI {
                        dst: d,
                        cond: c,
                        a: ao,
                        b: bo,
                    }),
                    LaneTy::B => self.ops.push(Op::SelB {
                        dst: d,
                        cond: c,
                        a: ao,
                        b: bo,
                    }),
                }
            }
            Inst::ReadElem { dst, param } => {
                let p = &self.kernel.params[param as usize];
                if p.ty.scalar != ScalarKind::Float {
                    return Err("non-float elementwise input".into());
                }
                let w = p.ty.width;
                if self.ty(dst) != LaneTy::F(w) {
                    return Err("element read width does not match its register".into());
                }
                let slot = match self.elem_params.iter().position(|(pi, _)| *pi == param) {
                    Some(i) => i as u16,
                    None => {
                        self.elem_params.push((param, w));
                        (self.elem_params.len() - 1) as u16
                    }
                };
                self.ops.push(Op::ReadElem {
                    dst: self.off(dst),
                    w,
                    slot,
                });
            }
            Inst::ReadScalar { dst, param } => {
                let ty = self.ty(dst);
                let slot = match self.scalar_params.iter().position(|(pi, _)| *pi == param) {
                    Some(i) => i as u16,
                    None => {
                        self.scalar_params.push((param, ty));
                        (self.scalar_params.len() - 1) as u16
                    }
                };
                if self.scalar_params[slot as usize].1 != ty {
                    return Err("scalar parameter read at two different types".into());
                }
                match ty {
                    LaneTy::F(w) => self.ops.push(Op::ReadScalarF {
                        dst: self.off(dst),
                        w,
                        slot,
                    }),
                    LaneTy::I => self.ops.push(Op::ReadScalarI {
                        dst: self.off(dst),
                        slot,
                    }),
                    LaneTy::B => return Err("bool scalar parameter".into()),
                }
            }
            Inst::ReadOut { dst, out } => {
                let w = self.out_w[out as usize];
                if self.ty(dst) != LaneTy::F(w) {
                    return Err("output read width does not match its register".into());
                }
                self.ops.push(Op::CopyF {
                    dst: self.off(dst),
                    src: self.out_off[out as usize],
                    n: w,
                });
            }
            Inst::WriteOut { out, op, src } => {
                let w = self.out_w[out as usize];
                self.emit_assign(
                    self.out_off[out as usize],
                    LaneTy::F(w),
                    op,
                    self.off(src),
                    self.ty(src),
                    true,
                )?;
            }
            Inst::Gather {
                dst,
                param,
                idx,
                proven,
            } => {
                let p = &self.kernel.params[param as usize];
                if p.ty.scalar != ScalarKind::Float {
                    return Err("non-float gather".into());
                }
                let w = p.ty.width;
                if self.ty(dst) != LaneTy::F(w) {
                    return Err("gather width does not match its register".into());
                }
                if !matches!(p.kind, ParamKind::Gather { .. }) {
                    return Err(format!("`{}` is not a gather parameter", p.name));
                }
                let mut ops_idx = Vec::with_capacity(idx.len());
                for r in &idx {
                    match self.ty(*r) {
                        LaneTy::F(1) => ops_idx.push((self.off(*r), false)),
                        LaneTy::I => ops_idx.push((self.off(*r), true)),
                        _ => return Err("gather index must be scalar".into()),
                    }
                }
                if !self.gather_params.iter().any(|(pi, _)| *pi == param) {
                    self.gather_params.push((param, w));
                }
                self.ops.push(Op::Gather {
                    dst: self.off(dst),
                    w,
                    param,
                    idx: ops_idx,
                    proven,
                });
            }
            Inst::Indexof { dst, param } => {
                if self.ty(dst) != LaneTy::F(2) {
                    return Err("indexof register is not a float2".into());
                }
                let p = &self.kernel.params[param as usize];
                if matches!(p.kind, ParamKind::Gather { .. }) {
                    return Err(format!("indexof on non-stream `{}`", p.name));
                }
                let slot = match self.indexof_params.iter().position(|pi| *pi == param) {
                    Some(i) => i as u16,
                    None => {
                        self.indexof_params.push(param);
                        (self.indexof_params.len() - 1) as u16
                    }
                };
                self.ops.push(Op::Indexof {
                    dst: self.off(dst),
                    slot,
                });
            }
        }
        Ok(())
    }

    fn decode_bin(
        &mut self,
        dst: crate::Reg,
        op: BinOp,
        lhs: crate::Reg,
        rhs: crate::Reg,
    ) -> Result<(), String> {
        let (lt, rt) = (self.ty(lhs), self.ty(rhs));
        let (lo, ro, d) = (self.off(lhs), self.off(rhs), self.off(dst));
        // Pure int arithmetic and int comparisons.
        if lt == LaneTy::I && rt == LaneTy::I {
            if let Some(c) = comp_of(op) {
                if self.ty(dst) != LaneTy::B {
                    return Err("comparison result register is not a bool".into());
                }
                self.ops.push(Op::CmpI {
                    op: c,
                    dst: d,
                    a: lo,
                    b: ro,
                });
                return Ok(());
            }
            if op.is_logical() {
                return Err("logical op on ints".into());
            }
            if self.ty(dst) != LaneTy::I {
                return Err("int arithmetic result register is not an int".into());
            }
            let iop = match op {
                BinOp::Add => IOp::Add,
                BinOp::Sub => IOp::Sub,
                BinOp::Mul => IOp::Mul,
                BinOp::Div => IOp::Div,
                BinOp::Rem => IOp::Rem,
                _ => unreachable!(),
            };
            self.ops.push(Op::ArithI {
                op: iop,
                dst: d,
                a: lo,
                b: ro,
            });
            return Ok(());
        }
        if lt == LaneTy::B && rt == LaneTy::B {
            let bop = match op {
                BinOp::And => BOp::And,
                BinOp::Or => BOp::Or,
                BinOp::Eq => BOp::Eq,
                BinOp::Ne => BOp::Ne,
                _ => return Err("arithmetic on bools".into()),
            };
            if self.ty(dst) != LaneTy::B {
                return Err("bool op result register is not a bool".into());
            }
            self.ops.push(Op::LogicB {
                op: bop,
                dst: d,
                a: lo,
                b: ro,
            });
            return Ok(());
        }
        if let Some(c) = comp_of(op) {
            // Mixed comparison: both must promote to scalar floats.
            let (ao, at) = self.promote(lo, lt)?;
            let (bo, bt) = self.promote(ro, rt)?;
            if at != LaneTy::F(1) || bt != LaneTy::F(1) {
                return Err("comparisons need scalar operands".into());
            }
            if self.ty(dst) != LaneTy::B {
                return Err("comparison result register is not a bool".into());
            }
            self.ops.push(Op::CmpF {
                op: c,
                dst: d,
                a: ao,
                b: bo,
            });
            return Ok(());
        }
        if op.is_logical() {
            return Err("logical op on non-bools".into());
        }
        let fop = match op {
            BinOp::Add => FOp::Add,
            BinOp::Sub => FOp::Sub,
            BinOp::Mul => FOp::Mul,
            BinOp::Div => FOp::Div,
            BinOp::Rem => FOp::Rem,
            _ => unreachable!(),
        };
        let result = self.emit_arith(fop, IOp::Add, d, (lo, lt), (ro, rt))?;
        if result != self.ty(dst) {
            return Err(format!(
                "arithmetic result type {result:?} does not match its register ({:?})",
                self.ty(dst)
            ));
        }
        Ok(())
    }

    fn decode_construct(&mut self, dst: crate::Reg, width: u8, args: &[crate::Reg]) -> Result<(), String> {
        if self.ty(dst) != LaneTy::F(width) {
            return Err("constructor width does not match its register".into());
        }
        // Concatenated lane sources: float components in order, ints as
        // single converted lanes, bools contributing nothing (exactly
        // `eval::construct`).
        enum SrcLane {
            F(u32),
            I(u32),
        }
        let mut lanes: Vec<SrcLane> = Vec::new();
        for r in args {
            match self.ty(*r) {
                LaneTy::F(w) => {
                    for c in 0..w as usize {
                        lanes.push(SrcLane::F(self.off(*r) + (c * LANES) as u32));
                    }
                }
                LaneTy::I => lanes.push(SrcLane::I(self.off(*r))),
                LaneTy::B => {}
            }
        }
        let d = self.off(dst);
        // Aliasing guard: constructor sources are normally fresh temps,
        // but a pass could in principle alias them with the destination;
        // route through a scratch in that case.
        let aliases = args.contains(&dst);
        let target = if aliases { self.scratch_f(width) } else { d };
        if lanes.len() == 1 && width > 1 {
            match lanes[0] {
                SrcLane::F(off) => self.ops.push(Op::SplatF {
                    dst: target,
                    w: width,
                    src: off,
                }),
                SrcLane::I(off) => self.ops.push(Op::SplatI {
                    dst: target,
                    w: width,
                    src: off,
                }),
            }
        } else {
            if lanes.len() < width as usize {
                return Err(format!("`float{width}` constructor needs {width} components"));
            }
            for (c, src) in lanes.iter().take(width as usize).enumerate() {
                let dc = target + (c * LANES) as u32;
                match src {
                    SrcLane::F(off) => self.ops.push(Op::CopyF {
                        dst: dc,
                        src: *off,
                        n: 1,
                    }),
                    SrcLane::I(off) => self.ops.push(Op::ItoF { dst: dc, src: *off }),
                }
            }
        }
        if aliases {
            self.ops.push(Op::CopyF {
                dst: d,
                src: target,
                n: width,
            });
        }
        Ok(())
    }

    /// Selector characters as lane indices, validated against width `w`.
    fn sel_indices(sel: &str, w: u8) -> Result<Vec<usize>, String> {
        if sel.is_empty() || sel.len() > 4 {
            return Err(format!("swizzle `.{sel}` out of range"));
        }
        let mut out = Vec::with_capacity(sel.len());
        for c in sel.bytes() {
            let i = crate::eval::lane_index(c);
            if i >= w as usize {
                return Err(format!("swizzle `.{sel}` out of range"));
            }
            out.push(i);
        }
        Ok(out)
    }

    fn decode_swizzle(&mut self, dst: crate::Reg, src: crate::Reg, sel: &str) -> Result<(), String> {
        let LaneTy::F(w) = self.ty(src) else {
            return Err("cannot swizzle a non-float value".into());
        };
        let idx = Self::sel_indices(sel, w)?;
        if self.ty(dst) != LaneTy::F(idx.len() as u8) {
            return Err("swizzle width does not match its register".into());
        }
        let (d0, s0) = (self.off(dst), self.off(src));
        let target = if dst == src {
            self.scratch_f(idx.len() as u8)
        } else {
            d0
        };
        for (k, i) in idx.iter().enumerate() {
            self.ops.push(Op::CopyF {
                dst: target + (k * LANES) as u32,
                src: s0 + (i * LANES) as u32,
                n: 1,
            });
        }
        if dst == src {
            self.ops.push(Op::CopyF {
                dst: d0,
                src: target,
                n: idx.len() as u8,
            });
        }
        Ok(())
    }

    fn decode_swizzle_store(
        &mut self,
        dst: crate::Reg,
        op: AssignOp,
        src: crate::Reg,
        sel: &str,
    ) -> Result<(), String> {
        let LaneTy::F(w) = self.ty(dst) else {
            return Err("cannot swizzle a non-float value".into());
        };
        let idx = Self::sel_indices(sel, w)?;
        let n = idx.len() as u8;
        // view = dst.sel
        let view = self.scratch_f(n);
        let d0 = self.off(dst);
        for (k, i) in idx.iter().enumerate() {
            self.ops.push(Op::CopyF {
                dst: view + (k * LANES) as u32,
                src: d0 + (i * LANES) as u32,
                n: 1,
            });
        }
        // combined = apply_assign(view, op, src); the combined value may
        // be wider than the view (scalar keeps the first n lanes).
        let (so, st) = (self.off(src), self.ty(src));
        let combined: u32 = match op {
            AssignOp::Assign => match st {
                LaneTy::F(ws) if ws >= n && src == dst => {
                    // `v.yx = v;` — the stores below must read the
                    // right-hand side's *original* components, so an
                    // aliasing source goes through a scratch copy.
                    let s = self.scratch_f(n);
                    self.ops.push(Op::CopyF { dst: s, src: so, n });
                    s
                }
                LaneTy::F(ws) if ws >= n => so,
                LaneTy::F(1) => {
                    let s = self.scratch_f(n);
                    self.ops.push(Op::SplatF {
                        dst: s,
                        w: n,
                        src: so,
                    });
                    s
                }
                LaneTy::I if n == 1 => {
                    let s = self.scratch_f(1);
                    self.ops.push(Op::ItoF { dst: s, src: so });
                    s
                }
                _ => return Err("swizzle assignment out of range".into()),
            },
            _ => {
                // The view is always float (dst is an F register), so
                // only the float flavour of the compound op applies.
                let fop = match op {
                    AssignOp::AddAssign => FOp::Add,
                    AssignOp::SubAssign => FOp::Sub,
                    AssignOp::MulAssign => FOp::Mul,
                    AssignOp::DivAssign => FOp::Div,
                    AssignOp::Assign => unreachable!(),
                };
                let (po, pt) = self.promote(so, st)?;
                let cw = Self::zip_w(LaneTy::F(n), pt).ok_or("operand shape mismatch")?;
                if cw < n {
                    return Err("swizzle assignment out of range".into());
                }
                let s = self.scratch_f(cw);
                let LaneTy::F(wp) = pt else { unreachable!() };
                self.ops.push(Op::ArithF {
                    op: fop,
                    dst: s,
                    w: cw,
                    a: view,
                    ab: n == 1 && cw > 1,
                    b: po,
                    bb: wp == 1 && cw > 1,
                });
                s
            }
        };
        // Store combined lanes back into the selected components.
        for (k, i) in idx.iter().enumerate() {
            self.ops.push(Op::CopyF {
                dst: d0 + (i * LANES) as u32,
                src: combined + (k * LANES) as u32,
                n: 1,
            });
        }
        Ok(())
    }

    fn decode_builtin(&mut self, dst: crate::Reg, which: u16, args: &[crate::Reg]) -> Result<(), String> {
        let b = BUILTINS.get(which as usize).ok_or("unknown builtin")?;
        let name = b.name;
        // Arguments promote int -> float first, exactly as
        // `Builtin::eval` does for the scalar interpreter.
        let mut a: Vec<(u32, LaneTy)> = Vec::with_capacity(args.len());
        for r in args {
            let p = self.promote(self.off(*r), self.ty(*r))?;
            a.push(p);
        }
        let d = self.off(dst);
        let want = self.ty(dst);
        let fw = |t: LaneTy| -> Result<u8, String> {
            match t {
                LaneTy::F(w) => Ok(w),
                _ => Err(format!("invalid arguments for `{name}`")),
            }
        };
        // zip into an explicit destination
        fn zip_into(
            p: &mut Planner<'_>,
            f: Bin,
            dst: u32,
            a: (u32, LaneTy),
            b: (u32, LaneTy),
        ) -> Result<LaneTy, String> {
            let w = Planner::zip_w(a.1, b.1).ok_or("operand shape mismatch")?;
            let (LaneTy::F(wa), LaneTy::F(wb)) = (a.1, b.1) else {
                unreachable!()
            };
            p.ops.push(Op::Map2 {
                f,
                dst,
                w,
                a: a.0,
                ab: wa == 1 && w > 1,
                b: b.0,
                bb: wb == 1 && w > 1,
            });
            Ok(LaneTy::F(w))
        }
        let result: LaneTy = match b.op {
            Fun::Un(f) => {
                let w = fw(a[0].1)?;
                self.ops.push(Op::Map1 {
                    f,
                    dst: d,
                    src: a[0].0,
                    w,
                });
                LaneTy::F(w)
            }
            Fun::Normalize => {
                let w = fw(a[0].1)?;
                self.ops.push(Op::Normalize {
                    dst: d,
                    src: a[0].0,
                    w,
                });
                LaneTy::F(w)
            }
            Fun::Bin(f) => zip_into(self, f, d, a[0], a[1])?,
            Fun::Clamp => {
                // lo = max(a0, a1); res = min(lo, a2)
                let lw = Self::zip_w(a[0].1, a[1].1).ok_or("operand shape mismatch")?;
                let lo = self.scratch_f(lw);
                zip_into(self, Bin::Max, lo, a[0], a[1])?;
                zip_into(self, Bin::Min, d, (lo, LaneTy::F(lw)), a[2])?
            }
            Fun::Lerp => {
                // bt = a1 * t; at = a0 * (1 - t); res = at + bt
                let btw = Self::zip_w(a[1].1, a[2].1).ok_or("operand shape mismatch")?;
                let bt = self.scratch_f(btw);
                zip_into(self, Bin::Mul, bt, a[1], a[2])?;
                let atw = Self::zip_w(a[0].1, a[2].1).ok_or("operand shape mismatch")?;
                let at = self.scratch_f(atw);
                zip_into(self, Bin::MulOneMinusB, at, a[0], a[2])?;
                zip_into(self, Bin::Add, d, (at, LaneTy::F(atw)), (bt, LaneTy::F(btw)))?
            }
            Fun::Smoothstep => {
                // num = a2 - a0; den = a1 - a0; t = clamp01(num / den); res = hermite(t)
                let nw = Self::zip_w(a[2].1, a[0].1).ok_or("operand shape mismatch")?;
                let num = self.scratch_f(nw);
                zip_into(self, Bin::Sub, num, a[2], a[0])?;
                let dw = Self::zip_w(a[1].1, a[0].1).ok_or("operand shape mismatch")?;
                let den = self.scratch_f(dw);
                zip_into(self, Bin::Sub, den, a[1], a[0])?;
                let tw = Self::zip_w(LaneTy::F(nw), LaneTy::F(dw)).ok_or("operand shape mismatch")?;
                let t = self.scratch_f(tw);
                zip_into(
                    self,
                    Bin::DivClamp01,
                    t,
                    (num, LaneTy::F(nw)),
                    (den, LaneTy::F(dw)),
                )?;
                self.ops.push(Op::Map1 {
                    f: Un::Hermite,
                    dst: d,
                    src: t,
                    w: tw,
                });
                LaneTy::F(tw)
            }
            Fun::Dot => {
                let (wa, wb) = (fw(a[0].1)?, fw(a[1].1)?);
                if wa != wb {
                    return Err(format!("invalid arguments for `{name}`"));
                }
                self.ops.push(Op::Dot {
                    dst: d,
                    a: a[0].0,
                    b: a[1].0,
                    w: wa,
                });
                LaneTy::F(1)
            }
            Fun::Length => {
                let w = fw(a[0].1)?;
                self.ops.push(Op::Length {
                    dst: d,
                    src: a[0].0,
                    w,
                });
                LaneTy::F(1)
            }
            Fun::Distance => {
                let w = Self::zip_w(a[0].1, a[1].1).ok_or("operand shape mismatch")?;
                let diff = self.scratch_f(w);
                zip_into(self, Bin::Sub, diff, a[0], a[1])?;
                self.ops.push(Op::Length { dst: d, src: diff, w });
                LaneTy::F(1)
            }
        };
        if result != want {
            return Err(format!(
                "builtin result type {result:?} does not match its register ({want:?})"
            ));
        }
        Ok(())
    }
}

fn comp_of(op: BinOp) -> Option<COp> {
    match op {
        BinOp::Lt => Some(COp::Lt),
        BinOp::Le => Some(COp::Le),
        BinOp::Gt => Some(COp::Gt),
        BinOp::Ge => Some(COp::Ge),
        BinOp::Eq => Some(COp::Eq),
        BinOp::Ne => Some(COp::Ne),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// The execution engine.
// ---------------------------------------------------------------------------

/// Internal signal: abandon the current block and re-run it scalar.
struct Bail;

macro_rules! lanes_loop {
    ($m:expr, $l:ident, $body:block) => {
        if $m == FULL {
            for $l in 0..LANES {
                $body
            }
        } else {
            let mut mm = $m;
            while mm != 0 {
                let $l = mm.trailing_zeros() as usize;
                $body
                mm &= mm - 1;
            }
        }
    };
}

/// Reusable slab storage for the lane (and Tier-2) engines: the f32
/// register/staging arena, the i32 arena, the bool-mask arena and the
/// Tier-2 per-launch framing tables. Allocated once — by the serial
/// backend, and per worker in the parallel backend — and re-prepared
/// per kernel, so per-dispatch execution never reallocates. The f32/i32
/// arenas are 32-byte aligned so the explicit-SIMD tier
/// ([`crate::simd`]) can use AVX2 aligned loads on slab blocks.
#[derive(Debug, Default)]
pub struct LaneSlabs {
    pub(crate) f: crate::simd::AlignedF32,
    pub(crate) i: crate::simd::AlignedI32,
    pub(crate) b: Vec<Mask>,
    pub(crate) tier: crate::tier::FrameScratch,
}

impl LaneSlabs {
    /// An empty frame; sized on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes and zero-fills the arenas for one kernel's slab layout.
    pub(crate) fn prepare(&mut self, lk: &LaneKernel) {
        self.f.clear_resize(lk.f_len);
        self.i.clear_resize(lk.i_len);
        self.b.clear();
        self.b.resize(lk.b_len, 0);
        debug_assert_eq!(
            self.f.as_slice().as_ptr() as usize % 32,
            0,
            "lane f32 slab arena must be 32-byte aligned for AVX2 loads"
        );
        debug_assert_eq!(
            self.i.as_slice().as_ptr() as usize % 32,
            0,
            "lane i32 slab arena must be 32-byte aligned for AVX2 loads"
        );
    }
}

struct Engine<'a, 'p> {
    lk: &'p LaneKernel,
    bindings: &'a [Binding<'a>],
    /// Float register + output staging slabs (component-major, one
    /// component = [`LANES`] consecutive values).
    f: &'a mut [f32],
    i: &'a mut [i32],
    b: &'a mut [Mask],
    /// Lanes retired by a kernel-level `return` in this block.
    dead: Mask,
    /// Per-lane loop back-edge counts (the scalar budget, per lane).
    iters: [u32; LANES],
    /// Per elem slot: backing data and per-lane element offsets.
    elem_data: Vec<&'a [f32]>,
    elem_off: Vec<[usize; LANES]>,
    /// Per scalar slot: pre-split lanes / int payloads.
    scalar_f: Vec<[f32; 4]>,
    scalar_i: Vec<i32>,
    /// Per indexof slot: per-lane `indexof` value.
    idx_vals: Vec<[[f32; 2]; LANES]>,
    /// Maximum `indexof` component values of this launch's domain
    /// ([`crate::eval::indexof_comp_max`]) — the runtime half of
    /// [`crate::ProvenIdx::IndexofRel`] clamp elision.
    comp_max: [i64; 2],
}

/// Runs a (non-reduce) kernel over a contiguous partition of its output
/// domain through the lane engine — the drop-in counterpart of
/// [`crate::interp::run_kernel_range`], bit-exact with it for both
/// results and faults. Bindings the plan cannot model (unexpected
/// kinds, widths or scalar types) and faulting blocks transparently
/// execute through the scalar interpreter.
///
/// # Errors
/// Exactly the scalar interpreter's faults, with element attribution.
pub fn run_kernel_range(
    lane: &LaneKernel,
    kernel: &IrKernel,
    bindings: &[Binding<'_>],
    outputs: &mut [&mut [f32]],
    domain_shape: &[usize],
    range: Range<usize>,
) -> Result<(), ExecError> {
    let mut slabs = LaneSlabs::new();
    run_kernel_range_in(&mut slabs, lane, kernel, bindings, outputs, domain_shape, range)
}

/// [`run_kernel_range`] with caller-owned slab storage: the parallel
/// backend allocates one [`LaneSlabs`] per worker and reuses it across
/// every block of the worker's chunk instead of rebuilding the frame
/// per dispatch.
///
/// # Errors
/// Exactly the scalar interpreter's faults, with element attribution.
pub fn run_kernel_range_in(
    slabs: &mut LaneSlabs,
    lane: &LaneKernel,
    kernel: &IrKernel,
    bindings: &[Binding<'_>],
    outputs: &mut [&mut [f32]],
    domain_shape: &[usize],
    range: Range<usize>,
) -> Result<(), ExecError> {
    let (dx, dy, linear) = domain_extents(domain_shape);
    debug_assert!(range.end <= dx * dy, "domain range exceeds the domain");
    let scalar = |outputs: &mut [&mut [f32]]| {
        crate::interp::run_kernel_range(kernel, bindings, outputs, domain_shape, range.clone())
    };
    // Output-slot -> buffer mapping plus per-buffer widths; anything
    // unexpected falls back to the scalar path, which owns the error
    // surface.
    let mut out_buf = Vec::with_capacity(kernel.outputs.len());
    for (slot, _) in kernel.output_params() {
        match &bindings[kernel.outputs[slot as usize] as usize] {
            Binding::Out(i) => out_buf.push(*i),
            _ => return scalar(outputs),
        }
    }
    let mut buf_width: Vec<Option<usize>> = vec![None; outputs.len()];
    for (slot, bi) in out_buf.iter().enumerate() {
        buf_width[*bi] = Some(lane.out_w[slot] as usize);
    }
    // Elementwise inputs must match the planned widths.
    let mut elem_data = Vec::with_capacity(lane.elem_params.len());
    let mut elem_shapes = Vec::with_capacity(lane.elem_params.len());
    for (pi, w) in &lane.elem_params {
        match &bindings[*pi as usize] {
            Binding::Elem { data, shape, width } if width == w => {
                elem_data.push(*data);
                elem_shapes.push(*shape);
            }
            _ => return scalar(outputs),
        }
    }
    // Scalars must carry the planned runtime types.
    let mut scalar_f = vec![[0.0f32; 4]; lane.scalar_params.len()];
    let mut scalar_i = vec![0i32; lane.scalar_params.len()];
    for (slot, (pi, ty)) in lane.scalar_params.iter().enumerate() {
        match &bindings[*pi as usize] {
            Binding::Scalar(v) if LaneTy::of_value(v) == *ty => match v {
                Value::Int(x) => scalar_i[slot] = *x,
                other => {
                    scalar_f[slot][..other.lanes().len()].copy_from_slice(other.lanes());
                }
            },
            _ => return scalar(outputs),
        }
    }
    for (pi, w) in &lane.gather_params {
        match &bindings[*pi as usize] {
            Binding::Gather { width, .. } if width == w => {}
            _ => return scalar(outputs),
        }
    }
    // `indexof` semantics depend on the binding kind; gather bindings
    // fault in the scalar path, so let it raise that fault.
    for pi in &lane.indexof_params {
        if matches!(&bindings[*pi as usize], Binding::Gather { .. }) {
            return scalar(outputs);
        }
    }
    slabs.prepare(lane);
    let mut eng = Engine {
        lk: lane,
        bindings,
        f: slabs.f.as_mut_slice(),
        i: slabs.i.as_mut_slice(),
        b: &mut slabs.b,
        dead: 0,
        iters: [0; LANES],
        elem_data,
        elem_off: vec![[0; LANES]; lane.elem_params.len()],
        scalar_f,
        scalar_i,
        idx_vals: vec![[[0.0; 2]; LANES]; lane.indexof_params.len()],
        comp_max: crate::eval::indexof_comp_max((dx, dy), linear),
    };
    let mut base = range.start;
    while base < range.end {
        let n = (range.end - base).min(LANES);
        let mask: Mask = if n == LANES { FULL } else { (1u32 << n) - 1 };
        eng.dead = 0;
        eng.iters = [0; LANES];
        // Per-lane element addressing for this block.
        for (si, shape) in elem_shapes.iter().enumerate() {
            let cols = if shape.len() == 2 {
                shape[1]
            } else {
                shape.iter().product()
            };
            let width = lane.elem_params[si].1 as usize;
            for l in 0..n {
                let p = base + l;
                let (ix, iy) = input_index((p % dx, p / dx), (dx, dy), shape);
                eng.elem_off[si][l] = (iy * cols + ix) * width;
            }
        }
        for (si, pi) in lane.indexof_params.iter().enumerate() {
            for l in 0..n {
                let p = base + l;
                let pos = (p % dx, p / dx);
                eng.idx_vals[si][l] = match &bindings[*pi as usize] {
                    Binding::Elem { shape, .. } => indexof_elem(pos, (dx, dy), shape),
                    Binding::Out(_) | Binding::Scalar(_) => indexof_pos(pos, (dx, dy), linear),
                    Binding::Gather { .. } => unreachable!("validated above"),
                };
            }
        }
        // Stage current output contents where the plan says the block
        // can observe or leave them (unconditional-overwrite slots skip
        // the pre-read — the flush rewrites every lane anyway).
        for (slot, bi) in out_buf.iter().enumerate() {
            if !lane.out_preload[slot] {
                continue;
            }
            let w = lane.out_w[slot] as usize;
            let off = lane.out_off[slot] as usize;
            let buf = &outputs[*bi];
            for l in 0..n {
                let src = (base + l - range.start) * w;
                for c in 0..w {
                    eng.f[off + c * LANES + l] = buf[src + c];
                }
            }
        }
        match eng.exec_nodes(&kernel.body, mask) {
            Ok(()) => {
                for (slot, bi) in out_buf.iter().enumerate() {
                    let w = lane.out_w[slot] as usize;
                    let off = lane.out_off[slot] as usize;
                    let buf = &mut outputs[*bi];
                    for l in 0..n {
                        let dst = (base + l - range.start) * w;
                        for c in 0..w {
                            buf[dst + c] = eng.f[off + c * LANES + l];
                        }
                    }
                }
            }
            Err(Bail) => {
                // Re-run exactly this block through the scalar
                // interpreter: its partial writes, fault choice, element
                // attribution and span are the scalar path's, verbatim.
                // (No staged lane write has touched the real buffers.)
                let mut slices: Vec<&mut [f32]> = Vec::with_capacity(outputs.len());
                for (bi, out) in outputs.iter_mut().enumerate() {
                    match buf_width[bi] {
                        Some(w) => {
                            let s = (base - range.start) * w;
                            slices.push(&mut out[s..s + n * w]);
                        }
                        None => slices.push(&mut out[0..0]),
                    }
                }
                crate::interp::run_kernel_range(kernel, bindings, &mut slices, domain_shape, base..base + n)?;
            }
        }
        base += n;
    }
    Ok(())
}

impl Engine<'_, '_> {
    fn exec_nodes(&mut self, nodes: &[Node], mask: Mask) -> Result<(), Bail> {
        for n in nodes {
            let m = mask & !self.dead;
            if m == 0 {
                return Ok(());
            }
            match n {
                Node::Seq { start, end } => self.exec_seq(*start, *end, m)?,
                Node::If { cond, then, els, .. } => {
                    let cb = self.b[self.lk.cond_off[*cond as usize] as usize];
                    let tm = m & cb;
                    let em = m & !cb;
                    if tm != 0 {
                        self.exec_nodes(then, tm)?;
                    }
                    if em != 0 {
                        self.exec_nodes(els, em)?;
                    }
                }
                Node::Loop(l) => self.exec_loop(l, m)?,
            }
        }
        Ok(())
    }

    fn exec_loop(&mut self, l: &crate::LoopNode, mask: Mask) -> Result<(), Bail> {
        let cond_off = self.lk.cond_off[l.cond as usize] as usize;
        let mut active = mask;
        if l.kind == LoopKind::DoWhile {
            loop {
                active &= !self.dead;
                if active == 0 {
                    return Ok(());
                }
                self.exec_nodes(&l.body, active)?;
                active &= !self.dead;
                if active == 0 {
                    return Ok(());
                }
                self.exec_nodes(&l.header, active)?;
                active &= !self.dead & self.b[cond_off];
                if active == 0 {
                    return Ok(());
                }
                self.bump_iters(active)?;
            }
        }
        loop {
            active &= !self.dead;
            if active == 0 {
                return Ok(());
            }
            self.exec_nodes(&l.header, active)?;
            active &= !self.dead & self.b[cond_off];
            if active == 0 {
                return Ok(());
            }
            self.exec_nodes(&l.body, active)?;
            // Back-edge: lanes still live after the body iterate again.
            active &= !self.dead;
            if active != 0 {
                self.bump_iters(active)?;
            }
        }
    }

    /// The scalar iteration budget, per lane: every taken back-edge
    /// counts once for every lane that takes it.
    fn bump_iters(&mut self, m: Mask) -> Result<(), Bail> {
        let mut mm = m;
        while mm != 0 {
            let l = mm.trailing_zeros() as usize;
            self.iters[l] += 1;
            if u64::from(self.iters[l]) > MAX_ITERATIONS {
                return Err(Bail);
            }
            mm &= mm - 1;
        }
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn exec_seq(&mut self, start: u32, end: u32, m: Mask) -> Result<(), Bail> {
        let lk = self.lk;
        let bindings = self.bindings;
        let ops = &lk.ops[lk.op_start[start as usize] as usize..lk.op_start[end as usize] as usize];
        for op in ops {
            match op {
                Op::ConstF { dst, w, v } => {
                    for (c, val) in v.iter().copied().take(*w as usize).enumerate() {
                        let d = *dst as usize + c * LANES;
                        lanes_loop!(m, l, {
                            self.f[d + l] = val;
                        });
                    }
                }
                Op::ConstI { dst, v } => {
                    let d = *dst as usize;
                    lanes_loop!(m, l, {
                        self.i[d + l] = *v;
                    });
                }
                Op::ConstB { dst, v } => {
                    let d = *dst as usize;
                    let bits = if *v { m } else { 0 };
                    self.b[d] = (self.b[d] & !m) | bits;
                }
                Op::CopyF { dst, src, n } => {
                    for c in 0..*n as usize {
                        let d = *dst as usize + c * LANES;
                        let s = *src as usize + c * LANES;
                        lanes_loop!(m, l, {
                            self.f[d + l] = self.f[s + l];
                        });
                    }
                }
                Op::CopyI { dst, src } => {
                    let (d, s) = (*dst as usize, *src as usize);
                    lanes_loop!(m, l, {
                        self.i[d + l] = self.i[s + l];
                    });
                }
                Op::CopyB { dst, src } => {
                    let bits = self.b[*src as usize];
                    let d = *dst as usize;
                    self.b[d] = (self.b[d] & !m) | (bits & m);
                }
                Op::SplatF { dst, w, src } => {
                    let s = *src as usize;
                    for c in 0..*w as usize {
                        let d = *dst as usize + c * LANES;
                        lanes_loop!(m, l, {
                            self.f[d + l] = self.f[s + l];
                        });
                    }
                }
                Op::SplatI { dst, w, src } => {
                    let s = *src as usize;
                    for c in 0..*w as usize {
                        let d = *dst as usize + c * LANES;
                        lanes_loop!(m, l, {
                            self.f[d + l] = self.i[s + l] as f32;
                        });
                    }
                }
                Op::ItoF { dst, src } => {
                    let (d, s) = (*dst as usize, *src as usize);
                    lanes_loop!(m, l, {
                        self.f[d + l] = self.i[s + l] as f32;
                    });
                }
                Op::FtoI { dst, src } => {
                    let (d, s) = (*dst as usize, *src as usize);
                    lanes_loop!(m, l, {
                        self.i[d + l] = self.f[s + l] as i32;
                    });
                }
                Op::ArithF {
                    op,
                    dst,
                    w,
                    a,
                    ab,
                    b,
                    bb,
                } => {
                    for c in 0..*w as usize {
                        let d = *dst as usize + c * LANES;
                        let x = *a as usize + if *ab { 0 } else { c * LANES };
                        let y = *b as usize + if *bb { 0 } else { c * LANES };
                        match op {
                            FOp::Add => lanes_loop!(m, l, {
                                self.f[d + l] = self.f[x + l] + self.f[y + l];
                            }),
                            FOp::Sub => lanes_loop!(m, l, {
                                self.f[d + l] = self.f[x + l] - self.f[y + l];
                            }),
                            FOp::Mul => lanes_loop!(m, l, {
                                self.f[d + l] = self.f[x + l] * self.f[y + l];
                            }),
                            FOp::Div => lanes_loop!(m, l, {
                                self.f[d + l] = self.f[x + l] / self.f[y + l];
                            }),
                            FOp::Rem => lanes_loop!(m, l, {
                                let av = self.f[x + l];
                                let bv = self.f[y + l];
                                self.f[d + l] = av - bv * (av / bv).floor();
                            }),
                        }
                    }
                }
                Op::ArithI { op, dst, a, b } => {
                    let (d, x, y) = (*dst as usize, *a as usize, *b as usize);
                    match op {
                        IOp::Add => lanes_loop!(m, l, {
                            self.i[d + l] = self.i[x + l].wrapping_add(self.i[y + l]);
                        }),
                        IOp::Sub => lanes_loop!(m, l, {
                            self.i[d + l] = self.i[x + l].wrapping_sub(self.i[y + l]);
                        }),
                        IOp::Mul => lanes_loop!(m, l, {
                            self.i[d + l] = self.i[x + l].wrapping_mul(self.i[y + l]);
                        }),
                        IOp::Div => lanes_loop!(m, l, {
                            let bv = self.i[y + l];
                            self.i[d + l] = if bv == 0 {
                                0
                            } else {
                                self.i[x + l].wrapping_div(bv)
                            };
                        }),
                        IOp::Rem => lanes_loop!(m, l, {
                            let bv = self.i[y + l];
                            self.i[d + l] = if bv == 0 {
                                0
                            } else {
                                self.i[x + l].wrapping_rem(bv)
                            };
                        }),
                    }
                }
                Op::CmpF { op, dst, a, b } => {
                    let (x, y) = (*a as usize, *b as usize);
                    let mut bits: Mask = 0;
                    lanes_loop!(m, l, {
                        let av = self.f[x + l];
                        let bv = self.f[y + l];
                        let t = match op {
                            COp::Lt => av < bv,
                            COp::Le => av <= bv,
                            COp::Gt => av > bv,
                            COp::Ge => av >= bv,
                            COp::Eq => av == bv,
                            COp::Ne => av != bv,
                        };
                        if t {
                            bits |= 1 << l;
                        }
                    });
                    let d = *dst as usize;
                    self.b[d] = (self.b[d] & !m) | bits;
                }
                Op::CmpI { op, dst, a, b } => {
                    let (x, y) = (*a as usize, *b as usize);
                    let mut bits: Mask = 0;
                    lanes_loop!(m, l, {
                        let av = self.i[x + l];
                        let bv = self.i[y + l];
                        let t = match op {
                            COp::Lt => av < bv,
                            COp::Le => av <= bv,
                            COp::Gt => av > bv,
                            COp::Ge => av >= bv,
                            COp::Eq => av == bv,
                            COp::Ne => av != bv,
                        };
                        if t {
                            bits |= 1 << l;
                        }
                    });
                    let d = *dst as usize;
                    self.b[d] = (self.b[d] & !m) | bits;
                }
                Op::LogicB { op, dst, a, b } => {
                    let (av, bv) = (self.b[*a as usize], self.b[*b as usize]);
                    let bits = match op {
                        BOp::And => av & bv,
                        BOp::Or => av | bv,
                        BOp::Eq => !(av ^ bv),
                        BOp::Ne => av ^ bv,
                    };
                    let d = *dst as usize;
                    self.b[d] = (self.b[d] & !m) | (bits & m);
                }
                Op::NotB { dst, src } => {
                    let bits = !self.b[*src as usize];
                    let d = *dst as usize;
                    self.b[d] = (self.b[d] & !m) | (bits & m);
                }
                Op::NegF { dst, src, w } => {
                    for c in 0..*w as usize {
                        let d = *dst as usize + c * LANES;
                        let s = *src as usize + c * LANES;
                        lanes_loop!(m, l, {
                            self.f[d + l] = -self.f[s + l];
                        });
                    }
                }
                Op::NegI { dst, src } => {
                    let (d, s) = (*dst as usize, *src as usize);
                    lanes_loop!(m, l, {
                        self.i[d + l] = self.i[s + l].wrapping_neg();
                    });
                }
                Op::Map1 { f, dst, src, w } => {
                    macro_rules! map1 {
                        ($g:expr) => {
                            for c in 0..*w as usize {
                                let d = *dst as usize + c * LANES;
                                let s = *src as usize + c * LANES;
                                lanes_loop!(m, l, {
                                    self.f[d + l] = $g(self.f[s + l]);
                                });
                            }
                        };
                    }
                    glsl_es::with_prim!(un *f, g => map1!(g))
                }
                Op::Map2 {
                    f,
                    dst,
                    w,
                    a,
                    ab,
                    b,
                    bb,
                } => {
                    macro_rules! map2 {
                        ($g:expr) => {
                            for c in 0..*w as usize {
                                let d = *dst as usize + c * LANES;
                                let x = *a as usize + if *ab { 0 } else { c * LANES };
                                let y = *b as usize + if *bb { 0 } else { c * LANES };
                                lanes_loop!(m, l, {
                                    self.f[d + l] = $g(self.f[x + l], self.f[y + l]);
                                });
                            }
                        };
                    }
                    glsl_es::with_prim!(bin *f, g => map2!(g))
                }
                Op::Dot { dst, a, b, w } => {
                    let (d, x, y, w) = (*dst as usize, *a as usize, *b as usize, *w as usize);
                    lanes_loop!(m, l, {
                        let f = &self.f;
                        self.f[d + l] = math::dot(w, |c| f[x + c * LANES + l], |c| f[y + c * LANES + l]);
                    });
                }
                Op::Length { dst, src, w } => {
                    let (d, s, w) = (*dst as usize, *src as usize, *w as usize);
                    lanes_loop!(m, l, {
                        let f = &self.f;
                        self.f[d + l] = math::length(w, |c| f[s + c * LANES + l]);
                    });
                }
                Op::Normalize { dst, src, w } => {
                    let (d, s, w) = (*dst as usize, *src as usize, *w as usize);
                    lanes_loop!(m, l, {
                        let mut v = [0.0f32; 4];
                        for (c, x) in v[..w].iter_mut().enumerate() {
                            *x = self.f[s + c * LANES + l];
                        }
                        math::normalize(&mut v[..w]);
                        for (c, x) in v[..w].iter().enumerate() {
                            self.f[d + c * LANES + l] = *x;
                        }
                    });
                }
                Op::SelF { dst, cond, a, b, w } => {
                    let cb = self.b[*cond as usize];
                    lanes_loop!(m, l, {
                        let src = if cb & (1 << l) != 0 { *a } else { *b } as usize;
                        for c in 0..*w as usize {
                            self.f[*dst as usize + c * LANES + l] = self.f[src + c * LANES + l];
                        }
                    });
                }
                Op::SelI { dst, cond, a, b } => {
                    let cb = self.b[*cond as usize];
                    let (d, x, y) = (*dst as usize, *a as usize, *b as usize);
                    lanes_loop!(m, l, {
                        self.i[d + l] = if cb & (1 << l) != 0 {
                            self.i[x + l]
                        } else {
                            self.i[y + l]
                        };
                    });
                }
                Op::SelB { dst, cond, a, b } => {
                    let cb = self.b[*cond as usize];
                    let bits = (self.b[*a as usize] & cb) | (self.b[*b as usize] & !cb);
                    let d = *dst as usize;
                    self.b[d] = (self.b[d] & !m) | (bits & m);
                }
                Op::ReadElem { dst, w, slot } => {
                    let data = self.elem_data[*slot as usize];
                    let off = self.elem_off[*slot as usize];
                    for c in 0..*w as usize {
                        let d = *dst as usize + c * LANES;
                        lanes_loop!(m, l, {
                            self.f[d + l] = data[off[l] + c];
                        });
                    }
                }
                Op::ReadScalarF { dst, w, slot } => {
                    let v = self.scalar_f[*slot as usize];
                    for (c, val) in v.iter().copied().take(*w as usize).enumerate() {
                        let d = *dst as usize + c * LANES;
                        lanes_loop!(m, l, {
                            self.f[d + l] = val;
                        });
                    }
                }
                Op::ReadScalarI { dst, slot } => {
                    let v = self.scalar_i[*slot as usize];
                    let d = *dst as usize;
                    lanes_loop!(m, l, {
                        self.i[d + l] = v;
                    });
                }
                Op::Gather {
                    dst,
                    w,
                    param,
                    idx,
                    proven,
                } => {
                    let Binding::Gather { data, shape, width } = &bindings[*param as usize] else {
                        return Err(Bail);
                    };
                    // One per-block fit check buys a clamp-free lane
                    // loop when the analyzer proved the indices in
                    // bounds for this shape.
                    if proven
                        .as_ref()
                        .is_some_and(|p| crate::eval::proven_fits_dyn(p, shape, self.comp_max))
                    {
                        lanes_loop!(m, l, {
                            let mut linear = 0usize;
                            for (k, (off, is_int)) in idx.iter().enumerate() {
                                let iv: i64 = if *is_int {
                                    i64::from(self.i[*off as usize + l])
                                } else {
                                    (self.f[*off as usize + l] + 0.5).floor() as i64
                                };
                                let dim = shape[k];
                                debug_assert!(
                                    iv >= 0 && (iv as usize) < dim,
                                    "unsound clamp elision: lane index {iv} outside [0, {dim}) — analyzer bug"
                                );
                                linear = linear * dim + iv as usize;
                            }
                            let src = linear * *width as usize;
                            for c in 0..*w as usize {
                                self.f[*dst as usize + c * LANES + l] = data[src + c];
                            }
                        });
                        continue;
                    }
                    lanes_loop!(m, l, {
                        let mut linear = 0usize;
                        if idx.len() == shape.len() {
                            for (k, (off, is_int)) in idx.iter().enumerate() {
                                let iv: i64 = if *is_int {
                                    i64::from(self.i[*off as usize + l])
                                } else {
                                    (self.f[*off as usize + l] + 0.5).floor() as i64
                                };
                                let dim = shape[k];
                                linear = linear * dim + iv.clamp(0, dim as i64 - 1) as usize;
                            }
                        } else {
                            let len: usize = shape.iter().product();
                            let first: i64 = match idx.first() {
                                Some((off, true)) => i64::from(self.i[*off as usize + l]),
                                Some((off, false)) => (self.f[*off as usize + l] + 0.5).floor() as i64,
                                None => 0,
                            };
                            linear = first.clamp(0, len as i64 - 1) as usize;
                        }
                        let src = linear * *width as usize;
                        for c in 0..*w as usize {
                            self.f[*dst as usize + c * LANES + l] = data[src + c];
                        }
                    });
                }
                Op::Indexof { dst, slot } => {
                    let v = self.idx_vals[*slot as usize];
                    let d = *dst as usize;
                    lanes_loop!(m, l, {
                        self.f[d + l] = v[l][0];
                        self.f[d + LANES + l] = v[l][1];
                    });
                }
                Op::Ret => {
                    self.dead |= m;
                    return Ok(());
                }
                Op::Bail => return Err(Bail),
            }
        }
        Ok(())
    }
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

    /// Runs a 1-input/1-output kernel over a 1-D domain on both the
    /// scalar interpreter and the lane engine and returns both results.
    #[allow(clippy::type_complexity)]
    fn run_both(
        kernel: &IrKernel,
        input: &[f32],
        n: usize,
    ) -> (Result<Vec<f32>, ExecError>, Result<Vec<f32>, ExecError>) {
        let lane = plan_with(kernel, None).expect("plan");
        let shape = [n];
        let run = |use_lanes: bool| -> Result<Vec<f32>, ExecError> {
            let mut bindings = Vec::new();
            let mut n_outs = 0usize;
            for p in &kernel.params {
                match p.kind {
                    ParamKind::Stream => bindings.push(Binding::Elem {
                        data: input,
                        shape: &shape,
                        width: 1,
                    }),
                    ParamKind::OutStream => {
                        bindings.push(Binding::Out(n_outs));
                        n_outs += 1;
                    }
                    _ => panic!("run_both supports stream params only"),
                }
            }
            let mut buf = vec![0.0f32; n];
            {
                let mut outs: Vec<&mut [f32]> = vec![&mut buf];
                if use_lanes {
                    run_kernel_range(&lane, kernel, &bindings, &mut outs, &shape, 0..n)?;
                } else {
                    crate::interp::run_kernel_range(kernel, &bindings, &mut outs, &shape, 0..n)?;
                }
            }
            Ok(buf)
        };
        (run(false), run(true))
    }

    pub(super) fn assert_bit_exact(src: &str, input_of: impl Fn(usize) -> f32, sizes: &[usize]) {
        let k = lower_src(src);
        for &n in sizes {
            let input: Vec<f32> = (0..n).map(&input_of).collect();
            let (scalar, lanes) = run_both(&k, &input, n);
            let (scalar, lanes) = (scalar.expect("scalar"), lanes.expect("lanes"));
            for (i, (s, l)) in scalar.iter().zip(&lanes).enumerate() {
                assert_eq!(
                    s.to_bits(),
                    l.to_bits(),
                    "n={n} element {i}: scalar {s} vs lanes {l}\n{src}"
                );
            }
        }
    }

    #[test]
    fn straight_line_matches_scalar_at_every_remainder() {
        assert_bit_exact(
            "kernel void f(float a<>, out float o<>) { o = a * 2.5 + sin(a) - sqrt(abs(a)); }",
            |i| i as f32 * 0.37 - 3.0,
            &[1, LANES - 1, LANES, LANES + 1, 2 * LANES + 1, 97],
        );
    }

    #[test]
    fn divergent_branch_and_loop_match_scalar() {
        assert_bit_exact(
            "kernel void f(float a<>, out float o<>) {
                float s = 0.0;
                int i;
                for (i = 0; i < 12; i++) {
                    if (s < a) { s += 1.5; } else { s -= 0.25; }
                }
                if (a > 4.0) { o = s * 2.0; return; }
                o = s;
            }",
            |i| (i as f32 * 1.7) % 9.0,
            &[LANES, 2 * LANES + 1, 61],
        );
    }

    #[test]
    fn data_dependent_while_loop_masks_until_all_exit() {
        // Every lane exits after a different trip count: the loop must
        // keep only unfinished lanes active.
        assert_bit_exact(
            "kernel void f(float a<>, out float o<>) {
                float s = a;
                while (s < 20.0) { s = s * 1.5 + 1.0; }
                o = s;
            }",
            |i| (i % 19) as f32,
            &[LANES, 2 * LANES + 1],
        );
    }

    #[test]
    fn vectors_swizzles_and_builtins_match_scalar() {
        assert_bit_exact(
            "kernel void f(float a<>, out float o<>) {
                float4 v = float4(a, a + 1.0, a * 2.0, 4.0);
                v.xy += float2(0.5, 0.25);
                float3 u = float3(v.x, v.y, v.z);
                float d = dot(u, normalize(u));
                float c = clamp(a, 0.25, 3.5) + lerp(1.0, 2.0, fract(a)) + smoothstep(0.0, 8.0, a);
                o = d + c + length(float2(v.z, v.w)) + min(a, 2.0) * step(1.0, a);
            }",
            |i| i as f32 * 0.61 - 2.0,
            &[LANES, LANES + 1, 53],
        );
    }

    #[test]
    fn int_arithmetic_and_casts_match_scalar() {
        assert_bit_exact(
            "kernel void f(float a<>, out float o<>) {
                int i = int(a);
                int j = i * 3 - 7;
                int k = j / (i + 2) + j % 5;
                o = float(k) + a;
            }",
            |i| i as f32 * 0.9 - 4.0,
            &[LANES, 2 * LANES + 1],
        );
    }

    #[test]
    fn ternary_select_matches_scalar() {
        assert_bit_exact(
            "kernel void f(float a<>, out float o<>) { o = a > 2.0 ? a * 3.0 : a - 1.0; }",
            |i| i as f32 * 0.5,
            &[LANES, LANES + 1],
        );
    }

    #[test]
    fn compound_output_writes_match_scalar() {
        assert_bit_exact(
            "kernel void f(float a<>, out float o<>) { o = a; o += 2.0; o *= a + 1.0; }",
            |i| i as f32 * 0.21,
            &[LANES - 1, LANES, 2 * LANES + 1],
        );
    }

    #[test]
    fn empty_range_is_a_no_op() {
        let k = lower_src("kernel void f(float a<>, out float o<>) { o = a; }");
        let lane = plan_with(&k, None).expect("plan");
        let shape = [4usize];
        let bindings = vec![
            Binding::Elem {
                data: &[1.0, 2.0, 3.0, 4.0],
                shape: &shape,
                width: 1,
            },
            Binding::Out(0),
        ];
        let mut buf = vec![7.0f32; 0];
        let mut outs: Vec<&mut [f32]> = vec![&mut buf];
        run_kernel_range(&lane, &k, &bindings, &mut outs, &shape, 0..0).expect("empty range");
    }

    #[test]
    fn planner_rejects_reduce_kernels() {
        let k = lower_src("reduce void sum(float a<>, reduce float r<>) { r += a; }");
        let err = plan_with(&k, None).expect_err("reduce must stay scalar");
        assert!(err.contains("serial"), "{err}");
    }

    #[test]
    fn budget_fault_matches_scalar_exactly() {
        // Lane 3 of the second block diverges into an unbounded loop;
        // the lane engine must bail and report the scalar path's exact
        // fault: element index, message and source line.
        let src = "kernel void f(float a<>, out float o<>) {\n    float s = a;\n    while (s > 0.5) { s = s + 0.0; }\n    o = s;\n}";
        let k = lower_src(src);
        let n = LANES + 7;
        let bad = LANES + 3;
        let input: Vec<f32> = (0..n).map(|i| if i == bad { 1.0 } else { 0.0 }).collect();
        let (scalar, lanes) = run_both(&k, &input, n);
        let se = scalar.expect_err("scalar faults");
        let le = lanes.expect_err("lanes fault");
        assert_eq!(se, le, "lane fault must be the scalar fault verbatim");
        assert_eq!(le.element, Some(bad));
        assert_eq!(le.span.line, 3);
        assert!(le.render().contains(&format!("element {bad}")), "{}", le.render());
    }

    #[test]
    fn fault_in_block_preserves_scalar_partial_writes() {
        // The scalar path writes elements before the faulting one; the
        // lane engine stages blocks, so after its scalar re-run of the
        // faulting block the partial writes must agree.
        let src = "kernel void f(float a<>, out float o<>) {
            o = a * 2.0;
            float s = a;
            while (s > 0.5) { s = s + 0.0; }
        }";
        let k = lower_src(src);
        let n = LANES;
        let bad = 5;
        let input: Vec<f32> = (0..n)
            .map(|i| if i == bad { 1.0 } else { 0.1 * i as f32 })
            .collect();
        let lane = plan_with(&k, None).expect("plan");
        let shape = [n];
        let run = |use_lanes: bool| -> (Vec<f32>, ExecError) {
            let bindings = vec![
                Binding::Elem {
                    data: &input,
                    shape: &shape,
                    width: 1,
                },
                Binding::Out(0),
            ];
            let mut buf = vec![0.0f32; n];
            let err = {
                let mut outs: Vec<&mut [f32]> = vec![&mut buf];
                if use_lanes {
                    run_kernel_range(&lane, &k, &bindings, &mut outs, &shape, 0..n).expect_err("fault")
                } else {
                    crate::interp::run_kernel_range(&k, &bindings, &mut outs, &shape, 0..n)
                        .expect_err("fault")
                }
            };
            (buf, err)
        };
        let (sbuf, serr) = run(false);
        let (lbuf, lerr) = run(true);
        assert_eq!(serr, lerr);
        assert_eq!(sbuf, lbuf, "partial writes must match the scalar path");
        assert_eq!(serr.element, Some(bad));
    }

    #[test]
    fn lane_program_records_decisions() {
        let checked = parse_and_check(
            "kernel void ok(float a<>, out float o<>) { o = a + 1.0; }
             reduce void sum(float a<>, reduce float r<>) { r += a; }",
        )
        .expect("front-end");
        let (ir, errs) = crate::lower::lower_program(&checked);
        assert!(errs.is_empty());
        let lp = LaneProgram::plan_program_with(&ir, &[]);
        assert!(lp.kernel("ok").is_some());
        assert!(lp.kernel("sum").is_none());
        assert_eq!(lp.decision("ok"), Some(Ok(())));
        assert!(matches!(lp.decision("sum"), Some(Err(_))));
    }
}

#[cfg(test)]
mod alias_tests {
    use super::tests::assert_bit_exact as assert_bit_exact_1in1out;
    use super::*;

    /// `v.yx = v;` — the swizzle store's right-hand side aliases its
    /// destination; the stores must read the original components
    /// (scalar semantics), not partially overwritten ones.
    #[test]
    fn aliasing_swizzle_store_reads_the_original_value() {
        assert_bit_exact_1in1out(
            "kernel void f(float a<>, out float o<>) {
                float2 v = float2(a, a * 2.0 + 1.0);
                v.yx = v;
                o = v.x * 100.0 + v.y;
            }",
            |i| i as f32 * 0.31 - 1.0,
            &[LANES, LANES + 3],
        );
    }

    /// Self-referential swizzle read (`v = v.yx` style chains) through
    /// a compound store.
    #[test]
    fn compound_aliasing_swizzle_store_matches_scalar() {
        assert_bit_exact_1in1out(
            "kernel void f(float a<>, out float o<>) {
                float3 v = float3(a, a + 1.0, a + 2.0);
                v.zx += v.xy;
                o = v.x + v.y * 10.0 + v.z * 100.0;
            }",
            |i| i as f32 * 0.17,
            &[LANES, 2 * LANES + 1],
        );
    }
}
