//! # brook-ir — BrookIR, the typed flat mid-level IR of the toolchain
//!
//! Every layer of the Brook Auto stack used to walk the front-end AST
//! directly: the CPU backends tree-interpreted it, the GLSL generator
//! pattern-matched it, the fusion planner cloned and renamed its
//! statements, and the certification analyses re-traversed it. BrookIR
//! replaces that shared dependency with a single **typed, flat,
//! register-based** intermediate form that every consumer lowers
//! through:
//!
//! * **flat instruction stream** ([`Inst`]) with absolute jump targets —
//!   the execution form. The interpreter in [`interp`] runs it over a
//!   preallocated register frame with no tree walk, no scope hash maps
//!   and no per-node allocation;
//! * **structured regions** ([`Node`]) over the same instruction
//!   indices — the analysis/codegen form. Loops stay syntactic regions
//!   carrying their statically deduced trip bound, so certifiability
//!   remains a syntactic property after lowering (the paper's BA003
//!   argument survives the IR);
//! * **source provenance**: every instruction carries the [`Span`] of
//!   the statement or expression it was lowered from, so certification
//!   findings and runtime faults raised *after* lowering still point at
//!   the offending source line.
//!
//! Helper functions are inlined during lowering (certified programs
//! have an acyclic, depth-bounded call graph; see [`lower`]), so the IR
//! has no call instruction and no stack.
//!
//! The semantic helpers in [`eval`] are shared with the legacy AST tree
//! walker in `brook-auto`, which is kept as the differential oracle:
//! both execute the *same* scalar semantics by construction, and the
//! fuzz campaigns assert bit-exactness between them.

pub mod eval;
pub mod interp;
pub mod lanes;
pub mod lower;
pub mod passes;
pub mod pretty;
pub mod simd;
pub mod tier;
pub mod verify;

pub use brook_lang::ast::{AssignOp, BinOp, ParamKind, Type, UnOp};
pub use brook_lang::loopbound::LoopBound;
use brook_lang::span::Span;
pub use brook_lang::ReduceOp;
pub use glsl_es::Value;

/// A virtual register index into a kernel's preallocated frame.
pub type Reg = u32;

/// One kernel parameter, mirrored from the front-end so the IR is
/// self-contained (fused kernels have no AST to refer back to).
#[derive(Debug, Clone, PartialEq)]
pub struct IrParam {
    /// Parameter name (binding key and GLSL uniform/sampler base name).
    pub name: String,
    /// Element type.
    pub ty: Type,
    /// Stream / gather / scalar role.
    pub kind: ParamKind,
}

/// Analyzer-proven range of one gather-index dimension.
///
/// Produced by `brook_cert::absint` and attached to [`Inst::Gather`].
/// Both forms are inclusive intervals; `IndexofRel` expresses indices
/// derived from `indexof` of the *output* stream, whose components are
/// bounded by the launch domain rather than by a compile-time constant
/// (the dominant gather pattern in stencil and matrix kernels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProvenIdx {
    /// The index is a compile-time interval: `lo <= idx <= hi`.
    Const { lo: i64, hi: i64 },
    /// The index is `indexof` component `comp` (0 = x, 1 = y) of the
    /// launch domain plus an offset in `[lo, hi]`:
    /// `comp_value + lo <= idx <= comp_value + hi`, where
    /// `0 <= comp_value <= comp_max(domain)` (see
    /// [`eval::indexof_comp_max`]).
    IndexofRel { comp: u8, lo: i64, hi: i64 },
}

/// One flat instruction.
///
/// The value semantics are *dynamic*, mirroring the AST tree walker
/// exactly: registers carry a static upper-bound type (see
/// [`IrKernel::regs`]) but instructions like [`Inst::AssignLocal`] and
/// [`Inst::WriteOut`] apply Brook's implicit conversions (int→float
/// promotion, scalar→vector broadcast) on the runtime value, so a
/// lowered program is bit-exact with the tree-walking oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// No operation (left behind by index-stable passes such as DCE).
    Nop,
    /// `dst = v`.
    Const { dst: Reg, v: Value },
    /// `dst = src` (verbatim copy, no conversion).
    Mov { dst: Reg, src: Reg },
    /// Declaration initializer: `dst = coerce_to(src, ty)` (Brook's
    /// decl-site implicit conversion, [`eval::coerce_to`]).
    DeclInit { dst: Reg, src: Reg, ty: Type },
    /// Local assignment: `dst = apply_assign(dst, op, src)` — including
    /// compound operators and Brook's assignment broadcasts
    /// ([`eval::apply_assign`]).
    AssignLocal { dst: Reg, op: AssignOp, src: Reg },
    /// `dst = lhs op rhs` with Brook's implicit int→float promotion
    /// ([`eval::brook_bin_op`]).
    Bin { dst: Reg, op: BinOp, lhs: Reg, rhs: Reg },
    /// `dst = op src`.
    Un { dst: Reg, op: UnOp, src: Reg },
    /// `dst = int(src)` (truncating cast).
    CastInt { dst: Reg, src: Reg },
    /// `dst = float<width>(args...)` — vector constructor / scalar cast
    /// / splat, with the tree walker's lane-concatenation semantics.
    Construct { dst: Reg, width: u8, args: Vec<Reg> },
    /// `dst = src.sel` (component selection, `sel` normalized to xyzw).
    Swizzle { dst: Reg, src: Reg, sel: String },
    /// `dst.sel = apply_assign(dst.sel, op, src)` (swizzled store into
    /// a local register).
    SwizzleStore {
        dst: Reg,
        op: AssignOp,
        src: Reg,
        sel: String,
    },
    /// `dst = builtin(args...)`; `which` indexes
    /// [`brook_lang::builtins::BUILTINS`]. Int arguments promote to
    /// float first, as in the tree walker.
    Builtin { dst: Reg, which: u16, args: Vec<Reg> },
    /// `dst = cond ? a : b` — both arms already evaluated (sound for
    /// the pure arms the lowerer emits it for).
    Select { dst: Reg, cond: Reg, a: Reg, b: Reg },
    /// `dst =` current element of the elementwise input `param`.
    ReadElem { dst: Reg, param: u16 },
    /// `dst =` scalar (uniform) argument bound to `param`.
    ReadScalar { dst: Reg, param: u16 },
    /// `dst =` current value of output slot `out` at this element.
    ReadOut { dst: Reg, out: u16 },
    /// Output store: `out = apply_assign(out, op, src)` at the current
    /// element.
    WriteOut { out: u16, op: AssignOp, src: Reg },
    /// `dst = param[idx...]` — random-access gather with per-dimension
    /// clamping ([`eval::gather_clamped`]).
    ///
    /// `proven` is filled in by the abstract interpreter
    /// (`brook_cert::absint`) after the pass pipeline: one
    /// [`ProvenIdx`] per dimension describing where the logical index
    /// of that dimension is statically proven to lie. Shapes and
    /// launch domains are runtime-only, so executors may skip the
    /// per-dimension clamp only after checking at launch time that the
    /// bound stream's shape covers the proven range (see
    /// [`eval::proven_fits_dyn`]). Passes never see a `Some` value —
    /// the annotation runs strictly after optimization.
    Gather {
        dst: Reg,
        param: u16,
        idx: Vec<Reg>,
        proven: Option<Vec<ProvenIdx>>,
    },
    /// `dst = indexof(param)` (always a `float2`).
    Indexof { dst: Reg, param: u16 },
    /// Unconditional jump (loop back-edges and else-skips only — the
    /// region tree in [`IrKernel::body`] proves structure).
    Jump { target: u32 },
    /// Jump to `target` when `cond` is false.
    BranchIfFalse { cond: Reg, target: u32 },
    /// Finish the current element (kernel-level `return;`).
    Ret,
    /// Deliberate runtime fault, preserving the tree walker's dynamic
    /// error surface (e.g. reading a gather without an index). When
    /// `codegen_fatal` is set the construct is also rejected by the
    /// shader generator; guarded faults (helper fall-through checks)
    /// stay CPU-only.
    Fail { msg: String, codegen_fatal: bool },
}

impl Inst {
    /// The register this instruction writes, if any.
    pub fn dst(&self) -> Option<Reg> {
        match self {
            Inst::Const { dst, .. }
            | Inst::Mov { dst, .. }
            | Inst::DeclInit { dst, .. }
            | Inst::AssignLocal { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::CastInt { dst, .. }
            | Inst::Construct { dst, .. }
            | Inst::Swizzle { dst, .. }
            | Inst::SwizzleStore { dst, .. }
            | Inst::Builtin { dst, .. }
            | Inst::Select { dst, .. }
            | Inst::ReadElem { dst, .. }
            | Inst::ReadScalar { dst, .. }
            | Inst::ReadOut { dst, .. }
            | Inst::Gather { dst, .. }
            | Inst::Indexof { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// Registers this instruction reads, appended to `out`.
    /// `AssignLocal`/`SwizzleStore` read their destination too (the
    /// current value feeds the combine).
    pub fn reads(&self, out: &mut Vec<Reg>) {
        match self {
            Inst::Mov { src, .. }
            | Inst::DeclInit { src, .. }
            | Inst::Un { src, .. }
            | Inst::CastInt { src, .. }
            | Inst::Swizzle { src, .. } => out.push(*src),
            Inst::AssignLocal { dst, src, .. } | Inst::SwizzleStore { dst, src, .. } => {
                out.push(*dst);
                out.push(*src);
            }
            Inst::Bin { lhs, rhs, .. } => {
                out.push(*lhs);
                out.push(*rhs);
            }
            Inst::Construct { args, .. } | Inst::Builtin { args, .. } => out.extend(args.iter().copied()),
            Inst::Select { cond, a, b, .. } => {
                out.push(*cond);
                out.push(*a);
                out.push(*b);
            }
            Inst::WriteOut { src, .. } => out.push(*src),
            Inst::Gather { idx, .. } => out.extend(idx.iter().copied()),
            Inst::BranchIfFalse { cond, .. } => out.push(*cond),
            _ => {}
        }
    }
}

/// Loop flavour, preserved for pretty-printing, certification messages
/// and the GLSL emitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    /// Counted C-style `for`.
    For,
    /// `while` (certification rejects it; executable in unchecked mode).
    While,
    /// `do { .. } while` (same status as `while`).
    DoWhile,
}

/// A structured loop region over the flat instruction stream.
///
/// Layout for `For`/`While`: `[header.. , exit_at, body.. , back_at]`
/// with `back_at` jumping to the first header instruction. For
/// `DoWhile` the body precedes the header:
/// `[body.. , header.. , exit_at, back_at]`.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopNode {
    /// Loop flavour.
    pub kind: LoopKind,
    /// Statically deduced trip bound (the BA003 artifact, carried
    /// through lowering so the IR re-check stays syntactic).
    pub bound: LoopBound,
    /// Source location of the loop statement.
    pub span: Span,
    /// Per-iteration condition computation, ending in `cond`.
    pub header: Vec<Node>,
    /// Condition register tested by `exit_at`.
    pub cond: Reg,
    /// Index of the `BranchIfFalse` exiting the loop.
    pub exit_at: u32,
    /// Loop body (for `For` loops the step is lowered at its end).
    pub body: Vec<Node>,
    /// Index of the back-edge `Jump`.
    pub back_at: u32,
}

/// A node of the structured region tree.
///
/// The tree covers exactly the kernel's instruction range; the verifier
/// checks that every control-flow instruction appears where the tree
/// says it does, so the flat interpreter and the structured consumers
/// (GLSL emitter, certification re-check) can never disagree about
/// control flow.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Straight-line instructions `[start, end)` — no `Jump`/`Branch`.
    Seq { start: u32, end: u32 },
    /// `if (cond) { then } else { els }`; `branch_at` is the
    /// `BranchIfFalse` and `jump_at` the then-branch's jump over the
    /// else branch (absent when `els` is empty).
    If {
        /// Condition register.
        cond: Reg,
        /// Index of the `BranchIfFalse`.
        branch_at: u32,
        /// Then-branch nodes.
        then: Vec<Node>,
        /// Index of the `Jump` over the else branch.
        jump_at: Option<u32>,
        /// Else-branch nodes.
        els: Vec<Node>,
    },
    /// A structured loop region.
    Loop(Box<LoopNode>),
}

/// One lowered kernel: flat instructions + structured regions + types +
/// provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct IrKernel {
    /// Kernel name.
    pub name: String,
    /// True for reduce kernels.
    pub is_reduce: bool,
    /// Canonical reduction operation (reduce kernels).
    pub reduce_op: Option<ReduceOp>,
    /// Parameters in declaration order (binding order).
    pub params: Vec<IrParam>,
    /// Indices into `params` of the `out` stream parameters, in
    /// declaration order — `WriteOut`/`ReadOut` slots.
    pub outputs: Vec<u16>,
    /// Register holding the reduction accumulator (reduce kernels).
    pub acc_reg: Option<Reg>,
    /// Static type of every register (an upper bound: runtime values
    /// may be narrower, exactly as in the tree walker).
    pub regs: Vec<Type>,
    /// The flat instruction stream.
    pub insts: Vec<Inst>,
    /// Source span of every instruction (parallel to `insts`).
    pub spans: Vec<Span>,
    /// Structured region tree over `insts`.
    pub body: Vec<Node>,
    /// Source span of the kernel definition.
    pub span: Span,
    /// Whether any instruction is `Indexof` (mirrors the front-end
    /// summary flag).
    pub uses_indexof: bool,
}

impl IrKernel {
    /// The parameter index of output slot `out`.
    pub fn out_param(&self, out: u16) -> &IrParam {
        &self.params[self.outputs[out as usize] as usize]
    }

    /// Iterates every `(slot, param)` output pair.
    pub fn output_params(&self) -> impl Iterator<Item = (u16, &IrParam)> {
        self.outputs
            .iter()
            .enumerate()
            .map(|(slot, &p)| (slot as u16, &self.params[p as usize]))
    }

    /// Registers actually referenced by live (non-`Nop`) instructions.
    pub fn live_regs(&self) -> Vec<bool> {
        let mut live = vec![false; self.regs.len()];
        let mut reads = Vec::new();
        for inst in &self.insts {
            if let Some(d) = inst.dst() {
                live[d as usize] = true;
            }
            reads.clear();
            inst.reads(&mut reads);
            for r in &reads {
                live[*r as usize] = true;
            }
        }
        live
    }
}

/// Analyzer-proven facts about one kernel, consumed by the execution
/// planners ([`lanes::plan_with`], [`tier`]) in place of (or on top of)
/// their own ad-hoc syntactic checks.
///
/// Produced by `brook_cert::absint`; data-only so the IR crate does not
/// depend on the cert crate. `Default` is the "no facts proven" value —
/// planners given it behave exactly as before.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KernelFacts {
    /// Every register is definitely assigned before every use on every
    /// path (proven by the analyzer's definite-assignment dataflow — a
    /// strict superset of the planners' syntactic walk).
    pub def_before_use_ok: bool,
    /// `unreachable[pc]` — instruction `pc` is statically unreachable
    /// (dominated by a branch whose condition the analyzer proved
    /// constant). Parallel to `IrKernel::insts`; empty when unproven.
    pub unreachable: Vec<bool>,
    /// For reduce kernels whose combine matches
    /// [`simd::reduce_combine_site`]: the analyzer's value range for
    /// the per-element combine operand. The vectorized-reduce planner
    /// admits the kernel only when this proves the fold
    /// reassociation-safe (NaN-free and strictly sign-definite).
    pub reduce_combine: Option<ReduceCombineFact>,
}

/// The abstract value of a reduce kernel's combine operand, joined
/// over every path reaching the combine (see
/// [`KernelFacts::reduce_combine`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReduceCombineFact {
    /// Lower bound of the operand's numeric range.
    pub lo: f32,
    /// Upper bound of the operand's numeric range.
    pub hi: f32,
    /// Whether the operand is proven non-NaN on every path.
    pub nan_free: bool,
}

impl KernelFacts {
    /// True when instruction `pc` is proven unreachable.
    pub fn is_unreachable(&self, pc: usize) -> bool {
        self.unreachable.get(pc).copied().unwrap_or(false)
    }
}

/// A lowered translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IrProgram {
    /// Kernels in source order (kernels that failed to lower — possible
    /// only for programs compiled with certification disabled — are
    /// absent; backends fall back to the AST walker for those).
    pub kernels: Vec<IrKernel>,
}

impl IrProgram {
    /// Finds a kernel by name.
    pub fn kernel(&self, name: &str) -> Option<&IrKernel> {
        self.kernels.iter().find(|k| k.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inst_dst_and_reads() {
        let i = Inst::Bin {
            dst: 2,
            op: BinOp::Add,
            lhs: 0,
            rhs: 1,
        };
        assert_eq!(i.dst(), Some(2));
        let mut r = Vec::new();
        i.reads(&mut r);
        assert_eq!(r, vec![0, 1]);
        let w = Inst::WriteOut {
            out: 0,
            op: AssignOp::Assign,
            src: 2,
        };
        assert_eq!(w.dst(), None);
        r.clear();
        w.reads(&mut r);
        assert_eq!(r, vec![2]);
    }

    #[test]
    fn assign_local_reads_its_destination() {
        let i = Inst::AssignLocal {
            dst: 3,
            op: AssignOp::AddAssign,
            src: 1,
        };
        let mut r = Vec::new();
        i.reads(&mut r);
        assert_eq!(r, vec![3, 1]);
    }
}
