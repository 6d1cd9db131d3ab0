//! Abstract interpretation over BrookIR (the tier-2 static analyzer).
//!
//! A forward interval analysis over each kernel's flat instruction
//! stream, driven by the structured region tree ([`brook_ir::Node`]) so
//! loops get a proper widening/narrowing fixpoint instead of a
//! flow-insensitive smear. The domain tracks:
//!
//! - integer registers as `i64` intervals (widened to the full `i32`
//!   range on potential wrap — runtime int arithmetic wraps),
//! - float registers as `f32` endpoint intervals plus a may-be-NaN
//!   flag (endpoint evaluation in `f32` is sound because every runtime
//!   float op is a monotone function of its operands composed with the
//!   monotone rounding `fl(..)`),
//! - `indexof` results symbolically (`IdxVec` / `IdxComp`): component
//!   `comp` of the launch domain plus a constant offset interval —
//!   the dominant gather-index shape in stencil and matrix kernels,
//! - booleans as three-valued constants, with a predicate side-table
//!   so branches refine the operand intervals of the comparison that
//!   produced the condition.
//!
//! Analysis facts feed four consumers (see ARCHITECTURE.md):
//! certification rules BA013/BA014 (hard rejection of provable
//! faults), clamp elision on proven-in-bounds gathers
//! ([`brook_ir::ProvenIdx`], launch-checked by
//! [`brook_ir::eval::proven_fits_dyn`]), refined WCET admission
//! estimates, and planner facts ([`brook_ir::KernelFacts`]).

use crate::engine::Finding;
use crate::ir_check::inst_cost;
use crate::rules::RuleId;
use brook_ir::{Inst, IrKernel, IrProgram, KernelFacts, LoopKind, LoopNode, Node, ProvenIdx, Value};
use brook_lang::ast::{AssignOp, BinOp, ParamKind, ScalarKind, Type, UnOp};
use brook_lang::builtins::BUILTINS;
use brook_lang::diag::Severity;
use brook_lang::span::Span;
use glsl_es::math::{Bin, Fun, Un};
use std::collections::HashMap;

/// Start widening unbounded-looking loops after this many rounds.
const WIDEN_AFTER: u64 = 3;
/// Hard cap on fixpoint rounds (widening converges far earlier; this
/// is a defensive backstop, after which the head state is forced to
/// top).
const MAX_ROUNDS: u64 = 64;

// ---------------------------------------------------------------------------
// Abstract values
// ---------------------------------------------------------------------------

/// One register's abstract value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AbsVal {
    /// Unassigned / unreachable.
    Bot,
    /// An `i32` value in `[lo, hi]` (kept as `i64`; transfer functions
    /// widen to the full `i32` range on potential wrap).
    Int { lo: i64, hi: i64 },
    /// An `f32` value in `[lo, hi]` (endpoints never NaN), possibly
    /// NaN when `nan` is set.
    Flt { lo: f32, hi: f32, nan: bool },
    /// The `float2` result of `indexof` on an output stream: both
    /// components are non-negative and bounded by the launch domain.
    IdxVec,
    /// `indexof` component `comp` (0 = x, 1 = y) plus an exact integer
    /// offset in `[off_lo, off_hi]`.
    IdxComp { comp: u8, off_lo: i64, off_hi: i64 },
    /// A boolean, known when `Some`.
    Bool(Option<bool>),
    /// Anything (vectors, type-unstable joins, unmodeled ops).
    Top,
}

impl AbsVal {
    fn flt_top() -> AbsVal {
        AbsVal::Flt {
            lo: f32::NEG_INFINITY,
            hi: f32::INFINITY,
            nan: true,
        }
    }

    fn int_full() -> AbsVal {
        AbsVal::Int {
            lo: i64::from(i32::MIN),
            hi: i64::from(i32::MAX),
        }
    }

    /// Sound float over-approximation of a scalar-float-valued abstract
    /// value (used when an op needs "this as a float interval").
    fn as_flt(self) -> Option<(f32, f32, bool)> {
        match self {
            // i64 -> f32 is monotone, so endpoint conversion preserves
            // interval containment even where the conversion rounds.
            AbsVal::Int { lo, hi } => Some((lo as f32, hi as f32, false)),
            AbsVal::Flt { lo, hi, nan } => Some((lo, hi, nan)),
            // comp >= 0, so the value is at least off_lo; the component
            // itself is only bounded by the (runtime) launch domain.
            AbsVal::IdxComp { off_lo, .. } => Some((off_lo as f32, f32::INFINITY, false)),
            _ => None,
        }
    }

    fn as_bool(self) -> Option<Option<bool>> {
        match self {
            AbsVal::Bool(b) => Some(b),
            _ => None,
        }
    }
}

/// Builds a float interval, routing NaN endpoints into the `nan` flag.
fn mk_flt(lo: f32, hi: f32, nan: bool) -> AbsVal {
    if lo.is_nan() || hi.is_nan() || lo > hi {
        AbsVal::flt_top()
    } else {
        AbsVal::Flt { lo, hi, nan }
    }
}

/// Builds an int interval, widening to the full `i32` range when the
/// (i64) bounds escape it — runtime int arithmetic wraps.
fn mk_int(lo: i64, hi: i64) -> AbsVal {
    if lo < i64::from(i32::MIN) || hi > i64::from(i32::MAX) || lo > hi {
        AbsVal::int_full()
    } else {
        AbsVal::Int { lo, hi }
    }
}

/// `fl`-corner evaluation: min/max of `f` over the interval corner
/// products, NaN corners routed into the flag. Sound for ops monotone
/// per quadrant (add/sub/mul).
fn corners(f: impl Fn(f32, f32) -> f32, a: (f32, f32), b: (f32, f32), nan: bool) -> AbsVal {
    let cs = [f(a.0, b.0), f(a.0, b.1), f(a.1, b.0), f(a.1, b.1)];
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    let mut n = nan;
    for c in cs {
        if c.is_nan() {
            n = true;
        } else {
            lo = lo.min(c);
            hi = hi.max(c);
        }
    }
    if lo > hi {
        return AbsVal::flt_top();
    }
    mk_flt(lo, hi, n)
}

/// Next `f32` strictly below `x` (for strict-comparison refinement).
fn next_down(x: f32) -> f32 {
    if x.is_nan() || x == f32::NEG_INFINITY {
        return x;
    }
    let bits = x.to_bits();
    if x == 0.0 {
        return -f32::from_bits(1);
    }
    f32::from_bits(if x > 0.0 { bits - 1 } else { bits + 1 })
}

/// Next `f32` strictly above `x`.
fn next_up(x: f32) -> f32 {
    if x.is_nan() || x == f32::INFINITY {
        return x;
    }
    let bits = x.to_bits();
    if x == 0.0 {
        return f32::from_bits(1);
    }
    f32::from_bits(if x > 0.0 { bits + 1 } else { bits - 1 })
}

// ---------------------------------------------------------------------------
// Analysis state
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct State {
    vals: Vec<AbsVal>,
    /// Value-version counters: a predicate recorded for generation `g`
    /// of a register only applies while the register still holds
    /// generation `g` (joins of differing generations refresh them).
    gens: Vec<u64>,
    /// Must-assigned flags (definite assignment; joins intersect).
    assigned: Vec<bool>,
    /// False once control provably cannot reach this point (after
    /// `Ret`/`Fail`, or a branch refinement emptied an interval).
    live: bool,
}

impl State {
    fn same_modulo_gens(&self, other: &State) -> bool {
        self.live == other.live && self.vals == other.vals && self.assigned == other.assigned
    }
}

/// A predicate attached to one generation of a boolean register.
#[derive(Clone, Copy)]
enum Pred {
    Cmp {
        op: BinOp,
        lhs: u32,
        rhs: u32,
        lhs_gen: u64,
        rhs_gen: u64,
    },
    Logic {
        op: BinOp,
        lhs: u32,
        rhs: u32,
        lhs_gen: u64,
        rhs_gen: u64,
    },
    Not {
        src: u32,
        src_gen: u64,
    },
}

/// Observed per-dimension gather-index range, join-accumulated across
/// every abstract visit of the instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
enum DimObs {
    Const { lo: i64, hi: i64 },
    Rel { comp: u8, lo: i64, hi: i64 },
    Unknown,
}

fn join_dim(a: DimObs, b: DimObs) -> DimObs {
    match (a, b) {
        (DimObs::Const { lo: a0, hi: a1 }, DimObs::Const { lo: b0, hi: b1 }) => DimObs::Const {
            lo: a0.min(b0),
            hi: a1.max(b1),
        },
        (
            DimObs::Rel {
                comp: ca,
                lo: a0,
                hi: a1,
            },
            DimObs::Rel {
                comp: cb,
                lo: b0,
                hi: b1,
            },
        ) if ca == cb => DimObs::Rel {
            comp: ca,
            lo: a0.min(b0),
            hi: a1.max(b1),
        },
        _ => DimObs::Unknown,
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// One span-attributed analysis fact (pinned by the golden snapshots).
#[derive(Debug, Clone, PartialEq)]
pub struct InstFact {
    /// Instruction index in the kernel's flat stream.
    pub pc: u32,
    /// Source location of the instruction.
    pub span: Span,
    /// Human-readable fact, e.g. ``gather `a` in [idx.y+0..=+0, 0..=15]``.
    pub fact: String,
}

/// Per-kernel analysis results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelAnalysis {
    /// Kernel name.
    pub kernel: String,
    /// Every register is provably assigned before every use.
    pub def_before_use_ok: bool,
    /// No register ever joins values of different runtime kinds
    /// (int/float/bool) on converging paths.
    pub type_stable: bool,
    /// Number of `Gather` instructions analyzed.
    pub total_gathers: usize,
    /// Gathers whose every index dimension has a proven range.
    pub proven_gathers: usize,
    /// Instructions proven statically unreachable.
    pub unreachable_insts: usize,
    /// Reachability-pruned per-element instruction estimate over the
    /// optimized IR (never below the true worst case; `None` when a
    /// loop bound is unknown).
    pub pruned_estimate: Option<u64>,
    /// Span-attributed facts (gather ranges, unreachable code).
    pub facts: Vec<InstFact>,
    /// Provable-fault findings (BA013/BA014) — hard certification
    /// failures.
    pub faults: Vec<Finding>,
}

/// Whole-program analysis results, stored in
/// [`crate::ComplianceReport::analysis`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisReport {
    /// One entry per kernel, in program order.
    pub kernels: Vec<KernelAnalysis>,
}

impl AnalysisReport {
    /// Analysis for a kernel by name.
    pub fn kernel(&self, name: &str) -> Option<&KernelAnalysis> {
        self.kernels.iter().find(|k| k.kernel == name)
    }
}

/// Full per-kernel outcome: the report plus the machine-facing
/// artifacts (planner facts and gather annotations).
pub struct KernelOutcome {
    /// Report entry.
    pub analysis: KernelAnalysis,
    /// Planner facts consumed by `lanes::plan_with` /
    /// `tier::compile_simd`.
    pub facts: KernelFacts,
    /// Proven per-dimension ranges for each `Gather` pc whose every
    /// dimension was resolved.
    pub proven: Vec<(usize, Vec<ProvenIdx>)>,
}

// ---------------------------------------------------------------------------
// The analyzer
// ---------------------------------------------------------------------------

struct Analyzer<'a> {
    k: &'a IrKernel,
    next_gen: u64,
    preds: HashMap<u64, Pred>,
    reach: Vec<bool>,
    gather_obs: HashMap<usize, Vec<DimObs>>,
    div_obs: HashMap<usize, AbsVal>,
    /// The vectorizable reduce combine site, when the kernel matches
    /// the structural shape (`brook_ir::simd::reduce_combine_site`):
    /// `(builtin pc, operand reg)`.
    reduce_site: Option<(usize, u32)>,
    /// Joined abstract value of the combine operand over every
    /// execution of the combine — the semantic half of vectorized
    /// reduce admission.
    reduce_obs: Option<AbsVal>,
    def_ok: bool,
    type_stable: bool,
    scratch_reads: Vec<u32>,
}

impl<'a> Analyzer<'a> {
    fn new(k: &'a IrKernel) -> Self {
        Analyzer {
            k,
            next_gen: 1,
            preds: HashMap::new(),
            reach: vec![false; k.insts.len()],
            gather_obs: HashMap::new(),
            div_obs: HashMap::new(),
            reduce_site: brook_ir::simd::reduce_combine_site(k)
                .ok()
                .map(|site| (site.builtin_pc, site.operand)),
            reduce_obs: None,
            def_ok: true,
            type_stable: true,
            scratch_reads: Vec::new(),
        }
    }

    fn fresh(&mut self) -> u64 {
        self.next_gen += 1;
        self.next_gen
    }

    fn initial_state(&mut self) -> State {
        let n = self.k.regs.len();
        let mut st = State {
            vals: vec![AbsVal::Bot; n],
            gens: (0..n).map(|_| 0).collect(),
            assigned: vec![false; n],
            live: true,
        };
        for (i, g) in st.gens.iter_mut().enumerate() {
            *g = i as u64; // distinct but stable seed generations
        }
        self.next_gen = n as u64 + 1;
        // The reduce accumulator is runtime-initialized before the
        // kernel body runs.
        if let Some(acc) = self.k.acc_reg {
            st.vals[acc as usize] = AbsVal::Top;
            st.assigned[acc as usize] = true;
        }
        st
    }

    // -- lattice operations ------------------------------------------------

    fn join_val(&mut self, a: AbsVal, b: AbsVal) -> AbsVal {
        use AbsVal::*;
        match (a, b) {
            (Bot, x) | (x, Bot) => x,
            (Int { lo: a0, hi: a1 }, Int { lo: b0, hi: b1 }) => Int {
                lo: a0.min(b0),
                hi: a1.max(b1),
            },
            (
                Flt {
                    lo: a0,
                    hi: a1,
                    nan: na,
                },
                Flt {
                    lo: b0,
                    hi: b1,
                    nan: nb,
                },
            ) => Flt {
                lo: a0.min(b0),
                hi: a1.max(b1),
                nan: na || nb,
            },
            (IdxVec, IdxVec) => IdxVec,
            (
                IdxComp {
                    comp: ca,
                    off_lo: a0,
                    off_hi: a1,
                },
                IdxComp {
                    comp: cb,
                    off_lo: b0,
                    off_hi: b1,
                },
            ) if ca == cb => IdxComp {
                comp: ca,
                off_lo: a0.min(b0),
                off_hi: a1.max(b1),
            },
            (Bool(x), Bool(y)) => Bool(if x == y { x } else { None }),
            // Mixed float-ish kinds stay float; note kind instability
            // for genuinely different runtime kinds.
            (
                x @ (Flt { .. } | IdxComp { .. } | Int { .. }),
                y @ (Flt { .. } | IdxComp { .. } | Int { .. }),
            ) => {
                if matches!(x, Int { .. }) != matches!(y, Int { .. }) {
                    self.type_stable = false;
                }
                let (Some((a0, a1, na)), Some((b0, b1, nb))) = (x.as_flt(), y.as_flt()) else {
                    return Top;
                };
                mk_flt(a0.min(b0), a1.max(b1), na || nb)
            }
            _ => {
                self.type_stable = false;
                Top
            }
        }
    }

    fn join_states(&mut self, a: State, b: State) -> State {
        if !a.live {
            return b;
        }
        if !b.live {
            return a;
        }
        let mut out = a;
        for i in 0..out.vals.len() {
            out.vals[i] = self.join_val(out.vals[i], b.vals[i]);
            out.assigned[i] = out.assigned[i] && b.assigned[i];
            if out.gens[i] != b.gens[i] {
                out.gens[i] = self.fresh();
            }
        }
        out
    }

    /// Classic interval widening: escaping bounds jump to the extremes.
    fn widen_states(&mut self, prev: &State, mut next: State) -> State {
        if !prev.live || !next.live {
            return next;
        }
        for i in 0..next.vals.len() {
            use AbsVal::*;
            next.vals[i] = match (prev.vals[i], next.vals[i]) {
                (Int { lo: p0, hi: p1 }, Int { lo: n0, hi: n1 }) => Int {
                    lo: if n0 < p0 { i64::from(i32::MIN) } else { n0 },
                    hi: if n1 > p1 { i64::from(i32::MAX) } else { n1 },
                },
                (Flt { lo: p0, hi: p1, .. }, Flt { lo: n0, hi: n1, nan }) => Flt {
                    lo: if n0 < p0 { f32::NEG_INFINITY } else { n0 },
                    hi: if n1 > p1 { f32::INFINITY } else { n1 },
                    nan,
                },
                (
                    IdxComp {
                        comp: pc,
                        off_lo: p0,
                        off_hi: p1,
                    },
                    IdxComp {
                        comp: nc,
                        off_lo: n0,
                        off_hi: n1,
                    },
                ) if pc == nc && (n0 < p0 || n1 > p1) => {
                    // Drifting offsets: demote to an unbounded float
                    // (indexof components are finite and never NaN).
                    Flt {
                        lo: f32::NEG_INFINITY,
                        hi: f32::INFINITY,
                        nan: false,
                    }
                }
                (_, n) => n,
            };
        }
        next
    }

    // -- predicate refinement ----------------------------------------------

    /// Refines `st` under "`cond` evaluates to `take`". May clear
    /// `st.live` when the branch is provably not taken.
    fn refine_branch(&mut self, st: &mut State, cond: u32, take: bool) {
        if !st.live {
            return;
        }
        if let Some(Some(b)) = st.vals[cond as usize].as_bool() {
            if b != take {
                st.live = false;
            }
            // Known-matching condition: predicates add nothing new
            // beyond the refinement below, which we still apply
            // (e.g. a loop condition that is `true` for every
            // abstract state still narrows the counter).
        }
        self.refine_by_pred(st, cond, take, 0);
    }

    fn refine_by_pred(&mut self, st: &mut State, cond: u32, take: bool, depth: u8) {
        if !st.live || depth > 4 {
            return;
        }
        let Some(p) = self.preds.get(&st.gens[cond as usize]).copied() else {
            return;
        };
        match p {
            Pred::Not { src, src_gen } => {
                if st.gens[src as usize] == src_gen {
                    self.refine_by_pred(st, src, !take, depth + 1);
                }
            }
            Pred::Logic {
                op,
                lhs,
                rhs,
                lhs_gen,
                rhs_gen,
            } => {
                // `a && b == true` pins both true; `a || b == false`
                // pins both false.
                let pin = match (op, take) {
                    (BinOp::And, true) => Some(true),
                    (BinOp::Or, false) => Some(false),
                    _ => None,
                };
                if let Some(v) = pin {
                    if st.gens[lhs as usize] == lhs_gen {
                        self.refine_by_pred(st, lhs, v, depth + 1);
                    }
                    if st.live && st.gens[rhs as usize] == rhs_gen {
                        self.refine_by_pred(st, rhs, v, depth + 1);
                    }
                }
            }
            Pred::Cmp {
                op,
                lhs,
                rhs,
                lhs_gen,
                rhs_gen,
            } => {
                if st.gens[lhs as usize] != lhs_gen || st.gens[rhs as usize] != rhs_gen {
                    return;
                }
                let eff = if take { op } else { negate_cmp(op) };
                self.apply_cmp_refine(st, eff, lhs, rhs, take);
            }
        }
    }

    /// Applies comparison `lhs eff rhs` as a fact. `was_taken` is false
    /// when `eff` came from negating the original operator — float
    /// refinement must then account for unordered (NaN) outcomes.
    fn apply_cmp_refine(&mut self, st: &mut State, eff: BinOp, lhs: u32, rhs: u32, was_taken: bool) {
        use AbsVal::*;
        let a = st.vals[lhs as usize];
        let b = st.vals[rhs as usize];
        match (a, b) {
            // Pure int comparison: exact i32 semantics, no promotion.
            (Int { lo: a0, hi: a1 }, Int { lo: b0, hi: b1 }) => {
                let (na, nb) = refine_int_pair(eff, (a0, a1), (b0, b1));
                set_refined_int(st, lhs, na);
                set_refined_int(st, rhs, nb);
            }
            // Float-involved comparison (runtime promotes ints).
            _ => {
                let (Some((a0, a1, an)), Some((b0, b1, bn))) = (a.as_flt(), b.as_flt()) else {
                    return;
                };
                // A negated ordered comparison also holds when either
                // side is NaN — refine only if NaN is excluded.
                // (`Eq` from a false `Ne` is fine: NaN would have made
                // `Ne` true.)
                if !was_taken && matches!(eff, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge) && (an || bn) {
                    return;
                }
                let (na, nb) = refine_flt_pair(eff, (a0, a1), (b0, b1));
                // A *taken* ordered comparison (or a proven `Eq`)
                // implies both operands compared non-NaN.
                let clears_nan = matches!(eff, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq);
                self.narrow_flt(st, lhs, na, clears_nan);
                self.narrow_flt(st, rhs, nb, clears_nan);
            }
        }
    }

    /// Intersects a register's float-ish value with `[lo, hi]`.
    fn narrow_flt(&mut self, st: &mut State, reg: u32, range: Option<(f32, f32)>, clear_nan: bool) {
        let Some((lo, hi)) = range else { return };
        if lo > hi {
            st.live = false;
            return;
        }
        match st.vals[reg as usize] {
            AbsVal::Flt { lo: c0, hi: c1, nan } => {
                let (n0, n1) = (c0.max(lo), c1.min(hi));
                if n0 > n1 && (clear_nan || !nan) {
                    st.live = false;
                    return;
                }
                st.vals[reg as usize] = if n0 > n1 {
                    // Only the NaN case survives the comparison.
                    AbsVal::flt_top()
                } else {
                    AbsVal::Flt {
                        lo: n0,
                        hi: n1,
                        nan: nan && !clear_nan,
                    }
                };
            }
            // Int compared against a float bound: sound int bounds
            // require the int's f32 image to be exact.
            AbsVal::Int { lo: c0, hi: c1 } if c0.abs() <= 1 << 24 && c1.abs() <= 1 << 24 => {
                let n0 = c0.max(lo.ceil() as i64);
                let n1 = c1.min(hi.floor() as i64);
                if n0 > n1 {
                    st.live = false;
                    return;
                }
                st.vals[reg as usize] = AbsVal::Int { lo: n0, hi: n1 };
            }
            AbsVal::IdxComp { comp, off_lo, off_hi } => {
                // Value = comp + off with comp >= 0: a float upper
                // bound never tightens the (unknown) component, but a
                // lower bound of `off` below `lo - comp_max` is not
                // recoverable either — leave offsets alone, they only
                // feed gather proofs where the launch check re-derives
                // the component bound.
                let _ = (comp, off_lo, off_hi);
            }
            _ => {}
        }
    }

    // -- transfer functions ------------------------------------------------

    fn set(&mut self, st: &mut State, dst: u32, v: AbsVal) {
        st.vals[dst as usize] = v;
        st.assigned[dst as usize] = true;
        st.gens[dst as usize] = self.fresh();
    }

    fn check_reads(&mut self, st: &State, inst: &Inst) {
        let mut reads = std::mem::take(&mut self.scratch_reads);
        reads.clear();
        inst.reads(&mut reads);
        for r in &reads {
            if !st.assigned[*r as usize] {
                self.def_ok = false;
            }
        }
        self.scratch_reads = reads;
    }

    fn record_div(&mut self, pc: usize, denom: AbsVal) {
        let j = match self.div_obs.remove(&pc) {
            Some(prev) => self.join_val(prev, denom),
            None => denom,
        };
        self.div_obs.insert(pc, j);
    }

    fn step(&mut self, st: &mut State, pc: usize, record: bool) {
        if !st.live {
            return;
        }
        let inst = self.k.insts[pc].clone();
        if record {
            self.reach[pc] = true;
            self.check_reads(st, &inst);
            if let Some((bpc, operand)) = self.reduce_site {
                if pc == bpc {
                    let v = st.vals[operand as usize];
                    self.reduce_obs = Some(match self.reduce_obs.take() {
                        Some(prev) => self.join_val(prev, v),
                        None => v,
                    });
                }
            }
        }
        match inst {
            Inst::Nop | Inst::Jump { .. } | Inst::BranchIfFalse { .. } => {}
            Inst::Ret => st.live = false,
            Inst::Fail { .. } => st.live = false,
            Inst::Const { dst, v } => {
                let av = abs_const(v);
                self.set(st, dst, av);
            }
            Inst::Mov { dst, src } => {
                // Copy the generation too: predicates survive moves.
                let (v, g, a) = (
                    st.vals[src as usize],
                    st.gens[src as usize],
                    st.assigned[src as usize],
                );
                st.vals[dst as usize] = v;
                st.gens[dst as usize] = g;
                st.assigned[dst as usize] = a;
            }
            Inst::DeclInit { dst, src, ty } => {
                let v = abs_coerce(st.vals[src as usize], ty);
                self.set(st, dst, v);
            }
            Inst::AssignLocal { dst, op, src } => {
                let cur = st.vals[dst as usize];
                let rhs = st.vals[src as usize];
                if record && matches!(op, AssignOp::DivAssign) {
                    self.record_div(pc, rhs);
                }
                let v = self.abs_assign(cur, op, rhs);
                self.set(st, dst, v);
            }
            Inst::Bin { dst, op, lhs, rhs } => {
                let a = st.vals[lhs as usize];
                let b = st.vals[rhs as usize];
                if record && matches!(op, BinOp::Div | BinOp::Rem) {
                    self.record_div(pc, b);
                }
                let v = self.abs_bin(op, a, b);
                self.set(st, dst, v);
                if matches!(v, AbsVal::Bool(_)) {
                    let pred = if matches!(op, BinOp::And | BinOp::Or) {
                        Pred::Logic {
                            op,
                            lhs,
                            rhs,
                            lhs_gen: st.gens[lhs as usize],
                            rhs_gen: st.gens[rhs as usize],
                        }
                    } else {
                        Pred::Cmp {
                            op,
                            lhs,
                            rhs,
                            lhs_gen: st.gens[lhs as usize],
                            rhs_gen: st.gens[rhs as usize],
                        }
                    };
                    self.preds.insert(st.gens[dst as usize], pred);
                }
            }
            Inst::Un { dst, op, src } => {
                let v = match (op, st.vals[src as usize]) {
                    (UnOp::Not, AbsVal::Bool(b)) => AbsVal::Bool(b.map(|x| !x)),
                    (UnOp::Not, _) => AbsVal::Bool(None),
                    (UnOp::Neg, AbsVal::Int { lo, hi }) => mk_int(-hi, -lo),
                    (UnOp::Neg, x) => match x.as_flt() {
                        Some((lo, hi, nan)) => mk_flt(-hi, -lo, nan),
                        None => AbsVal::Top,
                    },
                };
                self.set(st, dst, v);
                if let (UnOp::Not, g) = (op, st.gens[src as usize]) {
                    let pred = Pred::Not { src, src_gen: g };
                    self.preds.insert(st.gens[dst as usize], pred);
                }
            }
            Inst::CastInt { dst, src } => {
                let v = match st.vals[src as usize] {
                    AbsVal::Int { lo, hi } => AbsVal::Int { lo, hi },
                    x => match x.as_flt() {
                        Some((lo, hi, nan)) => {
                            // `f as i32`: truncation toward zero,
                            // saturating, NaN -> 0. Monotone, so
                            // endpoint conversion is sound.
                            let mut l = lo as i32 as i64;
                            let mut h = hi as i32 as i64;
                            if nan {
                                l = l.min(0);
                                h = h.max(0);
                            }
                            AbsVal::Int { lo: l, hi: h }
                        }
                        None => AbsVal::int_full(),
                    },
                };
                self.set(st, dst, v);
            }
            Inst::Construct { dst, width, args } => {
                let v = if width == 1 && args.len() == 1 {
                    match st.vals[args[0] as usize].as_flt() {
                        Some((lo, hi, nan)) => mk_flt(lo, hi, nan),
                        None => AbsVal::Top,
                    }
                } else {
                    AbsVal::Top
                };
                self.set(st, dst, v);
            }
            Inst::Swizzle { dst, src, sel } => {
                let v = match (st.vals[src as usize], sel.as_str()) {
                    (AbsVal::IdxVec, "x") => AbsVal::IdxComp {
                        comp: 0,
                        off_lo: 0,
                        off_hi: 0,
                    },
                    (AbsVal::IdxVec, "y") => AbsVal::IdxComp {
                        comp: 1,
                        off_lo: 0,
                        off_hi: 0,
                    },
                    (AbsVal::IdxVec, "xy") => AbsVal::IdxVec,
                    (x @ (AbsVal::Flt { .. } | AbsVal::IdxComp { .. }), "x") => x,
                    (_, s) if s.len() == 1 => AbsVal::flt_top(),
                    _ => AbsVal::Top,
                };
                self.set(st, dst, v);
            }
            Inst::SwizzleStore { dst, op, src, .. } => {
                if record && matches!(op, AssignOp::DivAssign) {
                    self.record_div(pc, st.vals[src as usize]);
                }
                self.set(st, dst, AbsVal::Top);
            }
            Inst::Builtin { dst, which, args } => {
                let vals: Vec<AbsVal> = args.iter().map(|r| st.vals[*r as usize]).collect();
                let v = abs_builtin(BUILTINS[which as usize].op, &vals);
                self.set(st, dst, v);
            }
            Inst::Select { dst, cond, a, b } => {
                let v = match st.vals[cond as usize].as_bool() {
                    Some(Some(true)) => st.vals[a as usize],
                    Some(Some(false)) => st.vals[b as usize],
                    _ => {
                        let (x, y) = (st.vals[a as usize], st.vals[b as usize]);
                        self.join_val(x, y)
                    }
                };
                self.set(st, dst, v);
            }
            Inst::ReadElem { dst, param } => {
                let v = abs_stream_elem(self.k.params[param as usize].ty);
                self.set(st, dst, v);
            }
            Inst::ReadScalar { dst, param } => {
                let ty = self.k.params[param as usize].ty;
                let v = match (ty.scalar, ty.width) {
                    (ScalarKind::Float, 1) => AbsVal::flt_top(),
                    (ScalarKind::Int, _) => AbsVal::int_full(),
                    (ScalarKind::Bool, _) => AbsVal::Bool(None),
                    _ => AbsVal::Top,
                };
                self.set(st, dst, v);
            }
            Inst::ReadOut { dst, out } => {
                let pi = self.k.outputs[out as usize];
                let v = abs_stream_elem(self.k.params[pi as usize].ty);
                self.set(st, dst, v);
            }
            Inst::WriteOut { op, src, .. } => {
                if record && matches!(op, AssignOp::DivAssign) {
                    self.record_div(pc, st.vals[src as usize]);
                }
            }
            Inst::Gather { dst, param, idx, .. } => {
                if record {
                    let dims: Vec<DimObs> = idx.iter().map(|r| dim_obs(st.vals[*r as usize])).collect();
                    let joined = match self.gather_obs.remove(&pc) {
                        Some(prev) => prev.into_iter().zip(dims).map(|(a, b)| join_dim(a, b)).collect(),
                        None => dims,
                    };
                    self.gather_obs.insert(pc, joined);
                }
                let v = abs_stream_elem(self.k.params[param as usize].ty);
                self.set(st, dst, v);
            }
            Inst::Indexof { dst, param } => {
                let v = if matches!(self.k.params[param as usize].kind, ParamKind::OutStream) {
                    // `indexof(out)` is `indexof_pos` on every backend:
                    // components bounded by the launch domain.
                    AbsVal::IdxVec
                } else {
                    // Input-stream indexof resamples over the stream's
                    // *own* shape — unknown statically.
                    AbsVal::Top
                };
                self.set(st, dst, v);
            }
        }
    }

    fn abs_assign(&mut self, cur: AbsVal, op: AssignOp, rhs: AbsVal) -> AbsVal {
        use AbsVal::*;
        match op {
            AssignOp::Assign => match (cur, rhs) {
                // Unknown-width current value: may broadcast.
                (Top, _) => Top,
                (IdxVec, IdxVec) => IdxVec,
                (IdxVec, _) => Top,
                // Float current + int rhs promotes.
                (Flt { .. } | IdxComp { .. }, Int { lo, hi }) => mk_flt(lo as f32, hi as f32, false),
                (_, r) => r,
            },
            AssignOp::AddAssign => self.abs_bin(BinOp::Add, cur, rhs),
            AssignOp::SubAssign => self.abs_bin(BinOp::Sub, cur, rhs),
            AssignOp::MulAssign => self.abs_bin(BinOp::Mul, cur, rhs),
            AssignOp::DivAssign => self.abs_bin(BinOp::Div, cur, rhs),
        }
    }

    fn abs_bin(&mut self, op: BinOp, a: AbsVal, b: AbsVal) -> AbsVal {
        use AbsVal::*;
        // Pure int arithmetic stays integral (wrapping).
        if let (Int { lo: a0, hi: a1 }, Int { lo: b0, hi: b1 }) = (a, b) {
            return abs_int_bin(op, (a0, a1), (b0, b1));
        }
        if let (Bool(x), Bool(y)) = (a, b) {
            return match op {
                BinOp::And => Bool(match (x, y) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                }),
                BinOp::Or => Bool(match (x, y) {
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                }),
                BinOp::Eq => Bool(x.zip(y).map(|(p, q)| p == q)),
                BinOp::Ne => Bool(x.zip(y).map(|(p, q)| p != q)),
                _ => Top, // runtime error path
            };
        }
        // `indexof`-relative offset arithmetic: component plus an exact
        // small integer constant stays symbolic (the key gather shape).
        if matches!(op, BinOp::Add | BinOp::Sub) {
            let shifted = match (a, b, op) {
                (IdxComp { comp, off_lo, off_hi }, other, _) => int_singleton(other).map(|c| {
                    let c = if matches!(op, BinOp::Sub) { -c } else { c };
                    (comp, off_lo + c, off_hi + c)
                }),
                (other, IdxComp { comp, off_lo, off_hi }, BinOp::Add) => {
                    int_singleton(other).map(|c| (comp, off_lo + c, off_hi + c))
                }
                _ => None,
            };
            if let Some((comp, lo, hi)) = shifted {
                if lo.abs() <= 1 << 20 && hi.abs() <= 1 << 20 {
                    return IdxComp {
                        comp,
                        off_lo: lo,
                        off_hi: hi,
                    };
                }
            }
        }
        // Everything else: promote to float intervals.
        let (Some((a0, a1, an)), Some((b0, b1, bn))) = (a.as_flt(), b.as_flt()) else {
            return if op.is_comparison() { Bool(None) } else { Top };
        };
        if op.is_comparison() {
            return abs_flt_cmp(op, (a0, a1, an), (b0, b1, bn));
        }
        match op {
            BinOp::Add => corners(|x, y| x + y, (a0, a1), (b0, b1), an || bn),
            BinOp::Sub => corners(|x, y| x - y, (a0, a1), (b0, b1), an || bn),
            BinOp::Mul => corners(|x, y| x * y, (a0, a1), (b0, b1), an || bn),
            BinOp::Div => {
                if b0 <= 0.0 && b1 >= 0.0 {
                    AbsVal::flt_top()
                } else {
                    corners(|x, y| x / y, (a0, a1), (b0, b1), an || bn)
                }
            }
            BinOp::Rem => AbsVal::flt_top(),
            _ => Top,
        }
    }

    // -- region execution --------------------------------------------------

    fn exec_nodes(&mut self, st: &mut State, nodes: &[Node], record: bool) {
        for n in nodes {
            if !st.live {
                return;
            }
            match n {
                Node::Seq { start, end } => {
                    for pc in *start..*end {
                        if !st.live {
                            return;
                        }
                        self.step(st, pc as usize, record);
                    }
                }
                Node::If {
                    cond,
                    branch_at,
                    then,
                    jump_at,
                    els,
                } => {
                    if record {
                        self.reach[*branch_at as usize] = true;
                    }
                    let known = st.vals[*cond as usize].as_bool().flatten();
                    match known {
                        Some(true) => {
                            self.refine_branch(st, *cond, true);
                            self.exec_nodes(st, then, record);
                            if record && st.live {
                                if let Some(j) = jump_at {
                                    self.reach[*j as usize] = true;
                                }
                            }
                        }
                        Some(false) => {
                            self.refine_branch(st, *cond, false);
                            self.exec_nodes(st, els, record);
                        }
                        None => {
                            let mut then_st = st.clone();
                            self.refine_branch(&mut then_st, *cond, true);
                            if then_st.live {
                                self.exec_nodes(&mut then_st, then, record);
                                if record && then_st.live {
                                    if let Some(j) = jump_at {
                                        self.reach[*j as usize] = true;
                                    }
                                }
                            }
                            let mut els_st = std::mem::replace(st, then_st);
                            self.refine_branch(&mut els_st, *cond, false);
                            if els_st.live {
                                self.exec_nodes(&mut els_st, els, record);
                            }
                            let joined = self.join_states(
                                std::mem::replace(
                                    st,
                                    State {
                                        vals: Vec::new(),
                                        gens: Vec::new(),
                                        assigned: Vec::new(),
                                        live: false,
                                    },
                                ),
                                els_st,
                            );
                            *st = joined;
                        }
                    }
                }
                Node::Loop(l) => self.exec_loop(st, l, record),
            }
        }
    }

    fn exec_loop(&mut self, st: &mut State, l: &LoopNode, record: bool) {
        let entry = st.clone();
        // Loop-bound-aware widening: small counted loops converge
        // exactly before widening kicks in.
        let widen_after = match l.bound.trips() {
            Some(t) if t <= 8 => t + 1,
            _ => WIDEN_AFTER,
        };
        let body_first = matches!(l.kind, LoopKind::DoWhile);
        // Fixpoint on the loop-head state (the state at the top of the
        // first region in instruction order).
        let mut head = entry.clone();
        let mut round = 0u64;
        loop {
            let mut s = head.clone();
            if body_first {
                self.exec_nodes(&mut s, &l.body, false);
                if s.live {
                    self.exec_nodes(&mut s, &l.header, false);
                }
            } else {
                self.exec_nodes(&mut s, &l.header, false);
            }
            let mut again = s.clone();
            if again.live {
                self.refine_branch(&mut again, l.cond, true);
            }
            if !body_first && again.live {
                self.exec_nodes(&mut again, &l.body, false);
            }
            let mut new_head = {
                let e = entry.clone();
                self.join_states(e, again)
            };
            round += 1;
            if round >= widen_after {
                new_head = self.widen_states(&head, new_head);
            }
            if new_head.same_modulo_gens(&head) {
                break;
            }
            head = new_head;
            if round > MAX_ROUNDS {
                // Defensive backstop: force everything written in the
                // loop to top and stop.
                for v in &mut head.vals {
                    if *v != AbsVal::Bot {
                        *v = AbsVal::Top;
                    }
                }
                break;
            }
        }
        // Final (optionally recorded) pass with the stable head state,
        // which over-approximates every concrete iteration.
        let mut s = head;
        if body_first {
            self.exec_nodes(&mut s, &l.body, record);
            if s.live {
                self.exec_nodes(&mut s, &l.header, record);
            }
        } else {
            self.exec_nodes(&mut s, &l.header, record);
        }
        if record && s.live {
            self.reach[l.exit_at as usize] = true;
        }
        if !body_first {
            let mut body_st = s.clone();
            self.refine_branch(&mut body_st, l.cond, true);
            if body_st.live {
                self.exec_nodes(&mut body_st, &l.body, record);
                if record && body_st.live {
                    self.reach[l.back_at as usize] = true;
                }
            }
        } else if record && s.live {
            let mut again = s.clone();
            self.refine_branch(&mut again, l.cond, true);
            if again.live {
                self.reach[l.back_at as usize] = true;
            }
        }
        self.refine_branch(&mut s, l.cond, false);
        *st = s;
    }
}

// ---------------------------------------------------------------------------
// Free transfer helpers
// ---------------------------------------------------------------------------

fn abs_const(v: Value) -> AbsVal {
    match v {
        Value::Int(i) => AbsVal::Int {
            lo: i64::from(i),
            hi: i64::from(i),
        },
        Value::Float(f) => mk_flt(f, f, f.is_nan()),
        Value::Bool(b) => AbsVal::Bool(Some(b)),
        _ => AbsVal::Top,
    }
}

/// Stream/output elements are raw `f32` data on every backend — any
/// finite or non-finite float, but kind-stable.
fn abs_stream_elem(ty: Type) -> AbsVal {
    if ty.scalar == ScalarKind::Float && ty.width == 1 {
        AbsVal::flt_top()
    } else {
        AbsVal::Top
    }
}

fn abs_coerce(v: AbsVal, ty: Type) -> AbsVal {
    if ty.width > 1 {
        // Vectors pass through `coerce_to` unchanged; scalars broadcast.
        return if matches!(v, AbsVal::IdxVec) && ty.width == 2 {
            v
        } else {
            AbsVal::Top
        };
    }
    match (v, ty.scalar) {
        (AbsVal::Int { lo, hi }, ScalarKind::Float) => mk_flt(lo as f32, hi as f32, false),
        _ => v,
    }
}

fn int_singleton(v: AbsVal) -> Option<i64> {
    match v {
        AbsVal::Int { lo, hi } if lo == hi => Some(lo),
        // Exact integral float constant (e.g. `p.x + 1.0`).
        AbsVal::Flt { lo, hi, nan: false }
            if lo == hi && lo.fract() == 0.0 && lo.abs() <= (1 << 20) as f32 =>
        {
            Some(lo as i64)
        }
        _ => None,
    }
}

fn abs_int_bin(op: BinOp, a: (i64, i64), b: (i64, i64)) -> AbsVal {
    use BinOp::*;
    let (a0, a1) = a;
    let (b0, b1) = b;
    match op {
        Add => mk_int(a0 + b0, a1 + b1),
        Sub => mk_int(a0 - b1, a1 - b0),
        Mul => {
            let cs = [a0 * b0, a0 * b1, a1 * b0, a1 * b1];
            mk_int(*cs.iter().min().unwrap(), *cs.iter().max().unwrap())
        }
        Div => {
            // i32::MIN / -1 wraps; otherwise truncating division, with
            // division by zero defined as 0.
            if a0 == i64::from(i32::MIN) && b0 <= -1 && b1 >= -1 {
                return AbsVal::int_full();
            }
            let mut lo = i64::MAX;
            let mut hi = i64::MIN;
            if b0 <= 0 && b1 >= 0 {
                lo = 0;
                hi = 0;
            }
            for d in [b0, b1, -1, 1] {
                if d == 0 || d < b0 || d > b1 {
                    continue;
                }
                for n in [a0, a1] {
                    let q = n / d;
                    lo = lo.min(q);
                    hi = hi.max(q);
                }
            }
            if lo > hi {
                AbsVal::Int { lo: 0, hi: 0 } // only d = 0 possible
            } else {
                mk_int(lo, hi)
            }
        }
        Rem => {
            let m = b0.unsigned_abs().max(b1.unsigned_abs());
            if m == 0 {
                return AbsVal::Int { lo: 0, hi: 0 };
            }
            let m = (m - 1).min(i64::MAX as u64) as i64;
            // Truncating remainder: the sign follows the numerator and
            // |r| <= min(m, |n|), so a numerator endpoint only tightens
            // the side whose sign it shares — a positive `a0` must NOT
            // raise the lower bound (12 % 3 == 0), and a negative `a1`
            // must not lower the upper one. Both bounds admit 0, which
            // also covers rem-by-zero (defined as 0) and the wrapping
            // i32::MIN % -1 case.
            let lo = if a0 < 0 { (-m).max(a0) } else { 0 };
            let hi = if a1 > 0 { m.min(a1) } else { 0 };
            debug_assert!(lo <= hi, "Rem transfer produced crossed bounds");
            mk_int(lo, hi)
        }
        Lt => abs_cmp_known(a1 < b0, a0 >= b1),
        Le => abs_cmp_known(a1 <= b0, a0 > b1),
        Gt => abs_cmp_known(a0 > b1, a1 <= b0),
        Ge => abs_cmp_known(a0 >= b1, a1 < b0),
        Eq => abs_cmp_known(a0 == a1 && b0 == b1 && a0 == b0, a1 < b0 || a0 > b1),
        Ne => abs_cmp_known(a1 < b0 || a0 > b1, a0 == a1 && b0 == b1 && a0 == b0),
        And | Or => AbsVal::Top, // runtime error path
    }
}

fn abs_cmp_known(always: bool, never: bool) -> AbsVal {
    AbsVal::Bool(if always {
        Some(true)
    } else if never {
        Some(false)
    } else {
        None
    })
}

fn abs_flt_cmp(op: BinOp, a: (f32, f32, bool), b: (f32, f32, bool)) -> AbsVal {
    let (a0, a1, an) = a;
    let (b0, b1, bn) = b;
    let no_nan = !an && !bn;
    use BinOp::*;
    // "Always" needs NaN excluded (NaN comparisons are false except Ne,
    // where NaN makes them true); "never" must hold for NaN too.
    let (always, never) = match op {
        Lt => (no_nan && a1 < b0, a0 >= b1),
        Le => (no_nan && a1 <= b0, a0 > b1),
        Gt => (no_nan && a0 > b1, a1 <= b0),
        Ge => (no_nan && a0 >= b1, a1 < b0),
        Eq => (no_nan && a0 == a1 && b0 == b1 && a0 == b0, a1 < b0 || a0 > b1),
        Ne => (a1 < b0 || a0 > b1, no_nan && a0 == a1 && b0 == b1 && a0 == b0),
        _ => (false, false),
    };
    abs_cmp_known(always, never)
}

/// The comparison that holds when `op` evaluated false (modulo NaN,
/// handled by the caller).
fn negate_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Ge,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        BinOp::Ge => BinOp::Lt,
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        other => other,
    }
}

/// Integer-pair comparison refinement (exact i32 semantics).
#[allow(clippy::type_complexity)]
fn refine_int_pair(op: BinOp, a: (i64, i64), b: (i64, i64)) -> (Option<(i64, i64)>, Option<(i64, i64)>) {
    use BinOp::*;
    let (a0, a1) = a;
    let (b0, b1) = b;
    match op {
        Lt => (Some((a0, a1.min(b1 - 1))), Some((b0.max(a0 + 1), b1))),
        Le => (Some((a0, a1.min(b1))), Some((b0.max(a0), b1))),
        Gt => (Some((a0.max(b0 + 1), a1)), Some((b0, b1.min(a1 - 1)))),
        Ge => (Some((a0.max(b0), a1)), Some((b0, b1.min(a1)))),
        Eq => {
            let (lo, hi) = (a0.max(b0), a1.min(b1));
            (Some((lo, hi)), Some((lo, hi)))
        }
        _ => (None, None),
    }
}

fn set_refined_int(st: &mut State, reg: u32, range: Option<(i64, i64)>) {
    let Some((lo, hi)) = range else { return };
    if lo > hi {
        st.live = false;
        return;
    }
    if let AbsVal::Int { lo: c0, hi: c1 } = st.vals[reg as usize] {
        let (n0, n1) = (c0.max(lo), c1.min(hi));
        if n0 > n1 {
            st.live = false;
        } else {
            st.vals[reg as usize] = AbsVal::Int { lo: n0, hi: n1 };
        }
    }
}

/// Float-pair comparison refinement (operands compared as `f32`).
#[allow(clippy::type_complexity)]
fn refine_flt_pair(op: BinOp, a: (f32, f32), b: (f32, f32)) -> (Option<(f32, f32)>, Option<(f32, f32)>) {
    use BinOp::*;
    let (a0, a1) = a;
    let (b0, b1) = b;
    match op {
        Lt => (Some((a0, a1.min(next_down(b1)))), Some((b0.max(next_up(a0)), b1))),
        Le => (Some((a0, a1.min(b1))), Some((b0.max(a0), b1))),
        Gt => (Some((a0.max(next_up(b0)), a1)), Some((b0, b1.min(next_down(a1))))),
        Ge => (Some((a0.max(b0), a1)), Some((b0, b1.min(a1)))),
        Eq => {
            let (lo, hi) = (a0.max(b0), a1.min(b1));
            (Some((lo, hi)), Some((lo, hi)))
        }
        _ => (None, None),
    }
}

fn abs_builtin(f: Fun, args: &[AbsVal]) -> AbsVal {
    let flt = |i: usize| args.get(i).and_then(|v| v.as_flt());
    let unary_mono =
        |g: fn(f32) -> f32| flt(0).map_or(AbsVal::Top, |(lo, hi, nan)| mk_flt(g(lo), g(hi), nan));
    match f {
        Fun::Un(Un::Floor) => unary_mono(f32::floor),
        Fun::Un(Un::Ceil) => unary_mono(f32::ceil),
        Fun::Un(Un::Round) => unary_mono(|x| (x + 0.5).floor()),
        Fun::Un(Un::Sqrt) => flt(0).map_or(AbsVal::Top, |(lo, hi, nan)| {
            mk_flt(lo.max(0.0).sqrt(), hi.max(0.0).sqrt(), nan || lo < 0.0)
        }),
        Fun::Un(Un::Abs) => flt(0).map_or(AbsVal::Top, |(lo, hi, nan)| {
            let l = if lo <= 0.0 && hi >= 0.0 {
                0.0
            } else {
                lo.abs().min(hi.abs())
            };
            mk_flt(l, lo.abs().max(hi.abs()), nan)
        }),
        // `saturate(x)` is `clamp(x, 0.0, 1.0)` at runtime, NaN -> 0.0
        // included, so it takes the clamp transfer.
        Fun::Un(Un::Saturate) => abs_builtin(
            Fun::Clamp,
            &[args[0], mk_flt(0.0, 0.0, false), mk_flt(1.0, 1.0, false)],
        ),
        Fun::Un(Un::Sign) => flt(0).map_or(AbsVal::Top, |(_, _, nan)| mk_flt(-1.0, 1.0, nan)),
        Fun::Un(Un::Sin | Un::Cos) => flt(0).map_or(AbsVal::Top, |(lo, hi, nan)| {
            mk_flt(-1.0, 1.0, nan || lo.is_infinite() || hi.is_infinite())
        }),
        Fun::Bin(Bin::Min) => match (flt(0), flt(1)) {
            (Some(a), Some(b)) => {
                let (lo, hi, nan) = abs_min(a, b);
                mk_flt(lo, hi, nan)
            }
            _ => AbsVal::Top,
        },
        Fun::Bin(Bin::Max) => match (flt(0), flt(1)) {
            (Some(a), Some(b)) => {
                let (lo, hi, nan) = abs_max(a, b);
                mk_flt(lo, hi, nan)
            }
            _ => AbsVal::Top,
        },
        Fun::Clamp => match (flt(0), flt(1), flt(2)) {
            (Some(x), Some(l), Some(h)) => {
                // Runtime clamp is min(max(x, l), h); composing the
                // side-aware transfers lets NaN-free bounds wash a
                // possibly-NaN input out exactly like the runtime does
                // (`max(NaN, l)` selects `l`) — which is what admits
                // `clamp`ed reduce operands to the vectorized fold.
                let (lo, hi, nan) = abs_min(abs_max(x, l), h);
                debug_assert!(lo <= hi, "clamp transfer produced crossed bounds");
                mk_flt(lo, hi, nan)
            }
            _ => AbsVal::Top,
        },
        // Scalar-valued but unmodeled: any float.
        Fun::Dot
        | Fun::Length
        | Fun::Distance
        | Fun::Smoothstep
        | Fun::Un(Un::Fract | Un::Exp | Un::Exp2 | Un::Log | Un::Log2 | Un::Rsqrt | Un::Tan | Un::Hermite)
        | Fun::Bin(
            Bin::Pow
            | Bin::Fmod
            | Bin::Step
            | Bin::Atan2
            | Bin::MulOneMinusB
            | Bin::DivClamp01
            | Bin::Add
            | Bin::Sub
            | Bin::Mul,
        ) => AbsVal::flt_top(),
        Fun::Lerp | Fun::Normalize => AbsVal::Top,
    }
}

/// Side-aware transfer for runtime `f32::min`: a NaN argument selects
/// the *other* side, so the result is NaN only when **both** sides may
/// be, and a possibly-NaN side merely widens the result toward the
/// other side's interval instead of poisoning the range.
fn abs_min((a0, a1, an): (f32, f32, bool), (b0, b1, bn): (f32, f32, bool)) -> (f32, f32, bool) {
    let lo = a0.min(b0);
    let mut hi = a1.min(b1);
    if an {
        hi = hi.max(b1); // a NaN -> result is exactly b
    }
    if bn {
        hi = hi.max(a1); // b NaN -> result is exactly a
    }
    (lo, hi, an && bn)
}

/// Side-aware transfer for runtime `f32::max` (mirror of [`abs_min`]).
fn abs_max((a0, a1, an): (f32, f32, bool), (b0, b1, bn): (f32, f32, bool)) -> (f32, f32, bool) {
    let mut lo = a0.max(b0);
    let hi = a1.max(b1);
    if an {
        lo = lo.min(b0);
    }
    if bn {
        lo = lo.min(a0);
    }
    (lo, hi, an && bn)
}

fn dim_obs(v: AbsVal) -> DimObs {
    match v {
        AbsVal::Int { lo, hi } => DimObs::Const { lo, hi },
        AbsVal::Flt { lo, hi, nan } => {
            // Runtime conversion is `(f + 0.5).floor() as i64`
            // (saturating, NaN -> 0) computed in f32 — the `+ 0.5` sum
            // rounds to nearest-even *before* the floor, so the model
            // must add in f32 too (an f64 sum floors a tie like
            // 0.49999997f32 + 0.5 one lower than the runtime). f32
            // addition and floor are monotone, so endpoints are sound;
            // the `as i64` cast keeps the saturation handling.
            let mut l = (lo + 0.5).floor() as i64;
            let mut h = (hi + 0.5).floor() as i64;
            if nan {
                l = l.min(0);
                h = h.max(0);
            }
            DimObs::Const { lo: l, hi: h }
        }
        AbsVal::IdxComp { comp, off_lo, off_hi } => DimObs::Rel {
            comp,
            lo: off_lo,
            hi: off_hi,
        },
        _ => DimObs::Unknown,
    }
}

fn dim_to_proven(d: DimObs) -> Option<ProvenIdx> {
    match d {
        // Saturated endpoints mean "unbounded on that side" — a real
        // range, but useless as a proof (the launch check could never
        // accept it); don't annotate.
        DimObs::Const { lo, hi } if lo > i64::MIN && hi < i64::MAX => Some(ProvenIdx::Const { lo, hi }),
        DimObs::Rel { comp, lo, hi } => Some(ProvenIdx::IndexofRel { comp, lo, hi }),
        _ => None,
    }
}

fn dim_string(d: DimObs) -> String {
    match d {
        DimObs::Const { lo, hi } => format!("{lo}..={hi}"),
        DimObs::Rel { comp, lo, hi } => {
            let c = if comp == 0 { "x" } else { "y" };
            format!("idx.{c}{lo:+}..=idx.{c}{hi:+}")
        }
        DimObs::Unknown => "?".to_owned(),
    }
}

// ---------------------------------------------------------------------------
// Pruned estimate
// ---------------------------------------------------------------------------

fn pruned_nodes(k: &IrKernel, nodes: &[Node], reach: &[bool]) -> Option<u64> {
    let mut total = 0u64;
    for n in nodes {
        let c = match n {
            Node::Seq { start, end } => (*start..*end)
                .filter(|pc| reach[*pc as usize])
                .map(|pc| inst_cost(&k.insts[pc as usize]))
                .sum::<u64>(),
            Node::If {
                branch_at, then, els, ..
            } => {
                if reach[*branch_at as usize] {
                    1 + pruned_nodes(k, then, reach)? + pruned_nodes(k, els, reach)?
                } else {
                    0
                }
            }
            Node::Loop(l) => {
                if !reach[l.exit_at as usize] {
                    0
                } else {
                    let trips = l.bound.trips()?;
                    let per_iter = pruned_nodes(k, &l.header, reach)? + pruned_nodes(k, &l.body, reach)? + 1;
                    trips.checked_mul(per_iter)?
                }
            }
        };
        total = total.checked_add(c)?;
    }
    Some(total)
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Analyzes one kernel. The IR must already pass verification (the
/// compile pipeline runs `check_program` first).
pub fn analyze_kernel(k: &IrKernel) -> KernelOutcome {
    let mut az = Analyzer::new(k);
    let mut st = az.initial_state();
    az.exec_nodes(&mut st, &k.body, true);

    let mut analysis = KernelAnalysis {
        kernel: k.name.clone(),
        def_before_use_ok: az.def_ok,
        type_stable: az.type_stable,
        ..KernelAnalysis::default()
    };
    let mut proven = Vec::new();

    // Gather facts, BA013, and elision annotations.
    let mut gather_pcs: Vec<usize> = az.gather_obs.keys().copied().collect();
    gather_pcs.sort_unstable();
    for pc in gather_pcs {
        let dims = &az.gather_obs[&pc];
        let Inst::Gather { param, .. } = &k.insts[pc] else {
            continue;
        };
        let pname = &k.params[*param as usize].name;
        analysis.total_gathers += 1;
        let rendered: Vec<String> = dims.iter().map(|d| dim_string(*d)).collect();
        analysis.facts.push(InstFact {
            pc: pc as u32,
            span: k.spans[pc],
            fact: format!("gather `{pname}` in [{}]", rendered.join(", ")),
        });
        for (d, obs) in dims.iter().enumerate() {
            if let DimObs::Const { lo, hi } = obs {
                if *hi < 0 {
                    analysis.faults.push(Finding {
                        rule: RuleId::ProvableGatherBounds,
                        severity: Severity::Error,
                        message: format!(
                            "gather `{pname}` dimension {d} index is provably negative \
                             ([{lo}, {hi}]) — out of bounds for every stream shape"
                        ),
                        span: k.spans[pc],
                    });
                }
            }
        }
        if let Some(p) = dims.iter().map(|d| dim_to_proven(*d)).collect::<Option<Vec<_>>>() {
            analysis.proven_gathers += 1;
            proven.push((pc, p));
        }
    }

    // BA014: division whose denominator is exactly zero on every path
    // that reaches it.
    let mut div_pcs: Vec<usize> = az.div_obs.keys().copied().collect();
    div_pcs.sort_unstable();
    for pc in div_pcs {
        let zero = match az.div_obs[&pc] {
            AbsVal::Int { lo, hi } => lo == 0 && hi == 0,
            AbsVal::Flt { lo, hi, nan } => lo == 0.0 && hi == 0.0 && !nan,
            _ => false,
        };
        if zero {
            analysis.faults.push(Finding {
                rule: RuleId::ProvableDivByZero,
                severity: Severity::Error,
                message: "division denominator is provably zero on every execution".to_owned(),
                span: k.spans[pc],
            });
        }
    }

    // Unreachable instructions (skip trailing padding: `reach` covers
    // exactly `insts`).
    let unreachable: Vec<bool> = az.reach.iter().map(|r| !r).collect();
    for (pc, dead) in unreachable.iter().enumerate() {
        if *dead && !matches!(k.insts[pc], Inst::Nop) {
            analysis.unreachable_insts += 1;
            analysis.facts.push(InstFact {
                pc: pc as u32,
                span: k.spans[pc],
                fact: "unreachable".to_owned(),
            });
        }
    }
    analysis.facts.sort_by_key(|f| f.pc);

    analysis.pruned_estimate = pruned_nodes(k, &k.body, &az.reach);

    // The vectorized-reduce semantic fact: the combine operand's
    // joined range over every recorded execution of the combine.
    let reduce_combine = az.reduce_obs.and_then(|v| match v {
        AbsVal::Flt { lo, hi, nan } => Some(brook_ir::ReduceCombineFact {
            lo,
            hi,
            nan_free: !nan,
        }),
        _ => None,
    });
    if let (Some((bpc, _)), Some(fact)) = (az.reduce_site, reduce_combine.as_ref()) {
        analysis.facts.push(InstFact {
            pc: bpc as u32,
            span: k.spans[bpc],
            fact: format!(
                "reduce combine operand in [{}, {}]{}",
                fact.lo,
                fact.hi,
                if fact.nan_free {
                    ", NaN-free"
                } else {
                    ", may be NaN"
                }
            ),
        });
        analysis.facts.sort_by_key(|f| f.pc);
    }

    KernelOutcome {
        analysis,
        facts: KernelFacts {
            def_before_use_ok: az.def_ok,
            unreachable,
            reduce_combine,
        },
        proven,
    }
}

/// Analyzes every kernel of a program (no mutation).
pub fn analyze_program(ir: &IrProgram) -> Vec<KernelOutcome> {
    ir.kernels.iter().map(analyze_kernel).collect()
}

/// Analyzes every kernel and, when `elide` is set, attaches the proven
/// gather-index ranges to [`Inst::Gather`] so executors can skip the
/// per-dimension clamp after the launch-time shape check. Returns the
/// report plus per-kernel planner facts (index-aligned with
/// `ir.kernels`).
pub fn analyze_and_annotate_program(ir: &mut IrProgram, elide: bool) -> (AnalysisReport, Vec<KernelFacts>) {
    let outcomes = analyze_program(ir);
    let mut report = AnalysisReport::default();
    let mut facts = Vec::with_capacity(outcomes.len());
    for (k, out) in ir.kernels.iter_mut().zip(outcomes) {
        if elide {
            for (pc, p) in &out.proven {
                if let Inst::Gather { proven, .. } = &mut k.insts[*pc] {
                    *proven = Some(p.clone());
                }
            }
        }
        report.kernels.push(out.analysis);
        facts.push(out.facts);
    }
    (report, facts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(src: &str) -> IrProgram {
        let checked = brook_lang::parse_and_check(src).expect("source must type-check");
        let (ir, errs) = brook_ir::lower::lower_program(&checked);
        assert!(errs.is_empty(), "lowering failed: {errs:?}");
        ir
    }

    fn outcome(src: &str, kernel: &str) -> KernelOutcome {
        let ir = lower(src);
        let k = ir.kernel(kernel).expect("kernel must exist");
        analyze_kernel(k)
    }

    #[test]
    fn counted_loop_gather_is_proven() {
        let out = outcome(
            "kernel void f(float a[], out float o<>) {\n\
             int i;\n\
             float s = 0.0;\n\
             for (i = 0; i < 16; i++) { s += a[float(i)]; }\n\
             o = s;\n\
             }",
            "f",
        );
        assert_eq!(out.analysis.total_gathers, 1);
        assert_eq!(out.analysis.proven_gathers, 1);
        let (_, p) = &out.proven[0];
        assert_eq!(p.as_slice(), &[ProvenIdx::Const { lo: 0, hi: 15 }]);
        assert!(out.analysis.faults.is_empty());
        assert!(out.facts.def_before_use_ok);
    }

    #[test]
    fn indexof_gather_is_relative() {
        let out = outcome(
            "kernel void f(float img[][], out float o<>) {\n\
             float2 p = indexof(o);\n\
             o = img[p.y - 1.0][p.x + 1.0];\n\
             }",
            "f",
        );
        assert_eq!(out.analysis.proven_gathers, 1);
        let (_, p) = &out.proven[0];
        assert_eq!(
            p.as_slice(),
            &[
                ProvenIdx::IndexofRel {
                    comp: 1,
                    lo: -1,
                    hi: -1
                },
                ProvenIdx::IndexofRel {
                    comp: 0,
                    lo: 1,
                    hi: 1
                },
            ]
        );
    }

    #[test]
    fn provably_negative_gather_is_a_fault() {
        let out = outcome(
            "kernel void f(float a[], out float o<>) {\n\
             o = a[-3.0];\n\
             }",
            "f",
        );
        assert_eq!(out.analysis.faults.len(), 1);
        assert_eq!(out.analysis.faults[0].rule, RuleId::ProvableGatherBounds);
        assert_eq!(out.analysis.faults[0].span.line, 2);
    }

    #[test]
    fn provable_div_by_zero_is_a_fault() {
        let out = outcome(
            "kernel void f(float a<>, out float o<>) {\n\
             float z = 0.0;\n\
             o = a / z;\n\
             }",
            "f",
        );
        assert!(out
            .analysis
            .faults
            .iter()
            .any(|f| f.rule == RuleId::ProvableDivByZero && f.span.line == 3));
    }

    #[test]
    fn runtime_dependent_div_is_not_a_fault() {
        let out = outcome(
            "kernel void f(float a<>, float b<>, out float o<>) {\n\
             o = a / b;\n\
             }",
            "f",
        );
        assert!(out.analysis.faults.is_empty());
    }

    #[test]
    fn const_false_branch_is_unreachable_and_prunes_estimate() {
        let src = "kernel void f(float a<>, out float o<>) {\n\
             float s = a;\n\
             if (1.0 < 0.0) { s = s * 2.0; s = s + 1.0; s = s * 3.0; }\n\
             o = s;\n\
             }";
        let out = outcome(src, "f");
        assert!(out.analysis.unreachable_insts > 0);
        assert!(out
            .analysis
            .facts
            .iter()
            .any(|f| f.fact == "unreachable" && f.span.line == 3));
        // The pruned estimate must drop below the unpruned IR walk.
        let ir = lower(src);
        let k = ir.kernel("f").unwrap();
        let full: u64 = k.insts.iter().map(inst_cost).sum();
        assert!(out.analysis.pruned_estimate.unwrap() < full);
    }

    #[test]
    fn runtime_index_stays_unproven_without_fault() {
        let out = outcome(
            "kernel void f(float v[], float idx<>, out float o<>) {\n\
             o = v[idx];\n\
             }",
            "f",
        );
        assert_eq!(out.analysis.total_gathers, 1);
        assert_eq!(out.analysis.proven_gathers, 0);
        assert!(out.analysis.faults.is_empty());
    }

    #[test]
    fn branch_bounded_index_is_proven() {
        let out = outcome(
            "kernel void f(float v[], float x<>, out float o<>) {\n\
             float i = 0.0;\n\
             if (x > 0.5) { i = 3.0; } else { i = 7.0; }\n\
             o = v[i];\n\
             }",
            "f",
        );
        assert_eq!(out.analysis.proven_gathers, 1);
        let (_, p) = &out.proven[0];
        assert_eq!(p.as_slice(), &[ProvenIdx::Const { lo: 3, hi: 7 }]);
    }

    #[test]
    fn annotate_writes_proofs_only_when_elide_is_on() {
        let src = "kernel void f(float a[], out float o<>) {\n\
             int i;\n\
             float s = 0.0;\n\
             for (i = 0; i < 8; i++) { s += a[float(i)]; }\n\
             o = s;\n\
             }";
        let mut ir = lower(src);
        let (_, facts) = analyze_and_annotate_program(&mut ir, false);
        assert!(ir.kernels[0]
            .insts
            .iter()
            .all(|i| !matches!(i, Inst::Gather { proven: Some(_), .. })));
        assert_eq!(facts.len(), 1);
        let (report, _) = analyze_and_annotate_program(&mut ir, true);
        assert!(ir.kernels[0]
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Gather { proven: Some(_), .. })));
        assert_eq!(report.kernels[0].proven_gathers, 1);
    }

    #[test]
    fn rem_transfer_is_sound_for_wide_and_negative_numerators() {
        // Numerator strictly above |den| - 1: 10..=12 % 3 hits {0, 1, 2},
        // so the numerator's lower endpoint must not raise the result's
        // lower bound.
        assert_eq!(
            abs_int_bin(BinOp::Rem, (10, 12), (3, 3)),
            AbsVal::Int { lo: 0, hi: 2 }
        );
        // Strictly negative numerators: -12..=-10 % 3 hits {0, -1, -2} —
        // a claimed hi below 0 used to fire a false BA013 on valid
        // kernels.
        assert_eq!(
            abs_int_bin(BinOp::Rem, (-12, -10), (3, 3)),
            AbsVal::Int { lo: -2, hi: 0 }
        );
        // Mixed-sign numerator spanning zero.
        assert_eq!(
            abs_int_bin(BinOp::Rem, (-5, 12), (3, 3)),
            AbsVal::Int { lo: -2, hi: 2 }
        );
        // Numerator magnitude below the divisor still tightens both
        // sides (1..=2 % 5 == identity).
        assert_eq!(
            abs_int_bin(BinOp::Rem, (1, 2), (5, 5)),
            AbsVal::Int { lo: 0, hi: 2 }
        );
        // i32::MIN % -1 wraps to 0 at runtime; 0 must stay inside.
        assert_eq!(
            abs_int_bin(BinOp::Rem, (i64::from(i32::MIN), i64::from(i32::MIN)), (-1, -1)),
            AbsVal::Int { lo: 0, hi: 0 }
        );
    }

    #[test]
    fn rem_derived_gather_keeps_clamp_without_fault() {
        // i in 10..=12: i % 3 - 2 is in [-2, 0], reachable at runtime.
        // The unsound Rem transfer used to claim [0, 8] here — eliding
        // the clamp on an index that is negative at runtime.
        let out = outcome(
            "kernel void f(float v[], out float o<>) {\n\
             int i;\n\
             float s = 0.0;\n\
             for (i = 10; i < 13; i++) { s += v[float(i % 3 - 2)]; }\n\
             o = s;\n\
             }",
            "f",
        );
        assert!(out.analysis.faults.is_empty());
        let (_, p) = &out.proven[0];
        // The annotated range must cover the negative indices so the
        // launch-time check (`lo >= 0`) keeps the clamp.
        assert_eq!(p.as_slice(), &[ProvenIdx::Const { lo: -2, hi: 0 }]);
    }

    #[test]
    fn clamp_transfer_uses_matching_endpoints_of_interval_bounds() {
        let f = |lo: f32, hi: f32| AbsVal::Flt { lo, hi, nan: false };
        // clamp(-5, lo in [0,2], 10) lands anywhere in [0, 2]: the
        // result's hi must come from the lo-bound's *upper* endpoint.
        assert_eq!(
            abs_builtin(Fun::Clamp, &[f(-5.0, -5.0), f(0.0, 2.0), f(10.0, 10.0)]),
            f(0.0, 2.0)
        );
        // clamp(20, 0, hi in [5,8]) lands anywhere in [5, 8]: the
        // result's lo must come from the hi-bound's *lower* endpoint.
        assert_eq!(
            abs_builtin(Fun::Clamp, &[f(20.0, 20.0), f(0.0, 0.0), f(5.0, 8.0)]),
            f(5.0, 8.0)
        );
        // Constant bounds stay exact.
        assert_eq!(
            abs_builtin(Fun::Clamp, &[f(-4.0, 4.0), f(0.0, 0.0), f(1.0, 1.0)]),
            f(0.0, 1.0)
        );
    }

    #[test]
    fn dim_obs_models_runtime_f32_index_conversion() {
        // 0.49999997f32 + 0.5 is a round-to-even tie in f32 that rounds
        // to 1.0 (an f64 model floors it to 0) — the model must match
        // the runtime's f32 arithmetic exactly.
        let f = 0.499_999_97_f32;
        assert_eq!((f + 0.5).floor() as i64, 1, "runtime conversion");
        assert_eq!(
            dim_obs(AbsVal::Flt {
                lo: f,
                hi: f,
                nan: false
            }),
            DimObs::Const { lo: 1, hi: 1 }
        );
    }

    #[test]
    fn nan_possible_comparison_keeps_branches_live() {
        // `a` is stream data: may be NaN, so neither branch is provable
        // and nothing is unreachable.
        let out = outcome(
            "kernel void f(float a<>, out float o<>) {\n\
             float s = 0.0;\n\
             if (a < 1.0) { s = 1.0; } else { s = 2.0; }\n\
             o = s;\n\
             }",
            "f",
        );
        assert_eq!(out.analysis.unreachable_insts, 0);
    }
}
