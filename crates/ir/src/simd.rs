//! # Explicit SIMD slab execution (`std::arch`) and vectorized reductions
//!
//! Tier-2 (`crate::tier`) threads BrookIR into native closures over the
//! lane engine's structure-of-arrays slabs and *hopes* rustc
//! autovectorizes the 16-lane loop bodies. This module removes the
//! hope: the hot slab operations get hand-written `core::arch::x86_64`
//! SSE2/AVX2 kernels selected by **runtime feature detection**
//! ([`detect`]). Tier-2's own scalar closures stay the portable
//! fallback for non-x86_64 targets and the `BROOK_SIMD=off` override.
//!
//! ## Binding at build time
//!
//! The tier compiler binds a kernel's level once ([`Isa::bind`]): an
//! SSE2 or AVX2 level yields a zero-sized token that only exists on a
//! host with the feature, and every step closure is built from that
//! token with its operator as a const parameter (`VfOp::Mul as u8`).
//! A step then makes one call into its level's body, which loops over
//! the step's components itself; nothing matches on the level or the
//! operator per block. Data-movement steps (`CopyF`, `CopyI`,
//! `ConstF`, `ConstI`, `ItoF`) move whole [`LANES`]-wide blocks on a
//! full mask at every level, `Scalar` included ([`Block`]).
//!
//! ## The bit-exactness rules
//!
//! Results must stay bit-identical with the scalar interpreter chain,
//! so every vector kernel obeys three pinned rules:
//!
//! 1. **No FMA contraction.** Fused multiply-add changes rounding;
//!    only the exact IEEE-754 operations the scalar bodies perform
//!    (`add/sub/mul/div/sqrt`, sign-bit ops) are emitted. Rust never
//!    contracts `a * b + c` on its own, and neither do we.
//! 2. **Operand order preserved.** `f32::min`/`f32::max` are not
//!    commutative at the bit level (NaN and `±0.0` ties); the vector
//!    sequence replicates rustc's exact lowering —
//!    `nan = unord(a, a); t = min_ps(b, a); blend(t, b, nan)` — so
//!    every lane equals `f32::min(a, b)` bit-for-bit, NaN included.
//! 3. **Masked blends, not masked math.** Partial blocks compute all
//!    16 lanes (slabs are always initialized and `f32` arithmetic on
//!    dead-lane garbage has no observable effect) and then blend-store
//!    only the live lanes, which is exactly the scalar masked walk's
//!    write set. Per-lane *memory* walks (element reads, gathers)
//!    still touch live lanes only.
//!
//! Faults keep falling through SIMD → tier → lanes → scalar: the SIMD
//! steps are straight-line arithmetic and cannot fault; control flow,
//! budgets and `Fail` sites stay on the existing tier paths with
//! identical element and source-line attribution.
//!
//! ## Vectorized reductions
//!
//! The lane planner hard-rejects reduce kernels (cross-element
//! accumulator dependence). [`ReduceProgram`] opens them to the fast
//! tiers when — and only when — the fold is **provably
//! reassociation-safe**:
//!
//! * the combine must be `min`/`max` (`f32` sum and product fold
//!   serially: reassociation changes rounding);
//! * the combine operand must be proven **NaN-free** and strictly
//!   **sign-definite** by the abstract interpreter's value ranges
//!   ([`crate::KernelFacts::reduce_combine`]) — then `min`/`max` is a
//!   pure lattice operation whose result has one bit pattern under any
//!   association and order, because equal non-zero non-NaN floats are
//!   bit-identical and `±0.0`/NaN ties cannot occur.
//!
//! Admitted kernels run as a synthesized elementwise **map phase**
//! (per-element combine operands, through the lane/tier engines and
//! parallelizable across workers) followed by a deterministic SIMD
//! **fold** seeded with the fold identity. Any map-phase fault
//! discards the partials and re-runs the whole reduction through
//! [`crate::interp::run_reduce`], which owns the canonical scalar
//! error surface. Each admission decision is recorded in the module's
//! `ComplianceReport` like every other plan.

use crate::interp::{self, Binding, ExecError};
use crate::lanes::{self, COp, LaneKernel, LaneSlabs, Mask, FULL, LANES};
use crate::tier::{self, TierKernel};
use crate::{AssignOp, Inst, IrKernel, KernelFacts, Node, ParamKind, Reg};
use brook_lang::ast::ScalarKind;
use brook_lang::builtins::BUILTINS;
use brook_lang::ReduceOp;
use glsl_es::math::{Bin, Fun};
use std::ops::Range;

// ---------------------------------------------------------------------------
// Level selection.
// ---------------------------------------------------------------------------

/// The instruction-set level the explicit-SIMD kernels run at.
/// Ordered: `Scalar < Sse2 < Avx2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Portable scalar loop bodies (the verbatim tier semantics).
    Scalar,
    /// 128-bit `core::arch::x86_64` kernels (x86_64 baseline).
    Sse2,
    /// 256-bit kernels (runtime-detected).
    Avx2,
}

impl SimdLevel {
    /// Stable lowercase name (used in reports and the module toggle
    /// fingerprint).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The widest level the running CPU supports, via
/// `is_x86_feature_detected!`. Non-x86_64 targets always report
/// [`SimdLevel::Scalar`].
#[must_use]
pub fn detect() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
        if std::arch::is_x86_feature_detected!("sse2") {
            return SimdLevel::Sse2;
        }
    }
    SimdLevel::Scalar
}

/// Parses a `BROOK_SIMD` override value. Unrecognized strings are
/// ignored (auto-detection applies).
#[must_use]
pub fn parse_level(v: &str) -> Option<SimdLevel> {
    match v.to_ascii_lowercase().as_str() {
        "off" | "scalar" | "0" => Some(SimdLevel::Scalar),
        "sse2" => Some(SimdLevel::Sse2),
        "avx2" => Some(SimdLevel::Avx2),
        _ => None,
    }
}

/// The `BROOK_SIMD` environment override, if set and recognized.
#[must_use]
pub fn from_env() -> Option<SimdLevel> {
    std::env::var("BROOK_SIMD").ok().and_then(|v| parse_level(&v))
}

/// The effective level: the `BROOK_SIMD` override capped at what the
/// CPU supports, else plain detection.
#[must_use]
pub fn auto() -> SimdLevel {
    match from_env() {
        Some(l) => l.min(detect()),
        None => detect(),
    }
}

/// The `BrookContext` SIMD toggle. [`SimdMode::Auto`] defers to the
/// `BROOK_SIMD` environment override and CPU detection; the explicit
/// modes force a level (still capped at what the CPU supports, so a
/// forced `Avx2` on an SSE2-only machine degrades safely).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdMode {
    /// `BROOK_SIMD` override if set, else runtime detection.
    #[default]
    Auto,
    /// Force the portable scalar bodies.
    Off,
    /// Force the 128-bit kernels.
    Sse2,
    /// Force the 256-bit kernels.
    Avx2,
}

impl SimdMode {
    /// Resolves the mode to the level execution will actually use.
    #[must_use]
    pub fn resolve(self) -> SimdLevel {
        match self {
            SimdMode::Auto => auto(),
            SimdMode::Off => SimdLevel::Scalar,
            SimdMode::Sse2 => SimdLevel::Sse2.min(detect()),
            SimdMode::Avx2 => SimdLevel::Avx2.min(detect()),
        }
    }
}

// ---------------------------------------------------------------------------
// 32-byte-aligned slab arenas.
// ---------------------------------------------------------------------------

/// One 32-byte-aligned group of 8 floats; the allocation unit of
/// [`AlignedF32`].
#[repr(C, align(32))]
#[derive(Debug, Clone, Copy, Default)]
struct FChunk([f32; 8]);

/// One 32-byte-aligned group of 8 ints; the allocation unit of
/// [`AlignedI32`].
#[repr(C, align(32))]
#[derive(Debug, Clone, Copy, Default)]
struct IChunk([i32; 8]);

/// A zero-filled `f32` arena whose base is 32-byte aligned, so AVX2
/// aligned loads/stores of [`LANES`]-aligned slab blocks are legal.
/// Drop-in replacement for the lane engine's former `Vec<f32>` slabs.
#[derive(Debug, Default)]
pub struct AlignedF32 {
    chunks: Vec<FChunk>,
    len: usize,
}

impl AlignedF32 {
    /// Clears and re-sizes the arena to `len` zeroed floats (the exact
    /// `Vec::clear` + `Vec::resize(len, 0.0)` semantics the slabs had).
    pub fn clear_resize(&mut self, len: usize) {
        self.chunks.clear();
        self.chunks.resize(len.div_ceil(8), FChunk([0.0; 8]));
        self.len = len;
        debug_assert_eq!(
            self.chunks.as_ptr() as usize % 32,
            0,
            "f32 slab arena lost 32-byte alignment"
        );
    }

    /// The arena as a plain slice.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        // SAFETY: `chunks` owns at least `len` contiguous, initialized
        // `f32`s (`FChunk` is `repr(C)` over `[f32; 8]`).
        unsafe { std::slice::from_raw_parts(self.chunks.as_ptr().cast::<f32>(), self.len) }
    }

    /// The arena as a plain mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        // SAFETY: as `as_slice`, with unique access.
        unsafe { std::slice::from_raw_parts_mut(self.chunks.as_mut_ptr().cast::<f32>(), self.len) }
    }
}

/// The `i32` twin of [`AlignedF32`].
#[derive(Debug, Default)]
pub struct AlignedI32 {
    chunks: Vec<IChunk>,
    len: usize,
}

impl AlignedI32 {
    /// Clears and re-sizes the arena to `len` zeroed ints.
    pub fn clear_resize(&mut self, len: usize) {
        self.chunks.clear();
        self.chunks.resize(len.div_ceil(8), IChunk([0; 8]));
        self.len = len;
        debug_assert_eq!(
            self.chunks.as_ptr() as usize % 32,
            0,
            "i32 slab arena lost 32-byte alignment"
        );
    }

    /// The arena as a plain slice.
    #[must_use]
    pub fn as_slice(&self) -> &[i32] {
        // SAFETY: `chunks` owns at least `len` contiguous, initialized
        // `i32`s (`IChunk` is `repr(C)` over `[i32; 8]`).
        unsafe { std::slice::from_raw_parts(self.chunks.as_ptr().cast::<i32>(), self.len) }
    }

    /// The arena as a plain mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [i32] {
        // SAFETY: as `as_slice`, with unique access.
        unsafe { std::slice::from_raw_parts_mut(self.chunks.as_mut_ptr().cast::<i32>(), self.len) }
    }
}

// ---------------------------------------------------------------------------
// The vector operation vocabulary the tier compiler binds at build time.
// ---------------------------------------------------------------------------

/// Binary float slab operations with explicit vector kernels. A step
/// passes one to its block body as the const parameter `OP`
/// (`VfOp::Add as u8`), which [`VfOp::of`] maps back at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum VfOp {
    Add,
    Sub,
    Mul,
    Div,
    /// `f32::min(a, b)` bit-exact (NaN in `a` selects `b`; ties select
    /// `a`).
    Min,
    /// `f32::max(a, b)` bit-exact.
    Max,
}

impl VfOp {
    const fn of(op: u8) -> VfOp {
        [VfOp::Add, VfOp::Sub, VfOp::Mul, VfOp::Div, VfOp::Min, VfOp::Max][op as usize]
    }
}

/// Unary float slab operations with explicit vector kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum VuOp {
    Sqrt,
    /// Sign-bit clear — exactly `f32::abs`, NaN payloads preserved.
    Abs,
    /// Sign-bit flip — exactly Rust unary `-`.
    Neg,
}

impl VuOp {
    const fn of(op: u8) -> VuOp {
        [VuOp::Sqrt, VuOp::Abs, VuOp::Neg][op as usize]
    }
}

/// Binary wrapping-int slab operations with explicit vector kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum ViOp {
    Add,
    Sub,
    /// `pmulld` needs SSE4.1: only levels with [`Vector::INT_MUL`].
    Mul,
}

impl ViOp {
    const fn of(op: u8) -> ViOp {
        [ViOp::Add, ViOp::Sub, ViOp::Mul][op as usize]
    }
}

/// The comparison a const parameter `COp::Lt as u8` names.
#[cfg(target_arch = "x86_64")]
const fn cop(op: u8) -> COp {
    [COp::Lt, COp::Le, COp::Gt, COp::Ge, COp::Eq, COp::Ne][op as usize]
}

/// Slab offsets of a componentwise binary float step: `w` components
/// of `d` from `a` and `b`, which advance `sa`/`sb` floats per
/// component (0 for a broadcast operand, [`LANES`] otherwise).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Zip {
    pub d: usize,
    pub w: usize,
    pub a: usize,
    pub sa: usize,
    pub b: usize,
    pub sb: usize,
}

/// Slab offsets of a componentwise unary float step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Map {
    pub d: usize,
    pub s: usize,
    pub w: usize,
}

/// Slab offsets of a componentwise select: lanes whose condition bit
/// is set take `a`, the others `b`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sel {
    pub d: usize,
    pub a: usize,
    pub b: usize,
    pub w: usize,
}

/// Slab offsets of one fused arith→arith pair over `w` components
/// (strides as in [`Zip`]; `ta`/`tb` route op1's in-register result
/// into op2's operands).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FusedFF {
    pub w: usize,
    pub x1: usize,
    pub sx1: usize,
    pub y1: usize,
    pub sy1: usize,
    pub d1: usize,
    pub x2: usize,
    pub sx2: usize,
    pub y2: usize,
    pub sy2: usize,
    pub d2: usize,
    pub ta: bool,
    pub tb: bool,
}

/// Slab offsets of one fused arith→compare pair.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FusedFC {
    pub x1: usize,
    pub y1: usize,
    pub d1: usize,
    pub x2: usize,
    pub y2: usize,
    pub ta: bool,
    pub tb: bool,
}

/// Slab offsets of one gather/elem-fetch→arith tail (the fetched
/// lane values arrive in a stack buffer).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TBuf {
    pub d2: usize,
    pub a2: usize,
    pub b2: usize,
    pub ta: bool,
    pub tb: bool,
}

/// The tier engine's masked lane walk, replicated for the scalar
/// bodies: full blocks run the unmasked loop, partial blocks walk set
/// bits.
macro_rules! simd_loop {
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

// ---------------------------------------------------------------------------
// Build-time binding: level tokens and the block-body traits.
// ---------------------------------------------------------------------------

/// The scalar level's token: data movement only. Its partial-mask
/// bodies are the tier engine's verbatim lane walks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScalarIsa;

/// Proof that the host runs SSE2. Only [`Isa::bind`] makes one.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sse2Isa(());

/// Proof that the host runs AVX2. Only [`Isa::bind`] makes one, after
/// runtime detection found the feature.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub(crate) struct Avx2Isa(());

/// A SIMD level bound to the token of its block bodies. The tier
/// compiler binds once per kernel and builds every step from the
/// token, so a step's closure calls its level's body directly: no
/// step matches on the level, or on its operator, per block.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Isa {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Sse2(Sse2Isa),
    #[cfg(target_arch = "x86_64")]
    Avx2(Avx2Isa),
}

impl Isa {
    /// Binds `level`, capped at what the host supports.
    pub(crate) fn bind(level: SimdLevel) -> Isa {
        #[cfg(target_arch = "x86_64")]
        match level.min(detect()) {
            SimdLevel::Avx2 => return Isa::Avx2(Avx2Isa(())),
            SimdLevel::Sse2 => return Isa::Sse2(Sse2Isa(())),
            SimdLevel::Scalar => {}
        }
        let _ = level;
        Isa::Scalar
    }

    /// The bound level.
    pub(crate) fn level(self) -> SimdLevel {
        match self {
            Isa::Scalar => SimdLevel::Scalar,
            #[cfg(target_arch = "x86_64")]
            Isa::Sse2(_) => SimdLevel::Sse2,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2(_) => SimdLevel::Avx2,
        }
    }
}

/// Whole-block data movement, at every level. On a full mask each
/// [`LANES`]-wide component block moves as one array, with one bounds
/// check per block; on a partial mask the level's `*_masked` body
/// writes exactly the live lanes (a masked blend store at SSE2/AVX2,
/// the verbatim lane walk at `Scalar`), so a dead lane's slot is never
/// written. Every offset is [`LANES`]-aligned, so a component block of
/// the source either is the destination's or does not overlap it, and
/// moving block by block in component order is the lane walk's order.
pub(crate) trait Block: Copy + Send + Sync + 'static {
    /// The level these bodies run at.
    const LEVEL: SimdLevel;

    fn copy_f_masked(self, f: &mut [f32], d: usize, s: usize, n: usize, m: Mask);
    fn fill_f_masked(self, f: &mut [f32], d: usize, v: [f32; 4], n: usize, m: Mask);
    fn copy_i_masked(self, i: &mut [i32], d: usize, s: usize, m: Mask);
    fn fill_i_masked(self, i: &mut [i32], d: usize, v: i32, m: Mask);
    fn itof_masked(self, f: &mut [f32], i: &[i32], d: usize, s: usize, m: Mask);

    /// `n` float components `s` → `d` (`CopyF`).
    #[inline(always)]
    fn copy_f(self, f: &mut [f32], d: usize, s: usize, n: usize, m: Mask) {
        if m != FULL {
            return self.copy_f_masked(f, d, s, n, m);
        }
        let blocks = f.as_chunks_mut::<LANES>().0;
        for c in 0..n {
            blocks[d / LANES + c] = blocks[s / LANES + c];
        }
    }

    /// Component `c < n` of `d` filled with `v[c]` (`ConstF`).
    #[inline(always)]
    fn fill_f(self, f: &mut [f32], d: usize, v: [f32; 4], n: usize, m: Mask) {
        if m != FULL {
            return self.fill_f_masked(f, d, v, n, m);
        }
        let blocks = f.as_chunks_mut::<LANES>().0;
        for (c, x) in v.into_iter().take(n).enumerate() {
            blocks[d / LANES + c] = [x; LANES];
        }
    }

    /// `CopyI`.
    #[inline(always)]
    fn copy_i(self, i: &mut [i32], d: usize, s: usize, m: Mask) {
        if m != FULL {
            return self.copy_i_masked(i, d, s, m);
        }
        let blocks = i.as_chunks_mut::<LANES>().0;
        blocks[d / LANES] = blocks[s / LANES];
    }

    /// `ConstI`.
    #[inline(always)]
    fn fill_i(self, i: &mut [i32], d: usize, v: i32, m: Mask) {
        if m != FULL {
            return self.fill_i_masked(i, d, v, m);
        }
        i.as_chunks_mut::<LANES>().0[d / LANES] = [v; LANES];
    }

    /// `ItoF`: `i32 as f32`, round-to-nearest-even like `cvtdq2ps`.
    #[inline(always)]
    fn itof(self, f: &mut [f32], i: &[i32], d: usize, s: usize, m: Mask) {
        if m != FULL {
            return self.itof_masked(f, i, d, s, m);
        }
        let src = i.as_chunks::<LANES>().0[s / LANES];
        f.as_chunks_mut::<LANES>().0[d / LANES] = src.map(|x| x as f32);
    }
}

impl Block for ScalarIsa {
    const LEVEL: SimdLevel = SimdLevel::Scalar;

    fn copy_f_masked(self, f: &mut [f32], d: usize, s: usize, n: usize, m: Mask) {
        for c in 0..n {
            let (d, s) = (d + c * LANES, s + c * LANES);
            simd_loop!(m, l, {
                f[d + l] = f[s + l];
            });
        }
    }

    fn fill_f_masked(self, f: &mut [f32], d: usize, v: [f32; 4], n: usize, m: Mask) {
        for (c, val) in v.into_iter().take(n).enumerate() {
            let d = d + c * LANES;
            simd_loop!(m, l, {
                f[d + l] = val;
            });
        }
    }

    fn copy_i_masked(self, i: &mut [i32], d: usize, s: usize, m: Mask) {
        simd_loop!(m, l, {
            i[d + l] = i[s + l];
        });
    }

    fn fill_i_masked(self, i: &mut [i32], d: usize, v: i32, m: Mask) {
        simd_loop!(m, l, {
            i[d + l] = v;
        });
    }

    fn itof_masked(self, f: &mut [f32], i: &[i32], d: usize, s: usize, m: Mask) {
        simd_loop!(m, l, {
            f[d + l] = i[s + l] as f32;
        });
    }
}

/// The vector steps' block bodies. Each method is one call into a
/// body that loops over the step's components itself, with the
/// operator a const parameter (`VfOp::Mul as u8`, `COp::Lt as u8`, …);
/// compare methods return all-lane bits, which the caller blends with
/// its mask.
pub(crate) trait Vector: Block {
    /// Whether [`Vector::int2`] implements [`ViOp::Mul`].
    const INT_MUL: bool;

    fn zip2<const OP: u8>(self, f: &mut [f32], p: Zip, m: Mask);
    fn map1<const OP: u8>(self, f: &mut [f32], p: Map, m: Mask);
    fn int2<const OP: u8>(self, i: &mut [i32], d: usize, x: usize, y: usize, m: Mask);
    fn cmp<const OP: u8>(self, f: &[f32], x: usize, y: usize) -> Mask;
    fn sel(self, f: &mut [f32], p: Sel, cond: Mask, m: Mask);
    /// Compare `x`/`y`, then select by the result: the fused ternary.
    fn cmp_sel<const OP: u8>(self, f: &mut [f32], x: usize, y: usize, p: Sel, m: Mask) -> Mask;
    fn fused_ff<const OP1: u8, const OP2: u8>(self, f: &mut [f32], p: FusedFF, m: Mask);
    fn fused_fc<const OP1: u8, const CMP: u8>(self, f: &mut [f32], p: FusedFC, m: Mask) -> Mask;
    /// Arithmetic tail of a fused gather/elem-fetch pair: the fetched
    /// per-lane values arrive in `t` (dead lanes zeroed by the caller).
    fn arith_tbuf<const OP: u8>(self, f: &mut [f32], t: &[f32; LANES], p: TBuf, m: Mask);
}

/// Implements [`Block`] and [`Vector`] for an x86_64 level token by
/// forwarding to the level's module of bodies.
#[cfg(target_arch = "x86_64")]
macro_rules! x86_token {
    ($tok:ty, $isa:ident, $level:expr, $int_mul:expr) => {
        impl Block for $tok {
            const LEVEL: SimdLevel = $level;

            #[inline(always)]
            fn copy_f_masked(self, f: &mut [f32], d: usize, s: usize, n: usize, m: Mask) {
                // SAFETY: the token exists only when `Isa::bind` found the ISA on this CPU.
                unsafe { $isa::copy_f_masked(f, d, s, n, m) }
            }

            #[inline(always)]
            fn fill_f_masked(self, f: &mut [f32], d: usize, v: [f32; 4], n: usize, m: Mask) {
                // SAFETY: as `copy_f_masked`.
                unsafe { $isa::fill_f_masked(f, d, v, n, m) }
            }

            #[inline(always)]
            fn copy_i_masked(self, i: &mut [i32], d: usize, s: usize, m: Mask) {
                // SAFETY: as `copy_f_masked`.
                unsafe { $isa::copy_i_masked(i, d, s, m) }
            }

            #[inline(always)]
            fn fill_i_masked(self, i: &mut [i32], d: usize, v: i32, m: Mask) {
                // SAFETY: as `copy_f_masked`.
                unsafe { $isa::fill_i_masked(i, d, v, m) }
            }

            #[inline(always)]
            fn itof_masked(self, f: &mut [f32], i: &[i32], d: usize, s: usize, m: Mask) {
                // SAFETY: as `copy_f_masked`.
                unsafe { $isa::itof_masked(f, i, d, s, m) }
            }
        }

        impl Vector for $tok {
            const INT_MUL: bool = $int_mul;

            #[inline(always)]
            fn zip2<const OP: u8>(self, f: &mut [f32], p: Zip, m: Mask) {
                // SAFETY: the token exists only when `Isa::bind` found the ISA on this CPU.
                unsafe { $isa::zip2::<OP>(f, p, m) }
            }

            #[inline(always)]
            fn map1<const OP: u8>(self, f: &mut [f32], p: Map, m: Mask) {
                // SAFETY: as `zip2`.
                unsafe { $isa::map1::<OP>(f, p, m) }
            }

            #[inline(always)]
            fn int2<const OP: u8>(self, i: &mut [i32], d: usize, x: usize, y: usize, m: Mask) {
                // SAFETY: as `zip2`; `ViOp::Mul` is built only where `INT_MUL` holds.
                unsafe { $isa::int2::<OP>(i, d, x, y, m) }
            }

            #[inline(always)]
            fn cmp<const OP: u8>(self, f: &[f32], x: usize, y: usize) -> Mask {
                // SAFETY: as `zip2`.
                unsafe { $isa::cmp::<OP>(f, x, y) }
            }

            #[inline(always)]
            fn sel(self, f: &mut [f32], p: Sel, cond: Mask, m: Mask) {
                // SAFETY: as `zip2`.
                unsafe { $isa::sel(f, p, cond, m) }
            }

            #[inline(always)]
            fn cmp_sel<const OP: u8>(self, f: &mut [f32], x: usize, y: usize, p: Sel, m: Mask) -> Mask {
                // SAFETY: as `zip2`.
                unsafe { $isa::cmp_sel::<OP>(f, x, y, p, m) }
            }

            #[inline(always)]
            fn fused_ff<const OP1: u8, const OP2: u8>(self, f: &mut [f32], p: FusedFF, m: Mask) {
                // SAFETY: as `zip2`.
                unsafe { $isa::fused_ff::<OP1, OP2>(f, p, m) }
            }

            #[inline(always)]
            fn fused_fc<const OP1: u8, const CMP: u8>(self, f: &mut [f32], p: FusedFC, m: Mask) -> Mask {
                // SAFETY: as `zip2`.
                unsafe { $isa::fused_fc::<OP1, CMP>(f, p, m) }
            }

            #[inline(always)]
            fn arith_tbuf<const OP: u8>(self, f: &mut [f32], t: &[f32; LANES], p: TBuf, m: Mask) {
                // SAFETY: as `zip2`.
                unsafe { $isa::arith_tbuf::<OP>(f, t, p, m) }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
x86_token!(Sse2Isa, sse2, SimdLevel::Sse2, false);
#[cfg(target_arch = "x86_64")]
x86_token!(Avx2Isa, avx2, SimdLevel::Avx2, true);

// ---------------------------------------------------------------------------
// x86_64 kernels.
// ---------------------------------------------------------------------------

/// Lane-mask expansion tables: bit `l` of the mask selects all-ones in
/// word `l`. `MASK4` serves SSE2 nibbles, `MASK8` AVX2 half-blocks.
#[cfg(target_arch = "x86_64")]
static MASK4: [[i32; 4]; 16] = build_mask4();
#[cfg(target_arch = "x86_64")]
static MASK8: [[i32; 8]; 256] = build_mask8();

#[cfg(target_arch = "x86_64")]
const fn build_mask4() -> [[i32; 4]; 16] {
    let mut t = [[0i32; 4]; 16];
    let mut m = 0;
    while m < 16 {
        let mut l = 0;
        while l < 4 {
            if m & (1 << l) != 0 {
                t[m][l] = -1;
            }
            l += 1;
        }
        m += 1;
    }
    t
}

#[cfg(target_arch = "x86_64")]
const fn build_mask8() -> [[i32; 8]; 256] {
    let mut t = [[0i32; 8]; 256];
    let mut m = 0;
    while m < 256 {
        let mut l = 0;
        while l < 8 {
            if m & (1 << l) != 0 {
                t[m][l] = -1;
            }
            l += 1;
        }
        m += 1;
    }
    t
}

/// 128-bit kernels. SSE2 is in the x86_64 baseline, so these are
/// always sound to call on this architecture.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use super::{cop, FusedFC, FusedFF, Map, Sel, TBuf, VfOp, ViOp, VuOp, Zip, MASK4};
    use crate::lanes::{COp, Mask, FULL, LANES};
    use core::arch::x86_64::*;

    #[inline(always)]
    unsafe fn vf<const OP: u8>(a: __m128, b: __m128) -> __m128 {
        match VfOp::of(OP) {
            VfOp::Add => _mm_add_ps(a, b),
            VfOp::Sub => _mm_sub_ps(a, b),
            VfOp::Mul => _mm_mul_ps(a, b),
            VfOp::Div => _mm_div_ps(a, b),
            // rustc's exact `f32::min` lowering: NaN lanes of `a` take
            // `b`; ties take `a` (the second minps operand).
            VfOp::Min => {
                let nan = _mm_cmpunord_ps(a, a);
                let t = _mm_min_ps(b, a);
                _mm_or_ps(_mm_and_ps(nan, b), _mm_andnot_ps(nan, t))
            }
            VfOp::Max => {
                let nan = _mm_cmpunord_ps(a, a);
                let t = _mm_max_ps(b, a);
                _mm_or_ps(_mm_and_ps(nan, b), _mm_andnot_ps(nan, t))
            }
        }
    }

    #[inline(always)]
    unsafe fn vu<const OP: u8>(a: __m128) -> __m128 {
        match VuOp::of(OP) {
            VuOp::Sqrt => _mm_sqrt_ps(a),
            VuOp::Abs => _mm_and_ps(a, _mm_castsi128_ps(_mm_set1_epi32(0x7fff_ffff))),
            VuOp::Neg => _mm_xor_ps(a, _mm_set1_ps(-0.0)),
        }
    }

    #[inline(always)]
    unsafe fn vc<const OP: u8>(a: __m128, b: __m128) -> __m128 {
        match cop(OP) {
            COp::Lt => _mm_cmplt_ps(a, b),
            COp::Le => _mm_cmple_ps(a, b),
            COp::Gt => _mm_cmpgt_ps(a, b),
            COp::Ge => _mm_cmpge_ps(a, b),
            // `==` is false on NaN (ordered), `!=` true (unordered) —
            // exactly cmpeqps / cmpneqps.
            COp::Eq => _mm_cmpeq_ps(a, b),
            COp::Ne => _mm_cmpneq_ps(a, b),
        }
    }

    /// Loads one [`LANES`]-float slab block as 4 vectors.
    #[inline(always)]
    unsafe fn ld(f: &[f32], off: usize) -> [__m128; 4] {
        let s = &f[off..off + LANES];
        let p = s.as_ptr();
        debug_assert_eq!(p as usize % 16, 0, "slab block not 16-byte aligned");
        [
            _mm_load_ps(p),
            _mm_load_ps(p.add(4)),
            _mm_load_ps(p.add(8)),
            _mm_load_ps(p.add(12)),
        ]
    }

    /// Loads one 16-float stack buffer (unaligned).
    #[inline(always)]
    unsafe fn ldu(t: &[f32; LANES]) -> [__m128; 4] {
        let p = t.as_ptr();
        [
            _mm_loadu_ps(p),
            _mm_loadu_ps(p.add(4)),
            _mm_loadu_ps(p.add(8)),
            _mm_loadu_ps(p.add(12)),
        ]
    }

    /// Mask-blend-stores one slab block: live lanes take `v`, dead
    /// lanes keep memory — the scalar walk's exact write set.
    #[inline(always)]
    unsafe fn st(f: &mut [f32], off: usize, v: [__m128; 4], m: Mask) {
        let s = &mut f[off..off + LANES];
        let p = s.as_mut_ptr();
        debug_assert_eq!(p as usize % 16, 0, "slab block not 16-byte aligned");
        if m == FULL {
            _mm_store_ps(p, v[0]);
            _mm_store_ps(p.add(4), v[1]);
            _mm_store_ps(p.add(8), v[2]);
            _mm_store_ps(p.add(12), v[3]);
            return;
        }
        for (q, vq) in v.iter().enumerate() {
            let nib = ((m >> (q * 4)) & 0xF) as usize;
            if nib == 0 {
                continue;
            }
            let pq = p.add(q * 4);
            if nib == 0xF {
                _mm_store_ps(pq, *vq);
            } else {
                let mf = _mm_castsi128_ps(_mm_loadu_si128(MASK4[nib].as_ptr().cast()));
                let old = _mm_load_ps(pq);
                _mm_store_ps(pq, _mm_or_ps(_mm_and_ps(mf, *vq), _mm_andnot_ps(mf, old)));
            }
        }
    }

    #[inline(always)]
    unsafe fn zip<const OP: u8>(a: [__m128; 4], b: [__m128; 4]) -> [__m128; 4] {
        [
            vf::<OP>(a[0], b[0]),
            vf::<OP>(a[1], b[1]),
            vf::<OP>(a[2], b[2]),
            vf::<OP>(a[3], b[3]),
        ]
    }

    /// All-lane compare bits of one block pair.
    #[inline(always)]
    unsafe fn bits<const OP: u8>(a: [__m128; 4], b: [__m128; 4]) -> Mask {
        let mut bits: Mask = 0;
        for q in 0..4 {
            bits |= (_mm_movemask_ps(vc::<OP>(a[q], b[q])) as Mask) << (q * 4);
        }
        bits
    }

    /// The per-quarter lane masks of condition bits `cond`.
    #[inline(always)]
    unsafe fn cond_masks(cond: Mask) -> [__m128; 4] {
        let mut cm = [_mm_setzero_ps(); 4];
        for (q, c) in cm.iter_mut().enumerate() {
            let nib = ((cond >> (q * 4)) & 0xF) as usize;
            *c = _mm_castsi128_ps(_mm_loadu_si128(MASK4[nib].as_ptr().cast()));
        }
        cm
    }

    /// Selects `p.w` components by the lane masks `cm`.
    #[inline(always)]
    unsafe fn select(f: &mut [f32], p: Sel, cm: [__m128; 4], m: Mask) {
        for c in 0..p.w {
            let cl = c * LANES;
            let va = ld(f, p.a + cl);
            let vb = ld(f, p.b + cl);
            let mut r = [_mm_setzero_ps(); 4];
            for q in 0..4 {
                r[q] = _mm_or_ps(_mm_and_ps(cm[q], va[q]), _mm_andnot_ps(cm[q], vb[q]));
            }
            st(f, p.d + cl, r, m);
        }
    }

    #[inline(always)]
    unsafe fn ldi(i: &[i32], off: usize) -> [__m128i; 4] {
        let s = &i[off..off + LANES];
        let p = s.as_ptr().cast::<__m128i>();
        [
            _mm_loadu_si128(p),
            _mm_loadu_si128(p.add(1)),
            _mm_loadu_si128(p.add(2)),
            _mm_loadu_si128(p.add(3)),
        ]
    }

    /// The int twin of [`st`].
    #[inline(always)]
    unsafe fn sti(i: &mut [i32], off: usize, r: [__m128i; 4], m: Mask) {
        let s = &mut i[off..off + LANES];
        let p = s.as_mut_ptr().cast::<__m128i>();
        if m == FULL {
            _mm_storeu_si128(p, r[0]);
            _mm_storeu_si128(p.add(1), r[1]);
            _mm_storeu_si128(p.add(2), r[2]);
            _mm_storeu_si128(p.add(3), r[3]);
            return;
        }
        for (q, rq) in r.iter().enumerate() {
            let nib = ((m >> (q * 4)) & 0xF) as usize;
            if nib == 0 {
                continue;
            }
            let pq = p.add(q);
            if nib == 0xF {
                _mm_storeu_si128(pq, *rq);
            } else {
                let mi = _mm_loadu_si128(MASK4[nib].as_ptr().cast());
                let old = _mm_loadu_si128(pq);
                _mm_storeu_si128(
                    pq,
                    _mm_or_si128(_mm_and_si128(mi, *rq), _mm_andnot_si128(mi, old)),
                );
            }
        }
    }

    pub(super) unsafe fn zip2<const OP: u8>(f: &mut [f32], p: Zip, m: Mask) {
        for c in 0..p.w {
            let r = zip::<OP>(ld(f, p.a + c * p.sa), ld(f, p.b + c * p.sb));
            st(f, p.d + c * LANES, r, m);
        }
    }

    pub(super) unsafe fn map1<const OP: u8>(f: &mut [f32], p: Map, m: Mask) {
        for c in 0..p.w {
            let a = ld(f, p.s + c * LANES);
            let r = [vu::<OP>(a[0]), vu::<OP>(a[1]), vu::<OP>(a[2]), vu::<OP>(a[3])];
            st(f, p.d + c * LANES, r, m);
        }
    }

    /// `Add`/`Sub` only: `pmulld` is SSE4.1, so no SSE2 step binds
    /// `Mul` (`INT_MUL` is false).
    pub(super) unsafe fn int2<const OP: u8>(i: &mut [i32], d: usize, x: usize, y: usize, m: Mask) {
        let a = ldi(i, x);
        let b = ldi(i, y);
        let mut r = [_mm_setzero_si128(); 4];
        for q in 0..4 {
            r[q] = match ViOp::of(OP) {
                ViOp::Add => _mm_add_epi32(a[q], b[q]),
                ViOp::Sub => _mm_sub_epi32(a[q], b[q]),
                ViOp::Mul => unreachable!("pmulld needs SSE4.1; never bound at SSE2"),
            };
        }
        sti(i, d, r, m);
    }

    pub(super) unsafe fn cmp<const OP: u8>(f: &[f32], x: usize, y: usize) -> Mask {
        bits::<OP>(ld(f, x), ld(f, y))
    }

    pub(super) unsafe fn sel(f: &mut [f32], p: Sel, cond: Mask, m: Mask) {
        select(f, p, cond_masks(cond), m);
    }

    pub(super) unsafe fn cmp_sel<const OP: u8>(f: &mut [f32], x: usize, y: usize, p: Sel, m: Mask) -> Mask {
        let cond = bits::<OP>(ld(f, x), ld(f, y));
        select(f, p, cond_masks(cond), m);
        cond
    }

    pub(super) unsafe fn fused_ff<const OP1: u8, const OP2: u8>(f: &mut [f32], p: FusedFF, m: Mask) {
        for c in 0..p.w {
            let t = zip::<OP1>(ld(f, p.x1 + c * p.sx1), ld(f, p.y1 + c * p.sy1));
            // Store op1's block before loading op2's operands: an
            // operand aliasing `d1` must observe the freshly stored
            // lanes, exactly as the scalar per-lane order does.
            st(f, p.d1 + c * LANES, t, m);
            let xa = if p.ta { t } else { ld(f, p.x2 + c * p.sx2) };
            let xb = if p.tb { t } else { ld(f, p.y2 + c * p.sy2) };
            st(f, p.d2 + c * LANES, zip::<OP2>(xa, xb), m);
        }
    }

    pub(super) unsafe fn fused_fc<const OP1: u8, const CMP: u8>(f: &mut [f32], p: FusedFC, m: Mask) -> Mask {
        let t = zip::<OP1>(ld(f, p.x1), ld(f, p.y1));
        st(f, p.d1, t, m);
        let xa = if p.ta { t } else { ld(f, p.x2) };
        let xb = if p.tb { t } else { ld(f, p.y2) };
        bits::<CMP>(xa, xb)
    }

    pub(super) unsafe fn arith_tbuf<const OP: u8>(f: &mut [f32], t: &[f32; LANES], p: TBuf, m: Mask) {
        let tv = ldu(t);
        let xa = if p.ta { tv } else { ld(f, p.a2) };
        let xb = if p.tb { tv } else { ld(f, p.b2) };
        st(f, p.d2, zip::<OP>(xa, xb), m);
    }

    pub(super) unsafe fn copy_f_masked(f: &mut [f32], d: usize, s: usize, n: usize, m: Mask) {
        for c in 0..n {
            let v = ld(f, s + c * LANES);
            st(f, d + c * LANES, v, m);
        }
    }

    pub(super) unsafe fn fill_f_masked(f: &mut [f32], d: usize, v: [f32; 4], n: usize, m: Mask) {
        for (c, x) in v.into_iter().take(n).enumerate() {
            st(f, d + c * LANES, [_mm_set1_ps(x); 4], m);
        }
    }

    pub(super) unsafe fn copy_i_masked(i: &mut [i32], d: usize, s: usize, m: Mask) {
        let v = ldi(i, s);
        sti(i, d, v, m);
    }

    pub(super) unsafe fn fill_i_masked(i: &mut [i32], d: usize, v: i32, m: Mask) {
        sti(i, d, [_mm_set1_epi32(v); 4], m);
    }

    pub(super) unsafe fn itof_masked(f: &mut [f32], i: &[i32], d: usize, s: usize, m: Mask) {
        let v = ldi(i, s);
        let r = [
            _mm_cvtepi32_ps(v[0]),
            _mm_cvtepi32_ps(v[1]),
            _mm_cvtepi32_ps(v[2]),
            _mm_cvtepi32_ps(v[3]),
        ];
        st(f, d, r, m);
    }

    /// Plain `minps`/`maxps` fold. Only sound under the reduce
    /// admission proof (no NaN, no `±0.0` ties), where every order
    /// yields the same bits.
    pub(super) unsafe fn fold_minmax(op: crate::ReduceOp, xs: &[f32]) -> f32 {
        let is_min = matches!(op, crate::ReduceOp::Min);
        let id = op.identity();
        let mut vacc = _mm_set1_ps(id);
        let mut chunks = xs.chunks_exact(4);
        for c in chunks.by_ref() {
            let v = _mm_loadu_ps(c.as_ptr());
            vacc = if is_min {
                _mm_min_ps(vacc, v)
            } else {
                _mm_max_ps(vacc, v)
            };
        }
        let mut lanes = [0.0f32; 4];
        _mm_storeu_ps(lanes.as_mut_ptr(), vacc);
        let g: fn(f32, f32) -> f32 = if is_min { f32::min } else { f32::max };
        let mut acc = lanes.iter().fold(id, |a, &x| g(a, x));
        for &x in chunks.remainder() {
            acc = g(acc, x);
        }
        acc
    }
}

/// 256-bit kernels, called only through an [`Avx2Isa`] token, which
/// exists only after `is_x86_feature_detected!("avx2")`.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{cop, FusedFC, FusedFF, Map, Sel, TBuf, VfOp, ViOp, VuOp, Zip, MASK8};
    use crate::lanes::{COp, Mask, FULL, LANES};
    use core::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn vf<const OP: u8>(a: __m256, b: __m256) -> __m256 {
        match VfOp::of(OP) {
            VfOp::Add => _mm256_add_ps(a, b),
            VfOp::Sub => _mm256_sub_ps(a, b),
            VfOp::Mul => _mm256_mul_ps(a, b),
            VfOp::Div => _mm256_div_ps(a, b),
            // rustc's exact `f32::min` lowering (see the SSE2 twin).
            VfOp::Min => {
                let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(a, a);
                _mm256_blendv_ps(_mm256_min_ps(b, a), b, nan)
            }
            VfOp::Max => {
                let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(a, a);
                _mm256_blendv_ps(_mm256_max_ps(b, a), b, nan)
            }
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn vu<const OP: u8>(a: __m256) -> __m256 {
        match VuOp::of(OP) {
            VuOp::Sqrt => _mm256_sqrt_ps(a),
            VuOp::Abs => _mm256_and_ps(a, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff))),
            VuOp::Neg => _mm256_xor_ps(a, _mm256_set1_ps(-0.0)),
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn vc<const OP: u8>(a: __m256, b: __m256) -> __m256 {
        match cop(OP) {
            COp::Lt => _mm256_cmp_ps::<_CMP_LT_OQ>(a, b),
            COp::Le => _mm256_cmp_ps::<_CMP_LE_OQ>(a, b),
            COp::Gt => _mm256_cmp_ps::<_CMP_GT_OQ>(a, b),
            COp::Ge => _mm256_cmp_ps::<_CMP_GE_OQ>(a, b),
            COp::Eq => _mm256_cmp_ps::<_CMP_EQ_OQ>(a, b),
            COp::Ne => _mm256_cmp_ps::<_CMP_NEQ_UQ>(a, b),
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn ld(f: &[f32], off: usize) -> [__m256; 2] {
        let s = &f[off..off + LANES];
        let p = s.as_ptr();
        debug_assert_eq!(p as usize % 32, 0, "slab block not 32-byte aligned");
        [_mm256_load_ps(p), _mm256_load_ps(p.add(8))]
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn ldu(t: &[f32; LANES]) -> [__m256; 2] {
        let p = t.as_ptr();
        [_mm256_loadu_ps(p), _mm256_loadu_ps(p.add(8))]
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn st(f: &mut [f32], off: usize, v: [__m256; 2], m: Mask) {
        let s = &mut f[off..off + LANES];
        let p = s.as_mut_ptr();
        debug_assert_eq!(p as usize % 32, 0, "slab block not 32-byte aligned");
        if m == FULL {
            _mm256_store_ps(p, v[0]);
            _mm256_store_ps(p.add(8), v[1]);
            return;
        }
        let lo = (m & 0xFF) as usize;
        let hi = ((m >> 8) & 0xFF) as usize;
        if lo == 0xFF {
            _mm256_store_ps(p, v[0]);
        } else if lo != 0 {
            _mm256_maskstore_ps(p, _mm256_loadu_si256(MASK8[lo].as_ptr().cast()), v[0]);
        }
        if hi == 0xFF {
            _mm256_store_ps(p.add(8), v[1]);
        } else if hi != 0 {
            _mm256_maskstore_ps(p.add(8), _mm256_loadu_si256(MASK8[hi].as_ptr().cast()), v[1]);
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn zip<const OP: u8>(a: [__m256; 2], b: [__m256; 2]) -> [__m256; 2] {
        [vf::<OP>(a[0], b[0]), vf::<OP>(a[1], b[1])]
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn bits<const OP: u8>(a: [__m256; 2], b: [__m256; 2]) -> Mask {
        let lo = _mm256_movemask_ps(vc::<OP>(a[0], b[0])) as Mask & 0xFF;
        let hi = _mm256_movemask_ps(vc::<OP>(a[1], b[1])) as Mask & 0xFF;
        lo | (hi << 8)
    }

    /// Selects `p.w` components by condition bits `cond`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn select(f: &mut [f32], p: Sel, cond: Mask, m: Mask) {
        let clo = _mm256_castsi256_ps(_mm256_loadu_si256(MASK8[(cond & 0xFF) as usize].as_ptr().cast()));
        let chi = _mm256_castsi256_ps(_mm256_loadu_si256(
            MASK8[((cond >> 8) & 0xFF) as usize].as_ptr().cast(),
        ));
        for c in 0..p.w {
            let cl = c * LANES;
            let va = ld(f, p.a + cl);
            let vb = ld(f, p.b + cl);
            let r = [
                _mm256_blendv_ps(vb[0], va[0], clo),
                _mm256_blendv_ps(vb[1], va[1], chi),
            ];
            st(f, p.d + cl, r, m);
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn ldi(i: &[i32], off: usize) -> [__m256i; 2] {
        let p = i[off..off + LANES].as_ptr().cast::<__m256i>();
        [_mm256_loadu_si256(p), _mm256_loadu_si256(p.add(1))]
    }

    /// The int twin of [`st`].
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sti(i: &mut [i32], off: usize, r: [__m256i; 2], m: Mask) {
        let p = i[off..off + LANES].as_mut_ptr();
        if m == FULL {
            _mm256_storeu_si256(p.cast(), r[0]);
            _mm256_storeu_si256(p.cast::<__m256i>().add(1), r[1]);
            return;
        }
        let lo = (m & 0xFF) as usize;
        let hi = ((m >> 8) & 0xFF) as usize;
        if lo != 0 {
            _mm256_maskstore_epi32(p, _mm256_loadu_si256(MASK8[lo].as_ptr().cast()), r[0]);
        }
        if hi != 0 {
            _mm256_maskstore_epi32(p.add(8), _mm256_loadu_si256(MASK8[hi].as_ptr().cast()), r[1]);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn zip2<const OP: u8>(f: &mut [f32], p: Zip, m: Mask) {
        for c in 0..p.w {
            let r = zip::<OP>(ld(f, p.a + c * p.sa), ld(f, p.b + c * p.sb));
            st(f, p.d + c * LANES, r, m);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn map1<const OP: u8>(f: &mut [f32], p: Map, m: Mask) {
        for c in 0..p.w {
            let a = ld(f, p.s + c * LANES);
            st(f, p.d + c * LANES, [vu::<OP>(a[0]), vu::<OP>(a[1])], m);
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn gi<const OP: u8>(x: __m256i, y: __m256i) -> __m256i {
        match ViOp::of(OP) {
            ViOp::Add => _mm256_add_epi32(x, y),
            ViOp::Sub => _mm256_sub_epi32(x, y),
            ViOp::Mul => _mm256_mullo_epi32(x, y),
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn int2<const OP: u8>(i: &mut [i32], d: usize, x: usize, y: usize, m: Mask) {
        let a = ldi(i, x);
        let b = ldi(i, y);
        sti(i, d, [gi::<OP>(a[0], b[0]), gi::<OP>(a[1], b[1])], m);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn cmp<const OP: u8>(f: &[f32], x: usize, y: usize) -> Mask {
        bits::<OP>(ld(f, x), ld(f, y))
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sel(f: &mut [f32], p: Sel, cond: Mask, m: Mask) {
        select(f, p, cond, m);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn cmp_sel<const OP: u8>(f: &mut [f32], x: usize, y: usize, p: Sel, m: Mask) -> Mask {
        let cond = bits::<OP>(ld(f, x), ld(f, y));
        select(f, p, cond, m);
        cond
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fused_ff<const OP1: u8, const OP2: u8>(f: &mut [f32], p: FusedFF, m: Mask) {
        for c in 0..p.w {
            let t = zip::<OP1>(ld(f, p.x1 + c * p.sx1), ld(f, p.y1 + c * p.sy1));
            // Store-before-load: operands aliasing `d1` observe the
            // fresh lanes, as in the scalar per-lane order.
            st(f, p.d1 + c * LANES, t, m);
            let xa = if p.ta { t } else { ld(f, p.x2 + c * p.sx2) };
            let xb = if p.tb { t } else { ld(f, p.y2 + c * p.sy2) };
            st(f, p.d2 + c * LANES, zip::<OP2>(xa, xb), m);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fused_fc<const OP1: u8, const CMP: u8>(f: &mut [f32], p: FusedFC, m: Mask) -> Mask {
        let t = zip::<OP1>(ld(f, p.x1), ld(f, p.y1));
        st(f, p.d1, t, m);
        let xa = if p.ta { t } else { ld(f, p.x2) };
        let xb = if p.tb { t } else { ld(f, p.y2) };
        bits::<CMP>(xa, xb)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn arith_tbuf<const OP: u8>(f: &mut [f32], t: &[f32; LANES], p: TBuf, m: Mask) {
        let tv = ldu(t);
        let xa = if p.ta { tv } else { ld(f, p.a2) };
        let xb = if p.tb { tv } else { ld(f, p.b2) };
        st(f, p.d2, zip::<OP>(xa, xb), m);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn copy_f_masked(f: &mut [f32], d: usize, s: usize, n: usize, m: Mask) {
        for c in 0..n {
            let v = ld(f, s + c * LANES);
            st(f, d + c * LANES, v, m);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fill_f_masked(f: &mut [f32], d: usize, v: [f32; 4], n: usize, m: Mask) {
        for (c, x) in v.into_iter().take(n).enumerate() {
            st(f, d + c * LANES, [_mm256_set1_ps(x); 2], m);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn copy_i_masked(i: &mut [i32], d: usize, s: usize, m: Mask) {
        let v = ldi(i, s);
        sti(i, d, v, m);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fill_i_masked(i: &mut [i32], d: usize, v: i32, m: Mask) {
        sti(i, d, [_mm256_set1_epi32(v); 2], m);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn itof_masked(f: &mut [f32], i: &[i32], d: usize, s: usize, m: Mask) {
        let v = ldi(i, s);
        st(f, d, [_mm256_cvtepi32_ps(v[0]), _mm256_cvtepi32_ps(v[1])], m);
    }

    /// Two-float-index gather linearization for one block:
    /// `floor(f[o0..]+0.5)` and `floor(f[o1..]+0.5)`, an optional
    /// float-domain per-dimension clamp, then `iy * d1 + ix`, all 16
    /// lanes. The caller guarantees `d0, d1 <= 2^24` and
    /// `d0 * d1 <= i32::MAX`, which makes every in-range intermediate
    /// exactly representable in `f32`/`i32` — so the result matches
    /// the scalar `i64` computation bit-for-bit:
    ///
    ///  * in-range indices are integral after `floor` and convert
    ///    exactly;
    ///  * with `clamp`, `vmaxps(v, 0)` returns the second operand on
    ///    NaN — the same 0 the scalar `NaN as i64` saturating cast
    ///    plus integer clamp produces — and any value above the bound
    ///    (including `+inf` and floats beyond `i32` range, which the
    ///    scalar path clamps through `i64`) takes `dim - 1` from
    ///    `vminps`;
    ///  * without `clamp` the caller holds an analyzer proof that
    ///    every *live* lane is in-bounds; dead-lane outputs are
    ///    unspecified garbage the caller must not read.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gather2_idx(
        f: &[f32],
        o0: usize,
        o1: usize,
        d0: usize,
        d1: usize,
        clamp: bool,
        out: &mut [i32; LANES],
    ) {
        let half = _mm256_set1_ps(0.5);
        let dim1 = _mm256_set1_epi32(d1 as i32);
        let y_hi = _mm256_set1_ps((d0 - 1) as f32);
        let x_hi = _mm256_set1_ps((d1 - 1) as f32);
        let zero = _mm256_setzero_ps();
        for h in 0..2 {
            let ya = _mm256_loadu_ps(f.as_ptr().add(o0 + 8 * h));
            let xa = _mm256_loadu_ps(f.as_ptr().add(o1 + 8 * h));
            let mut y = _mm256_floor_ps(_mm256_add_ps(ya, half));
            let mut x = _mm256_floor_ps(_mm256_add_ps(xa, half));
            if clamp {
                y = _mm256_min_ps(_mm256_max_ps(y, zero), y_hi);
                x = _mm256_min_ps(_mm256_max_ps(x, zero), x_hi);
            }
            let lin = _mm256_add_epi32(
                _mm256_mullo_epi32(_mm256_cvttps_epi32(y), dim1),
                _mm256_cvttps_epi32(x),
            );
            _mm256_storeu_si256(out.as_mut_ptr().add(8 * h).cast(), lin);
        }
    }

    /// Plain `vminps`/`vmaxps` fold; see the SSE2 twin for the
    /// soundness argument.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fold_minmax(op: crate::ReduceOp, xs: &[f32]) -> f32 {
        let is_min = matches!(op, crate::ReduceOp::Min);
        let id = op.identity();
        let mut vacc = _mm256_set1_ps(id);
        let mut chunks = xs.chunks_exact(8);
        for c in chunks.by_ref() {
            let v = _mm256_loadu_ps(c.as_ptr());
            vacc = if is_min {
                _mm256_min_ps(vacc, v)
            } else {
                _mm256_max_ps(vacc, v)
            };
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), vacc);
        let g: fn(f32, f32) -> f32 = if is_min { f32::min } else { f32::max };
        let mut acc = lanes.iter().fold(id, |a, &x| g(a, x));
        for &x in chunks.remainder() {
            acc = g(acc, x);
        }
        acc
    }
}

/// Largest gather dimension the vectorized index computation accepts:
/// every integer up to `2^24` is exactly representable in `f32`, so
/// the float-domain clamp bound `dim - 1` is exact.
const MAX_IDX_DIM: usize = 1 << 24;

/// Vectorized two-float-index gather linearization: fills `out` with
/// `floor(f[o?+l]+0.5)` linearized as `iy * d1 + ix` (per-dimension
/// clamp when `clamp` is set) for all 16 lanes and returns `true`, or
/// returns `false` when the level has no vector floor (SSE2's
/// `roundps` is SSE4.1) or a dimension exceeds the exact-in-`f32`/
/// `i32` bound — the caller keeps its scalar loop. Bit-exact with the
/// scalar `i64` index path by the argument on [the AVX2 kernel]; the
/// loads themselves stay with the caller, per live lane, so dead
/// lanes never touch memory. Without `clamp` the caller must hold an
/// analyzer in-bounds proof for every live lane.
#[allow(clippy::too_many_arguments)]
pub(crate) fn vf_gather2_idx(
    level: SimdLevel,
    f: &[f32],
    o0: usize,
    o1: usize,
    d0: usize,
    d1: usize,
    clamp: bool,
    out: &mut [i32; LANES],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2
        && (1..=MAX_IDX_DIM).contains(&d0)
        && (1..=MAX_IDX_DIM).contains(&d1)
        && d0.saturating_mul(d1) <= i32::MAX as usize
    {
        // SAFETY: every caller passes a level capped at `detect()`
        // (`Isa::bind` or `compile_simd`), so AVX2 is present.
        unsafe { avx2::gather2_idx(f, o0, o1, d0, d1, clamp, out) };
        return true;
    }
    let _ = (level, f, o0, o1, d0, d1, clamp, out);
    false
}

// ---------------------------------------------------------------------------
// Vectorized reductions.
// ---------------------------------------------------------------------------

/// Where a reduce kernel combines the accumulator: the single
/// `min`/`max` builtin reading it, the single store writing it back,
/// and the per-element operand register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CombineSite {
    /// Instruction index of the `min`/`max` builtin.
    pub builtin_pc: usize,
    /// Instruction index of the accumulator write-back.
    pub store_pc: usize,
    /// The non-accumulator combine operand.
    pub operand: Reg,
}

/// Structurally matches a reduce kernel against the vectorizable
/// shape: a `min`/`max` combine executed at most once per element
/// (never under a loop), with the accumulator read by that combine
/// only and written by its store only.
///
/// This is the *syntactic* half of admission; the semantic half (the
/// operand proven NaN-free and sign-definite) comes from the abstract
/// interpreter via [`crate::KernelFacts::reduce_combine`].
///
/// # Errors
/// A human-readable reason the kernel folds serially, recorded
/// verbatim in the compliance report.
pub fn reduce_combine_site(k: &IrKernel) -> Result<CombineSite, String> {
    if !k.is_reduce {
        return Err("not a reduce kernel".into());
    }
    let op = k
        .reduce_op
        .ok_or("combine is not a recognized reduction operator")?;
    let (combine, combine_name) = match op {
        ReduceOp::Min => (Fun::Bin(Bin::Min), "min"),
        ReduceOp::Max => (Fun::Bin(Bin::Max), "max"),
        ReduceOp::Add => return Err("f32 sum folds serially (reassociation changes rounding)".into()),
        ReduceOp::Mul => return Err("f32 product folds serially (reassociation changes rounding)".into()),
    };
    let acc = k.acc_reg.ok_or("reduce kernel has no accumulator register")?;
    if k.params.len() != 2 {
        return Err("extra parameters fold serially (reduce dispatch binds input + accumulator only)".into());
    }
    let input = k
        .params
        .iter()
        .position(|p| matches!(p.kind, ParamKind::Stream))
        .ok_or("reduce kernel has no input stream")?;
    if k.params[input].ty.width != 1 {
        return Err("vector-element reduce streams fold serially".into());
    }
    if !k.outputs.is_empty() {
        return Err("reduce kernel with output streams folds serially".into());
    }
    if k.uses_indexof {
        return Err("indexof in a reduce kernel folds serially".into());
    }

    // The accumulator must be read exactly once — by the combine
    // builtin — and written exactly once — by its store.
    let mut builtin_pc = None;
    let mut store_pc = None;
    let mut rbuf: Vec<Reg> = Vec::new();
    for (pc, inst) in k.insts.iter().enumerate() {
        rbuf.clear();
        inst.reads(&mut rbuf);
        let reads_acc = rbuf.contains(&acc);
        let writes_acc = inst.dst() == Some(acc);
        match inst {
            Inst::Builtin { args, .. } if reads_acc => {
                if builtin_pc.replace(pc).is_some() {
                    return Err("accumulator combined more than once per element".into());
                }
                if args.len() != 2 {
                    return Err("combine builtin is not a two-operand min/max".into());
                }
            }
            Inst::AssignLocal { dst, op, .. } if *dst == acc => {
                if store_pc.replace(pc).is_some() {
                    return Err("accumulator written more than once per element".into());
                }
                if !matches!(op, AssignOp::Assign) {
                    return Err("compound accumulator assignment folds serially".into());
                }
                if reads_acc && !matches!(op, AssignOp::Assign) {
                    return Err("accumulator store reads the accumulator".into());
                }
            }
            _ if reads_acc => {
                return Err("accumulator observed outside the combine (order-sensitive)".into());
            }
            _ if writes_acc => {
                return Err("accumulator written outside the combine store".into());
            }
            _ => {}
        }
    }
    let builtin_pc = builtin_pc.ok_or("accumulator is never combined")?;
    let store_pc = store_pc.ok_or("accumulator is never written back")?;

    let Inst::Builtin { dst: t, which, args } = &k.insts[builtin_pc] else {
        unreachable!("matched above");
    };
    if BUILTINS[*which as usize].op != combine {
        return Err(format!(
            "accumulator read by `{}`, not the `{combine_name}` combine",
            BUILTINS[*which as usize].name
        ));
    }
    let operand = if args[0] == acc && args[1] != acc {
        args[1]
    } else if args[1] == acc && args[0] != acc {
        args[0]
    } else {
        return Err("combine must pair the accumulator with an element operand".into());
    };
    let rt = k.regs[operand as usize];
    if !(matches!(rt.scalar, ScalarKind::Float) && rt.width == 1) {
        return Err("combine operand is not a scalar float".into());
    }
    let Inst::AssignLocal { src, .. } = &k.insts[store_pc] else {
        unreachable!("matched above");
    };
    if *src != *t {
        return Err("accumulator store does not take the combine result".into());
    }
    // `t` must be a private wire: written by the builtin only, read by
    // the store only.
    for (pc, inst) in k.insts.iter().enumerate() {
        if pc != builtin_pc && inst.dst() == Some(*t) {
            return Err("combine result register is reused".into());
        }
        rbuf.clear();
        inst.reads(&mut rbuf);
        if pc != store_pc && rbuf.contains(t) {
            return Err("combine result observed outside the accumulator store".into());
        }
    }
    if store_pc < builtin_pc {
        return Err("accumulator store precedes the combine".into());
    }
    // At most one execution per element: the combine may sit under
    // `if`s (skipped elements contribute the fold identity) but never
    // under a loop.
    for pc in [builtin_pc, store_pc] {
        match pc_under_loop(&k.body, pc as u32) {
            Some(false) => {}
            Some(true) => return Err("combine under a loop folds serially".into()),
            None => return Err("combine outside the structured region tree".into()),
        }
    }
    Ok(CombineSite {
        builtin_pc,
        store_pc,
        operand,
    })
}

/// Whether `pc` falls inside a loop header/body region.
fn pc_under_loop(nodes: &[Node], pc: u32) -> Option<bool> {
    fn walk(nodes: &[Node], pc: u32, under: bool) -> Option<bool> {
        for n in nodes {
            match n {
                Node::Seq { start, end } => {
                    if (*start..*end).contains(&pc) {
                        return Some(under);
                    }
                }
                Node::If {
                    then,
                    els,
                    branch_at,
                    jump_at,
                    ..
                } => {
                    if pc == *branch_at || *jump_at == Some(pc) {
                        return Some(under);
                    }
                    if let Some(r) = walk(then, pc, under) {
                        return Some(r);
                    }
                    if let Some(r) = walk(els, pc, under) {
                        return Some(r);
                    }
                }
                Node::Loop(lp) => {
                    if pc == lp.exit_at || pc == lp.back_at {
                        return Some(true);
                    }
                    if let Some(r) = walk(&lp.header, pc, true) {
                        return Some(r);
                    }
                    if let Some(r) = walk(&lp.body, pc, true) {
                        return Some(r);
                    }
                }
            }
        }
        None
    }
    walk(nodes, pc, false)
}

/// Synthesizes the elementwise map-phase kernel: the reduce body with
/// the combine replaced by `out[i] = operand` (the accumulator
/// parameter becomes the output stream). Instructions are replaced
/// 1:1, so spans, the region tree and fault attribution carry over.
fn synthesize_map(k: &IrKernel, site: &CombineSite) -> IrKernel {
    let mut map = k.clone();
    map.is_reduce = false;
    map.reduce_op = None;
    map.acc_reg = None;
    let acc_param = map
        .params
        .iter()
        .position(|p| matches!(p.kind, ParamKind::ReduceOut))
        .expect("reduce kernel has a ReduceOut parameter");
    map.params[acc_param].kind = ParamKind::OutStream;
    map.outputs = vec![acc_param as u16];
    map.insts[site.builtin_pc] = Inst::Nop;
    map.insts[site.store_pc] = Inst::WriteOut {
        out: 0,
        op: AssignOp::Assign,
        src: site.operand,
    };
    map
}

/// A reduce kernel admitted to the vectorized path: the synthesized
/// map kernel with its lane plan (and tier chain when admitted), plus
/// the reassociation-safe fold.
pub struct ReduceKernel {
    /// The combine operator (always `Min` or `Max`).
    pub op: ReduceOp,
    /// The SIMD level of the fold (and the map's tier chain).
    pub level: SimdLevel,
    /// Human-readable admission record for the compliance report.
    pub detail: String,
    map: IrKernel,
    lane: LaneKernel,
    tier: Option<TierKernel>,
    input_param: usize,
}

impl ReduceKernel {
    /// Runs the map phase over `range` of an `n_total`-element domain,
    /// writing per-element combine operands into `out` (one slot per
    /// range element, already pre-filled with the fold identity so
    /// elements whose combine is branch-skipped contribute nothing).
    ///
    /// The map runs in the caller's slab frame `slabs`, so a backend
    /// that keeps one frame per thread allocates nothing per launch.
    ///
    /// # Errors
    /// Exactly the scalar interpreter's faults with element
    /// attribution; callers discard the partials and fold serially.
    pub fn run_map_in(
        &self,
        slabs: &mut LaneSlabs,
        data: &[f32],
        out: &mut [f32],
        n_total: usize,
        range: Range<usize>,
    ) -> Result<(), ExecError> {
        let shape = [n_total];
        let mut bindings: Vec<Binding<'_>> = Vec::with_capacity(self.map.params.len());
        for (pi, _) in self.map.params.iter().enumerate() {
            bindings.push(if pi == self.input_param {
                Binding::Elem {
                    data,
                    shape: &shape,
                    width: 1,
                }
            } else {
                Binding::Out(0)
            });
        }
        let mut outs: [&mut [f32]; 1] = [out];
        match &self.tier {
            Some(t) => tier::run_kernel_range_in(
                slabs, t, &self.lane, &self.map, &bindings, &mut outs, &shape, range,
            ),
            None => {
                lanes::run_kernel_range_in(slabs, &self.lane, &self.map, &bindings, &mut outs, &shape, range)
            }
        }
    }
}

impl std::fmt::Debug for ReduceKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReduceKernel")
            .field("op", &self.op)
            .field("level", &self.level)
            .field("detail", &self.detail)
            .finish_non_exhaustive()
    }
}

/// Vectorized-reduce plans for a module's reduce kernels, parallel to
/// the lane/tier plan lists: admitted kernels carry their plan,
/// rejected kernels the serial-fold reason.
#[derive(Debug, Default)]
pub struct ReduceProgram {
    /// `(kernel name, plan or rejection reason)` — reduce kernels only.
    pub kernels: Vec<(String, Result<ReduceKernel, String>)>,
}

impl ReduceProgram {
    /// Plans every reduce kernel of a lowered program against the
    /// analyzer facts. `level` is capped at what the CPU supports.
    #[must_use]
    pub fn plan_program_with(
        ir: &crate::IrProgram,
        facts: &[KernelFacts],
        level: SimdLevel,
    ) -> ReduceProgram {
        let level = level.min(detect());
        ReduceProgram {
            kernels: ir
                .kernels
                .iter()
                .enumerate()
                .filter(|(_, k)| k.is_reduce)
                .map(|(i, k)| (k.name.clone(), plan_reduce(k, facts.get(i), level)))
                .collect(),
        }
    }

    /// The admitted plan for `name`, if any.
    #[must_use]
    pub fn kernel(&self, name: &str) -> Option<&ReduceKernel> {
        self.kernels
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, r)| r.as_ref().ok())
    }

    /// The admission decision for `name`, if `name` is a reduce kernel.
    #[must_use]
    pub fn decision(&self, name: &str) -> Option<&Result<ReduceKernel, String>> {
        self.kernels.iter().find(|(n, _)| n == name).map(|(_, r)| r)
    }
}

/// Plans one reduce kernel: structural match, semantic proof, map
/// synthesis, lane plan and (best-effort) tier chain.
fn plan_reduce(k: &IrKernel, facts: Option<&KernelFacts>, level: SimdLevel) -> Result<ReduceKernel, String> {
    let site = reduce_combine_site(k)?;
    let fact = facts
        .and_then(|f| f.reduce_combine)
        .ok_or("no analyzer range for the combine operand")?;
    if !fact.nan_free {
        return Err("combine operand not provably NaN-free (min/max order would be observable)".into());
    }
    if !(fact.lo > 0.0 || fact.hi < 0.0) {
        return Err(format!(
            "combine operand range [{}, {}] not provably sign-definite (±0.0 ties are order-sensitive)",
            fact.lo, fact.hi
        ));
    }
    let map = synthesize_map(k, &site);
    let lane = lanes::plan_with(&map, facts).map_err(|e| format!("map phase not lane-vectorizable: {e}"))?;
    let tier = tier::compile_simd(&lane, &map, facts, level).ok();
    let input_param = map
        .params
        .iter()
        .position(|p| matches!(p.kind, ParamKind::Stream))
        .expect("validated by reduce_combine_site");
    let detail = format!(
        "vectorized: {} map + reassociation-safe {:?} fold (operand in [{}, {}], NaN-free; simd {level})",
        if tier.is_some() { "tier" } else { "lane" },
        k.reduce_op.expect("validated"),
        fact.lo,
        fact.hi,
    );
    Ok(ReduceKernel {
        op: k.reduce_op.expect("validated"),
        level,
        detail,
        map,
        lane,
        tier,
        input_param,
    })
}

/// Runs an admitted reduce kernel over `data`: identity-seeded map
/// phase, then the deterministic reassociation-safe fold. Any
/// map-phase fault re-runs the whole reduction through the scalar
/// interpreter, which owns the canonical error surface (message,
/// element attribution, source span).
///
/// The map runs in the caller's slab frame and writes the caller's
/// partials buffer, both reused across reductions; the partials are
/// refilled with the identity on every call, so nothing of an earlier
/// reduction stays.
///
/// # Errors
/// Exactly [`crate::interp::run_reduce`]'s faults.
pub fn run_reduce_in(
    slabs: &mut LaneSlabs,
    partials: &mut Vec<f32>,
    rk: &ReduceKernel,
    original: &IrKernel,
    data: &[f32],
) -> Result<f32, ExecError> {
    let n = data.len();
    partials.clear();
    partials.resize(n, rk.op.identity());
    match rk.run_map_in(slabs, data, partials, n, 0..n) {
        Ok(()) => Ok(fold(rk.op, rk.level, partials)),
        Err(_) => interp::run_reduce(original, data),
    }
}

/// Folds map-phase partials with the combine operator. `Min`/`Max` use
/// the SIMD fold (sound under the admission proof: every order and
/// association yields the same bits); other operators fold serially in
/// index order.
#[must_use]
pub fn fold(op: ReduceOp, level: SimdLevel, xs: &[f32]) -> f32 {
    match op {
        ReduceOp::Min | ReduceOp::Max => {
            #[cfg(target_arch = "x86_64")]
            {
                match level {
                    // SAFETY: `level` is capped at `detect()`.
                    SimdLevel::Avx2 => return unsafe { avx2::fold_minmax(op, xs) },
                    SimdLevel::Sse2 => return unsafe { sse2::fold_minmax(op, xs) },
                    SimdLevel::Scalar => {}
                }
            }
            let _ = level;
            let g: fn(f32, f32) -> f32 = if matches!(op, ReduceOp::Min) {
                f32::min
            } else {
                f32::max
            };
            xs.iter().fold(op.identity(), |acc, &x| g(acc, x))
        }
        _ => xs.iter().fold(op.identity(), |acc, &x| op.apply(acc, x)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The masks every body is pinned under: full, single lanes at both
    /// ends, each half, and scattered lanes.
    const MASKS: [Mask; 9] = [
        FULL, 0x0001, 0x8000, 0x00FF, 0xFF00, 0x5A5A, 0x0F0F, 0x7FFE, 0x8421,
    ];

    /// A float slab in a 32-byte-aligned arena, as the engines run on
    /// (the vector bodies load slab blocks aligned).
    struct Slab(AlignedF32);

    impl Clone for Slab {
        fn clone(&self) -> Slab {
            let mut a = AlignedF32::default();
            a.clear_resize(self.len());
            a.as_mut_slice().copy_from_slice(self);
            Slab(a)
        }
    }

    impl std::ops::Deref for Slab {
        type Target = [f32];
        fn deref(&self) -> &[f32] {
            self.0.as_slice()
        }
    }

    impl std::ops::DerefMut for Slab {
        fn deref_mut(&mut self) -> &mut [f32] {
            self.0.as_mut_slice()
        }
    }

    /// A float slab of `blocks` component blocks: ramps with both signs,
    /// signed zeros, NaN payloads and infinities.
    fn slab(blocks: usize) -> Slab {
        let special = [
            -0.0,
            0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::from_bits(0x7fc0_1234),
        ];
        let mut a = AlignedF32::default();
        a.clear_resize(blocks * LANES);
        for (i, x) in a.as_mut_slice().iter_mut().enumerate() {
            *x = match i % 7 {
                3 => special[(i / 7) % special.len()],
                _ => ((i * 37 % 101) as f32 - 50.0) * 0.37,
            };
        }
        Slab(a)
    }

    fn int_slab(blocks: usize) -> Vec<i32> {
        (0..blocks * LANES)
            .map(|i| match i % 5 {
                2 => [i32::MIN, i32::MAX, 0, -1][(i / 5) % 4],
                _ => (i as i32 * 7919) % 20_000 - 10_000,
            })
            .collect()
    }

    fn bits(f: &[f32]) -> Vec<u32> {
        f.iter().map(|x| x.to_bits()).collect()
    }

    /// The verbatim lane walk every body must reproduce: `w` components,
    /// each over the lanes of `m`.
    fn walk(m: Mask, w: usize, mut body: impl FnMut(usize, usize)) {
        for c in 0..w {
            for l in 0..LANES {
                if m & (1 << l) != 0 {
                    body(c, l);
                }
            }
        }
    }

    /// Every level this host can bind.
    fn isas() -> Vec<Isa> {
        let mut out = vec![Isa::Scalar];
        for level in [SimdLevel::Sse2, SimdLevel::Avx2] {
            let isa = Isa::bind(level);
            if isa.level() == level {
                out.push(isa);
            }
        }
        out
    }

    fn check_moves<B: Block>(b: B) {
        for m in MASKS {
            for n in 1..=4 {
                let (d, s) = (LANES, 5 * LANES);
                let mut got = slab(10);
                let mut want = got.clone();
                b.copy_f(&mut got, d, s, n, m);
                walk(m, n, |c, l| want[d + c * LANES + l] = want[s + c * LANES + l]);
                assert_eq!(bits(&got), bits(&want), "{:?} copy_f n={n} m={m:#x}", B::LEVEL);

                let v = [1.5, -0.0, f32::NAN, 7.25];
                let mut got = slab(10);
                let mut want = got.clone();
                b.fill_f(&mut got, d, v, n, m);
                walk(m, n, |c, l| want[d + c * LANES + l] = v[c]);
                assert_eq!(bits(&got), bits(&want), "{:?} fill_f n={n} m={m:#x}", B::LEVEL);
            }
            let ints = int_slab(4);
            let mut got = ints.clone();
            let mut want = ints.clone();
            b.copy_i(&mut got, 0, 2 * LANES, m);
            walk(m, 1, |_, l| want[l] = want[2 * LANES + l]);
            assert_eq!(got, want, "{:?} copy_i m={m:#x}", B::LEVEL);

            let mut got = ints.clone();
            let mut want = ints.clone();
            b.fill_i(&mut got, 3 * LANES, -42, m);
            walk(m, 1, |_, l| want[3 * LANES + l] = -42);
            assert_eq!(got, want, "{:?} fill_i m={m:#x}", B::LEVEL);

            let mut got = slab(3);
            let mut want = got.clone();
            b.itof(&mut got, &ints, 2 * LANES, LANES, m);
            walk(m, 1, |_, l| want[2 * LANES + l] = ints[LANES + l] as f32);
            assert_eq!(bits(&got), bits(&want), "{:?} itof m={m:#x}", B::LEVEL);
        }
    }

    /// Data movement writes exactly the masked lanes, bit for bit, at
    /// every level: the whole-block copy on a full mask, the masked
    /// blend store or lane walk on a partial one.
    #[test]
    fn block_moves_write_exactly_the_masked_lanes() {
        for isa in isas() {
            match isa {
                Isa::Scalar => check_moves(ScalarIsa),
                #[cfg(target_arch = "x86_64")]
                Isa::Sse2(v) => check_moves(v),
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2(v) => check_moves(v),
            }
        }
    }

    fn fop(op: u8) -> fn(f32, f32) -> f32 {
        match VfOp::of(op) {
            VfOp::Add => |a, b| a + b,
            VfOp::Sub => |a, b| a - b,
            VfOp::Mul => |a, b| a * b,
            VfOp::Div => |a, b| a / b,
            VfOp::Min => f32::min,
            VfOp::Max => f32::max,
        }
    }

    fn cmp_ref(op: u8) -> fn(f32, f32) -> bool {
        match [COp::Lt, COp::Le, COp::Gt, COp::Ge, COp::Eq, COp::Ne][op as usize] {
            COp::Lt => |a, b| a < b,
            COp::Le => |a, b| a <= b,
            COp::Gt => |a, b| a > b,
            COp::Ge => |a, b| a >= b,
            COp::Eq => |a, b| a == b,
            COp::Ne => |a, b| a != b,
        }
    }

    /// Lane bits of `g` over the blocks at `x` and `y`, within `m`.
    fn cmp_bits(f: &[f32], g: fn(f32, f32) -> bool, x: usize, y: usize, m: Mask) -> Mask {
        let mut bits = 0;
        walk(m, 1, |_, l| {
            if g(f[x + l], f[y + l]) {
                bits |= 1 << l;
            }
        });
        bits
    }

    fn check_zip<V: Vector, const OP: u8>(v: V) {
        let g = fop(OP);
        for m in MASKS {
            for w in 1..=4 {
                for (sa, sb) in [(LANES, LANES), (0, LANES), (LANES, 0)] {
                    let p = Zip {
                        d: 0,
                        w,
                        a: 4 * LANES,
                        sa,
                        b: 8 * LANES,
                        sb,
                    };
                    let mut got = slab(12);
                    let mut want = got.clone();
                    v.zip2::<OP>(&mut got, p, m);
                    walk(m, w, |c, l| {
                        want[c * LANES + l] = g(want[p.a + c * sa + l], want[p.b + c * sb + l]);
                    });
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{:?} zip2 {:?} w={w} m={m:#x}",
                        V::LEVEL,
                        VfOp::of(OP)
                    );

                    let q = FusedFF {
                        w,
                        x1: 4 * LANES,
                        sx1: sa,
                        y1: 8 * LANES,
                        sy1: sb,
                        d1: 0,
                        x2: 0,
                        sx2: LANES,
                        y2: 12 * LANES,
                        sy2: sb,
                        d2: 16 * LANES,
                        ta: true,
                        tb: false,
                    };
                    let mut got = slab(20);
                    let mut want = got.clone();
                    v.fused_ff::<OP, { VfOp::Add as u8 }>(&mut got, q, m);
                    walk(m, w, |c, l| {
                        let t = g(want[q.x1 + c * sa + l], want[q.y1 + c * sb + l]);
                        want[c * LANES + l] = t;
                        want[q.d2 + c * LANES + l] = t + want[q.y2 + c * sb + l];
                    });
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{:?} fused_ff {:?} w={w} m={m:#x}",
                        V::LEVEL,
                        VfOp::of(OP)
                    );
                }
            }
            let t: [f32; LANES] = std::array::from_fn(|l| l as f32 * -1.5 + 0.25);
            let p = TBuf {
                d2: 0,
                a2: 2 * LANES,
                b2: 3 * LANES,
                ta: false,
                tb: true,
            };
            let mut got = slab(4);
            let mut want = got.clone();
            v.arith_tbuf::<OP>(&mut got, &t, p, m);
            walk(m, 1, |_, l| want[l] = g(want[p.a2 + l], t[l]));
            assert_eq!(
                bits(&got),
                bits(&want),
                "{:?} arith_tbuf {:?} m={m:#x}",
                V::LEVEL,
                VfOp::of(OP)
            );
        }
    }

    fn check_cmp<V: Vector, const OP: u8>(v: V) {
        let g = cmp_ref(OP);
        for m in MASKS {
            let f = slab(4);
            let got = v.cmp::<OP>(&f, LANES, 2 * LANES) & m;
            assert_eq!(
                got,
                cmp_bits(&f, g, LANES, 2 * LANES, m),
                "{:?} cmp {OP} m={m:#x}",
                V::LEVEL
            );

            for w in 1..=4 {
                let p = Sel {
                    d: 0,
                    a: 4 * LANES,
                    b: 8 * LANES,
                    w,
                };
                let mut got = slab(14);
                let mut want = got.clone();
                let cond = v.cmp_sel::<OP>(&mut got, 12 * LANES, 13 * LANES, p, m) & m;
                let wc = cmp_bits(&want, g, 12 * LANES, 13 * LANES, m);
                walk(m, w, |c, l| {
                    let src = if wc & (1 << l) != 0 { p.a } else { p.b };
                    want[c * LANES + l] = want[src + c * LANES + l];
                });
                assert_eq!(cond, wc, "{:?} cmp_sel bits {OP} w={w} m={m:#x}", V::LEVEL);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{:?} cmp_sel {OP} w={w} m={m:#x}",
                    V::LEVEL
                );
            }

            let q = FusedFC {
                x1: LANES,
                y1: 2 * LANES,
                d1: 0,
                x2: 3 * LANES,
                y2: 0,
                ta: false,
                tb: true,
            };
            let mut got = slab(4);
            let mut want = got.clone();
            let cond = v.fused_fc::<{ VfOp::Mul as u8 }, OP>(&mut got, q, m) & m;
            let mut wc = 0;
            walk(m, 1, |_, l| {
                let t = want[q.x1 + l] * want[q.y1 + l];
                want[l] = t;
                if g(want[q.x2 + l], t) {
                    wc |= 1 << l;
                }
            });
            assert_eq!(cond, wc, "{:?} fused_fc bits {OP} m={m:#x}", V::LEVEL);
            assert_eq!(bits(&got), bits(&want), "{:?} fused_fc {OP} m={m:#x}", V::LEVEL);
        }
    }

    fn check_vector<V: Vector>(v: V) {
        check_moves(v);
        check_zip::<V, { VfOp::Add as u8 }>(v);
        check_zip::<V, { VfOp::Sub as u8 }>(v);
        check_zip::<V, { VfOp::Mul as u8 }>(v);
        check_zip::<V, { VfOp::Div as u8 }>(v);
        check_zip::<V, { VfOp::Min as u8 }>(v);
        check_zip::<V, { VfOp::Max as u8 }>(v);
        check_cmp::<V, { COp::Lt as u8 }>(v);
        check_cmp::<V, { COp::Le as u8 }>(v);
        check_cmp::<V, { COp::Gt as u8 }>(v);
        check_cmp::<V, { COp::Ge as u8 }>(v);
        check_cmp::<V, { COp::Eq as u8 }>(v);
        check_cmp::<V, { COp::Ne as u8 }>(v);
        for m in MASKS {
            for w in 1..=4 {
                for op in [VuOp::Sqrt, VuOp::Abs, VuOp::Neg] {
                    let g: fn(f32) -> f32 = match op {
                        VuOp::Sqrt => f32::sqrt,
                        VuOp::Abs => f32::abs,
                        VuOp::Neg => |x| -x,
                    };
                    let p = Map {
                        d: 0,
                        s: 4 * LANES,
                        w,
                    };
                    let mut got = slab(8);
                    let mut want = got.clone();
                    match op {
                        VuOp::Sqrt => v.map1::<{ VuOp::Sqrt as u8 }>(&mut got, p, m),
                        VuOp::Abs => v.map1::<{ VuOp::Abs as u8 }>(&mut got, p, m),
                        VuOp::Neg => v.map1::<{ VuOp::Neg as u8 }>(&mut got, p, m),
                    }
                    walk(m, w, |c, l| want[c * LANES + l] = g(want[p.s + c * LANES + l]));
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{:?} map1 {op:?} w={w} m={m:#x}",
                        V::LEVEL
                    );
                }
                let p = Sel {
                    d: 0,
                    a: 4 * LANES,
                    b: 8 * LANES,
                    w,
                };
                let cond = 0x3C96;
                let mut got = slab(12);
                let mut want = got.clone();
                v.sel(&mut got, p, cond, m);
                walk(m, w, |c, l| {
                    let src = if cond & (1 << l) != 0 { p.a } else { p.b };
                    want[c * LANES + l] = want[src + c * LANES + l];
                });
                assert_eq!(bits(&got), bits(&want), "{:?} sel w={w} m={m:#x}", V::LEVEL);
            }
            for op in [ViOp::Add, ViOp::Sub, ViOp::Mul] {
                let g: fn(i32, i32) -> i32 = match op {
                    ViOp::Add => i32::wrapping_add,
                    ViOp::Sub => i32::wrapping_sub,
                    ViOp::Mul => i32::wrapping_mul,
                };
                if op == ViOp::Mul && !V::INT_MUL {
                    continue;
                }
                let mut got = int_slab(3);
                let mut want = got.clone();
                match op {
                    ViOp::Add => v.int2::<{ ViOp::Add as u8 }>(&mut got, 0, LANES, 2 * LANES, m),
                    ViOp::Sub => v.int2::<{ ViOp::Sub as u8 }>(&mut got, 0, LANES, 2 * LANES, m),
                    ViOp::Mul => v.int2::<{ ViOp::Mul as u8 }>(&mut got, 0, LANES, 2 * LANES, m),
                }
                walk(m, 1, |_, l| want[l] = g(want[LANES + l], want[2 * LANES + l]));
                assert_eq!(got, want, "{:?} int2 {op:?} m={m:#x}", V::LEVEL);
            }
        }
    }

    /// Every vector body is bit-exact with the scalar lane walk it
    /// replaces, for every operator, width, broadcast stride and mask.
    #[test]
    fn vector_bodies_match_the_lane_walk() {
        for isa in isas() {
            match isa {
                Isa::Scalar => {}
                #[cfg(target_arch = "x86_64")]
                Isa::Sse2(v) => check_vector(v),
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2(v) => check_vector(v),
            }
        }
    }
}
