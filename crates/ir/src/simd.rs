//! # Explicit SIMD slab execution (`std::arch`) and vectorized reductions
//!
//! Tier-2 (`crate::tier`) threads BrookIR into native closures over the
//! lane engine's structure-of-arrays slabs and *hopes* rustc
//! autovectorizes the 16-lane loop bodies. This module removes the
//! hope: the hot slab operations get hand-written `core::arch::x86_64`
//! SSE2/AVX2 kernels selected by **runtime feature detection**
//! ([`detect`]), with the scalar loop bodies retained verbatim (see
//! [`mod@self`]'s `scalar` submodule) as the portable fallback for
//! non-x86_64 targets and the `BROOK_SIMD=off` override.
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
use crate::lanes::{self, COp, LaneKernel, LaneSlabs, Mask, LANES};
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
// The vector operation vocabulary the tier compiler dispatches to.
// ---------------------------------------------------------------------------

/// Binary float slab operations with explicit vector kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Unary float slab operations with explicit vector kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VuOp {
    Sqrt,
    /// Sign-bit clear — exactly `f32::abs`, NaN payloads preserved.
    Abs,
    /// Sign-bit flip — exactly Rust unary `-`.
    Neg,
}

/// Binary wrapping-int slab operations with explicit vector kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ViOp {
    Add,
    Sub,
    /// `pmulld` needs SSE4.1; under plain SSE2 the scalar body runs.
    Mul,
}

/// Slab offsets of one fused arith→arith pair (one component block;
/// `ta`/`tb` route op1's in-register result into op2's operands).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FusedFF {
    pub x1: usize,
    pub y1: usize,
    pub d1: usize,
    pub x2: usize,
    pub y2: usize,
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
/// reference bodies: full blocks run the unmasked loop, partial blocks
/// walk set bits.
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

/// The scalar loop bodies, verbatim from the tier closures. These are
/// the portable fallback and the reference the vector kernels are
/// tested bit-exact against.
pub(crate) mod scalar {
    use super::{FusedFC, FusedFF, TBuf, VfOp, ViOp, VuOp};
    use crate::lanes::{COp, Mask, FULL, LANES};

    pub(crate) fn fop(op: VfOp) -> fn(f32, f32) -> f32 {
        match op {
            VfOp::Add => |a, b| a + b,
            VfOp::Sub => |a, b| a - b,
            VfOp::Mul => |a, b| a * b,
            VfOp::Div => |a, b| a / b,
            VfOp::Min => f32::min,
            VfOp::Max => f32::max,
        }
    }

    pub(crate) fn uop(op: VuOp) -> fn(f32) -> f32 {
        match op {
            VuOp::Sqrt => f32::sqrt,
            VuOp::Abs => f32::abs,
            VuOp::Neg => |x| -x,
        }
    }

    pub(crate) fn iop(op: ViOp) -> fn(i32, i32) -> i32 {
        match op {
            ViOp::Add => i32::wrapping_add,
            ViOp::Sub => i32::wrapping_sub,
            ViOp::Mul => i32::wrapping_mul,
        }
    }

    pub(crate) fn cop(op: COp) -> fn(f32, f32) -> bool {
        match op {
            COp::Lt => |a, b| a < b,
            COp::Le => |a, b| a <= b,
            COp::Gt => |a, b| a > b,
            COp::Ge => |a, b| a >= b,
            COp::Eq => |a, b| a == b,
            COp::Ne => |a, b| a != b,
        }
    }

    pub(super) fn vf_bin(op: VfOp, f: &mut [f32], d: usize, x: usize, y: usize, m: Mask) {
        let g = fop(op);
        simd_loop!(m, l, {
            f[d + l] = g(f[x + l], f[y + l]);
        });
    }

    pub(super) fn vf_un(op: VuOp, f: &mut [f32], d: usize, x: usize, m: Mask) {
        let g = uop(op);
        simd_loop!(m, l, {
            f[d + l] = g(f[x + l]);
        });
    }

    pub(super) fn vi_bin(op: ViOp, i: &mut [i32], d: usize, x: usize, y: usize, m: Mask) {
        let g = iop(op);
        simd_loop!(m, l, {
            i[d + l] = g(i[x + l], i[y + l]);
        });
    }

    /// All-lane compare bits; lanes outside the caller's mask are
    /// unspecified (the caller blends with its mask).
    pub(super) fn vf_cmp(op: COp, f: &[f32], x: usize, y: usize) -> Mask {
        let g = cop(op);
        let mut bits: Mask = 0;
        for l in 0..LANES {
            if g(f[x + l], f[y + l]) {
                bits |= 1 << l;
            }
        }
        bits
    }

    pub(super) fn vf_sel(f: &mut [f32], d: usize, a: usize, b: usize, cond: Mask, m: Mask) {
        simd_loop!(m, l, {
            f[d + l] = if cond & (1 << l) != 0 { f[a + l] } else { f[b + l] };
        });
    }

    pub(super) fn vf_fused_ff(op1: VfOp, op2: VfOp, f: &mut [f32], p: FusedFF, m: Mask) {
        let (g1, g2) = (fop(op1), fop(op2));
        simd_loop!(m, l, {
            let t = g1(f[p.x1 + l], f[p.y1 + l]);
            f[p.d1 + l] = t;
            let xa = if p.ta { t } else { f[p.x2 + l] };
            let xb = if p.tb { t } else { f[p.y2 + l] };
            f[p.d2 + l] = g2(xa, xb);
        });
    }

    pub(super) fn vf_fused_fc(op1: VfOp, cmp: COp, f: &mut [f32], p: FusedFC, m: Mask) -> Mask {
        let (g1, gc) = (fop(op1), cop(cmp));
        let mut bits: Mask = 0;
        simd_loop!(m, l, {
            let t = g1(f[p.x1 + l], f[p.y1 + l]);
            f[p.d1 + l] = t;
            let xa = if p.ta { t } else { f[p.x2 + l] };
            let xb = if p.tb { t } else { f[p.y2 + l] };
            if gc(xa, xb) {
                bits |= 1 << l;
            }
        });
        bits
    }

    pub(super) fn vf_arith_tbuf(op: VfOp, f: &mut [f32], t: &[f32; LANES], p: TBuf, m: Mask) {
        let g = fop(op);
        simd_loop!(m, l, {
            let xa = if p.ta { t[l] } else { f[p.a2 + l] };
            let xb = if p.tb { t[l] } else { f[p.b2 + l] };
            f[p.d2 + l] = g(xa, xb);
        });
    }

    pub(super) fn fold_minmax(op: crate::ReduceOp, xs: &[f32]) -> f32 {
        let g: fn(f32, f32) -> f32 = if matches!(op, crate::ReduceOp::Min) {
            f32::min
        } else {
            f32::max
        };
        xs.iter().fold(op.identity(), |acc, &x| g(acc, x))
    }
}

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
    use super::{FusedFC, FusedFF, TBuf, VfOp, ViOp, VuOp, MASK4};
    use crate::lanes::{COp, Mask, FULL, LANES};
    use core::arch::x86_64::*;

    #[inline(always)]
    unsafe fn vf(op: VfOp, a: __m128, b: __m128) -> __m128 {
        match op {
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
    unsafe fn vu(op: VuOp, a: __m128) -> __m128 {
        match op {
            VuOp::Sqrt => _mm_sqrt_ps(a),
            VuOp::Abs => _mm_and_ps(a, _mm_castsi128_ps(_mm_set1_epi32(0x7fff_ffff))),
            VuOp::Neg => _mm_xor_ps(a, _mm_set1_ps(-0.0)),
        }
    }

    #[inline(always)]
    unsafe fn vc(op: COp, a: __m128, b: __m128) -> __m128 {
        match op {
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
    unsafe fn zip(op: VfOp, a: [__m128; 4], b: [__m128; 4]) -> [__m128; 4] {
        [
            vf(op, a[0], b[0]),
            vf(op, a[1], b[1]),
            vf(op, a[2], b[2]),
            vf(op, a[3], b[3]),
        ]
    }

    pub(super) unsafe fn vf_bin(op: VfOp, f: &mut [f32], d: usize, x: usize, y: usize, m: Mask) {
        let r = zip(op, ld(f, x), ld(f, y));
        st(f, d, r, m);
    }

    pub(super) unsafe fn vf_un(op: VuOp, f: &mut [f32], d: usize, x: usize, m: Mask) {
        let a = ld(f, x);
        let r = [vu(op, a[0]), vu(op, a[1]), vu(op, a[2]), vu(op, a[3])];
        st(f, d, r, m);
    }

    pub(super) unsafe fn vf_cmp(op: COp, f: &[f32], x: usize, y: usize) -> Mask {
        let a = ld(f, x);
        let b = ld(f, y);
        let mut bits: Mask = 0;
        for q in 0..4 {
            bits |= (_mm_movemask_ps(vc(op, a[q], b[q])) as Mask) << (q * 4);
        }
        bits
    }

    pub(super) unsafe fn vf_sel(f: &mut [f32], d: usize, a: usize, b: usize, cond: Mask, m: Mask) {
        let va = ld(f, a);
        let vb = ld(f, b);
        let mut r = [_mm_setzero_ps(); 4];
        for (q, rq) in r.iter_mut().enumerate() {
            let nib = ((cond >> (q * 4)) & 0xF) as usize;
            let cm = _mm_castsi128_ps(_mm_loadu_si128(MASK4[nib].as_ptr().cast()));
            *rq = _mm_or_ps(_mm_and_ps(cm, va[q]), _mm_andnot_ps(cm, vb[q]));
        }
        st(f, d, r, m);
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

    #[inline(always)]
    unsafe fn gi(op: ViOp, x: __m128i, y: __m128i) -> __m128i {
        match op {
            ViOp::Add => _mm_add_epi32(x, y),
            ViOp::Sub => _mm_sub_epi32(x, y),
            ViOp::Mul => unreachable!("pmulld needs SSE4.1; handled scalar"),
        }
    }

    pub(super) unsafe fn vi_bin(op: ViOp, i: &mut [i32], d: usize, x: usize, y: usize, m: Mask) {
        if matches!(op, ViOp::Mul) {
            // pmulld is SSE4.1; keep the scalar body under plain SSE2.
            super::scalar::vi_bin(op, i, d, x, y, m);
            return;
        }
        let a = ldi(i, x);
        let b = ldi(i, y);
        let r = [
            gi(op, a[0], b[0]),
            gi(op, a[1], b[1]),
            gi(op, a[2], b[2]),
            gi(op, a[3], b[3]),
        ];
        let s = &mut i[d..d + LANES];
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

    pub(super) unsafe fn vf_fused_ff(op1: VfOp, op2: VfOp, f: &mut [f32], p: FusedFF, m: Mask) {
        let t = zip(op1, ld(f, p.x1), ld(f, p.y1));
        // Store op1's block before loading op2's operands: an operand
        // aliasing `d1` must observe the freshly stored lanes, exactly
        // as the scalar per-lane order does.
        st(f, p.d1, t, m);
        let xa = if p.ta { t } else { ld(f, p.x2) };
        let xb = if p.tb { t } else { ld(f, p.y2) };
        st(f, p.d2, zip(op2, xa, xb), m);
    }

    pub(super) unsafe fn vf_fused_fc(op1: VfOp, cmp: COp, f: &mut [f32], p: FusedFC, m: Mask) -> Mask {
        let t = zip(op1, ld(f, p.x1), ld(f, p.y1));
        st(f, p.d1, t, m);
        let xa = if p.ta { t } else { ld(f, p.x2) };
        let xb = if p.tb { t } else { ld(f, p.y2) };
        let mut bits: Mask = 0;
        for q in 0..4 {
            bits |= (_mm_movemask_ps(vc(cmp, xa[q], xb[q])) as Mask) << (q * 4);
        }
        bits
    }

    pub(super) unsafe fn vf_arith_tbuf(op: VfOp, f: &mut [f32], t: &[f32; LANES], p: TBuf, m: Mask) {
        let tv = ldu(t);
        let xa = if p.ta { tv } else { ld(f, p.a2) };
        let xb = if p.tb { tv } else { ld(f, p.b2) };
        st(f, p.d2, zip(op, xa, xb), m);
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

/// 256-bit kernels, called only after `is_x86_feature_detected!("avx2")`.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{FusedFC, FusedFF, TBuf, VfOp, ViOp, VuOp, MASK8};
    use crate::lanes::{COp, Mask, FULL, LANES};
    use core::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn vf(op: VfOp, a: __m256, b: __m256) -> __m256 {
        match op {
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
    unsafe fn vu(op: VuOp, a: __m256) -> __m256 {
        match op {
            VuOp::Sqrt => _mm256_sqrt_ps(a),
            VuOp::Abs => _mm256_and_ps(a, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff))),
            VuOp::Neg => _mm256_xor_ps(a, _mm256_set1_ps(-0.0)),
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn vc(op: COp, a: __m256, b: __m256) -> __m256 {
        match op {
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
    unsafe fn zip(op: VfOp, a: [__m256; 2], b: [__m256; 2]) -> [__m256; 2] {
        [vf(op, a[0], b[0]), vf(op, a[1], b[1])]
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn vf_bin(op: VfOp, f: &mut [f32], d: usize, x: usize, y: usize, m: Mask) {
        let r = zip(op, ld(f, x), ld(f, y));
        st(f, d, r, m);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn vf_un(op: VuOp, f: &mut [f32], d: usize, x: usize, m: Mask) {
        let a = ld(f, x);
        st(f, d, [vu(op, a[0]), vu(op, a[1])], m);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn vf_cmp(op: COp, f: &[f32], x: usize, y: usize) -> Mask {
        let a = ld(f, x);
        let b = ld(f, y);
        let lo = _mm256_movemask_ps(vc(op, a[0], b[0])) as Mask & 0xFF;
        let hi = _mm256_movemask_ps(vc(op, a[1], b[1])) as Mask & 0xFF;
        lo | (hi << 8)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn vf_sel(f: &mut [f32], d: usize, a: usize, b: usize, cond: Mask, m: Mask) {
        let va = ld(f, a);
        let vb = ld(f, b);
        let clo = _mm256_castsi256_ps(_mm256_loadu_si256(MASK8[(cond & 0xFF) as usize].as_ptr().cast()));
        let chi = _mm256_castsi256_ps(_mm256_loadu_si256(
            MASK8[((cond >> 8) & 0xFF) as usize].as_ptr().cast(),
        ));
        let r = [
            _mm256_blendv_ps(vb[0], va[0], clo),
            _mm256_blendv_ps(vb[1], va[1], chi),
        ];
        st(f, d, r, m);
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn ldi(i: &[i32], off: usize) -> [__m256i; 2] {
        let p = i[off..off + LANES].as_ptr().cast::<__m256i>();
        [_mm256_loadu_si256(p), _mm256_loadu_si256(p.add(1))]
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn gi(op: ViOp, x: __m256i, y: __m256i) -> __m256i {
        match op {
            ViOp::Add => _mm256_add_epi32(x, y),
            ViOp::Sub => _mm256_sub_epi32(x, y),
            ViOp::Mul => _mm256_mullo_epi32(x, y),
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn vi_bin(op: ViOp, i: &mut [i32], d: usize, x: usize, y: usize, m: Mask) {
        let a = ldi(i, x);
        let b = ldi(i, y);
        let r = [gi(op, a[0], b[0]), gi(op, a[1], b[1])];
        let s = &mut i[d..d + LANES];
        let p = s.as_mut_ptr();
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
    pub(super) unsafe fn vf_fused_ff(op1: VfOp, op2: VfOp, f: &mut [f32], p: FusedFF, m: Mask) {
        let t = zip(op1, ld(f, p.x1), ld(f, p.y1));
        // Store-before-load: operands aliasing `d1` observe the fresh
        // lanes, as in the scalar per-lane order.
        st(f, p.d1, t, m);
        let xa = if p.ta { t } else { ld(f, p.x2) };
        let xb = if p.tb { t } else { ld(f, p.y2) };
        st(f, p.d2, zip(op2, xa, xb), m);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn vf_fused_fc(op1: VfOp, cmp: COp, f: &mut [f32], p: FusedFC, m: Mask) -> Mask {
        let t = zip(op1, ld(f, p.x1), ld(f, p.y1));
        st(f, p.d1, t, m);
        let xa = if p.ta { t } else { ld(f, p.x2) };
        let xb = if p.tb { t } else { ld(f, p.y2) };
        let lo = _mm256_movemask_ps(vc(cmp, xa[0], xb[0])) as Mask & 0xFF;
        let hi = _mm256_movemask_ps(vc(cmp, xa[1], xb[1])) as Mask & 0xFF;
        lo | (hi << 8)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn vf_arith_tbuf(op: VfOp, f: &mut [f32], t: &[f32; LANES], p: TBuf, m: Mask) {
        let tv = ldu(t);
        let xa = if p.ta { tv } else { ld(f, p.a2) };
        let xb = if p.tb { tv } else { ld(f, p.b2) };
        st(f, p.d2, zip(op, xa, xb), m);
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

// ---------------------------------------------------------------------------
// Runtime dispatch. `level` is capped at `detect()` by every planner
// entry point, so the feature-gated kernels are sound to call.
// ---------------------------------------------------------------------------

macro_rules! dispatch {
    ($level:expr, $($call:tt)+) => {{
        #[cfg(target_arch = "x86_64")]
        {
            match $level {
                // SAFETY: the planner caps `level` at `detect()`, so
                // the required ISA is present on this CPU.
                SimdLevel::Avx2 => return unsafe { avx2::$($call)+ },
                SimdLevel::Sse2 => return unsafe { sse2::$($call)+ },
                SimdLevel::Scalar => {}
            }
        }
        let _ = $level;
        scalar::$($call)+
    }};
}

pub(crate) fn vf_bin(level: SimdLevel, op: VfOp, f: &mut [f32], d: usize, x: usize, y: usize, m: Mask) {
    dispatch!(level, vf_bin(op, f, d, x, y, m))
}

pub(crate) fn vf_un(level: SimdLevel, op: VuOp, f: &mut [f32], d: usize, x: usize, m: Mask) {
    dispatch!(level, vf_un(op, f, d, x, m))
}

/// All-lane compare bits for one block; bits outside the execution
/// mask are unspecified and must be blended by the caller.
pub(crate) fn vf_cmp(level: SimdLevel, op: COp, f: &[f32], x: usize, y: usize) -> Mask {
    dispatch!(level, vf_cmp(op, f, x, y))
}

pub(crate) fn vf_sel(level: SimdLevel, f: &mut [f32], d: usize, a: usize, b: usize, cond: Mask, m: Mask) {
    dispatch!(level, vf_sel(f, d, a, b, cond, m))
}

pub(crate) fn vi_bin(level: SimdLevel, op: ViOp, i: &mut [i32], d: usize, x: usize, y: usize, m: Mask) {
    dispatch!(level, vi_bin(op, i, d, x, y, m))
}

pub(crate) fn vf_fused_ff(level: SimdLevel, op1: VfOp, op2: VfOp, f: &mut [f32], p: FusedFF, m: Mask) {
    dispatch!(level, vf_fused_ff(op1, op2, f, p, m))
}

/// Fused arith→compare; returns all-lane bits (see [`vf_cmp`]).
pub(crate) fn vf_fused_fc(level: SimdLevel, op1: VfOp, cmp: COp, f: &mut [f32], p: FusedFC, m: Mask) -> Mask {
    dispatch!(level, vf_fused_fc(op1, cmp, f, p, m))
}

/// Arithmetic tail of a fused gather/elem-fetch pair: the fetched
/// per-lane values arrive in `t` (dead lanes zeroed by the caller).
pub(crate) fn vf_arith_tbuf(level: SimdLevel, op: VfOp, f: &mut [f32], t: &[f32; LANES], p: TBuf, m: Mask) {
    dispatch!(level, vf_arith_tbuf(op, f, t, p, m))
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
        // SAFETY: dispatch only selects Avx2 after runtime detection
        // confirmed the ISA (see `dispatch!`).
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
            scalar::fold_minmax(op, xs)
        }
        _ => xs.iter().fold(op.identity(), |acc, &x| op.apply(acc, x)),
    }
}
