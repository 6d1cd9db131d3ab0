//! Edge behavior of Tier-2's whole-block step bodies: the data-movement
//! ops (`CopyF`, `CopyI`, `ConstF`, `ConstI`, `ItoF`) and the vector
//! steps bound to their level and operator at build time (arith, fused
//! pairs, min/max, sqrt/abs/neg, int arith, compare and select), at
//! widths 1–4, under a full mask, a divergent `if` mask and tail
//! blocks. Every output is pinned bit for bit to the AST oracle on the
//! forced-scalar, SSE2 and (where the host has it) AVX2 levels. The
//! dead-lane cases pin the write set: a lane outside the mask must keep
//! its slot.

use brook_auto::{Arg, BrookContext};
use brook_ir::lanes::LANES;
use brook_ir::simd::{self, SimdLevel, SimdMode};

/// Domain sizes: a full block, multi-block full domains, and tail
/// blocks (`n < 16` and `n = 16k ± 1`).
const SIZES: [usize; 10] = [1, 7, 15, 16, 17, 31, 32, 33, 47, 49];

/// The levels to pin: forced scalar, SSE2, and AVX2 where the host
/// has it.
fn modes() -> Vec<SimdMode> {
    let mut m = vec![SimdMode::Off, SimdMode::Sse2];
    if simd::detect() == SimdLevel::Avx2 {
        m.push(SimdMode::Avx2);
    }
    m
}

/// Inputs with both signs (so `a > 0.0` diverges inside a block),
/// signed zeros, a NaN, infinities and values large enough to
/// saturate an int cast.
fn inputs(n: usize) -> (Vec<f32>, Vec<f32>) {
    let special = [-0.0, 0.0, f32::NAN, f32::INFINITY, -3.0e9, 2.5e9];
    let a = (0..n)
        .map(|i| match i % 11 {
            5 => special[(i / 11) % special.len()],
            _ => (i as f32 * 0.37).sin() * 3.0 - 0.4,
        })
        .collect();
    let b = (0..n)
        .map(|i| match i % 13 {
            7 => special[(i / 13 + 3) % special.len()],
            _ => (i as f32 * 0.11).cos() * 2.0 + 0.3,
        })
        .collect();
    (a, b)
}

/// Runs kernel `name` of `src` over `n` elements on `ctx`; `tier`
/// asserts that Tier-2 admitted it.
fn run(mut ctx: BrookContext, src: &str, name: &str, n: usize, tier: bool) -> Vec<f32> {
    let module = ctx.compile(src).unwrap_or_else(|e| panic!("compile: {e}\n{src}"));
    if tier {
        let plan = module
            .report
            .tier_plans
            .iter()
            .find(|p| p.kernel == name)
            .expect("a tier plan");
        assert!(plan.compiled, "tier must admit `{name}`: {}\n{src}", plan.detail);
    }
    let (va, vb) = inputs(n);
    let a = ctx.stream(&[n]).expect("a");
    let b = ctx.stream(&[n]).expect("b");
    let o = ctx.stream(&[n]).expect("o");
    ctx.write(&a, &va).expect("write a");
    ctx.write(&b, &vb).expect("write b");
    ctx.run(
        &module,
        name,
        &[Arg::Stream(&a), Arg::Stream(&b), Arg::Stream(&o)],
    )
    .unwrap_or_else(|e| panic!("run: {e}\n{src}"));
    ctx.read(&o).expect("read")
}

/// Pins `src` on every level and size to the AST oracle, bit for bit.
fn assert_matches_oracle(src: &str, name: &str) {
    for n in SIZES {
        let want = run(BrookContext::cpu_ast_oracle(), src, name, n, false);
        for mode in modes() {
            let mut ctx = BrookContext::cpu();
            ctx.simd_mode = mode;
            let got = run(ctx, src, name, n, true);
            for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                assert_eq!(
                    w.to_bits(),
                    g.to_bits(),
                    "n={n} {mode:?} element {i}: oracle {w} vs tier {g}\n{src}"
                );
            }
        }
    }
}

/// The float type of width `w` and a constructor of it from `w` terms
/// built by `term(c)`.
fn vec_of(w: usize, term: impl Fn(usize) -> String) -> (String, String) {
    let ty = if w == 1 {
        "float".to_string()
    } else {
        format!("float{w}")
    };
    let args: Vec<String> = (0..w).map(term).collect();
    let ctor = if w == 1 {
        args[0].clone()
    } else {
        format!("{ty}({})", args.join(", "))
    };
    (ty, ctor)
}

/// The sum of the `w` components of `v`, in component order.
fn sum_of(v: &str, w: usize) -> String {
    if w == 1 {
        return v.to_string();
    }
    (0..w)
        .map(|c| format!("{v}.{}", ["x", "y", "z", "w"][c]))
        .collect::<Vec<_>>()
        .join(" + ")
}

/// The dead-lane case: a copy under a divergent `if` must leave the
/// lanes that skip it holding their old value.
#[test]
fn copy_under_a_divergent_mask_keeps_dead_lanes() {
    let src = "kernel void k(float a<>, float b<>, out float o<>) {
        float t = a;
        if (a > 0.0) { t = b; }
        o = t;
    }";
    assert_matches_oracle(src, "k");
}

/// The `float2`–`float4` variants of the dead-lane case, plus a copy
/// at full mask and a constant fill under the mask.
#[test]
fn vector_copies_under_a_divergent_mask_keep_dead_lanes() {
    for w in 2..=4 {
        let (ty, ta) = vec_of(w, |c| format!("a * {}.0 - {c}.5", c + 1));
        let (_, tb) = vec_of(w, |c| format!("b + {c}.25"));
        let (_, k) = vec_of(w, |c| format!("{}.5", c + 2));
        let src = format!(
            "kernel void k(float a<>, float b<>, out float o<>) {{
                {ty} t = {ta};
                {ty} u = t;
                if (a > 0.0) {{ t = {tb}; }}
                if (b < 1.0) {{ u = {k}; }}
                o = {} + {};
            }}",
            sum_of("t", w),
            sum_of("u", w),
        );
        assert_matches_oracle(&src, "k");
    }
}

/// Vector arith, fused mul+add, min/max, neg, abs and sqrt at every
/// width, at full mask and under a divergent `if`, with broadcast
/// scalar operands.
#[test]
fn vector_arith_at_every_width_and_mask() {
    for w in 1..=4 {
        let (ty, x) = vec_of(w, |c| format!("a + {c}.25"));
        let (_, y) = vec_of(w, |c| format!("b * {}.5", c + 1));
        let src = format!(
            "kernel void k(float a<>, float b<>, out float o<>) {{
                {ty} x = {x};
                {ty} y = {y};
                {ty} r = x * y + y;
                if (a > b) {{
                    r = r * x - y;
                    r = max(r, x) / y;
                    r = min(r * a, y + b);
                    r = -r;
                    r = sqrt(abs(r)) + r;
                }}
                {ty} s = r * b + x;
                o = {};
            }}",
            sum_of("s", w),
        );
        assert_matches_oracle(&src, "k");
    }
}

/// Compare, select and the fused compare→select and arith→compare
/// pairs at every width, at full mask and under a divergent `if`.
#[test]
fn compare_and_select_at_every_width_and_mask() {
    for w in 1..=4 {
        let (ty, x) = vec_of(w, |c| format!("a - {c}.5"));
        let (_, y) = vec_of(w, |c| format!("b + {c}.0"));
        let src = format!(
            "kernel void k(float a<>, float b<>, out float o<>) {{
                {ty} x = {x};
                {ty} y = {y};
                {ty} s = a < b ? x : y;
                if (a * 2.0 >= b) {{
                    s = a != b ? y * 2.0 : x;
                }}
                o = {};
            }}",
            sum_of("s", w),
        );
        assert_matches_oracle(&src, "k");
    }
}

/// Int copies, constant fills, arithmetic (add, sub, mul) and
/// int→float conversion, at full mask, under a divergent `if` and in
/// a counted loop whose body diverges.
#[test]
fn int_moves_and_conversions_at_every_mask() {
    let src = "kernel void k(float a<>, float b<>, out float o<>) {
        int i = int(a * 4.0);
        int j = int(b * 3.0);
        int m = i + j;
        if (a > 0.0) {
            m = m * j - i;
            j = 7;
        }
        float acc = float(m) + float(j);
        int n;
        for (n = 0; n < 5; n++) {
            if (b > float(n) * 0.5) { acc += float(n * j); }
        }
        o = acc;
    }";
    assert_matches_oracle(src, "k");
}

/// The fused element-fetch→arith pair at full mask and on tail blocks.
#[test]
fn fetch_then_arith_on_tail_blocks() {
    let src = "kernel void k(float a<>, float b<>, out float o<>) {
        float t = a * 2.0;
        float u = b + t;
        o = u;
    }";
    assert_matches_oracle(src, "k");
    assert!(SIZES.iter().any(|n| n % LANES != 0));
}
