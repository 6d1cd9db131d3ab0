//! Edge behavior of the explicit-SIMD execution layer: block
//! remainders around the lane width, the `BROOK_SIMD` / `SimdMode`
//! override surface, zero-length and single-element reduce domains,
//! and mid-block faults — every case pinned to the forced-scalar
//! result bit for bit (outputs, partial writes and error text alike).

use brook_auto::{Arg, BrookContext};
use brook_ir::lanes::{LaneSlabs, LANES};
use brook_ir::simd::{self, SimdLevel, SimdMode};

/// Arithmetic kernel exercising the vectorized step repertoire:
/// mul/add, min/max, sqrt, compare and select — everything the SSE2
/// and AVX2 block kernels implement.
const EDGE_SRC: &str = "kernel void edge(float a<>, float b<>, out float o<>) {
    float t = a * b + 0.5;
    float u = max(min(t, b), a * 0.25);
    float s = sqrt(abs(t) + 0.125);
    o = t > u ? s - u : s + u;
}";

/// 2-D gather kernel: hits the AVX2 gather-index kernel (address
/// computation for 16 lanes at once) including its clamped edges.
const GATHER_SRC: &str = "kernel void gsum(float t[][], out float o<>) {
    float2 p = indexof(o);
    o = t[p.y][p.x] * 2.0 + t[p.y + 1.0][p.x + 1.0];
}";

/// The admitted reduce: `clamp` bounds the combine operand to
/// [0.5, 2.0], so the analyzer proves it NaN-free and sign-definite.
const REDUCE_MIN_SRC: &str =
    "reduce void rmin(float a<>, reduce float r<>) { r = min(r, clamp(a, 0.5, 2.0)); }";

fn context_with(mode: SimdMode) -> BrookContext {
    let mut ctx = BrookContext::cpu();
    ctx.simd_mode = mode;
    ctx
}

/// Compiles and runs `src` on a context at `mode` over an `n`-element
/// domain with two deterministic input ramps, returning the output.
fn run_edge(mode: SimdMode, n: usize) -> Vec<f32> {
    let mut ctx = context_with(mode);
    let module = ctx.compile(EDGE_SRC).expect("compile");
    let plan = &module.report.tier_plans[0];
    assert!(plan.compiled, "tier must admit the kernel: {}", plan.detail);
    match mode {
        SimdMode::Off => assert!(
            plan.detail.contains("simd scalar"),
            "forced-scalar compile must record scalar block steps: {}",
            plan.detail
        ),
        _ if mode.resolve() != SimdLevel::Scalar => assert!(
            !plan.detail.contains("simd scalar"),
            "SIMD compile must record non-scalar block steps: {}",
            plan.detail
        ),
        _ => {}
    }
    let a = ctx.stream(&[n]).expect("a");
    let b = ctx.stream(&[n]).expect("b");
    let o = ctx.stream(&[n]).expect("o");
    let va: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin() * 3.0 - 0.8).collect();
    let vb: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).cos() * 2.0 + 0.3).collect();
    ctx.write(&a, &va).expect("write a");
    ctx.write(&b, &vb).expect("write b");
    ctx.run(
        &module,
        "edge",
        &[Arg::Stream(&a), Arg::Stream(&b), Arg::Stream(&o)],
    )
    .expect("run");
    ctx.read(&o).expect("read")
}

/// Forced-scalar, forced-SSE2 and auto-detected contexts must agree
/// bit for bit on every block-remainder shape: a lone element, one
/// short of a block, exactly one block, one past it, and partial
/// final blocks of multi-block domains.
#[test]
fn forced_levels_agree_bitwise_across_block_remainders() {
    for n in [1, LANES - 1, LANES, LANES + 1, 2 * LANES + 1, 5 * LANES + 3] {
        let scalar = run_edge(SimdMode::Off, n);
        for mode in [SimdMode::Sse2, SimdMode::Avx2, SimdMode::Auto] {
            let simd = run_edge(mode, n);
            assert_eq!(scalar.len(), simd.len());
            for (i, (x, y)) in scalar.iter().zip(&simd).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "n={n} mode={mode:?} element {i}: scalar {x} vs simd {y}"
                );
            }
        }
    }
}

/// Same contract for the gather-index kernel: 2-D domains whose flat
/// size straddles block boundaries, with edge rows clamping.
#[test]
fn gather_remainders_agree_bitwise_with_forced_scalar() {
    for cols in [1, LANES - 1, LANES + 1, 2 * LANES + 5] {
        let rows = 3usize;
        let run = |mode: SimdMode| -> Vec<f32> {
            let mut ctx = context_with(mode);
            let module = ctx.compile(GATHER_SRC).expect("compile");
            let t = ctx.stream(&[rows, cols]).expect("t");
            let o = ctx.stream(&[rows, cols]).expect("o");
            let data: Vec<f32> = (0..rows * cols).map(|i| (i as f32 * 0.19).sin() + 1.25).collect();
            ctx.write(&t, &data).expect("write");
            ctx.run(&module, "gsum", &[Arg::Stream(&t), Arg::Stream(&o)])
                .expect("run");
            ctx.read(&o).expect("read")
        };
        let scalar = run(SimdMode::Off);
        for mode in [SimdMode::Sse2, SimdMode::Avx2, SimdMode::Auto] {
            let simd = run(mode);
            for (i, (x, y)) in scalar.iter().zip(&simd).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "cols={cols} mode={mode:?} element {i}: scalar {x} vs simd {y}"
                );
            }
        }
    }
}

/// The `BROOK_SIMD` override surface: recognized spellings parse to
/// their levels, unrecognized ones fall back to detection, and a live
/// environment override reaches `from_env`/`auto` (capped at what the
/// host supports). The env round-trip only ever sets a real SIMD
/// level so concurrently running `SimdMode::Auto` tests stay valid.
#[test]
fn brook_simd_env_override_parses_and_applies() {
    assert_eq!(simd::parse_level("off"), Some(SimdLevel::Scalar));
    assert_eq!(simd::parse_level("scalar"), Some(SimdLevel::Scalar));
    assert_eq!(simd::parse_level("0"), Some(SimdLevel::Scalar));
    assert_eq!(simd::parse_level("sse2"), Some(SimdLevel::Sse2));
    assert_eq!(simd::parse_level("SSE2"), Some(SimdLevel::Sse2));
    assert_eq!(simd::parse_level("avx2"), Some(SimdLevel::Avx2));
    assert_eq!(simd::parse_level("bogus"), None);
    assert_eq!(simd::parse_level(""), None);

    assert!(simd::auto() <= simd::detect(), "auto never exceeds the host");
    assert_eq!(SimdMode::Off.resolve(), SimdLevel::Scalar);
    assert!(SimdMode::Sse2.resolve() <= SimdLevel::Sse2);
    assert!(SimdMode::Avx2.resolve() <= simd::detect());

    std::env::set_var("BROOK_SIMD", "sse2");
    let seen = simd::from_env();
    let resolved = simd::auto();
    std::env::remove_var("BROOK_SIMD");
    assert_eq!(seen, Some(SimdLevel::Sse2));
    assert_eq!(resolved, SimdLevel::Sse2.min(simd::detect()));
}

/// Zero-length and single-element reduce domains through the
/// vectorized path: the empty fold yields the combine identity and a
/// singleton folds to its own mapped value — both bit-identical to
/// the serial scalar interpreter.
#[test]
fn reduce_zero_length_and_singleton_domains_match_scalar() {
    use brook_cert::absint::analyze_and_annotate_program;
    use brook_ir::simd::ReduceProgram;
    let checked = brook_lang::parse_and_check(REDUCE_MIN_SRC).expect("check");
    let (mut ir, errs) = brook_ir::lower::lower_program(&checked);
    assert!(errs.is_empty(), "{errs:?}");
    let (_, facts) = analyze_and_annotate_program(&mut ir, true);
    let plans = ReduceProgram::plan_program_with(&ir, &facts, simd::detect());
    let rk = plans
        .kernel("rmin")
        .unwrap_or_else(|| panic!("rmin must be admitted: {:?}", plans.decision("rmin")));
    let k = &ir.kernels[0];
    for data in [&[][..], &[7.5f32][..], &[0.25f32][..], &[f32::NAN][..]] {
        let vectorized = brook_ir::simd::run_reduce_in(&mut LaneSlabs::new(), &mut Vec::new(), rk, k, data)
            .expect("vectorized reduce");
        let serial = brook_ir::interp::run_reduce(k, data).expect("serial reduce");
        assert_eq!(
            vectorized.to_bits(),
            serial.to_bits(),
            "data={data:?}: vectorized {vectorized} vs serial {serial}"
        );
    }

    // The public API end to end on the smallest legal domain.
    let fold_one = |mode: SimdMode| -> f32 {
        let mut ctx = context_with(mode);
        let module = ctx.compile(REDUCE_MIN_SRC).expect("compile");
        let s = ctx.stream(&[1]).expect("stream");
        ctx.write(&s, &[9.75]).expect("write");
        ctx.reduce(&module, "rmin", &s).expect("reduce")
    };
    assert_eq!(
        fold_one(SimdMode::Off).to_bits(),
        fold_one(SimdMode::Auto).to_bits()
    );
    assert_eq!(
        fold_one(SimdMode::Auto),
        2.0,
        "clamp bounds the operand to [0.5, 2.0]"
    );
}

/// A fault in the middle of a SIMD block must surface the scalar
/// interpreter's error verbatim — same message, element attribution
/// and source line — and leave the same partial writes behind:
/// outputs assigned before the faulting statement keep their values
/// for every element, exactly as the scalar path leaves them.
#[test]
fn mid_block_fault_matches_scalar_error_and_partial_writes() {
    use brook_ir::interp::Binding;
    let src = "kernel void f(float a<>, out float o<>) {
            o = a * 2.0;
            float s = a;
            while (s > 0.5) { s = s + 0.0; }
        }";
    let checked = brook_lang::parse_and_check(src).expect("check");
    let kdef = checked.program.kernels().next().expect("kernel");
    let k = brook_ir::lower::lower_kernel(&checked, kdef).expect("lower");
    let lane = brook_ir::lanes::plan_with(&k, None).expect("lane plan");
    let n = 2 * LANES + 7;
    let bad = LANES + 5; // mid-lane of the second block
    let input: Vec<f32> = (0..n)
        .map(|i| if i == bad { 1.0 } else { 0.01 * i as f32 })
        .collect();
    let shape = [n];
    let run = |level: SimdLevel| {
        let tier = brook_ir::tier::compile_simd(&lane, &k, None, level).expect("tier compiles");
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
            brook_ir::tier::run_kernel_range(&tier, &lane, &k, &bindings, &mut outs, &shape, 0..n)
                .expect_err("must exhaust the budget")
        };
        (buf, err)
    };
    let (sbuf, serr) = run(SimdLevel::Scalar);
    for level in [SimdLevel::Sse2, simd::detect()] {
        let (vbuf, verr) = run(level);
        assert_eq!(
            serr, verr,
            "level {level}: fault must be the scalar fault verbatim"
        );
        assert_eq!(
            sbuf, vbuf,
            "level {level}: partial writes must match the scalar path"
        );
    }
    assert_eq!(serr.element, Some(bad));
    assert!(
        serr.render().contains(&format!("element {bad}")),
        "{}",
        serr.render()
    );
}

/// The same fault through the public API: a SIMD context and a
/// forced-scalar context render the identical error string.
#[test]
fn public_api_fault_renders_identically_with_and_without_simd() {
    let src = "kernel void spin(float a<>, out float o<>) {\n    float s = a;\n    while (s > 0.5) { }\n    o = s;\n}";
    let n = LANES + 5;
    let bad = LANES + 2;
    let render = |mode: SimdMode| {
        let mut ctx = context_with(mode);
        ctx.enforce_certification = false;
        let module = ctx.compile(src).expect("compile (uncertified)");
        let a = ctx.stream(&[n]).expect("a");
        let o = ctx.stream(&[n]).expect("o");
        let data: Vec<f32> = (0..n).map(|i| if i == bad { 2.0 } else { 0.0 }).collect();
        ctx.write(&a, &data).expect("write");
        ctx.run(&module, "spin", &[Arg::Stream(&a), Arg::Stream(&o)])
            .expect_err("must exhaust the budget")
            .to_string()
    };
    let scalar = render(SimdMode::Off);
    assert_eq!(scalar, render(SimdMode::Auto));
    assert_eq!(scalar, render(SimdMode::Sse2));
    assert!(scalar.contains(&format!("element {bad},")), "{scalar}");
    assert!(scalar.contains("source line 3:"), "{scalar}");
}

/// Both CPU backends keep the admitted reduce's slab frame and partials
/// buffer across reductions. A context that reduces a longer stream
/// whose minimum sits past the end of the next, shorter one must give
/// the shorter stream's own minimum: each result is bitwise equal to
/// the AST oracle's, so no partial of an earlier reduce survives. The
/// lengths cover the serial path (100, 37) and, with more than one
/// core, the parallel map (1000, 300).
#[test]
fn reused_reduce_partials_hold_nothing_of_an_earlier_reduce() {
    let data = |n: usize, dip: Option<usize>| -> Vec<f32> {
        (0..n)
            .map(|i| {
                if Some(i) == dip {
                    0.625
                } else {
                    1.25 + (i % 13) as f32 * 0.0625
                }
            })
            .collect()
    };
    let runs = [
        data(100, Some(60)),
        data(37, None),
        data(1000, Some(700)),
        data(300, None),
    ];
    // Whether the vectorized fold was admitted, and each run's result.
    let reduce_all = |mut ctx: BrookContext| -> (bool, Vec<f32>) {
        let module = ctx.compile(REDUCE_MIN_SRC).expect("compile");
        let admitted = module.report.simd_reduces.iter().any(|r| r.admitted);
        let results = runs
            .iter()
            .map(|d| {
                let s = ctx.stream(&[d.len()]).expect("stream");
                ctx.write(&s, d).expect("write");
                ctx.reduce(&module, "rmin", &s).expect("reduce")
            })
            .collect();
        (admitted, results)
    };
    let (_, want) = reduce_all(BrookContext::cpu_ast_oracle());
    assert_eq!(
        want,
        [0.625, 1.25, 0.625, 1.25],
        "the oracle folds each stream alone"
    );
    for (name, ctx) in [
        ("cpu", BrookContext::cpu()),
        ("cpu-parallel", BrookContext::cpu_parallel()),
    ] {
        let (admitted, got) = reduce_all(ctx);
        assert!(admitted, "{name}: the min reduce must take the vectorized path");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits(), "{name}: {got:?} vs oracle {want:?}");
        }
    }
}
