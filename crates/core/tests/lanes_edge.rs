//! Block-remainder and fallback edge cases of the lane-vectorized
//! engine: domain sizes straddling the block size (L−1 / L / L+1 /
//! 2L+1), zero-length domains, worker counts around the block count on
//! the parallel backend, planner-rejection fallback, and the recorded
//! lane-plan provenance — all bit-exact against the scalar IR
//! interpreter.

use brook_auto::{Arg, BrookContext, CertConfig, ParallelCpuBackend};
use brook_ir::lanes::LANES;

/// A context on the serial CPU backend with lane execution disabled —
/// the scalar-IR baseline every lane result must match bitwise.
fn cpu_scalar() -> BrookContext {
    let mut ctx = BrookContext::cpu();
    ctx.lane_execution = false;
    ctx
}

/// Divergent control flow + multiple outputs: a kernel that exercises
/// masked branches, a data-dependent loop and two output buffers.
const DIVERGENT: &str = "kernel void f(float a<>, out float x<>, out float y<>) {
    float s = a;
    int i;
    for (i = 0; i < 24; i++) {
        if (s < 6.0) { s = s * 1.7 + 0.3; }
    }
    if (a > 2.5) { x = s * 2.0; } else { x = s - 1.0; }
    y = sin(a) + s * 0.125;
}";

fn run_divergent(mut ctx: BrookContext, data: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let n = data.len();
    let module = ctx.compile(DIVERGENT).expect("compile");
    let a = ctx.stream(&[n]).expect("a");
    let x = ctx.stream(&[n]).expect("x");
    let y = ctx.stream(&[n]).expect("y");
    ctx.write(&a, data).expect("write");
    ctx.run(&module, "f", &[Arg::Stream(&a), Arg::Stream(&x), Arg::Stream(&y)])
        .expect("run");
    (ctx.read(&x).expect("x"), ctx.read(&y).expect("y"))
}

/// Every remainder shape around the block size must be bit-exact with
/// the scalar interpreter on the serial backend.
#[test]
fn block_remainders_match_scalar_on_cpu() {
    for n in [1, LANES - 1, LANES, LANES + 1, 2 * LANES + 1, 5 * LANES + 3] {
        let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37) % 5.0).collect();
        let reference = run_divergent(cpu_scalar(), &data);
        let lanes = run_divergent(BrookContext::cpu(), &data);
        assert_eq!(reference.0.len(), n);
        for (i, (r, l)) in reference.0.iter().zip(&lanes.0).enumerate() {
            assert_eq!(r.to_bits(), l.to_bits(), "n={n} output x element {i}");
        }
        for (i, (r, l)) in reference.1.iter().zip(&lanes.1).enumerate() {
            assert_eq!(r.to_bits(), l.to_bits(), "n={n} output y element {i}");
        }
    }
}

/// The parallel backend aligns worker chunks to lane blocks; every
/// worker count — one, a few, and more workers than there are blocks —
/// must stay bit-exact with the serial scalar run, for domains both
/// below and above the parallel threshold.
#[test]
fn block_remainders_match_scalar_on_cpu_parallel() {
    for n in [LANES + 1, 2 * LANES + 1, 16 * LANES + 1, 16 * LANES + LANES - 1] {
        let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.61) % 4.5).collect();
        let reference = run_divergent(cpu_scalar(), &data);
        // 16*LANES+1 = 257 elements span 17 blocks; 33 workers exceed
        // the block count, so trailing chunks must come out empty.
        for workers in [1usize, 3, 7, 33] {
            let ctx = BrookContext::with_backend(
                Box::new(ParallelCpuBackend::with_workers(workers)),
                CertConfig::default(),
            );
            let lanes = run_divergent(ctx, &data);
            assert_eq!(reference, lanes, "n={n} workers={workers}");
        }
    }
}

/// A zero-length domain produces zero blocks: the lane engine runs no
/// ops, touches no outputs and succeeds. The public API rejects
/// zero-sized streams, so this pins the internal entry point directly.
#[test]
fn zero_length_domain_runs_no_blocks() {
    let checked = brook_lang::parse_and_check("kernel void dbl(float a<>, out float o<>) { o = a * 2.0; }")
        .expect("check");
    let kdef = checked.program.kernels().next().expect("kernel");
    let kernel = brook_ir::lower::lower_kernel(&checked, kdef).expect("lower");
    let lane = brook_ir::lanes::plan_with(&kernel, None).expect("plan");
    let shape: Vec<usize> = vec![0];
    let bindings = vec![
        brook_ir::interp::Binding::Elem {
            data: &[],
            shape: &shape,
            width: 1,
        },
        brook_ir::interp::Binding::Out(0),
    ];
    let mut buf = Vec::<f32>::new();
    let mut outs: Vec<&mut [f32]> = vec![&mut buf];
    brook_ir::lanes::run_kernel_range(&lane, &kernel, &bindings, &mut outs, &shape, 0..0)
        .expect("zero-length domain");
    assert!(buf.is_empty());
}

/// The compile-time planning decision is recorded in the compliance
/// report: admitted kernels as vectorized, rejected ones with a reason,
/// and a lane-disabled context records nothing.
#[test]
fn lane_plans_are_recorded_in_the_report() {
    let mut ctx = BrookContext::cpu();
    let module = ctx
        .compile(
            "kernel void ok(float a<>, out float o<>) { o = a + 1.0; }
             kernel void mixed(float a<>, out float o<>) { o = a > 0.0 ? 1 : a * 0.5; }",
        )
        .expect("compile");
    let plans = &module.report.lane_plans;
    assert_eq!(plans.len(), 2, "{plans:?}");
    let ok = plans.iter().find(|p| p.kernel == "ok").expect("ok plan");
    assert!(ok.vectorized);
    assert_eq!(ok.detail, "lane-vectorized");
    let mixed = plans.iter().find(|p| p.kernel == "mixed").expect("mixed plan");
    assert!(!mixed.vectorized, "lane-divergent arm types must be rejected");
    assert!(!mixed.detail.is_empty());

    let mut off = cpu_scalar();
    let module = off
        .compile("kernel void ok(float a<>, out float o<>) { o = a + 1.0; }")
        .expect("compile");
    assert!(module.report.lane_plans.is_empty());
}

/// A planner-rejected kernel still executes — through the scalar
/// fallback — and agrees bitwise with the lane-disabled context.
#[test]
fn planner_rejected_kernel_falls_back_bit_exactly() {
    let src = "kernel void mixed(float a<>, out float o<>) { o = a > 1.0 ? 1 : a * 0.5; }";
    let n = 3 * LANES + 2;
    let data: Vec<f32> = (0..n).map(|i| i as f32 * 0.21).collect();
    let mut outs = Vec::new();
    for mut ctx in [cpu_scalar(), BrookContext::cpu(), BrookContext::cpu_parallel()] {
        let module = ctx.compile(src).expect("compile");
        if ctx.lane_execution {
            let plan = &module.report.lane_plans[0];
            assert!(!plan.vectorized, "test premise: planner rejects this kernel");
        }
        let a = ctx.stream(&[n]).expect("a");
        let o = ctx.stream(&[n]).expect("o");
        ctx.write(&a, &data).expect("write");
        ctx.run(&module, "mixed", &[Arg::Stream(&a), Arg::Stream(&o)])
            .expect("run");
        outs.push(ctx.read(&o).expect("read"));
    }
    assert_eq!(outs[0], outs[1]);
    assert_eq!(outs[0], outs[2]);
}

/// 2-D domains: lane blocks cross row boundaries mid-block; `indexof`
/// and proportional input indexing must match the scalar path exactly.
#[test]
fn two_d_domains_match_scalar_across_row_boundaries() {
    let src = "kernel void idx(float a<>, out float o<>) {
        float2 p = indexof(o);
        o = p.y * 1000.0 + p.x + a * 0.5;
    }";
    // 7 columns: every 16-lane block spans two or three rows.
    let (rows, cols) = (9usize, 7usize);
    let data: Vec<f32> = (0..rows * cols).map(|i| i as f32 * 0.11).collect();
    let mut results = Vec::new();
    for mut ctx in [cpu_scalar(), BrookContext::cpu()] {
        let module = ctx.compile(src).expect("compile");
        let a = ctx.stream(&[rows, cols]).expect("a");
        let o = ctx.stream(&[rows, cols]).expect("o");
        ctx.write(&a, &data).expect("write");
        ctx.run(&module, "idx", &[Arg::Stream(&a), Arg::Stream(&o)])
            .expect("run");
        results.push(ctx.read(&o).expect("read"));
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0][cols + 1], 1001.0 + data[cols + 1] * 0.5);
}

/// Vector-width streams (float4 elements) stage in and out of the
/// block slabs correctly at every remainder.
#[test]
fn vector_width_outputs_match_scalar() {
    let src = "kernel void v(float4 a<>, out float4 o<>) {
        float4 t = a * 2.0;
        t.yz += float2(1.0, 2.0);
        o = t;
    }";
    for n in [LANES - 1, LANES, 2 * LANES + 5] {
        let data: Vec<f32> = (0..n * 4).map(|i| i as f32 * 0.17 - 2.0).collect();
        let mut results = Vec::new();
        for mut ctx in [cpu_scalar(), BrookContext::cpu()] {
            let module = ctx.compile(src).expect("compile");
            let a = ctx.stream_with_width(&[n], 4).expect("a");
            let o = ctx.stream_with_width(&[n], 4).expect("o");
            ctx.write(&a, &data).expect("write");
            ctx.run(&module, "v", &[Arg::Stream(&a), Arg::Stream(&o)])
                .expect("run");
            results.push(ctx.read(&o).expect("read"));
        }
        assert_eq!(results[0], results[1], "n={n}");
    }
}
