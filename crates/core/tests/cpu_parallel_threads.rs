//! `cpu-parallel` launches run on one process-wide helper pool: the
//! process's thread count grows by at most the pool's size, however many
//! contexts launch and however often. A test binary of its own, so no
//! concurrently running test adds or ends threads between the readings.

use brook_auto::{Arg, BrookContext, ParallelCpuBackend};

/// The `Threads:` line of `/proc/self/status`; `None` where the file is
/// absent (non-Linux hosts).
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

#[test]
fn thread_count_stays_flat_over_many_launches_and_contexts() {
    let Some(before) = threads() else {
        return; // no /proc/self/status: nothing to read
    };
    let n = 4096; // >= PARALLEL_THRESHOLD: every launch fans out
    let data: Vec<f32> = (0..n).map(|i| i as f32 * 0.25).collect();
    let mut contexts: Vec<BrookContext> = (0..32).map(|_| BrookContext::cpu_parallel()).collect();
    let mut bound = Vec::new();
    for ctx in &mut contexts {
        let module = ctx
            .compile("kernel void f(float a<>, out float o<>) { o = a * 2.0 + 1.0; }")
            .expect("compile");
        let a = ctx.stream(&[n]).expect("a");
        let o = ctx.stream(&[n]).expect("o");
        ctx.write(&a, &data).expect("write");
        bound.push((module, a, o));
    }
    for launch in 0..200 {
        let c = launch % contexts.len();
        let (module, a, o) = &bound[c];
        contexts[c]
            .run(module, "f", &[Arg::Stream(a), Arg::Stream(o)])
            .expect("run");
    }
    let (_, _, o) = &bound[0];
    assert_eq!(contexts[0].read(o).expect("read")[3], 2.5);
    let after = threads().expect("status readable twice");
    // The pool's helpers: one per available core beyond the caller's,
    // capped like a default backend's participants.
    let pool = ParallelCpuBackend::new().workers() - 1;
    assert!(
        after <= before + pool,
        "threads grew from {before} to {after} over 200 launches; the pool holds {pool}"
    );
}
