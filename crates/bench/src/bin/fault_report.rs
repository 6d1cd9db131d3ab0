//! CI resilience-cost gate: the injection hook must be (nearly) free
//! when idle.
//!
//! Times the execution ladder's four map workloads on a plain CPU
//! context and on one armed with an **empty** fault plan (hook
//! installed, nothing ever injected), prints the comparison, writes
//! the `BENCH_fault.json` trajectory file, and exits nonzero if any
//! row exceeds the 2% overhead budget (modulo the absolute noise
//! floor — see `brook_bench::resilience`). Outputs are cross-checked
//! bitwise before timing, so a hook that perturbed results fails
//! loudly.
//!
//! The recovery ladder's *behavior* under live faults is gated
//! elsewhere: `cargo run --release -p brook-fuzz --example
//! fault_matrix` runs the randomized 11-app × 4-backend campaign.

use brook_bench::resilience::{measure_hook_overhead, overhead_json, render_overhead_table};

fn main() {
    let rows = measure_hook_overhead(25).unwrap_or_else(|e| {
        eprintln!("hook-overhead measurement failed: {e}");
        std::process::exit(2);
    });
    print!("{}", render_overhead_table(&rows));
    let json = overhead_json(&rows);
    let path = std::path::Path::new("BENCH_fault.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(2);
    }
    println!("\ntrajectory written to {}", path.display());
    let mut ok = true;
    for r in &rows {
        if !r.within_budget() {
            eprintln!(
                "PERF REGRESSION: {}: idle injection hook costs {:.2}% ({} ns over {} ns)",
                r.app,
                r.overhead_pct(),
                r.armed_ns.saturating_sub(r.plain_ns),
                r.plain_ns
            );
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
    println!("idle injection hook within budget on all {} rows.", rows.len());
}
