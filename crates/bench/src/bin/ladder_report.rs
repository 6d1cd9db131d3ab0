//! CI perf-smoke gate: the five-rung CPU execution ladder.
//!
//! Checks every rung's engine from its compliance report and its
//! output against the AST oracle, then times all rungs round-robin on
//! the shared workloads. Prints the table, writes `BENCH_ladder.json`,
//! and exits nonzero unless each rung is strictly faster than the rung
//! below it on every row it runs. On a host whose SIMD detection
//! reports scalar, the comparisons against the SIMD rung are skipped:
//! there it is the Tier-2 engine again, and failing would punish the
//! portable fallback for existing.

use brook_bench::ladder::{check_ladder, ladder_json, render_ladder_table, time_ladder};

/// Round-robin repetitions per rung; each rung keeps its best.
const REPS: usize = 7;

fn main() {
    let rows = check_ladder()
        .and_then(|mut checked| time_ladder(&mut checked, REPS))
        .unwrap_or_else(|e| {
            eprintln!("ladder failed: {e}");
            std::process::exit(2);
        });
    print!("{}", render_ladder_table(&rows, REPS));
    let path = std::path::Path::new("BENCH_ladder.json");
    if let Err(e) = std::fs::write(path, ladder_json(&rows, REPS)) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(2);
    }
    println!("\ntrajectory written to {}", path.display());
    let regressions: Vec<String> = rows.iter().flat_map(|r| r.regressions()).collect();
    for r in &regressions {
        eprintln!("PERF REGRESSION: {r}");
    }
    if !regressions.is_empty() {
        std::process::exit(1);
    }
    println!(
        "every rung strictly faster than the one below on all {} rows.",
        rows.len()
    );
}
