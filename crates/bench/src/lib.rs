//! # brook-bench — regenerates every table and figure of the paper
//!
//! One harness per figure of the evaluation section (§6):
//!
//! | Paper artifact | Function | Binary |
//! |---|---|---|
//! | Figure 1 (GPU/CPU capability, flops) | [`figures::fig1`] | `fig1_flops` |
//! | Figure 2 (non-scalable programs) | [`figures::fig2`] | `fig2_nonscalable` |
//! | Figure 3 (scalable programs) | [`figures::fig3`] | `fig3_scalable` |
//! | Figure 4 + §6.3 (hand-written comparison, productivity) | [`figures::fig4`] | `fig4_handwritten` |
//! | Execution ladder: five CPU engines, each strictly faster than the one below (perf-smoke) | [`ladder::check_ladder`], [`ladder::time_ladder`] | `ladder_report` |
//!
//! Run all of them with `cargo run --release -p brook-bench --bin <name>`.
//! Criterion benches in `benches/` wall-clock the substrate itself
//! (compiler, simulator, reductions) as a regression harness.

pub mod analysis;
pub mod figures;
pub mod fusion;
pub mod ladder;
pub mod render;
pub mod resilience;
pub mod serve;

pub use analysis::{analysis_json, analyze_apps, render_analysis_table, run_apps_once, KernelRow};
pub use figures::{fig1, fig2, fig3, fig4, Fig4Point, FigureSeries};
pub use fusion::{chains, run_chain, ChainComparison};
pub use ladder::{check_ladder, ladder_json, render_ladder_table, time_ladder, LadderRow, Rung};
pub use render::{render_series, render_speedup_table};
pub use resilience::{measure_hook_overhead, overhead_json, render_overhead_table, HookOverheadRow};
pub use serve::{render_service_table, service_json, service_load, ServiceLoadReport};

// One test module per rung above the AST oracle, so a failing check
// names the engine at fault.
#[cfg(test)]
mod interp {
    mod tests {
        #[test]
        fn interpreters_agree_and_json_is_well_formed() {
            crate::ladder::tests::check_one_rung(crate::Rung::Interp, 5);
        }
    }
}

#[cfg(test)]
mod lanes {
    mod tests {
        #[test]
        fn engines_agree_and_json_is_well_formed() {
            crate::ladder::tests::check_one_rung(crate::Rung::Lanes, 4);
        }
    }
}

#[cfg(test)]
mod tier {
    mod tests {
        #[test]
        fn engines_agree_and_json_is_well_formed() {
            crate::ladder::tests::check_one_rung(crate::Rung::Tier, 4);
        }
    }
}

#[cfg(test)]
mod simd {
    mod tests {
        #[test]
        fn engines_agree_and_json_is_well_formed() {
            crate::ladder::tests::check_one_rung(crate::Rung::Simd, 5);
        }
    }
}
