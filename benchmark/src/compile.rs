//! The `compile` workload and the compile-pipeline phase probe.
//!
//! One iteration compiles all eleven app kernel sources through
//! `BrookContext::compile`. Every module must be compliant and its
//! `emit_ir` text identical to the first iteration's.
//!
//! The phase probe runs the same pipeline through the public phase
//! functions `compile` is built from, phase-major (every source through
//! one phase, then the next), so each phase's span covers the whole
//! suite and the phase spans add up to a suite compile.

use crate::check::{Samples, Tally};
use crate::trace::Tracer;
use brook_auto::{BrookContext, CertConfig, PassAction};
use brook_ir::lanes::LaneProgram;
use brook_ir::simd::{ReduceProgram, SimdMode};
use brook_ir::tier::TierProgram;
use brook_ir::IrProgram;
use std::time::Instant;

/// The `compile` workload state.
pub struct Compile {
    sources: Vec<(&'static str, String)>,
    ctx: BrookContext,
    /// The first iteration's `emit_ir` text per source.
    ir_text: Vec<Option<String>>,
}

impl Compile {
    /// The suite's sources and a compiling context.
    pub fn setup() -> Compile {
        let sources = brook_bench::analysis::app_sources();
        Compile {
            ir_text: vec![None; sources.len()],
            sources,
            ctx: BrookContext::cpu(),
        }
    }

    /// One iteration: compile the suite, then check every module. The
    /// traced run compiles through `compile_artifact` + `adopt_artifact`
    /// (exactly what `compile` does) to time the adoption.
    pub fn iterate(&mut self, s: &mut Samples, tally: &mut Tally, tr: &Tracer) {
        let t = Instant::now();
        let modules: Vec<_> = self
            .sources
            .iter()
            .map(|(_, src)| {
                if tr.enabled() {
                    let artifact = self.ctx.compile_artifact(src)?;
                    let _span = tr.span("core.adopt_us", "");
                    self.ctx.adopt_artifact(&artifact)
                } else {
                    self.ctx.compile(src)
                }
            })
            .collect();
        s.push("compile_suite_ms", t.elapsed().as_secs_f64() * 1e3);
        for (m, want) in modules.into_iter().zip(&mut self.ir_text) {
            let text = m
                .map_err(|e| e.to_string())
                .and_then(|m| match m.report.is_compliant() {
                    true => self.ctx.emit_ir(&m).map_err(|e| e.to_string()),
                    false => Err("non-compliant".into()),
                });
            match want {
                Some(w) => {
                    tally.text(text, w);
                }
                None => match text {
                    Ok(t) => *want = Some(t),
                    Err(_) => {
                        tally.verdict(false);
                    }
                },
            }
        }
    }
}

/// Counts the phase probe reads off the compile pipeline.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct PhaseCounts {
    /// IR instructions right after lowering.
    pub insts_lowered: usize,
    /// IR instructions after the pass pipeline.
    pub insts_optimized: usize,
    /// Pass records that applied a change.
    pub passes_applied: usize,
    /// Gathers the analyzer proved in bounds.
    pub proven_gathers: usize,
    /// All gathers.
    pub total_gathers: usize,
    /// Kernels compiled to Tier-2.
    pub tier_admitted: usize,
    /// Kernels considered by the Tier-2 compiler.
    pub tier_total: usize,
    /// Reduce kernels admitted to the vectorized fold.
    pub reduce_admitted: usize,
    /// Reduce kernels considered by the vectorized-fold planner.
    pub reduce_total: usize,
}

/// One source's products of the phase pipeline.
pub struct Compiled {
    /// The optimized, annotated IR.
    pub ir: IrProgram,
    /// Lane plans.
    pub lanes: LaneProgram,
    /// Tier-2 plans.
    pub tiers: TierProgram,
}

fn sum_insts(ir: &IrProgram) -> usize {
    ir.kernels.iter().map(|k| k.insts.len()).sum()
}

/// Runs `sources` through the compile pipeline's public phase
/// functions, phase-major, with one span per phase over all of them.
///
/// # Errors
/// A front-end error, a certification violation or a lowering failure.
pub fn phases(sources: &[&str], tr: &Tracer) -> Result<(Vec<Compiled>, PhaseCounts), String> {
    let config = CertConfig::default();
    let mut c = PhaseCounts::default();
    let checked = {
        let _span = tr.span("lang.parse_check_us", "");
        sources
            .iter()
            .map(|s| brook_lang::parse_and_check(s).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?
    };
    let reports: Vec<_> = {
        let _span = tr.span("cert.certify_us", "");
        checked.iter().map(|p| brook_cert::certify(p, &config)).collect()
    };
    if let Some(r) = reports.iter().find(|r| !r.is_compliant()) {
        return Err(format!("phases: a suite kernel is not compliant: {r:?}"));
    }
    let mut irs = {
        let _span = tr.span("ir.lower_us", "");
        checked
            .iter()
            .map(|p| match brook_ir::lower::lower_program(p) {
                (ir, errors) if errors.is_empty() => Ok(ir),
                (_, errors) => Err(format!("phases: lowering failed: {:?}", errors[0])),
            })
            .collect::<Result<Vec<_>, _>>()?
    };
    c.insts_lowered = irs.iter().map(sum_insts).sum();
    {
        let _span = tr.span("cert.ir_check_us", "");
        for ir in &irs {
            if !brook_cert::ir_check::check_program(ir, &config).1 {
                return Err("phases: lowered IR failed the IR-level check".into());
            }
        }
    }
    {
        let _span = tr.span("cert.passes_us", "");
        for ir in &mut irs {
            let records =
                brook_cert::ir_check::optimize_program(ir, &config, &brook_ir::passes::default_passes());
            c.passes_applied += records
                .iter()
                .filter(|r| matches!(r.action, PassAction::Applied { changed: true }))
                .count();
        }
    }
    c.insts_optimized = irs.iter().map(sum_insts).sum();
    let facts: Vec<_> = {
        let _span = tr.span("cert.absint_us", "");
        irs.iter_mut()
            .map(|ir| brook_cert::absint::analyze_and_annotate_program(ir, true))
            .collect()
    };
    for (analysis, _) in &facts {
        for k in &analysis.kernels {
            c.proven_gathers += k.proven_gathers;
            c.total_gathers += k.total_gathers;
        }
    }
    let lanes: Vec<_> = {
        let _span = tr.span("ir.lane_plan_us", "");
        irs.iter()
            .zip(&facts)
            .map(|(ir, (_, f))| LaneProgram::plan_program_with(ir, f))
            .collect()
    };
    let level = SimdMode::Auto.resolve();
    let tiers: Vec<_> = {
        let _span = tr.span("ir.tier_compile_us", "");
        irs.iter()
            .zip(&lanes)
            .zip(&facts)
            .map(|((ir, l), (_, f))| TierProgram::compile_program_simd(ir, l, f, level))
            .collect()
    };
    for t in &tiers {
        c.tier_total += t.kernels.len();
        c.tier_admitted += t.kernels.iter().filter(|(_, p)| p.is_ok()).count();
    }
    let reduces: Vec<_> = {
        let _span = tr.span("ir.reduce_plan_us", "");
        irs.iter()
            .zip(&facts)
            .map(|(ir, (_, f))| ReduceProgram::plan_program_with(ir, f, level))
            .collect()
    };
    for r in &reduces {
        c.reduce_total += r.kernels.len();
        c.reduce_admitted += r.kernels.iter().filter(|(_, p)| p.is_ok()).count();
    }
    let compiled = irs
        .into_iter()
        .zip(lanes)
        .zip(tiers)
        .map(|((ir, lanes), tiers)| Compiled { ir, lanes, tiers })
        .collect();
    Ok((compiled, c))
}
