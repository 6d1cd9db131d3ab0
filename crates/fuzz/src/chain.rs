//! Chain-generator mode: random 2–5 kernel *pipelines*, checked
//! differentially between eager execution and the deferred fusing
//! stream-graph executor on every registered backend.
//!
//! The point of the mode is to attack the fusion planner: a fused chain
//! must be indistinguishable from the eager one in results (bit-exact on
//! the CPU interpreters — inlining a producer as a let-bound local
//! performs the same f32 operations in the same order — and within
//! storage tolerance on the device backends), while the plan accounting
//! must show the chain actually collapsed. Every generated chain is
//! fusable by construction (single-output elementwise stages, no
//! helpers, merged inputs within the default gate limits), so a planner
//! regression that silently stops fusing fails the campaign just as
//! loudly as one that miscompiles.
//!
//! Magnitudes are kept bounded the same way [`crate::gen`] does it, with
//! a per-stage clamp to ±100: chains compound magnitudes multiplicatively,
//! and non-finite intermediates would trip the packed-storage
//! canonicalization into false divergences.

use crate::differential::{compare, compile_shared, BackendOutput, Matrix};
use brook_auto::{Arg, BrookContext, BrookModule, GraphReport, Stream};
use brook_lang::ast::{BinOp, ParamKind, Type};
use brook_lang::build::AstBuilder;
use brook_lang::pretty::print_program;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Chain-campaign tuning.
#[derive(Debug, Clone)]
pub struct ChainConfig {
    /// Minimum pipeline length.
    pub min_stages: usize,
    /// Maximum pipeline length.
    pub max_stages: usize,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            min_stages: 2,
            max_stages: 5,
        }
    }
}

/// One generated pipeline: `stages` kernels where stage *i* reads stage
/// *i−1*'s output elementwise, plus optionally one fresh input and one
/// scalar of its own.
#[derive(Debug, Clone)]
pub struct ChainCase {
    /// Stable case name (`chain_<seed>_<index>`).
    pub name: String,
    /// One translation unit holding every stage kernel (`s0`, `s1`, …).
    pub source: String,
    /// Stage kernel names in pipeline order.
    pub kernels: Vec<String>,
    /// Domain shape shared by every elementwise stream in the chain.
    pub domain_shape: Vec<usize>,
    /// Stage 0's input buffer.
    pub initial: Vec<f32>,
    /// Per stage: the optional fresh elementwise input's buffer.
    pub extras: Vec<Option<Vec<f32>>>,
    /// Per stage: the optional scalar argument.
    pub scalars: Vec<Option<f32>>,
}

impl ChainCase {
    /// Number of pipeline stages.
    pub fn stages(&self) -> usize {
        self.kernels.len()
    }
}

/// Deterministically generates case `index` of the campaign seeded with
/// `seed`.
pub fn gen_chain(seed: u64, index: u32, cfg: &ChainConfig) -> ChainCase {
    let mut rng = StdRng::seed_from_u64(seed ^ ((u64::from(index) << 32) | 0xC4A1));
    let n_stages = rng.gen_range(cfg.min_stages..cfg.max_stages + 1);
    let domain_shape: Vec<usize> = if rng.gen_range(0u32..3) == 0 {
        [[4usize, 9], [8, 8], [3, 17]][rng.gen_range(0usize..3)].to_vec()
    } else {
        vec![[33usize, 64, 100, 257][rng.gen_range(0usize..4)]]
    };
    let len: usize = domain_shape.iter().product();
    let data = |rng: &mut StdRng| -> Vec<f32> { (0..len).map(|_| rng.gen_range(-4.0f32..4.0)).collect() };

    let mut b = AstBuilder::new();
    let mut items = Vec::new();
    let mut kernels = Vec::new();
    let mut extras = Vec::new();
    let mut scalars = Vec::new();
    let initial = data(&mut rng);
    for i in 0..n_stages {
        let has_extra = rng.gen_range(0u32..3) == 0;
        let has_scalar = rng.gen_range(0u32..2) == 0;
        extras.push(has_extra.then(|| data(&mut rng)));
        scalars.push(has_scalar.then(|| rng.gen_range(-8i32..9) as f32 * 0.25));

        let mut env: Vec<&str> = vec!["a"];
        if has_extra {
            env.push("b");
        }
        if has_scalar {
            env.push("k");
        }
        // A bounded random expression over the environment.
        fn expr(b: &mut AstBuilder, rng: &mut StdRng, env: &[&str], depth: u32) -> brook_lang::ast::Expr {
            if depth == 0 || rng.gen_range(0u32..4) == 0 {
                return if rng.gen_range(0u32..3) == 0 {
                    b.float_lit(rng.gen_range(1i32..9) as f32 * 0.25)
                } else {
                    b.var(env[rng.gen_range(0..env.len())])
                };
            }
            match rng.gen_range(0u32..6) {
                0 => {
                    let l = expr(b, rng, env, depth - 1);
                    let r = expr(b, rng, env, depth - 1);
                    b.binary(BinOp::Add, l, r)
                }
                1 => {
                    let l = expr(b, rng, env, depth - 1);
                    let r = expr(b, rng, env, depth - 1);
                    b.binary(BinOp::Sub, l, r)
                }
                2 => {
                    let l = expr(b, rng, env, depth - 1);
                    let r = expr(b, rng, env, depth - 1);
                    b.binary(BinOp::Mul, l, r)
                }
                3 => {
                    let l = expr(b, rng, env, depth - 1);
                    let r = expr(b, rng, env, depth - 1);
                    b.call("min", vec![l, r])
                }
                4 => {
                    let l = expr(b, rng, env, depth - 1);
                    let r = expr(b, rng, env, depth - 1);
                    b.call("max", vec![l, r])
                }
                _ => {
                    let e = expr(b, rng, env, depth - 1);
                    b.call("abs", vec![e])
                }
            }
        }
        let e = expr(&mut b, &mut rng, &env, 3);
        // o = min(max(e, -100), 100): keeps chained magnitudes bounded.
        let lo_mag = b.float_lit(100.0);
        let lo = b.unary(brook_lang::ast::UnOp::Neg, lo_mag);
        let clamped_lo = b.call("max", vec![e, lo]);
        let hi = b.float_lit(100.0);
        let clamped = b.call("min", vec![clamped_lo, hi]);
        let o = b.var("o");
        let body = vec![b.assign(o, clamped)];
        let mut params = vec![b.param("a", Type::FLOAT, ParamKind::Stream)];
        if has_extra {
            params.push(b.param("b", Type::FLOAT, ParamKind::Stream));
        }
        if has_scalar {
            params.push(b.param("k", Type::FLOAT, ParamKind::Scalar));
        }
        params.push(b.param("o", Type::FLOAT, ParamKind::OutStream));
        let name = format!("s{i}");
        items.push(b.kernel(&name, params, body));
        kernels.push(name);
    }
    let program = b.program(items);
    ChainCase {
        name: format!("chain_{seed:x}_{index}"),
        source: print_program(&program),
        kernels,
        domain_shape,
        initial,
        extras,
        scalars,
    }
}

/// One backend's eager/fused verdict for a chain.
#[derive(Debug, Clone)]
pub struct ChainRun {
    /// Backend name.
    pub backend: &'static str,
    /// Final output after sequential eager execution.
    pub eager: Vec<f32>,
    /// Final output after deferred-fused execution.
    pub fused: Vec<f32>,
    /// The graph executor's plan accounting.
    pub report: GraphReport,
}

/// Why a chain case failed.
#[derive(Debug, Clone)]
pub enum ChainFailure {
    /// A backend refused to set up or run the chain.
    Setup {
        /// Offending backend.
        backend: &'static str,
        /// Eager or fused path.
        mode: &'static str,
        /// Error rendering.
        message: String,
    },
    /// Eager or fused output diverged from the eager CPU oracle.
    Divergence {
        /// Offending backend.
        backend: &'static str,
        /// Eager or fused path.
        mode: &'static str,
        /// Rendering of the first mismatch.
        message: String,
    },
    /// The planner failed to collapse a chain that is fusable by
    /// construction.
    NotFused {
        /// Offending backend.
        backend: &'static str,
        /// Streams actually elided.
        elided: usize,
        /// Streams that should have been elided (stages − 1).
        expected: usize,
    },
}

impl std::fmt::Display for ChainFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainFailure::Setup {
                backend,
                mode,
                message,
            } => {
                write!(f, "{backend} ({mode}): setup failed: {message}")
            }
            ChainFailure::Divergence {
                backend,
                mode,
                message,
            } => {
                write!(f, "{backend} ({mode}): diverged from eager cpu oracle: {message}")
            }
            ChainFailure::NotFused {
                backend,
                elided,
                expected,
            } => write!(
                f,
                "{backend}: planner elided {elided} of {expected} intermediates on a chain \
                 that is fusable by construction"
            ),
        }
    }
}

fn stage_args<'a>(
    case: &ChainCase,
    i: usize,
    prev: &'a Stream,
    extra: &'a Option<Stream>,
    out: &'a Stream,
) -> Vec<Arg<'a>> {
    let mut args: Vec<Arg<'a>> = vec![Arg::Stream(prev)];
    if let Some(e) = extra {
        args.push(Arg::Stream(e));
    }
    if let Some(k) = case.scalars[i] {
        args.push(Arg::Float(k));
    }
    args.push(Arg::Stream(out));
    args
}

/// Writes `case`'s initial stream and per-stage extra inputs into `ctx`.
fn write_inputs(ctx: &mut BrookContext, case: &ChainCase) -> Result<(Stream, Vec<Option<Stream>>), String> {
    let mut write = |data: &[f32]| {
        let s = ctx.stream(&case.domain_shape).map_err(|e| e.to_string())?;
        ctx.write(&s, data).map_err(|e| e.to_string())?;
        Ok::<_, String>(s)
    };
    let first = write(&case.initial)?;
    let extras = case
        .extras
        .iter()
        .map(|d| d.as_deref().map(&mut write).transpose());
    Ok((first, extras.collect::<Result<_, _>>()?))
}

/// Runs `case` eagerly (real intermediates, one launch per stage).
fn run_eager(ctx: &mut BrookContext, module: &BrookModule, case: &ChainCase) -> Result<Vec<f32>, String> {
    let (mut prev, extras) = write_inputs(ctx, case)?;
    for (i, extra) in extras.iter().enumerate() {
        let out = ctx.stream(&case.domain_shape).map_err(|e| e.to_string())?;
        let args = stage_args(case, i, &prev, extra, &out);
        ctx.run(module, &case.kernels[i], &args)
            .map_err(|e| format!("stage {i}: {e}"))?;
        prev = out;
    }
    ctx.read(&prev).map_err(|e| e.to_string())
}

/// Runs `case` through the deferred graph executor (virtual
/// intermediates, fused plan).
fn run_fused(
    ctx: &mut BrookContext,
    module: &BrookModule,
    case: &ChainCase,
) -> Result<(Vec<f32>, GraphReport), String> {
    let (first, extra_streams) = write_inputs(ctx, case)?;
    let last = ctx.stream(&case.domain_shape).map_err(|e| e.to_string())?;
    let report = {
        let mut g = ctx.graph();
        let mut prev = first;
        for (i, extra) in extra_streams.iter().enumerate() {
            let out = if i + 1 == case.stages() {
                last
            } else {
                g.stream(&case.domain_shape).map_err(|e| e.to_string())?
            };
            let args = stage_args(case, i, &prev, extra, &out);
            g.run(module, &case.kernels[i], &args)
                .map_err(|e| format!("record stage {i}: {e}"))?;
            prev = out;
        }
        g.execute().map_err(|e| format!("execute: {e}"))?
    };
    let out = ctx.read(&last).map_err(|e| e.to_string())?;
    Ok((out, report))
}

/// Runs one chain on the whole matrix, comparing both modes of every
/// backend against the eager CPU reference and requiring the planner to
/// have collapsed the chain.
///
/// # Errors
/// The first [`ChainFailure`] encountered.
pub fn run_chain_case(case: &ChainCase, matrix: &Matrix) -> Result<Vec<ChainRun>, ChainFailure> {
    assert!(
        matrix.specs.first().is_some_and(|s| s.name.starts_with("cpu")),
        "the matrix must lead with a CPU reference"
    );
    let mut runs = Vec::new();
    let mut artifacts = Vec::new();
    for spec in &matrix.specs {
        let setup = |mode, message| ChainFailure::Setup {
            backend: spec.name,
            mode,
            message,
        };
        // Each mode runs on a fresh context of the spec.
        let mut ctx = (spec.make)();
        let eager = compile_shared(&mut ctx, &case.source, &mut artifacts)
            .and_then(|module| run_eager(&mut ctx, &module, case))
            .map_err(|m| setup("eager", m))?;
        let mut ctx = (spec.make)();
        let (fused, report) = compile_shared(&mut ctx, &case.source, &mut artifacts)
            .and_then(|module| run_fused(&mut ctx, &module, case))
            .map_err(|m| setup("fused", m))?;
        runs.push(ChainRun {
            backend: spec.name,
            eager,
            fused,
            report,
        });
    }
    let oracle = BackendOutput {
        backend: runs[0].backend,
        outputs: vec![runs[0].eager.clone()],
        ..BackendOutput::default()
    };
    for run in &runs {
        for (mode, out) in [("eager", &run.eager), ("fused", &run.fused)] {
            let candidate = BackendOutput {
                backend: run.backend,
                outputs: vec![out.clone()],
                ..BackendOutput::default()
            };
            if let Some(d) = compare(&oracle, &candidate, matrix.tolerance) {
                return Err(ChainFailure::Divergence {
                    backend: run.backend,
                    mode,
                    message: d.to_string(),
                });
            }
        }
        let expected = case.stages() - 1;
        if run.report.elided_streams != expected {
            return Err(ChainFailure::NotFused {
                backend: run.backend,
                elided: run.report.elided_streams,
                expected,
            });
        }
    }
    Ok(runs)
}

/// Chain-campaign summary.
#[derive(Debug, Clone, Default)]
pub struct ChainStats {
    /// Chains generated and verified.
    pub cases: u32,
    /// Total stages across all chains.
    pub stages: usize,
    /// Passes the fused plans actually executed.
    pub executed_passes: usize,
    /// Passes the eager plans would have cost.
    pub eager_passes: usize,
    /// Intermediate streams elided across the campaign.
    pub elided_streams: usize,
}

/// A failed chain campaign: the case and what went wrong.
#[derive(Debug)]
pub struct ChainCampaignFailure {
    /// The failing case (source, data, stage list).
    pub case: Box<ChainCase>,
    /// The observed failure.
    pub failure: ChainFailure,
}

impl std::fmt::Display for ChainCampaignFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "chain case {} failed: {}", self.case.name, self.failure)?;
        writeln!(f, "--- source ---")?;
        writeln!(f, "{}", self.case.source)
    }
}

/// Runs `cases` chains from `seed` across the default matrix.
///
/// # Errors
/// The first failing case, with its full source for triage.
pub fn run_chain_campaign(
    seed: u64,
    cases: u32,
    cfg: &ChainConfig,
) -> Result<ChainStats, Box<ChainCampaignFailure>> {
    let matrix = Matrix::default();
    let mut stats = ChainStats::default();
    for index in 0..cases {
        let case = gen_chain(seed, index, cfg);
        match run_chain_case(&case, &matrix) {
            Ok(runs) => {
                stats.cases += 1;
                stats.stages += case.stages();
                // Plan accounting is backend-independent; take the
                // reference run's.
                stats.executed_passes += runs[0].report.executed_passes;
                stats.eager_passes += runs[0].report.eager_passes;
                stats.elided_streams += runs[0].report.elided_streams;
            }
            Err(failure) => {
                return Err(Box::new(ChainCampaignFailure {
                    case: Box::new(case),
                    failure,
                }))
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_generation_is_deterministic() {
        let cfg = ChainConfig::default();
        for i in 0..8 {
            let a = gen_chain(0xC4A1, i, &cfg);
            let b = gen_chain(0xC4A1, i, &cfg);
            assert_eq!(a.source, b.source, "case {i}");
            assert_eq!(a.initial, b.initial, "case {i}");
            assert_eq!(a.scalars, b.scalars, "case {i}");
        }
    }

    #[test]
    fn generated_chains_stay_certifiable() {
        let cfg = ChainConfig::default();
        for i in 0..16 {
            let case = gen_chain(0x5EED, i, &cfg);
            let mut ctx = BrookContext::cpu();
            ctx.compile(&case.source)
                .unwrap_or_else(|e| panic!("case {i} must certify: {e}\n{}", case.source));
            assert!((2..=5).contains(&case.stages()));
        }
    }

    #[test]
    fn single_chain_case_runs_and_fuses() {
        let case = gen_chain(0xAB, 1, &ChainConfig::default());
        let runs = run_chain_case(&case, &Matrix::default())
            .unwrap_or_else(|f| panic!("chain failed: {f}\n{}", case.source));
        for run in &runs {
            assert_eq!(run.report.executed_passes, 1, "{}", run.backend);
        }
    }
}
