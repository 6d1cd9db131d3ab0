//! Tier-2 differential mode.
//!
//! The closure-threaded executor (`brook_ir::tier`) promises
//! **bit-exactness with the lane engine and the scalar IR interpreter
//! by construction**: admission only compiles ops the closure model
//! covers, and unmodeled bindings or faulting blocks re-run through
//! the lane engine (which itself re-runs scalar). This module widens
//! the lane differential matrix by one engine tier to assert that
//! promise on every generated kernel:
//!
//! | spec           | engine                                      | policy  |
//! |----------------|---------------------------------------------|---------|
//! | `cpu-ast`      | AST tree walker (oracle)                    | reference |
//! | `cpu-scalar`   | scalar flat-IR interpreter (lanes off)      | bitwise |
//! | `cpu-lanes`    | lane engine (tier compilation off)          | bitwise |
//! | `cpu`          | Tier-2 closure chains (admitted kernels)    | bitwise |
//! | `cpu-parallel` | Tier-2 in workers, reused per-worker slabs  | bitwise |
//!
//! One diverging case localizes the bug: `cpu-lanes` vs `cpu-scalar`
//! is a lane-engine fault, `cpu` vs `cpu-lanes` is a tier-compiler
//! fault (fusion, hoisting or closure semantics), `cpu-parallel` vs
//! `cpu` is a chunking/slab-reuse fault.
//!
//! Every case is also compile-probed to record the tier decision, and
//! the campaign runs a fixed set of certifiable kernels the lane
//! planner *admits* but the tier compiler *rejects* (cross-component
//! reductions), proving the lane-engine fallback path is actually
//! exercised and bit-exact too.
//!
//! The **input-shape axis** ([`run_tier_shape_campaign`]) re-binds
//! generated kernels to inputs shaped unlike their output domain, so
//! the engines' clamped and resampled element framing is fuzzed too,
//! not only the same-shape (contiguous) path.

use crate::differential::{run_case_with_inputs, BackendOutput, CaseFailure, Matrix};
use crate::gen::{gen_case, gen_values, special_overlay, FuzzCase, GenConfig};
use brook_auto::{Arg, BackendSpec, BrookContext};
use brook_ir::lanes::LANES;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cpu_scalar() -> BrookContext {
    let mut ctx = BrookContext::cpu();
    ctx.lane_execution = false;
    ctx
}

fn cpu_lanes_only() -> BrookContext {
    let mut ctx = BrookContext::cpu();
    ctx.tier_execution = false;
    ctx
}

/// The widened matrix: AST oracle, scalar IR interpreter, lane engine
/// with tier compilation disabled, Tier-2 closure chains, and the
/// parallel backend running Tier-2 inside workers — all CPU specs, so
/// the comparison policy is bitwise everywhere.
pub fn tier_matrix() -> Matrix {
    Matrix {
        specs: vec![
            BackendSpec {
                name: "cpu-ast",
                make: BrookContext::cpu_ast_oracle,
            },
            BackendSpec {
                name: "cpu-scalar",
                make: cpu_scalar,
            },
            BackendSpec {
                name: "cpu-lanes",
                make: cpu_lanes_only,
            },
            BackendSpec {
                name: "cpu",
                make: BrookContext::cpu,
            },
            BackendSpec {
                name: "cpu-parallel",
                make: BrookContext::cpu_parallel,
            },
        ],
        tolerance: 0.0,
    }
}

/// Statistics of one tier differential campaign.
#[derive(Debug, Clone, Default)]
pub struct TierStats {
    /// Cases that ran and agreed bitwise across the whole matrix.
    pub cases: u32,
    /// Kernels the compiler admitted to Tier-2.
    pub tier_kernels: u32,
    /// Kernels the compiler rejected (lane/scalar fallback exercised),
    /// including the fixed rejected set.
    pub fallback_kernels: u32,
    /// Total output elements cross-checked.
    pub elements_checked: u64,
}

/// Certifiable kernels the lane planner *admits* but the tier compiler
/// must *reject* — cross-component reductions (`dot`, `length`,
/// `normalize`) are not closure-threaded. They compile, certify,
/// lane-vectorize, and must still agree bitwise across the matrix
/// through the lane-engine fallback.
const TIER_REJECTED_SOURCES: &[&str] = &[
    "kernel void dotted(float a<>, out float o<>) {
        float2 v = float2(a, a * 0.5);
        o = dot(v, v) + 1.0;
    }",
    "kernel void normed(float a<>, out float o<>) {
        float3 u = float3(a + 1.0, a * 2.0, 3.0);
        o = length(u) + normalize(u).x;
    }",
];

/// Compile-probes one source on a tier-enabled CPU context and returns
/// `(tier, fallback)` kernel counts from the recorded tier plans.
///
/// # Errors
/// Compile failures.
fn probe_plans(source: &str) -> Result<(u32, u32), String> {
    let mut ctx = BrookContext::cpu();
    let module = ctx.compile(source).map_err(|e| format!("probe compile: {e}"))?;
    let mut tiered = 0;
    let mut fallback = 0;
    for plan in &module.report.tier_plans {
        if plan.compiled {
            tiered += 1;
        } else {
            fallback += 1;
        }
    }
    Ok((tiered, fallback))
}

/// Compile-probes the *lane* decision for a source (the rejected set
/// must stay lane-admitted, or it would not prove the lane fallback).
fn probe_lane_admitted(source: &str) -> Result<bool, String> {
    let mut ctx = BrookContext::cpu();
    let module = ctx.compile(source).map_err(|e| format!("probe compile: {e}"))?;
    Ok(module.report.lane_plans.iter().all(|p| p.vectorized))
}

/// Runs one fixed source across the matrix with a deterministic ramp
/// input, requiring bitwise agreement with the AST oracle.
///
/// # Errors
/// Compile/run failures and divergences, rendered with the source.
fn run_fixed(source: &str, n: usize) -> Result<u64, String> {
    let input: Vec<f32> = (0..n).map(|i| (i as f32) * 0.73 - 3.0).collect();
    let mut reference: Option<(&'static str, Vec<f32>)> = None;
    let mut checked = 0u64;
    for spec in tier_matrix().specs {
        let mut ctx = (spec.make)();
        let module = ctx
            .compile(source)
            .map_err(|e| format!("{}: compile: {e}\n{source}", spec.name))?;
        let kernel = module.kernels().first().cloned().ok_or("no kernel")?;
        let a = ctx.stream(&[n]).map_err(|e| format!("{}: {e}", spec.name))?;
        let o = ctx.stream(&[n]).map_err(|e| format!("{}: {e}", spec.name))?;
        ctx.write(&a, &input).map_err(|e| format!("{}: {e}", spec.name))?;
        ctx.run(&module, &kernel, &[Arg::Stream(&a), Arg::Stream(&o)])
            .map_err(|e| format!("{}: run: {e}\n{source}", spec.name))?;
        let out = ctx.read(&o).map_err(|e| format!("{}: {e}", spec.name))?;
        match &reference {
            None => reference = Some((spec.name, out)),
            Some((ref_name, r)) => {
                for (i, (x, y)) in r.iter().zip(&out).enumerate() {
                    if x.to_bits() != y.to_bits() {
                        return Err(format!(
                            "{} diverged from {ref_name} at element {i}: {x} vs {y}\n{source}",
                            spec.name
                        ));
                    }
                }
                checked += out.len() as u64;
            }
        }
    }
    Ok(checked)
}

/// Runs `cases` seeded kernels through the tier matrix, plus the fixed
/// tier-rejected set.
///
/// # Errors
/// The first case failure, annotated with the case name (the seed and
/// index regenerate it anywhere).
pub fn run_tier_campaign(seed: u64, cases: u32, cfg: &GenConfig) -> Result<TierStats, String> {
    let matrix = tier_matrix();
    let mut stats = TierStats::default();
    for index in 0..cases {
        let case = gen_case(seed, index, cfg);
        let inputs: Vec<(&[usize], &[f32])> = case
            .inputs
            .iter()
            .map(|data| (case.domain_shape.as_slice(), data.as_slice()))
            .collect();
        check_case(&case, &inputs, &matrix, &mut stats)
            .map_err(|e| format!("case {} (seed {seed:#x}, index {index}): {e}", case.name))?;
    }
    // The forced-fallback set: certifiable, lane-admitted, tier-rejected,
    // bit-exact through the lane engine on every spec.
    for source in TIER_REJECTED_SOURCES {
        if !probe_lane_admitted(source)? {
            return Err(format!(
                "lane planner unexpectedly rejected a tier-fallback kernel:\n{source}"
            ));
        }
        let (tiered, fallback) = probe_plans(source)?;
        if tiered != 0 || fallback == 0 {
            return Err(format!(
                "tier compiler unexpectedly admitted a kernel built to be rejected:\n{source}"
            ));
        }
        stats.fallback_kernels += fallback;
        stats.elements_checked += run_fixed(source, 3 * brook_ir::lanes::LANES + 5)?;
        stats.cases += 1;
    }
    Ok(stats)
}

/// Compile-probes `case` and runs it with `inputs` across `matrix`,
/// adding its tier decisions and checked elements to `stats`.
fn check_case(
    case: &FuzzCase,
    inputs: &[(&[usize], &[f32])],
    matrix: &Matrix,
    stats: &mut TierStats,
) -> Result<(), String> {
    let (tiered, fallback) = probe_plans(&case.source)?;
    stats.tier_kernels += tiered;
    stats.fallback_kernels += fallback;
    let runs: Vec<BackendOutput> = run_case_with_inputs(case, matrix, inputs).map_err(|f| {
        let detail = match &f {
            CaseFailure::Setup { backend, message } => format!("{backend}: {message}"),
            CaseFailure::Divergence(d) => d.to_string(),
        };
        format!("{detail}\n{}", case.source)
    })?;
    stats.cases += 1;
    stats.elements_checked += runs
        .first()
        .map(|r| r.outputs.iter().map(|o| o.len() as u64).sum::<u64>())
        .unwrap_or(0);
    Ok(())
}

/// A domain of the same rank with at least two full lane blocks and a
/// partial tail — and, for a few, enough elements for `cpu-parallel` to
/// split the launch into worker chunks.
fn wide_domain(rng: &mut StdRng, two_d: bool) -> Vec<usize> {
    let pool: &[&[usize]] = if two_d {
        &[&[5, 7], &[3, 13], &[6, 9], &[17, 19]]
    } else {
        &[&[2 * LANES + 1], &[3 * LANES + 7], &[4 * LANES - 1], &[300]]
    };
    pool[rng.gen_range(0..pool.len())].to_vec()
}

/// An input shape for a launch over `domain`: the domain's own shape, a
/// shorter or a longer 1-D shape (clamped reads), or a 2-D shape unlike
/// the domain's (resampled reads; on a 1-D domain, a 2-D input).
fn input_shape(rng: &mut StdRng, domain: &[usize]) -> Vec<usize> {
    let len: usize = domain.iter().product();
    match rng.gen_range(0u32..4) {
        0 => vec![rng.gen_range(1..len.max(2))],
        1 => vec![len + rng.gen_range(1..2 * LANES + 1)],
        2 => vec![rng.gen_range(1..10), rng.gen_range(1..10)],
        _ => domain.to_vec(),
    }
}

/// Runs `cases` seeded kernels through the tier matrix with inputs
/// shaped unlike their output domain. Each case keeps its generated
/// kernel and domain rank; half the cases widen the domain to at least
/// two full blocks plus a partial tail, and every input independently
/// takes the domain's shape, a shorter or longer 1-D shape, or another
/// 2-D shape. The shapes come from their own stream seeded by `seed`,
/// so the shape-free campaign at the same seed keeps its cases.
///
/// # Errors
/// The first case failure, annotated with the case name and the input
/// shapes (the seed and index regenerate it anywhere).
pub fn run_tier_shape_campaign(seed: u64, cases: u32, cfg: &GenConfig) -> Result<TierStats, String> {
    let matrix = tier_matrix();
    let mut stats = TierStats::default();
    for index in 0..cases {
        let mut case = gen_case(seed, index, cfg);
        let mut rng = StdRng::seed_from_u64(seed ^ (u64::from(index) << 32) ^ 0x5BA9E);
        if rng.gen_range(0u32..2) == 0 {
            case.domain_shape = wide_domain(&mut rng, case.domain_shape.len() == 2);
        }
        let shaped: Vec<(Vec<usize>, Vec<f32>)> = (0..case.inputs.len())
            .map(|i| {
                let shape = input_shape(&mut rng, &case.domain_shape);
                let data_seed = case.data_seed.wrapping_add(i as u64);
                let mut data = gen_values(data_seed, shape.iter().product());
                if case.special_floats {
                    special_overlay(data_seed, &mut data);
                }
                (shape, data)
            })
            .collect();
        let inputs: Vec<(&[usize], &[f32])> =
            shaped.iter().map(|(s, d)| (s.as_slice(), d.as_slice())).collect();
        check_case(&case, &inputs, &matrix, &mut stats).map_err(|e| {
            let shapes: Vec<&[usize]> = inputs.iter().map(|(s, _)| *s).collect();
            format!(
                "shaped case {} (seed {seed:#x}, index {index}, domain {:?}, inputs {shapes:?}): {e}",
                case.name, case.domain_shape
            )
        })?;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_interposes_the_lane_only_spec() {
        let m = tier_matrix();
        let names: Vec<_> = m.specs.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec!["cpu-ast", "cpu-scalar", "cpu-lanes", "cpu", "cpu-parallel"]
        );
        // The lane-only spec really is the tier-disabled lane engine.
        let ctx = (m.specs[2].make)();
        assert!(ctx.lane_execution);
        assert!(!ctx.tier_execution);
        // And the full spec has both tiers on.
        let ctx = (m.specs[3].make)();
        assert!(ctx.lane_execution && ctx.tier_execution);
    }

    #[test]
    fn rejected_sources_lane_vectorize_but_tier_fall_back() {
        for source in TIER_REJECTED_SOURCES {
            assert!(
                probe_lane_admitted(source).unwrap_or_else(|e| panic!("{e}")),
                "lane planner must admit:\n{source}"
            );
            let (t, f) = probe_plans(source).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(t, 0, "tier compiler must reject:\n{source}");
            assert!(f >= 1);
        }
    }

    #[test]
    fn shape_axis_covers_clamped_resampled_and_tailed_launches() {
        let mut rng = StdRng::seed_from_u64(7);
        let domains: Vec<Vec<usize>> = (0..64).map(|i| wide_domain(&mut rng, i % 2 == 0)).collect();
        assert!(domains.iter().all(|d| {
            let n: usize = d.iter().product();
            n > 2 * LANES && !n.is_multiple_of(LANES)
        }));
        let shapes: Vec<Vec<usize>> = (0..64).map(|_| input_shape(&mut rng, &[3 * LANES + 7])).collect();
        assert!(shapes.iter().any(|s| s.len() == 1 && s[0] < 3 * LANES + 7));
        assert!(shapes.iter().any(|s| s.len() == 1 && s[0] > 3 * LANES + 7));
        assert!(shapes.iter().any(|s| s.len() == 2));
        let stats =
            run_tier_shape_campaign(0x5A9E_5EED, 8, &GenConfig::default()).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(stats.cases, 8);
        assert!(stats.elements_checked > 0);
    }

    #[test]
    fn small_campaign_is_bit_exact() {
        let stats =
            run_tier_campaign(0x71E2_5EED, 8, &GenConfig::default()).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(stats.cases, 8 + TIER_REJECTED_SOURCES.len() as u32);
        assert!(stats.tier_kernels > 0, "{stats:?}");
        assert!(stats.fallback_kernels >= TIER_REJECTED_SOURCES.len() as u32);
        assert!(stats.elements_checked > 0);
    }
}
