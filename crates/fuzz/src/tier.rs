//! Tier-2 differential mode: the axes the main campaign's generated
//! cases do not reach, plus the planner-boundary kernels every campaign
//! runs.
//!
//! The closure-threaded executor (`brook_ir::tier`) promises
//! **bit-exactness with the lane engine and the scalar IR interpreter
//! by construction**: admission only compiles ops the closure model
//! covers, and unmodeled bindings or faulting blocks re-run through
//! the lane engine (which itself re-runs scalar). The main campaign
//! ([`crate::run_campaign`]) asserts that promise on every generated
//! kernel across the whole ladder ([`crate::differential::cpu_ladder`]).
//! This module adds:
//!
//! * the **planner-rejected set** ([`LANE_REJECTED_SOURCES`],
//!   [`TIER_REJECTED_SOURCES`]): certifiable kernels the lane planner
//!   or the tier compiler must refuse, run by the main campaign with
//!   their admission decisions checked, so each fallback path is
//!   exercised and bit-exact too;
//! * the **input-shape axis** ([`run_tier_shape_campaign`]), which
//!   re-binds generated kernels to inputs shaped unlike their output
//!   domain, so the engines' clamped and resampled element framing is
//!   fuzzed too, not only the same-shape (contiguous) path;
//! * the **counted-loop axis** ([`run_tier_loop_campaign`]), which
//!   generates the guarded fixed-bound loops of the paper's escape-time
//!   and binary-search kernels, plus near-miss variants, and checks
//!   both the Tier-2 loop plan each one compiles to and its results
//!   across the ladder.
//!
//! Both axes run on the CPU ladder alone ([`Matrix::cpu`]).

use crate::differential::{domain_inputs, run_case_with_inputs, Admissions, Matrix};
use crate::gen::{gen_case, gen_values, special_overlay, FuzzCase, GatherData, GenConfig};
use brook_ir::lanes::LANES;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Statistics of one tier differential campaign.
#[derive(Debug, Clone, Default)]
pub struct TierStats {
    /// Cases that ran and agreed bitwise across the whole ladder.
    pub cases: u32,
    /// Kernels the `cpu` spec compiled to Tier-2.
    pub tier_kernels: u32,
    /// Kernels the `cpu` spec left on the lane or scalar engine.
    pub fallback_kernels: u32,
    /// Total output elements cross-checked.
    pub elements_checked: u64,
}

/// Certifiable kernels the lane planner must *reject* — their ternary
/// arms carry lane-divergent runtime types (int vs float), which the
/// scalar interpreter resolves per element but a lane slab cannot
/// represent. They must still agree bitwise through the scalar
/// fallback.
pub const LANE_REJECTED_SOURCES: &[&str] = &[
    "kernel void mixed_arms(float a<>, out float o<>) {
        o = a > 2.0 ? 1 : a * 0.5;
    }",
    "kernel void mixed_arms_deep(float a<>, out float o<>) {
        float s = 0.0;
        int i;
        for (i = 0; i < 4; i++) { s += a > float(i) ? 1 : 0.25; }
        o = s;
    }",
];

/// Certifiable kernels the lane planner *admits* but the tier compiler
/// must *reject* — cross-component reductions (`dot`, `length`,
/// `normalize`) are not closure-threaded. They must still agree
/// bitwise through the lane-engine fallback.
pub const TIER_REJECTED_SOURCES: &[&str] = &[
    "kernel void dotted(float a<>, out float o<>) {
        float2 v = float2(a, a * 0.5);
        o = dot(v, v) + 1.0;
    }",
    "kernel void normed(float a<>, out float o<>) {
        float3 u = float3(a + 1.0, a * 2.0, 3.0);
        o = length(u) + normalize(u).x;
    }",
];

/// The planner-rejected set as cases over a ramp input spanning three
/// lane blocks and a tail, each with the admissions its `cpu` run must
/// record: one kernel, never tier-compiled, lane-vectorized only when
/// it is one of the tier-rejected kernels.
pub(crate) fn rejected_cases() -> Vec<(FuzzCase, Admissions)> {
    let n = 3 * LANES + 5;
    let ramp: Vec<f32> = (0..n).map(|i| (i as f32) * 0.73 - 3.0).collect();
    let lane = LANE_REJECTED_SOURCES.iter().map(|s| (s, false));
    let tier = TIER_REJECTED_SOURCES.iter().map(|s| (s, true));
    lane.chain(tier)
        .enumerate()
        .map(|(i, (source, lane_admitted))| {
            let case = FuzzCase::fixed(format!("rejected_{i}"), source, vec![n], vec![ramp.clone()], None);
            let want = Admissions {
                lane_vectorized: u32::from(lane_admitted),
                lane_fallback: u32::from(!lane_admitted),
                tier_fallback: 1,
                ..Admissions::default()
            };
            (case, want)
        })
        .collect()
}

/// Runs `case` with `inputs` across the CPU ladder, adding the `cpu`
/// spec's tier decisions and the checked elements to `stats`; returns
/// that spec's admissions.
fn check_case(
    case: &FuzzCase,
    inputs: &[(&[usize], &[f32])],
    stats: &mut TierStats,
) -> Result<Admissions, String> {
    let runs =
        run_case_with_inputs(case, &Matrix::cpu(), inputs).map_err(|f| format!("{f}\n{}", case.source))?;
    let cpu = runs
        .iter()
        .find(|r| r.backend == "cpu")
        .map(|r| r.admissions)
        .unwrap_or_default();
    stats.tier_kernels += cpu.tier_compiled;
    stats.fallback_kernels += cpu.tier_fallback;
    stats.cases += 1;
    stats.elements_checked += runs[0].outputs.iter().map(|o| o.len() as u64).sum::<u64>();
    Ok(cpu)
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
        check_case(&case, &inputs, &mut stats).map_err(|e| {
            let shapes: Vec<&[usize]> = inputs.iter().map(|(s, _)| *s).collect();
            format!(
                "shaped case {} (seed {seed:#x}, index {index}, domain {:?}, inputs {shapes:?}): {e}",
                case.name, case.domain_shape
            )
        })?;
    }
    Ok(stats)
}

/// The loop shapes of the counted-loop axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopShape {
    /// `z = z² + c` under `if (|z|² < r)`, counting iterations.
    EscapeTime,
    /// A lower-bound search over a sorted gather table under
    /// `if (lo < hi)`.
    BinarySearch,
}

/// How a generated loop departs from the shape Tier-2 specializes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopVariant {
    /// The plain shape: counted, with the quiescent exit.
    Plain,
    /// The counter is read inside the guarded `then`: still counted and
    /// quiescent.
    CounterInThen,
    /// The guard reads the counter: counted, not quiescent.
    CounterInGuard,
    /// A statement after the guard writes a slot the prefix reads:
    /// counted, not quiescent.
    Suffix,
    /// The guard has an `else`: counted, not quiescent.
    Else,
    /// The prefix reads a slot it writes later in the iteration:
    /// counted, not quiescent.
    CarriedPrefix,
    /// `k <= n` in the header: not counted.
    InclusiveBound,
}

impl LoopVariant {
    const ALL: [LoopVariant; 7] = [
        LoopVariant::Plain,
        LoopVariant::CounterInThen,
        LoopVariant::CounterInGuard,
        LoopVariant::Suffix,
        LoopVariant::Else,
        LoopVariant::CarriedPrefix,
        LoopVariant::InclusiveBound,
    ];

    /// The `(counted, quiescent-exit)` loop counts Tier-2 must report.
    fn expected(self) -> (usize, usize) {
        match self {
            LoopVariant::Plain | LoopVariant::CounterInThen => (1, 1),
            LoopVariant::InclusiveBound => (0, 0),
            _ => (1, 0),
        }
    }
}

/// Statistics of one counted-loop campaign.
#[derive(Debug, Clone, Default)]
pub struct TierLoopStats {
    /// Cases that compiled to their expected loop plan and agreed
    /// bitwise across the whole matrix.
    pub cases: u32,
    /// Loops compiled to run on a static trip count.
    pub counted_loops: u32,
    /// Counted loops that take the quiescent exit.
    pub quiescent_loops: u32,
    /// Near-miss cases (any variant that must not take the quiescent
    /// exit).
    pub near_misses: u32,
    /// Total output elements cross-checked.
    pub elements_checked: u64,
}

/// The `for` header of a loop of about `trips` iterations over `i`,
/// with a random start and stride (every case reads `i` after the
/// loop, so its final value is checked too).
fn loop_header(rng: &mut StdRng, variant: LoopVariant, trips: i64) -> String {
    let lo = rng.gen_range(-3i64..4);
    let step = rng.gen_range(1i64..4);
    let hi = lo + trips * step - rng.gen_range(0..step);
    let cmp = if variant == LoopVariant::InclusiveBound {
        "<="
    } else {
        "<"
    };
    let inc = if step == 1 {
        "i++".to_string()
    } else {
        format!("i += {step}")
    };
    format!("for (i = {lo}; i {cmp} {hi}; {inc})")
}

/// Generates counted-loop case `index` of `seed`: its kernel, inputs
/// and domain, plus the `(counted, quiescent-exit)` counts its Tier-2
/// plan must report.
pub(crate) fn gen_loop_case(seed: u64, index: u32) -> (FuzzCase, (usize, usize)) {
    let mut rng = StdRng::seed_from_u64(seed ^ (u64::from(index) << 32) ^ 0x100F);
    let shape = if index.is_multiple_of(2) {
        LoopShape::EscapeTime
    } else {
        LoopShape::BinarySearch
    };
    let variant = LoopVariant::ALL[rng.gen_range(0..LoopVariant::ALL.len())];
    let pool: &[&[usize]] = &[&[300], &[17, 19], &[2 * LANES + 5], &[259]];
    let domain_shape = pool[rng.gen_range(0..pool.len())].to_vec();
    let len: usize = domain_shape.iter().product();
    let data_seed = seed ^ u64::from(index).wrapping_mul(0x9E37_79B9);
    let counter_read = if variant == LoopVariant::CounterInThen {
        " + float(i) * 0.125"
    } else {
        ""
    };
    // The near misses relax their guard as the loop runs, so an
    // iteration no lane enters can be followed by one some lane does:
    // taking the quiescent exit there would change the result.
    let guard_counter = |relaxed: &'static str| {
        if variant == LoopVariant::CounterInGuard {
            relaxed
        } else {
            ""
        }
    };
    let (source, inputs, gather) = match shape {
        LoopShape::EscapeTime => {
            let trips = rng.gen_range(0i64..48);
            let header = loop_header(&mut rng, variant, trips);
            let radius = [4.0, 2.25, 9.0][rng.gen_range(0..3)];
            let (carried, carry) = if variant == LoopVariant::CarriedPrefix {
                (" - d", "\n        d = d + 0.0625;")
            } else {
                ("", "")
            };
            let els = if variant == LoopVariant::Else {
                " else { n = n + 0.5; }"
            } else {
                ""
            };
            let suffix = if variant == LoopVariant::Suffix {
                "\n        zi = zi * 0.75;"
            } else {
                ""
            };
            let guard = guard_counter(" - float(i) * 0.25");
            let source = format!(
                "kernel void k(float s0<>, float s1<>, out float o0<>) {{
    float cr = s0 * 0.625 - 0.5;
    float ci = s1 * 0.3125;
    float zr = 0.0;
    float zi = 0.0;
    float n = 0.0;
    float d = 0.0;
    int i;
    {header} {{
        float m = zr * zr + zi * zi{carried}{guard};{carry}
        if (m < {radius:?}) {{
            float t = zr * zr - zi * zi + cr;
            zi = 2.0 * zr * zi + ci;
            zr = t;
            n = n + 1.0{counter_read};
        }}{els}{suffix}
    }}
    o0 = n + zr * 0.001 + float(i) * 1000.0;
}}"
            );
            let inputs = vec![gen_values(data_seed, len), gen_values(data_seed + 1, len)];
            (source, inputs, None)
        }
        LoopShape::BinarySearch => {
            let table = rng.gen_range(1usize..200);
            let trips = rng.gen_range(0i64..12);
            let header = loop_header(&mut rng, variant, trips);
            let (carried, carry) = if variant == LoopVariant::CarriedPrefix {
                (" + d", "\n        d = d + 0.25;")
            } else {
                ("", "")
            };
            let els = if variant == LoopVariant::Else {
                " else { n = n + 1.0; }"
            } else {
                ""
            };
            let suffix = if variant == LoopVariant::Suffix {
                "\n        hi = hi + 0.5;"
            } else {
                ""
            };
            let guard = guard_counter(" + float(i) * 0.25 - 1.0");
            let source = format!(
                "kernel void k(float s0<>, float t[], out float o0<>) {{
    float lo = 0.0;
    float hi = {table}.0;
    float n = 0.0;
    float d = 0.0;
    int i;
    {header} {{
        bool open = lo < hi{carried}{guard};{carry}
        if (open) {{
            float mid = floor((lo + hi) * 0.5);
            float v = t[mid];
            if (v < s0) {{ lo = mid + 1.0; }} else {{ hi = mid; }}
            n = n + 1.0{counter_read};
        }}{els}{suffix}
    }}
    o0 = lo + n * 1000.0 + float(i) * 100000.0;
}}"
            );
            let mut sorted = gen_values(data_seed ^ 0x7AB1E, table);
            sorted.sort_by(f32::total_cmp);
            let gather = GatherData {
                shape: vec![table],
                data: sorted,
            };
            (source, vec![gen_values(data_seed, len)], Some(gather))
        }
    };
    // The data seed regenerates the inputs when the shrinker resizes
    // the domain.
    let case = FuzzCase {
        data_seed,
        ..FuzzCase::fixed(
            format!("loop_{seed:x}_{index}"),
            &source,
            domain_shape,
            inputs,
            gather,
        )
    };
    (case, variant.expected())
}

/// Runs `cases` generated counted-loop kernels through the tier
/// matrix. Even cases are escape-time loops and odd cases binary
/// searches over a sorted gather table; each takes a random trip count
/// (zero included), start and stride, and one [`LoopVariant`]: the
/// plain shape, the counter read inside the guarded branch, or a near
/// miss that must not take the quiescent exit or must not be counted
/// at all. Every case must compile to exactly its expected loop plan
/// and agree bitwise with the AST oracle on every spec, serial and
/// parallel. The cases come from their own stream seeded by `seed`, so
/// the other campaigns at the same seed keep theirs.
///
/// # Errors
/// The first case whose plan or results differ, annotated with the
/// case name and source (the seed and index regenerate it anywhere).
pub fn run_tier_loop_campaign(seed: u64, cases: u32) -> Result<TierLoopStats, String> {
    let mut stats = TierLoopStats::default();
    for index in 0..cases {
        let (case, want) = gen_loop_case(seed, index);
        let fail = |e: String| format!("loop case {} (seed {seed:#x}, index {index}): {e}", case.name);
        let mut tier = TierStats::default();
        let cpu = check_case(&case, &domain_inputs(&case), &mut tier).map_err(fail)?;
        let got = (cpu.counted_loops as usize, cpu.quiescent_loops as usize);
        if cpu.tier_compiled != 1 || got != want {
            return Err(fail(format!(
                "compiled to {got:?} (counted, quiescent-exit) loops on {} tier kernels, \
                 expected {want:?} on one\n{}",
                cpu.tier_compiled, case.source
            )));
        }
        stats.cases += 1;
        stats.counted_loops += got.0 as u32;
        stats.quiescent_loops += got.1 as u32;
        stats.near_misses += u32::from(want.1 == 0);
        stats.elements_checked += tier.elements_checked;
    }
    Ok(stats)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn matrix_interposes_the_lane_only_spec() {
        let names: Vec<_> = Matrix::cpu().specs.iter().map(|s| s.name).collect();
        let at = |n: &str| names.iter().position(|s| *s == n);
        assert_eq!(at("cpu-lanes"), at("cpu-scalar").map(|i| i + 1), "{names:?}");
        assert_eq!(at("cpu-simd-off"), at("cpu-lanes").map(|i| i + 1), "{names:?}");
        crate::differential::tests::check_rungs(&["cpu-scalar", "cpu-lanes", "cpu-simd-off"]);
    }

    /// Runs the rejected kernels the lane planner must admit (or not)
    /// across the CPU ladder and checks their decisions.
    pub(crate) fn check_rejected_set(lane_admitted: bool) {
        let cases: Vec<_> = rejected_cases()
            .into_iter()
            .filter(|(_, want)| (want.lane_vectorized == 1) == lane_admitted)
            .collect();
        assert_eq!(cases.len(), 2);
        for (case, want) in cases {
            let runs =
                crate::run_case(&case, &Matrix::cpu()).unwrap_or_else(|f| panic!("{f}\n{}", case.source));
            let cpu = runs.iter().find(|r| r.backend == "cpu").expect("cpu spec");
            assert_eq!(cpu.admissions, want, "{}", case.source);
        }
    }

    #[test]
    fn rejected_sources_lane_vectorize_but_tier_fall_back() {
        check_rejected_set(true);
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
    fn loop_axis_generates_every_shape_and_variant() {
        let mut seen = Vec::new();
        for index in 0..64 {
            let (case, want) = gen_loop_case(0x100F_5EED, index);
            assert!(case.domain_len() > 2 * LANES, "{:?}", case.domain_shape);
            assert_eq!(case.gather.is_some(), index % 2 == 1);
            seen.push(want);
        }
        for want in [(1, 1), (1, 0), (0, 0)] {
            assert!(seen.contains(&want), "no case expects {want:?}");
        }
        let stats = run_tier_loop_campaign(0x100F_5EED, 6).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(stats.cases, 6);
        assert!(stats.elements_checked > 0);
    }

    #[test]
    fn small_campaign_is_bit_exact() {
        let stats = crate::tests::small_campaign();
        let cpu = &stats.admissions["cpu"];
        assert!(cpu.tier_compiled > 0, "{stats:?}");
        assert!(
            cpu.tier_fallback >= TIER_REJECTED_SOURCES.len() as u32,
            "{stats:?}"
        );
        assert_eq!(stats.admissions["cpu-lanes"].tier_compiled, 0, "{stats:?}");
    }
}
