//! The fuzz smoke suite CI runs on every PR: a fixed-seed differential
//! campaign across the CPU engine ladder and every device backend,
//! gate-escape checks, and the mutation self-test proving the harness
//! actually catches bugs.

use brook_fuzz::{
    gen_case, run_campaign, run_campaign_on, Admissions, CampaignFailure, CampaignStats, FuzzConfig,
    GenConfig, Matrix, SaboteurBackend,
};
use std::sync::OnceLock;

/// The pinned CI seed. Changing it invalidates triage links in old CI
/// logs, so bump it deliberately, not incidentally.
const CI_SEED: u64 = 0xB400_A070;

/// The main campaign: ≥256 generated programs through the whole matrix
/// — the CPU engine ladder from the `cpu-ast` reference (the AST tree
/// walker, which never touches BrookIR) through the unoptimized IR, the
/// scalar interpreter, the lane engine and Tier-2 with SIMD off, SSE2
/// and auto, serial and parallel, all bitwise, plus every device backend
/// within storage tolerance — and the fixed planner-rejected set. Run
/// once and read by every test that checks one of its rungs.
fn main_campaign() -> &'static CampaignStats {
    static STATS: OnceLock<CampaignStats> = OnceLock::new();
    STATS.get_or_init(|| {
        let cfg = FuzzConfig {
            seed: CI_SEED,
            cases: 256,
            negative_cases: 64,
            ..FuzzConfig::default()
        };
        run_campaign(&cfg).unwrap_or_else(|f| panic!("campaign failed:\n{f}"))
    })
}

/// The acceptance bar for the differential pipeline: the main campaign
/// passes with zero divergence and zero gate escapes, every spec ran,
/// and the fixed planner-rejected kernels were each taken by the
/// fallback they were built for. Optimization, lane batching, closure
/// threading and SIMD must be invisible in results, element for
/// element, bit for bit, and the fallback paths must run.
#[test]
fn campaign_256_cases_across_all_backends() {
    let stats = main_campaign();
    assert_eq!(stats.positive_cases, 256);
    assert_eq!(stats.fixed_cases, 4);
    assert_eq!(stats.negative_cases, 64);
    assert!(
        stats.rejected_by_rule.len() >= 4,
        "negative generation should exercise several rules, got {:?}",
        stats.rejected_by_rule
    );
    let specs: Vec<&str> = Matrix::default().specs.iter().map(|s| s.name).collect();
    assert_eq!(
        specs.iter().filter(|s| s.starts_with("cpu")).count(),
        9,
        "{specs:?}"
    );
    assert_eq!(stats.admissions.len(), specs.len(), "every spec ran: {specs:?}");
    assert_eq!(
        stats.admissions["cpu-ast"],
        Admissions::default(),
        "the AST walker runs no engine, so its report admits none"
    );
    let cpu = &stats.admissions["cpu"];
    assert!(
        cpu.lane_vectorized >= 171,
        "the campaign must mostly exercise the lane engine: {cpu:?}"
    );
    assert!(
        cpu.tier_compiled >= 171,
        "the campaign must mostly exercise Tier-2: {cpu:?}"
    );
    assert!(cpu.lane_fallback >= 2, "the scalar fallback must run: {cpu:?}");
    assert!(
        cpu.tier_fallback >= 2,
        "the lane-engine fallback must run: {cpu:?}"
    );
    assert!(
        stats.elements_checked > 4_000,
        "campaign too small to mean anything: {} elements",
        stats.elements_checked
    );
}

/// The optimizer link of the main campaign, whose first 96 cases are
/// this check's kernels: the unoptimized flat IR (`cpu-noopt`) ran
/// most kernels through Tier-2, bitwise against the AST reference, as
/// the fully optimized pipeline (`cpu`) did. Optimization must be
/// invisible in results.
#[test]
fn optdiff_campaign_96_cases_bitwise_vs_ast_oracle() {
    let stats = main_campaign();
    let noopt = &stats.admissions["cpu-noopt"];
    assert!(
        noopt.tier_compiled >= 171,
        "the unoptimized IR must mostly reach Tier-2: {noopt:?}"
    );
}

/// The lane link of the main campaign, whose first 96 cases are this
/// check's kernels: the scalar flat-IR interpreter (`cpu-scalar`) ran
/// with no planner at all, and the lane engine with Tier-2 off
/// (`cpu-lanes`) vectorized most kernels and took the lane-rejected
/// ones by the scalar fallback — both bitwise against the AST
/// reference.
#[test]
fn lanes_campaign_96_cases_bitwise_vs_scalar_and_ast() {
    let stats = main_campaign();
    assert_eq!(stats.admissions["cpu-scalar"], Default::default(), "{stats:?}");
    let lanes = &stats.admissions["cpu-lanes"];
    assert!(
        lanes.lane_vectorized >= 171,
        "the campaign must mostly exercise the lane engine: {lanes:?}"
    );
    assert!(
        lanes.lane_fallback >= 2,
        "the scalar fallback must run: {lanes:?}"
    );
    assert_eq!(lanes.tier_compiled + lanes.tier_fallback, 0, "{lanes:?}");
}

/// The Tier-2 link of the main campaign, whose first 96 cases are this
/// check's kernels: the closure chains, serial (`cpu`) and inside the
/// parallel backend's workers (`cpu-parallel`), compiled most kernels
/// and took the tier-rejected ones by the lane-engine fallback — all
/// bitwise against the lane engine, the scalar interpreter and the AST
/// reference.
#[test]
fn tier_campaign_96_cases_bitwise_vs_lanes_scalar_and_ast() {
    let stats = main_campaign();
    for rung in ["cpu", "cpu-parallel"] {
        let tier = &stats.admissions[rung];
        assert!(
            tier.tier_compiled >= 171,
            "the campaign must mostly exercise Tier-2 on {rung}: {tier:?}"
        );
        assert!(
            tier.tier_fallback >= 2,
            "the lane-engine fallback must run on {rung}: {tier:?}"
        );
    }
}

/// The tier mode's input-shape axis: 128 generated kernels re-bound to
/// inputs shorter or longer than their domain (1-D, clamped), 1-D on
/// 2-D domains, 2-D resampled to another shape, over domains that on
/// half the cases span at least two full lane blocks and a partial
/// tail — bitwise on every rung of the CPU ladder against the `cpu-ast`
/// reference. Its own seed, so the main campaign keeps its cases.
#[test]
fn tier_shape_campaign_128_cases_bitwise() {
    const SHAPE_SEED: u64 = 0x5A9E_B10C;
    let stats = brook_fuzz::run_tier_shape_campaign(SHAPE_SEED, 128, &brook_fuzz::GenConfig::default())
        .unwrap_or_else(|e| panic!("tier shape campaign failed:\n{e}"));
    assert_eq!(stats.cases, 128, "{stats:?}");
    assert!(
        stats.tier_kernels >= 96,
        "the campaign must mostly exercise Tier-2: {stats:?}"
    );
    assert!(
        stats.elements_checked > 4_000,
        "campaign too small to mean anything: {} elements",
        stats.elements_checked
    );
}

/// The tier mode's counted-loop axis: 64 generated guarded fixed-bound
/// loops — escape-time iterations and binary searches over a sorted
/// gather table, with random trip counts (zero included), starts and
/// strides — plus near-miss variants (the counter in the guard, a
/// suffix or an `else` after the guard, a loop-carried prefix, an
/// inclusive bound). Each must compile to exactly its expected Tier-2
/// loop plan and agree bitwise on every rung of the CPU ladder against
/// the `cpu-ast` reference. Its own seed, so the other campaigns keep
/// their cases.
#[test]
fn tier_loop_campaign_64_cases_bitwise() {
    const LOOP_SEED: u64 = 0x100F_C0DE;
    let stats = brook_fuzz::run_tier_loop_campaign(LOOP_SEED, 64)
        .unwrap_or_else(|e| panic!("tier loop campaign failed:\n{e}"));
    assert_eq!(stats.cases, 64, "{stats:?}");
    assert!(
        stats.quiescent_loops >= 16,
        "too few quiescent-exit loops: {stats:?}"
    );
    assert!(stats.near_misses >= 16, "too few near misses: {stats:?}");
    assert!(
        stats.elements_checked > 10_000,
        "campaign too small to mean anything: {} elements",
        stats.elements_checked
    );
}

/// 48 generated kernels, each run twice per registered backend — clamp
/// elision on (the default) and off — with **bitwise** agreement
/// required between the two runs on every backend, device included.
/// Plus the fixed provably-faulty set (negative constant / folded /
/// loop-range gather indices, zero denominators), which certification
/// must hard-reject with BA013/BA014 findings anchored to the faulting
/// source line. This is the acceptance bar for the abstract
/// interpreter: a wrong bounds proof shows up as an elision-on vs
/// elision-off bit difference, a missed provable fault as an accepted
/// fault case, a lost span as a mis-anchored finding.
#[test]
fn absint_campaign_48_cases_elision_bitwise_and_faults_rejected() {
    let stats = brook_fuzz::run_absint_campaign(CI_SEED, 48, &brook_fuzz::GenConfig::default())
        .unwrap_or_else(|e| panic!("absint campaign failed:\n{e}"));
    assert_eq!(stats.cases, 48);
    assert!(
        stats.gather_cases >= 8,
        "the campaign must exercise gathers: {stats:?}"
    );
    assert!(
        stats.proven_gathers >= 1,
        "the campaign must exercise clamp elision, not just vacuous agreement: {stats:?}"
    );
    assert!(stats.rejected_faults >= 5, "{stats:?}");
    assert!(
        stats.elements_checked > 1_000,
        "campaign too small to mean anything: {} elements",
        stats.elements_checked
    );
}

/// 128 generated kernels through the `frontend-depth` mode: the five
/// nesting forms mixed at random depths around `MAX_EXPR_DEPTH` and
/// `MAX_STMT_DEPTH`, each compiled on a thread with the default 2 MiB
/// stack. Every verdict must be the one the generated depths predict —
/// a module within both limits, P012 past the statement limit, P011
/// past the expression limit — and a stack overflow aborts the run.
/// This is the acceptance bar for compiling on the caller's stack.
#[test]
fn frontend_depth_campaign_128_cases_within_the_limits_or_diagnosed() {
    let stats = brook_fuzz::run_depth_campaign(CI_SEED, 128).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(stats.cases, 128);
    assert!(stats.accepted >= 32, "{stats:?}");
    assert!(stats.rejected_expr >= 16, "{stats:?}");
    assert!(stats.rejected_stmt >= 16, "{stats:?}");
    assert!(stats.at_limit >= 8, "{stats:?}");
}

/// 128 random 2–5 kernel pipelines, each run eagerly and through the
/// deferred fusing graph executor on the whole matrix: zero divergence
/// against the eager `cpu-ast` reference (bit-exact on every CPU rung),
/// every chain actually collapsed by the planner, every fused kernel
/// re-certified through the real gate (fusion silently skipping the gate
/// would show up as a `NotFused` failure on restricted contexts; fusion
/// miscompiling shows up as a divergence).
#[test]
fn chain_campaign_128_cases_eager_vs_fused() {
    let stats = brook_fuzz::run_chain_campaign(CI_SEED, 128, &brook_fuzz::ChainConfig::default())
        .unwrap_or_else(|f| panic!("chain campaign failed:\n{f}"));
    assert_eq!(stats.cases, 128);
    assert_eq!(
        stats.executed_passes, stats.cases as usize,
        "every chain must collapse to a single pass"
    );
    assert_eq!(stats.eager_passes, stats.stages);
    assert_eq!(stats.elided_streams, stats.stages - stats.cases as usize);
    assert!(
        stats.eager_passes as f64 >= 1.3 * stats.executed_passes as f64,
        "the campaign must demonstrate ≥30% pass reduction, got {} → {}",
        stats.eager_passes,
        stats.executed_passes
    );
}

/// The campaign is a pure function of the seed: two runs generate the
/// same programs (cheap proxy: the generated sources are identical).
#[test]
fn campaign_generation_is_deterministic() {
    let gen_cfg = GenConfig::default();
    for i in 0..32 {
        let a = gen_case(CI_SEED, i, &gen_cfg);
        let b = gen_case(CI_SEED, i, &gen_cfg);
        assert_eq!(a.source, b.source, "case {i} not deterministic");
        assert_eq!(a.inputs, b.inputs, "case {i} data not deterministic");
    }
}

/// Mutation self-test: inject a sabotaged backend (one output element
/// corrupted per dispatch, wired in through the public
/// `BackendExecutor` trait) and require the campaign to catch it, shrink
/// the case, and leave a repro bundle behind.
#[test]
fn injected_backend_bug_is_caught_minimized_and_bundled() {
    let mut matrix = Matrix::default();
    matrix.specs.push(brook_auto::BackendSpec {
        name: "cpu-sabotaged",
        make: SaboteurBackend::context,
    });
    let cfg = FuzzConfig {
        seed: CI_SEED ^ 0xDEAD,
        cases: 8, // the very first dispatch already trips the bug
        negative_cases: 0,
        ..FuzzConfig::default()
    };
    let failure = run_campaign_on(&cfg, &matrix).expect_err("sabotage must be detected");
    match failure {
        CampaignFailure::CaseFailed {
            minimized,
            original,
            failure,
            repro,
        } => {
            let text = failure.to_string();
            assert!(
                text.contains("cpu-sabotaged"),
                "failure must name the buggy backend: {text}"
            );
            assert!(
                minimized.stmt_count() <= original.stmt_count(),
                "shrinking must not grow the case"
            );
            assert!(
                minimized.domain_len() <= original.domain_len(),
                "shrinking must not grow the domain"
            );
            // The corruption hits element 0 regardless of program shape,
            // so the minimal domain is a single element.
            assert_eq!(minimized.domain_len(), 1, "{}", minimized.source);
            let dir = repro.expect("repro bundle must be written");
            assert!(dir.join("program.br").is_file());
            assert!(dir.join("inputs.txt").is_file());
            assert!(dir.join("README.md").is_file());
            assert!(
                dir.join("output-cpu.txt").is_file(),
                "reference outputs belong in the bundle"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
        other => panic!("expected CaseFailed, got: {other}"),
    }
}

/// 96 generated kernels with special-float-biased data (NaN, signed
/// zeros, subnormals) through the CPU ladder — every engine tier with
/// SIMD forced off, forced to SSE2, and auto-detected, bitwise against
/// the AST reference — plus each device backend run as an off/auto
/// pair, plus the fixed
/// reduce set (one provably reassociation-safe combine that must be
/// admitted to the vectorized reduce, two that must fall back to the
/// serial scalar fold, all bit-compared). This is the acceptance bar
/// for the `std::arch` layer: vector instructions must be invisible
/// in results, bit for bit, exactly where their edge-case semantics
/// could differ from the scalar loops.
#[test]
fn simd_campaign_96_cases_bitwise_on_special_floats() {
    let stats = brook_fuzz::run_simd_campaign(CI_SEED, 96, &brook_fuzz::GenConfig::default())
        .unwrap_or_else(|e| panic!("simd campaign failed:\n{e}"));
    assert_eq!(
        stats.cases,
        96 + 1 + brook_fuzz::simd::SIMD_REDUCE_REJECTED.len() as u32,
        "{stats:?}"
    );
    if brook_ir::simd::auto() != brook_ir::simd::SimdLevel::Scalar {
        assert!(
            stats.simd_kernels >= 48,
            "the campaign must mostly exercise the SIMD block steps: {stats:?}"
        );
        assert_eq!(stats.admitted_reduces, 1, "{stats:?}");
    }
    assert_eq!(
        stats.rejected_reduces,
        brook_fuzz::simd::SIMD_REDUCE_REJECTED.len() as u32,
        "{stats:?}"
    );
    assert!(
        stats.elements_checked > 1_000,
        "campaign too small to mean anything: {} elements",
        stats.elements_checked
    );
}

/// A campaign against the real backends with a *different* seed than CI
/// still passes — i.e. the smoke seed is not a lucky one. Kept small so
/// the suite stays fast.
#[test]
fn alternate_seed_spot_check() {
    let cfg = FuzzConfig {
        seed: 0x5EED_0002,
        cases: 24,
        negative_cases: 16,
        ..FuzzConfig::default()
    };
    let stats = run_campaign(&cfg).unwrap_or_else(|f| panic!("campaign failed:\n{f}"));
    assert_eq!(stats.positive_cases, 24);
}

/// 48 generated kernels each executed by 6 racing contexts (cycling the
/// CPU-family backends) that adopt one shared cached artifact — bitwise
/// against the serial reference, with exact cache accounting. This is
/// the acceptance bar for multi-tenant artifact sharing: the compiled-
/// module cache must be semantically invisible under real concurrency.
#[test]
fn concurrent_campaign_48_cases_shared_cache_bitwise() {
    let stats = brook_fuzz::run_concurrent_campaign(CI_SEED, 48, 6, &brook_fuzz::GenConfig::default())
        .unwrap_or_else(|e| panic!("concurrent campaign failed:\n{e}"));
    assert_eq!(stats.cases, 48);
    assert_eq!(stats.cache_misses, 48, "one compile per case");
    assert_eq!(
        stats.cache_hits,
        48 * 6,
        "every racing context must hit the cache"
    );
    assert!(
        stats.elements_checked > 1_000,
        "campaign too small to mean anything: {} elements",
        stats.elements_checked
    );
}

mod roundtrip_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Property form of the front-end round trip: for arbitrary
        /// seeds (not just the CI seed), generated programs reparse and
        /// re-print to the same canonical source.
        #[test]
        fn print_parse_fixed_point(seed in 0u64..1_000_000, index in 0u32..8) {
            let case = gen_case(seed, index, &GenConfig::default());
            let reparsed = brook_lang::parse(&case.source).expect("reparse");
            let printed = brook_lang::pretty::print_program(&reparsed);
            prop_assert_eq!(printed, case.source);
        }
    }
}

#[test]
fn fault_campaign_three_apps_recover_bit_exact() {
    // The trimmed fault matrix: 3 apps × 4 backends × 1 random plan
    // each, recovery asserted bit-exact against the fault-free run of
    // the same backend (CI runs the full 11-app matrix via the
    // `faults_smoke` example under a hard job timeout). Fixed seed:
    // the exact schedules reproduce anywhere.
    let stats = brook_fuzz::run_faults_campaign(&brook_fuzz::FaultsConfig {
        apps: vec!["black_scholes", "spmv", "image_filter"],
        ..brook_fuzz::FaultsConfig::default()
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(stats.cases, 12, "3 apps × 4 backends");
    assert_eq!(stats.per_backend.len(), 4);
    assert!(stats.injected_faults > 0, "plans must actually inject: {stats:?}");
}
