//! # brook-fuzz — generative differential fuzzing for the Brook Auto toolchain
//!
//! PR 1 hardened the paper's "one certified source, many substrates,
//! equal results" claim for the eleven fixed workloads; this crate turns
//! the differential matrix into a *generator*: thousands of random
//! well-typed Brook Auto kernels driven through the full pipeline —
//! front-end, certification gate, GLSL codegen — on **every** registered
//! backend, with results cross-checked against the serial CPU reference.
//!
//! The moving parts:
//!
//! * [`gen`] — seeded, deterministic AST-level generation
//!   ([`gen::gen_case`] stays inside the certifiable subset and keeps
//!   magnitudes bounded; [`gen::gen_noncompliant`] steps outside it by
//!   exactly one rule so the gate's rejection can be asserted);
//! * [`differential`] — runs one case across the backend matrix: the
//!   CPU engine ladder ([`differential::cpu_ladder`]: the `cpu-ast`
//!   reference, then one spec per engine configuration from the
//!   unoptimized IR to parallel SIMD, all bit-exact) and every
//!   registered device backend (`gles2-*`, within storage tolerance),
//!   recording each spec's planner [`Admissions`];
//! * [`shrink`] — minimizes a diverging case by statement removal,
//!   control-flow flattening, loop-bound and shape reduction, each
//!   candidate revalidated through the real front-end and gate;
//! * [`repro`] — writes a self-contained bundle (`.br` source, inputs,
//!   per-backend outputs, README) under `target/fuzz-repros/`;
//! * [`run_campaign`] — the whole loop, plus the front-end round-trip
//!   check (print → reparse → print must be a fixed point) on every
//!   generated program and the fixed planner-rejected set
//!   ([`tier::LANE_REJECTED_SOURCES`], [`tier::TIER_REJECTED_SOURCES`])
//!   with its admission decisions checked.
//!
//! The other modules are campaigns over inputs the main loop does not
//! generate. [`tier`]'s input shapes and counted loops, [`simd`]'s
//! special floats and reduces and [`chain`]'s fused pipelines run on the
//! same ladder; [`absint`], [`concurrent`], [`depth`] and [`faults`]
//! check clamp elision, shared artifacts, front-end depth limits and
//! fault recovery. `tests/builtin_edges.rs` runs every builtin on IEEE
//! edge values across the matrix.
//!
//! Determinism: a campaign is a pure function of its [`FuzzConfig`]; CI
//! runs a fixed seed, and a failure report names the seed so the exact
//! case regenerates anywhere.
//!
//! ```
//! use brook_fuzz::{run_campaign, FuzzConfig};
//! let stats = run_campaign(&FuzzConfig {
//!     cases: 4,
//!     negative_cases: 4,
//!     ..FuzzConfig::default()
//! })
//! .expect("backends agree");
//! assert_eq!(stats.positive_cases, 4);
//! assert!(stats.rejected_by_rule.len() >= 1);
//! ```

pub mod absint;
pub mod chain;
pub mod concurrent;
pub mod depth;
pub mod differential;
pub mod faults;
pub mod gen;
pub mod mutation;
pub mod repro;
pub mod shrink;
pub mod simd;
pub mod tier;

pub use absint::{run_absint_campaign, AbsintStats};
pub use chain::{gen_chain, run_chain_campaign, run_chain_case, ChainCase, ChainConfig, ChainStats};
pub use concurrent::{run_concurrent_campaign, ConcurrentStats};
pub use depth::{gen_depth_case, run_depth_campaign, DepthCase, DepthStats};
pub use differential::{
    compare, cpu_ladder, run_case, Admissions, BackendOutput, CaseFailure, Divergence, Matrix,
};
pub use faults::{run_faults_campaign, FaultCaseFailure, FaultsConfig, FaultsStats};
pub use gen::{gen_case, gen_noncompliant, FuzzCase, GenConfig};
pub use mutation::SaboteurBackend;
pub use repro::{repro_root, write_repro};
pub use shrink::shrink;
pub use simd::{run_simd_campaign, SimdStats};
pub use tier::{run_tier_loop_campaign, run_tier_shape_campaign, TierLoopStats, TierStats};

use brook_auto::BrookError;
use brook_cert::{certify, violates, CertConfig, RuleId};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// A whole campaign's configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Campaign seed; every case derives deterministically from it.
    pub seed: u64,
    /// Number of in-subset differential cases.
    pub cases: u32,
    /// Number of deliberately non-compliant gate-check cases.
    pub negative_cases: u32,
    /// Generator tuning.
    pub gen: GenConfig,
    /// Relative tolerance for device backends.
    pub tolerance: f32,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0xB400_A070,
            cases: 256,
            negative_cases: 64,
            gen: GenConfig::default(),
            tolerance: 1e-3,
        }
    }
}

/// Campaign summary on success.
#[derive(Debug, Clone, Default)]
pub struct CampaignStats {
    /// Differential cases generated, validated and cross-checked.
    pub positive_cases: u32,
    /// Planner-rejected kernels cross-checked with their admission
    /// decisions confirmed.
    pub fixed_cases: u32,
    /// Admission decisions summed over every cross-checked case, per
    /// spec.
    pub admissions: BTreeMap<&'static str, Admissions>,
    /// Output elements cross-checked against the reference.
    pub elements_checked: u64,
    /// Non-compliant cases correctly rejected by the gate.
    pub negative_cases: u32,
    /// Gate rejections grouped by the violated rule.
    pub rejected_by_rule: BTreeMap<RuleId, u32>,
}

/// Why a campaign stopped.
#[derive(Debug)]
pub enum CampaignFailure {
    /// A backend diverged (or refused a case the others accepted). The
    /// embedded case is already minimized; `original` is the case as
    /// generated.
    CaseFailed {
        /// Minimized failing case.
        minimized: Box<FuzzCase>,
        /// The case as generated.
        original: Box<FuzzCase>,
        /// The failure observed on the minimized case.
        failure: CaseFailure,
        /// Repro bundle location, when writing it succeeded.
        repro: Option<PathBuf>,
    },
    /// A generated program failed the front-end round trip — a bug in
    /// the generator, printer, lexer or parser.
    RoundTrip {
        /// Offending case.
        case: Box<FuzzCase>,
        /// What went wrong.
        message: String,
    },
    /// A planner-rejected kernel got another admission decision than
    /// the one it was built for.
    Admission {
        /// The program source.
        source: String,
        /// The decision that differs.
        message: String,
    },
    /// A deliberately non-compliant program slipped through the gate.
    GateEscape {
        /// The program source.
        source: String,
        /// The rule that should have been violated.
        expected_rule: RuleId,
    },
    /// A deliberately non-compliant program failed the *front-end*
    /// instead of reaching the gate — a generator bug: negative cases
    /// must be well-typed so the certification engine is what rejects
    /// them.
    NegativeFrontEnd {
        /// The program source.
        source: String,
        /// The rule the case was built to violate.
        expected_rule: RuleId,
        /// The front-end error.
        message: String,
    },
}

impl std::fmt::Display for CampaignFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignFailure::CaseFailed {
                minimized,
                failure,
                repro,
                ..
            } => {
                write!(
                    f,
                    "case `{}` failed: {failure}\nminimized kernel:\n{}",
                    minimized.name, minimized.source
                )?;
                if let Some(p) = repro {
                    write!(f, "\nrepro bundle: {}", p.display())?;
                }
                Ok(())
            }
            CampaignFailure::RoundTrip { case, message } => {
                write!(
                    f,
                    "front-end round trip failed for `{}`: {message}\n{}",
                    case.name, case.source
                )
            }
            CampaignFailure::Admission { source, message } => {
                write!(f, "planner-rejected kernel: {message}\n{source}")
            }
            CampaignFailure::GateEscape {
                source,
                expected_rule,
            } => {
                write!(
                    f,
                    "gate escape: expected a {expected_rule} violation, got compliance:\n{source}"
                )
            }
            CampaignFailure::NegativeFrontEnd {
                source,
                expected_rule,
                message,
            } => {
                write!(
                    f,
                    "negative case (built to violate {expected_rule}) failed the front-end \
                     instead of the gate: {message}\n{source}"
                )
            }
        }
    }
}

/// Checks the front-end on one generated case: the canonical source must
/// reparse, re-print to the same string (printer fixed point), and
/// type-check.
fn check_roundtrip(case: &FuzzCase) -> Result<(), String> {
    let reparsed = brook_lang::parse(&case.source).map_err(|e| format!("reparse failed: {e}"))?;
    let printed = brook_lang::pretty::print_program(&reparsed);
    if printed != case.source {
        return Err("pretty-printer is not a fixed point over parse".into());
    }
    brook_lang::check(reparsed).map_err(|e| format!("type check failed: {e}"))?;
    Ok(())
}

/// Runs `case` across `matrix` and adds each spec's admissions to
/// `stats`; a failing case is minimized and bundled.
fn check_case(
    case: FuzzCase,
    matrix: &Matrix,
    seed: u64,
    stats: &mut CampaignStats,
) -> Result<Vec<BackendOutput>, CampaignFailure> {
    match run_case(&case, matrix) {
        Ok(runs) => {
            for run in &runs {
                stats
                    .admissions
                    .entry(run.backend)
                    .or_default()
                    .add(&run.admissions);
            }
            stats.elements_checked += runs[0].outputs.iter().map(|o| o.len() as u64).sum::<u64>();
            Ok(runs)
        }
        Err(failure) => {
            // Minimize while the failure reproduces, then bundle it.
            let minimized = shrink(&case, |cand| run_case(cand, matrix).is_err());
            let failure = run_case(&minimized, matrix).err().unwrap_or(failure);
            let outputs = differential::collect_backend_outputs(&minimized, matrix);
            let repro = write_repro(&minimized, &failure, &outputs, seed).ok();
            Err(CampaignFailure::CaseFailed {
                minimized: Box::new(minimized),
                original: Box::new(case),
                failure,
                repro,
            })
        }
    }
}

/// Runs a full campaign on the default backend matrix.
///
/// # Errors
/// The first divergence (minimized, with a repro bundle), round-trip
/// failure or gate escape.
pub fn run_campaign(cfg: &FuzzConfig) -> Result<CampaignStats, CampaignFailure> {
    run_campaign_on(
        cfg,
        &Matrix {
            tolerance: cfg.tolerance,
            ..Matrix::default()
        },
    )
}

/// [`run_campaign`] against an explicit backend matrix — the hook the
/// mutation self-test uses to inject a sabotaged backend.
///
/// # Errors
/// As [`run_campaign`].
pub fn run_campaign_on(cfg: &FuzzConfig, matrix: &Matrix) -> Result<CampaignStats, CampaignFailure> {
    let mut stats = CampaignStats::default();
    let cert_cfg = CertConfig::default();

    for i in 0..cfg.cases {
        let case = gen_case(cfg.seed, i, &cfg.gen);
        if let Err(message) = check_roundtrip(&case) {
            return Err(CampaignFailure::RoundTrip {
                case: Box::new(case),
                message,
            });
        }
        check_case(case, matrix, cfg.seed, &mut stats)?;
        stats.positive_cases += 1;
    }

    // The fixed planner-rejected set: every fallback path runs, agrees
    // and is taken for the reason it was built for.
    for (case, want) in tier::rejected_cases() {
        let source = case.source.clone();
        let runs = check_case(case, matrix, cfg.seed, &mut stats)?;
        if let Some(cpu) = runs.iter().find(|r| r.backend == "cpu" && r.admissions != want) {
            let message = format!("planner decisions {:?}, built for {want:?}", cpu.admissions);
            return Err(CampaignFailure::Admission { source, message });
        }
        stats.fixed_cases += 1;
    }

    for i in 0..cfg.negative_cases {
        let (_, source, rule) = gen_noncompliant(cfg.seed, i, &cert_cfg);
        let checked = match brook_lang::parse_and_check(&source) {
            Ok(checked) => checked,
            Err(e) => {
                return Err(CampaignFailure::NegativeFrontEnd {
                    source,
                    expected_rule: rule,
                    message: e.to_string(),
                });
            }
        };
        let report = certify(&checked, &cert_cfg);
        if !violates(&report, rule) {
            return Err(CampaignFailure::GateEscape {
                source,
                expected_rule: rule,
            });
        }
        // The runtime gate must refuse it too.
        let mut ctx = brook_auto::BrookContext::cpu();
        match ctx.compile(&source) {
            Err(BrookError::Certification(_)) => {}
            other => {
                return Err(CampaignFailure::GateEscape {
                    source: format!(
                        "{source}\n(compile returned {:?} instead of a certification error)",
                        other.map(|_| "Ok")
                    ),
                    expected_rule: rule,
                });
            }
        }
        stats.negative_cases += 1;
        *stats.rejected_by_rule.entry(rule).or_insert(0) += 1;
    }

    Ok(stats)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One small campaign on the default matrix, shared by the tests
    /// that check its rungs.
    pub(crate) fn small_campaign() -> &'static CampaignStats {
        static STATS: OnceLock<CampaignStats> = OnceLock::new();
        STATS.get_or_init(|| {
            run_campaign(&FuzzConfig {
                cases: 8,
                negative_cases: 8,
                ..FuzzConfig::default()
            })
            .unwrap_or_else(|f| panic!("{f}"))
        })
    }

    #[test]
    fn small_campaign_passes() {
        let stats = small_campaign();
        assert_eq!(stats.positive_cases, 8);
        assert_eq!(stats.fixed_cases, 4);
        assert_eq!(stats.negative_cases, 8);
        assert_eq!(stats.admissions.len(), Matrix::default().specs.len());
    }

    #[test]
    fn campaign_stats_cover_multiple_rules() {
        let stats = run_campaign(&FuzzConfig {
            cases: 0,
            negative_cases: 32,
            ..FuzzConfig::default()
        })
        .unwrap_or_else(|f| panic!("{f}"));
        assert!(
            stats.rejected_by_rule.len() >= 3,
            "expected variety, got {:?}",
            stats.rejected_by_rule
        );
    }
}

/// The lane and optimizer differential modes are rungs of the ladder;
/// their checks keep their test paths.
#[cfg(test)]
mod lanes {
    mod tests {
        #[test]
        fn matrix_leads_with_the_ast_oracle() {
            crate::differential::tests::check_rungs(&["cpu-ast", "cpu-scalar", "cpu-lanes"]);
        }

        #[test]
        fn rejected_sources_certify_but_fall_back() {
            crate::tier::tests::check_rejected_set(false);
        }

        #[test]
        fn small_campaign_is_bit_exact() {
            let stats = crate::tests::small_campaign();
            let cpu = &stats.admissions["cpu"];
            assert!(cpu.lane_vectorized > 0 && cpu.lane_fallback >= 2, "{stats:?}");
            assert_eq!(stats.admissions["cpu-scalar"], Default::default(), "{stats:?}");
        }
    }
}

#[cfg(test)]
mod optdiff {
    mod tests {
        #[test]
        fn matrix_leads_with_the_ast_oracle() {
            crate::differential::tests::check_rungs(&["cpu-ast", "cpu-noopt"]);
        }

        #[test]
        fn small_campaign_is_bit_exact() {
            let stats = crate::tests::small_campaign();
            assert!(stats.admissions["cpu-noopt"].tier_compiled > 0, "{stats:?}");
        }
    }
}
