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
//! * [`differential`] — runs one case across the backend matrix
//!   (`cpu` reference, `cpu-parallel` bit-exact, `gles2-*` within
//!   storage tolerance);
//! * [`shrink`] — minimizes a diverging case by statement removal,
//!   control-flow flattening, loop-bound and shape reduction, each
//!   candidate revalidated through the real front-end and gate;
//! * [`repro`] — writes a self-contained bundle (`.br` source, inputs,
//!   per-backend outputs, README) under `target/fuzz-repros/`;
//! * [`run_campaign`] — the whole loop, plus the front-end round-trip
//!   check (print → reparse → print must be a fixed point) on every
//!   generated program.
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
pub mod lanes;
pub mod mutation;
pub mod optdiff;
pub mod repro;
pub mod shrink;
pub mod simd;
pub mod tier;

pub use absint::{run_absint_campaign, AbsintStats};
pub use chain::{gen_chain, run_chain_campaign, run_chain_case, ChainCase, ChainConfig, ChainStats};
pub use concurrent::{run_concurrent_campaign, ConcurrentStats};
pub use depth::{gen_depth_case, run_depth_campaign, DepthCase, DepthStats};
pub use differential::{compare, run_case, BackendOutput, CaseFailure, Divergence, Matrix};
pub use faults::{run_faults_campaign, FaultCaseFailure, FaultsConfig, FaultsStats};
pub use gen::{gen_case, gen_noncompliant, FuzzCase, GenConfig};
pub use lanes::{lanes_matrix, run_lanes_campaign, LanesStats};
pub use mutation::SaboteurBackend;
pub use optdiff::{opt_matrix, run_optdiff_campaign, OptDiffStats};
pub use repro::{repro_root, write_repro};
pub use shrink::shrink;
pub use simd::{run_simd_campaign, simd_matrix, SimdStats};
pub use tier::{
    run_tier_campaign, run_tier_loop_campaign, run_tier_shape_campaign, tier_matrix, TierLoopStats, TierStats,
};

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
        if let Err(failure) = run_case(&case, matrix) {
            // Minimize while the failure reproduces, then bundle it.
            let minimized = shrink(&case, |cand| run_case(cand, matrix).is_err());
            let failure = run_case(&minimized, matrix).err().unwrap_or(failure);
            let outputs = differential::collect_backend_outputs(&minimized, matrix);
            let repro = write_repro(&minimized, &failure, &outputs, cfg.seed).ok();
            return Err(CampaignFailure::CaseFailed {
                minimized: Box::new(minimized),
                original: Box::new(case),
                failure,
                repro,
            });
        }
        stats.positive_cases += 1;
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
mod tests {
    use super::*;

    #[test]
    fn small_campaign_passes() {
        let stats = run_campaign(&FuzzConfig {
            cases: 8,
            negative_cases: 8,
            ..FuzzConfig::default()
        })
        .unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(stats.positive_cases, 8);
        assert_eq!(stats.negative_cases, 8);
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
