//! Abstract-interpretation differential mode.
//!
//! The value-range analyzer (`brook_cert::absint`) makes two promises
//! this mode turns into campaign-level assertions:
//!
//! 1. **Elision is invisible.** Dropping the clamp on a proven-in-bounds
//!    gather must not change a single output bit. Every generated case
//!    runs twice per registered backend — `clamp_elision` on (the
//!    default) and off — and the two runs must agree **bit-for-bit** on
//!    every backend, device included: both runs use the same engine, so
//!    any difference is the elided clamp mattering, i.e. a wrong proof.
//! 2. **Provable faults are compile-time errors.** A fixed set of
//!    kernels whose gather index or denominator the analyzer can fold
//!    to a definite fault must be hard-rejected by certification
//!    (BA013/BA014), with the finding anchored to the faulting source
//!    line.
//!
//! The generator is biased toward boundary indices (see
//! `gen::gen_case`'s gather arm), so elision-eligible gathers at the
//! very edge of their proof — index `0`, `dim - 1`, and just past the
//! end — dominate the campaign.

use crate::differential::run_with_module;
use crate::gen::{gen_case, FuzzCase, GenConfig};
use brook_auto::{registered_backends, BrookContext, BrookError};
use brook_cert::RuleId;

/// Statistics of one abstract-interpretation campaign.
#[derive(Debug, Clone, Default)]
pub struct AbsintStats {
    /// Cases that ran elision-on vs elision-off bit-identically on
    /// every registered backend.
    pub cases: u32,
    /// Cases containing at least one gather read.
    pub gather_cases: u32,
    /// Gathers the analyzer proved in bounds (elision eligible),
    /// summed over the compile probe of every case.
    pub proven_gathers: u64,
    /// All gathers seen by the analyzer across the campaign.
    pub total_gathers: u64,
    /// Provably-faulty kernels correctly hard-rejected with the right
    /// rule on the right source line.
    pub rejected_faults: u32,
    /// Total output elements cross-checked bitwise.
    pub elements_checked: u64,
}

/// One provably-faulty kernel the gate must reject at compile time.
struct FaultCase {
    /// Why this kernel is included.
    what: &'static str,
    /// Kernel source.
    source: &'static str,
    /// The rule the analyzer must fire.
    rule: RuleId,
    /// 1-based source line the finding must anchor to.
    line: u32,
}

/// Kernels whose fault the analyzer can prove without running them.
/// Each must be rejected by every context (the analysis is not a
/// backend property), and the finding must carry the faulting line —
/// that line is what a developer sees, so the campaign pins it.
const FAULT_CASES: &[FaultCase] = &[
    FaultCase {
        what: "constant negative gather index",
        source: "kernel void oob_const(float t[], out float o<>) {
    o = t[(-3)];
}",
        rule: RuleId::ProvableGatherBounds,
        line: 2,
    },
    FaultCase {
        what: "gather index folded through int() to a negative constant",
        source: "kernel void oob_folded(float t[], out float o<>) {
    float i = 1.5 - 4.0;
    o = t[int(i)];
}",
        rule: RuleId::ProvableGatherBounds,
        line: 3,
    },
    FaultCase {
        what: "loop counter range proves the 2-D gather row negative",
        source: "kernel void oob_loop(float t[][], out float o<>) {
    float s = 0.0;
    int i;
    for (i = 0; i < 4; i++) {
        s += t[i - 10][i];
    }
    o = s;
}",
        rule: RuleId::ProvableGatherBounds,
        line: 5,
    },
    FaultCase {
        what: "literal zero denominator",
        source: "kernel void div_const(float a<>, out float o<>) {
    o = a / 0.0;
}",
        rule: RuleId::ProvableDivByZero,
        line: 2,
    },
    FaultCase {
        what: "denominator folded to zero through a local",
        source: "kernel void div_folded(float a<>, out float o<>) {
    float z = 2.0 - 2.0;
    o = a / z;
}",
        rule: RuleId::ProvableDivByZero,
        line: 3,
    },
];

/// Compile-probes one source on the serial CPU context and returns the
/// analyzer's `(proven, total)` gather counts from the compliance
/// report.
///
/// # Errors
/// Compile failures — a spurious certification rejection of a generated
/// (legal) kernel fails the campaign here.
fn probe_analysis(source: &str) -> Result<(u64, u64), String> {
    let mut ctx = BrookContext::cpu();
    let module = ctx.compile(source).map_err(|e| format!("probe compile: {e}"))?;
    let mut proven = 0u64;
    let mut total = 0u64;
    for k in &module.report.analysis.kernels {
        proven += k.proven_gathers as u64;
        total += k.total_gathers as u64;
    }
    Ok((proven, total))
}

/// Runs one case elision-on and elision-off in fresh contexts of the
/// same spec and bit-compares the outputs.
///
/// # Errors
/// Compile/run failures and the first differing bit, named by backend.
fn run_elision_pair(name: &'static str, make: fn() -> BrookContext, case: &FuzzCase) -> Result<u64, String> {
    let mut on = make();
    let mut off = make();
    off.clamp_elision = false;
    let m_on = on
        .compile(&case.source)
        .map_err(|e| format!("{name} (elision on): compile: {e}"))?;
    let m_off = off
        .compile(&case.source)
        .map_err(|e| format!("{name} (elision off): compile: {e}"))?;
    let o_on = run_with_module(&mut on, &m_on, case).map_err(|e| format!("{name} (elision on): {e}"))?;
    let o_off = run_with_module(&mut off, &m_off, case).map_err(|e| format!("{name} (elision off): {e}"))?;
    let mut checked = 0u64;
    for (oi, (a, b)) in o_on.iter().zip(&o_off).enumerate() {
        if a.len() != b.len() {
            return Err(format!(
                "{name}: output {oi} length changed with elision: {} vs {}",
                a.len(),
                b.len()
            ));
        }
        for (ei, (x, y)) in a.iter().zip(b).enumerate() {
            if x.to_bits() != y.to_bits() {
                return Err(format!(
                    "{name}: output {oi} element {ei}: elision on {x} vs off {y} — \
                     an elided clamp changed a result, so a bounds proof is wrong"
                ));
            }
        }
        checked += a.len() as u64;
    }
    Ok(checked)
}

/// Asserts one provably-faulty kernel is hard-rejected with the right
/// rule on the right line.
///
/// # Errors
/// Acceptance, the wrong rule, or a finding on the wrong line.
fn check_fault_case(fc: &FaultCase) -> Result<(), String> {
    let mut ctx = BrookContext::cpu();
    let report = match ctx.compile(fc.source) {
        Err(BrookError::Certification(report)) => report,
        Err(e) => {
            return Err(format!(
                "fault case ({}) failed before certification: {e}\n{}",
                fc.what, fc.source
            ));
        }
        Ok(_) => {
            return Err(format!(
                "fault case ({}) compiled — the analyzer missed a provable fault:\n{}",
                fc.what, fc.source
            ));
        }
    };
    let finding = report
        .kernels
        .iter()
        .flat_map(|k| k.violations())
        .find(|f| f.rule == fc.rule)
        .ok_or_else(|| {
            format!(
                "fault case ({}) rejected, but not by {}:\n{}",
                fc.what, fc.rule, fc.source
            )
        })?;
    if finding.span.line != fc.line {
        return Err(format!(
            "fault case ({}): {} finding anchored to line {} instead of {}:\n{}",
            fc.what, fc.rule, finding.span.line, fc.line, fc.source
        ));
    }
    Ok(())
}

/// Runs `cases` seeded kernels through the elision on/off bit-compare
/// on every registered backend, then the fixed provably-faulty set.
///
/// # Errors
/// The first case failure, annotated with the case name (the seed and
/// index regenerate it anywhere).
pub fn run_absint_campaign(seed: u64, cases: u32, cfg: &GenConfig) -> Result<AbsintStats, String> {
    let mut stats = AbsintStats::default();
    for index in 0..cases {
        let case = gen_case(seed, index, cfg);
        let ctx = |e: String| {
            format!(
                "case {} (seed {seed:#x}, index {index}): {e}\n{}",
                case.name, case.source
            )
        };
        let (proven, total) = probe_analysis(&case.source).map_err(ctx)?;
        stats.proven_gathers += proven;
        stats.total_gathers += total;
        if case.gather.is_some() {
            stats.gather_cases += 1;
        }
        for spec in registered_backends() {
            stats.elements_checked += run_elision_pair(spec.name, spec.make, &case).map_err(ctx)?;
        }
        stats.cases += 1;
    }
    for fc in FAULT_CASES {
        check_fault_case(fc)?;
        stats.rejected_faults += 1;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_cases_are_rejected_with_line_accurate_findings() {
        for fc in FAULT_CASES {
            check_fault_case(fc).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn elision_toggle_is_bitwise_invisible_on_a_proven_kernel() {
        // sgemm-shaped: every gather is proven, so elision-on really
        // drops clamps, and the outputs must still match bit for bit.
        let case = gen_case(0xAB51_0001, 0, &GenConfig::default());
        for spec in registered_backends() {
            run_elision_pair(spec.name, spec.make, &case).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "8.4M-element domain — run in release (CI fuzz job)"
    )]
    fn big_linear_domain_keeps_clamp_and_matches_bitwise() {
        // For launch positions at/above 2^23 the runtime's f32
        // `(f + 0.5).floor()` index conversion stops being exact
        // (round-to-even ties round up), so `proven_fits_dyn` must
        // refuse elision on domains whose indices reach 2^23 — the
        // clamp stays and elision on/off must remain bitwise identical.
        // Domain 2^23 + 4 puts the last position on a tie that would
        // index one past the end were the clamp (unsoundly) elided.
        // CPU backends only: the GL simulators are far too slow at this
        // scale, and every engine shares the same launch-time guard.
        let n = (1usize << 23) + 4;
        let source = "kernel void f(float t[], out float o<>) {\n\
            float2 p = indexof(o);\n\
            o = t[p.x];\n\
            }";
        let data: Vec<f32> = (0..n).map(|i| (i % 251) as f32).collect();
        let gather = crate::gen::GatherData { shape: vec![n], data };
        let case = FuzzCase::fixed(
            "absint_big_linear_domain".into(),
            source,
            vec![n],
            vec![],
            Some(gather),
        );
        for spec in registered_backends() {
            if !spec.name.starts_with("cpu") {
                continue;
            }
            run_elision_pair(spec.name, spec.make, &case).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn small_campaign_passes_and_proves_gathers() {
        let stats =
            run_absint_campaign(0xAB51_0002, 12, &GenConfig::default()).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(stats.cases, 12);
        assert_eq!(stats.rejected_faults, FAULT_CASES.len() as u32);
        assert!(stats.elements_checked > 0);
    }
}
