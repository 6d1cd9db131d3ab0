//! Explicit-SIMD differential mode.
//!
//! The `std::arch` execution layer (`brook_ir::simd`) promises
//! **bitwise identity with the scalar closure bodies** — no FMA
//! contraction, preserved operand order, float-domain clamps proven
//! equal to the scalar integer clamps — and the vectorized reduce
//! path promises bitwise identity with the serial fold for every
//! *admitted* (reassociation-safe) combine. This mode attacks both
//! promises where vector instructions actually differ from scalar
//! code: NaN propagation in `min`/`max`/compares, `-0.0` sign
//! handling in blends, and subnormals. Every case runs with
//! special-float-biased input data ([`GenConfig::special_floats`]).
//!
//! Two comparison layers:
//!
//! * the CPU ladder ([`Matrix::cpu`]: the AST oracle, every engine
//!   tier, SIMD forced off, forced to SSE2 and auto, serial and
//!   parallel) — bitwise everywhere, so a single flipped NaN payload
//!   or zero sign is a divergence;
//! * per-device pairs: each registered GL backend runs every case
//!   twice, `SimdMode::Off` vs `SimdMode::Auto`, compared bitwise —
//!   the toggle must be invisible on backends that never dispatch to
//!   the SIMD kernels at all.
//!
//! The campaign closes with the fixed reduce set: a combine the
//! analyzer proves reassociation-safe (admitted, vectorized,
//! bit-compared against the serial fold and the AST oracle) and
//! combines it must reject (`f32` sum, `min` of an unproven operand),
//! which still must agree bitwise through the serial scalar fallback
//! — proving the fallback runs, on special data.

use crate::differential::{compile_shared, cpu_ladder, run_case, run_with_module, Matrix};
use crate::gen::{gen_case, gen_values, special_overlay, FuzzCase, GenConfig};
use brook_auto::registered_backends;
use brook_ir::simd::{auto, SimdLevel, SimdMode};

/// Statistics of one SIMD differential campaign.
#[derive(Debug, Clone, Default)]
pub struct SimdStats {
    /// Cases that agreed bitwise across the CPU matrix and all device
    /// on/off pairs.
    pub cases: u32,
    /// Kernels whose Tier-2 compile recorded a non-scalar SIMD level.
    pub simd_kernels: u32,
    /// Kernels that stayed scalar (tier-rejected or scalar level).
    pub scalar_kernels: u32,
    /// Fixed reduce kernels admitted to the vectorized reduce.
    pub admitted_reduces: u32,
    /// Fixed reduce kernels the planner rejected (serial fallback
    /// exercised and bit-checked).
    pub rejected_reduces: u32,
    /// Total output elements cross-checked.
    pub elements_checked: u64,
}

/// A combine the analyzer can prove reassociation-safe: `clamp` bounds
/// the operand to `[0.5, 2.0]` (NaN-free and sign-definite), so the
/// lattice `min` has one well-defined bit pattern under any fold
/// order. Must be admitted whenever `SimdMode::Auto` resolves to a SIMD level.
pub const SIMD_REDUCE_ADMITTED: &str =
    "reduce void rmin(float a<>, reduce float r<>) { r = min(r, clamp(a, 0.5, 2.0)); }";

/// Combines the planner must reject: `f32` addition is never
/// reassociation-safe, and `min` of a raw stream element has no
/// NaN-free proof. Both still run — through the serial scalar fold —
/// and must agree bitwise across every CPU context.
pub const SIMD_REDUCE_REJECTED: &[&str] = &[
    "reduce void rsum(float a<>, reduce float r<>) { r = r + a; }",
    "reduce void rmin(float a<>, reduce float r<>) { r = min(r, a); }",
];

/// Runs one case on every registered *device* backend twice —
/// `SimdMode::Off` vs `SimdMode::Auto` — and requires bit identity.
/// The SIMD layer lives under the CPU tier engine only; on a GL
/// backend the toggle must change nothing, not even a NaN payload
/// the packed storage canonicalized.
fn run_device_pairs(case: &FuzzCase) -> Result<u64, String> {
    let mut checked = 0u64;
    for spec in registered_backends() {
        if spec.name.starts_with("cpu") {
            continue;
        }
        let run = |mode: SimdMode| -> Result<Vec<Vec<f32>>, String> {
            let mut ctx = (spec.make)();
            ctx.simd_mode = mode;
            let module = ctx
                .compile(&case.source)
                .map_err(|e| format!("{}: compile: {e}", spec.name))?;
            run_with_module(&mut ctx, &module, case).map_err(|e| format!("{}: {e}", spec.name))
        };
        let off = run(SimdMode::Off)?;
        let auto = run(SimdMode::Auto)?;
        for (oi, (r, a)) in off.iter().zip(&auto).enumerate() {
            for (ei, (x, y)) in r.iter().zip(a).enumerate() {
                if x.to_bits() != y.to_bits() {
                    return Err(format!(
                        "{}: SimdMode::Auto diverged from Off at output {oi} element {ei}: \
                         {x} vs {y}",
                        spec.name
                    ));
                }
            }
            checked += r.len() as u64;
        }
    }
    Ok(checked)
}

/// Runs one fixed reduce source over special-float-biased data on
/// every rung of the CPU ladder, requiring bitwise identical scalars;
/// returns whether the `cpu` spec admitted it to the vectorized reduce.
///
/// # Errors
/// Compile/run failures and fold divergences.
fn run_reduce_diff(source: &str, n: usize, data_seed: u64) -> Result<(bool, u64), String> {
    let mut data = gen_values(data_seed, n);
    special_overlay(data_seed, &mut data);
    let mut reference: Option<(&'static str, f32)> = None;
    let mut admitted = false;
    let mut checked = 0u64;
    let mut artifacts = Vec::new();
    for spec in cpu_ladder() {
        let name = spec.name;
        let mut ctx = (spec.make)();
        let module =
            compile_shared(&mut ctx, source, &mut artifacts).map_err(|e| format!("{name}: {e}\n{source}"))?;
        let kernel = module.kernels().first().cloned().ok_or("no kernel")?;
        if name == "cpu" {
            admitted = module
                .report
                .simd_reduces
                .iter()
                .any(|r| r.kernel == kernel && r.admitted);
        }
        let s = ctx.stream(&[n]).map_err(|e| format!("{name}: {e}"))?;
        ctx.write(&s, &data).map_err(|e| format!("{name}: {e}"))?;
        let v = ctx
            .reduce(&module, &kernel, &s)
            .map_err(|e| format!("{name}: reduce: {e}\n{source}"))?;
        match &reference {
            None => reference = Some((name, v)),
            Some((ref_name, r)) => {
                if r.to_bits() != v.to_bits() {
                    return Err(format!(
                        "{name} reduce diverged from {ref_name}: {r} vs {v}\n{source}"
                    ));
                }
                checked += n as u64;
            }
        }
    }
    Ok((admitted, checked))
}

/// Runs `cases` seeded kernels (special-float-biased data) through the
/// CPU ladder and the device on/off pairs, then the fixed reduce
/// set with its admission assertions.
///
/// # Errors
/// The first case failure, annotated with the case name, or an
/// admission regression in the reduce set.
pub fn run_simd_campaign(seed: u64, cases: u32, cfg: &GenConfig) -> Result<SimdStats, String> {
    let cfg = GenConfig {
        special_floats: true,
        ..cfg.clone()
    };
    let matrix = Matrix::cpu();
    let mut stats = SimdStats::default();
    for index in 0..cases {
        let case = gen_case(seed, index, &cfg);
        let runs = run_case(&case, &matrix).map_err(|f| {
            format!(
                "case {} (seed {seed:#x}, index {index}): {f}\n{}",
                case.name, case.source
            )
        })?;
        if let Some(cpu) = runs.iter().find(|r| r.backend == "cpu") {
            let a = &cpu.admissions;
            stats.simd_kernels += a.simd_compiled;
            stats.scalar_kernels += a.tier_compiled + a.tier_fallback - a.simd_compiled;
        }
        stats.elements_checked += runs[0].outputs.iter().map(|o| o.len() as u64).sum::<u64>();
        stats.elements_checked += run_device_pairs(&case)
            .map_err(|e| format!("case {} (seed {seed:#x}, index {index}): {e}", case.name))?;
        stats.cases += 1;
    }
    // The fixed reduce set: one provably-safe combine that must be
    // admitted (when `Auto` resolves to a SIMD level), and the unsafe combines
    // that must fall back to the serial scalar fold.
    let n = 4 * brook_ir::lanes::LANES + 7;
    let (admitted, checked) = run_reduce_diff(SIMD_REDUCE_ADMITTED, n, seed ^ 0x51D0)?;
    if auto() != SimdLevel::Scalar && !admitted {
        return Err(format!(
            "planner refused the provably reassociation-safe reduce:\n{SIMD_REDUCE_ADMITTED}"
        ));
    }
    stats.admitted_reduces += u32::from(admitted);
    stats.elements_checked += checked;
    stats.cases += 1;
    for (i, source) in SIMD_REDUCE_REJECTED.iter().enumerate() {
        let (admitted, checked) = run_reduce_diff(source, n, seed ^ (0x2E1E + i as u64))?;
        if admitted {
            return Err(format!(
                "planner admitted a reassociation-unsafe reduce:\n{source}"
            ));
        }
        stats.rejected_reduces += 1;
        stats.elements_checked += checked;
        stats.cases += 1;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_toggles_are_what_they_claim() {
        crate::differential::tests::check_rungs(&[
            "cpu-simd-off",
            "cpu-sse2",
            "cpu",
            "cpu-parallel-simd-off",
            "cpu-parallel",
        ]);
    }

    #[test]
    fn reduce_set_admission_decisions_hold() {
        let (admitted, _) =
            run_reduce_diff(SIMD_REDUCE_ADMITTED, 77, 0xDEC0).unwrap_or_else(|e| panic!("{e}"));
        if auto() != SimdLevel::Scalar {
            assert!(admitted, "safe combine must be admitted");
        }
        for source in SIMD_REDUCE_REJECTED {
            let (admitted, _) = run_reduce_diff(source, 77, 0xDEC1).unwrap_or_else(|e| panic!("{e}"));
            assert!(!admitted, "unsafe combine must be rejected:\n{source}");
        }
    }

    #[test]
    fn small_campaign_is_bit_exact() {
        let stats =
            run_simd_campaign(0x51D0_5EED, 6, &GenConfig::default()).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            stats.cases,
            6 + 1 + SIMD_REDUCE_REJECTED.len() as u32,
            "{stats:?}"
        );
        assert_eq!(stats.rejected_reduces, SIMD_REDUCE_REJECTED.len() as u32);
        assert!(stats.elements_checked > 0);
    }
}
