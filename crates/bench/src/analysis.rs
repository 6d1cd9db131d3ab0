//! Static-analysis smoke over the paper suite — the CI gate for the
//! abstract interpreter (`brook_cert::absint`).
//!
//! All eleven applications are the *legal-program corpus*: every kernel
//! in the suite is certifiable, so a certification rejection here is by
//! definition a spurious one — an unsound widening, a lost NaN flag, a
//! fault rule firing on a runtime-dependent value. The smoke:
//!
//! 1. compiles every app kernel on the full pipeline and **fails on any
//!    rejection**;
//! 2. checks the refined (post-pass) admission estimate never exceeds
//!    the AST-level one, kernel by kernel, as a hard error rather than
//!    a `debug_assert`;
//! 3. runs every app end-to-end on the CPU backend at its differential
//!    size — in a debug build this drives the elided gather paths under
//!    their per-lane `debug_assert` cross-checks, so a wrong bounds
//!    proof aborts instead of silently reading clamped;
//! 4. renders every kernel's analysis facts for the uploaded artifact,
//!    so a reviewer can read *what the analyzer proved* for the whole
//!    suite in one place.

use brook_apps::all_apps;
use brook_auto::BrookContext;

/// One kernel's analysis summary.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Application the kernel belongs to.
    pub app: &'static str,
    /// Kernel name.
    pub kernel: String,
    /// Gathers the analyzer proved in bounds.
    pub proven_gathers: usize,
    /// All gathers in the optimized IR.
    pub total_gathers: usize,
    /// Instructions proven unreachable.
    pub unreachable_insts: usize,
    /// AST-level (pre-pass) per-element instruction estimate.
    pub ast_estimate: Option<u64>,
    /// Refined (post-pass, reachability-pruned) estimate.
    pub refined_estimate: Option<u64>,
    /// Rendered span-attributed facts (`pc @ line:col: fact`).
    pub facts: Vec<String>,
}

/// Kernel sources of all eleven applications, named as in the figures.
pub use brook_apps::kernel_sources as app_sources;

/// Compiles every app kernel and collects the analyzer's verdicts.
///
/// # Errors
/// A certification rejection of any suite kernel (spurious by
/// definition), or a refined estimate above the AST one.
pub fn analyze_apps() -> Result<Vec<KernelRow>, String> {
    let mut rows = Vec::new();
    for (app, source) in app_sources() {
        let mut ctx = BrookContext::cpu();
        let module = ctx
            .compile(&source)
            .map_err(|e| format!("SPURIOUS REJECTION: `{app}` is a certifiable suite kernel, got: {e}"))?;
        for ka in &module.report.analysis.kernels {
            let kr = module.report.kernel(&ka.kernel);
            let ast = kr.and_then(|k| k.instruction_estimate);
            let refined = kr.and_then(|k| k.refined_estimate);
            if let (Some(r), Some(a)) = (refined, ast) {
                if r > a {
                    return Err(format!(
                        "`{app}`/{}: refined estimate {r} above the AST estimate {a}",
                        ka.kernel
                    ));
                }
            }
            if !ka.faults.is_empty() {
                return Err(format!("SPURIOUS FAULT: `{app}`/{}: {:?}", ka.kernel, ka.faults));
            }
            rows.push(KernelRow {
                app,
                kernel: ka.kernel.clone(),
                proven_gathers: ka.proven_gathers,
                total_gathers: ka.total_gathers,
                unreachable_insts: ka.unreachable_insts,
                ast_estimate: ast,
                refined_estimate: refined,
                facts: ka
                    .facts
                    .iter()
                    .map(|f| format!("pc {} @ {}: {}", f.pc, f.span, f.fact))
                    .collect(),
            });
        }
    }
    Ok(rows)
}

/// Runs every app end-to-end on the CPU backend at its differential
/// size. In a debug build this executes elided gathers under their
/// per-element `debug_assert` cross-checks.
///
/// # Errors
/// Any compile/dispatch failure, tagged with the app name.
pub fn run_apps_once() -> Result<(), String> {
    for app in all_apps() {
        let size = app.matrix_size();
        let mut ctx = BrookContext::cpu();
        app.run_gpu(&mut ctx, size, 0xA11A)
            .map_err(|e| format!("`{}` at size {size}: {e}", app.name()))?;
    }
    Ok(())
}

/// Renders the per-kernel summary table.
pub fn render_analysis_table(rows: &[KernelRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "app              kernel             gathers proven  unreachable  estimate (AST -> refined)\n",
    );
    out.push_str(
        "---------------- ------------------ --------------  -----------  -------------------------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:<18} {:>6}/{:<7} {:>11}  {} -> {}\n",
            r.app,
            r.kernel,
            r.proven_gathers,
            r.total_gathers,
            r.unreachable_insts,
            r.ast_estimate.map_or("-".into(), |v| v.to_string()),
            r.refined_estimate.map_or("-".into(), |v| v.to_string()),
        ));
    }
    out
}

/// Serializes the rows (facts included) as the uploaded artifact.
pub fn analysis_json(rows: &[KernelRow]) -> String {
    let mut out = String::from("{\n  \"bench\": \"analysis\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let facts: Vec<String> = r
            .facts
            .iter()
            .map(|f| format!("\"{}\"", f.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        out.push_str(&format!(
            "    {{\"app\": \"{}\", \"kernel\": \"{}\", \"proven_gathers\": {}, \
             \"total_gathers\": {}, \"unreachable_insts\": {}, \"ast_estimate\": {}, \
             \"refined_estimate\": {}, \"facts\": [{}]}}{}\n",
            r.app,
            r.kernel,
            r.proven_gathers,
            r.total_gathers,
            r.unreachable_insts,
            r.ast_estimate.map_or("null".into(), |v| v.to_string()),
            r.refined_estimate.map_or("null".into(), |v| v.to_string()),
            facts.join(", "),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_analyzes_with_zero_spurious_rejections() {
        let rows = analyze_apps().unwrap_or_else(|e| panic!("{e}"));
        assert!(rows.len() >= 11, "one row per kernel, all apps covered");
        // The gather flagships keep their full proofs.
        for flagship in ["sgemm", "image_filter"] {
            let total: usize = rows
                .iter()
                .filter(|r| r.app == flagship)
                .map(|r| r.total_gathers)
                .sum();
            let proven: usize = rows
                .iter()
                .filter(|r| r.app == flagship)
                .map(|r| r.proven_gathers)
                .sum();
            assert!(total > 0, "{flagship}: no gathers seen");
            assert_eq!(proven, total, "{flagship}: lost a bounds proof");
        }
    }

    #[test]
    fn apps_run_end_to_end_under_debug_asserts() {
        run_apps_once().unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn json_is_shaped_like_the_other_trajectories() {
        let rows = analyze_apps().unwrap_or_else(|e| panic!("{e}"));
        let json = analysis_json(&rows);
        assert!(json.starts_with('{') && json.ends_with("}\n"));
        assert!(json.contains("\"bench\": \"analysis\""));
    }
}
