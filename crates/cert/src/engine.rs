//! The certification engine: runs every Brook Auto rule against a checked
//! program and produces a [`ComplianceReport`].

use crate::analysis::{for_loop_bound, instruction_estimate, CallGraph, LoopBound};
use crate::rules::{Discharge, RuleId};
use brook_lang::ast::*;
use brook_lang::diag::Severity;
use brook_lang::span::Span;
use brook_lang::CheckedProgram;
use std::collections::HashMap;

/// Capability limits of the certification target, mirroring the paper's
/// OpenGL ES 2.0 constraints (§4, §6).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CertConfig {
    /// Maximum `out` streams a kernel may declare. The GLES2 backend has a
    /// single render target, but the compiler splits kernels into one pass
    /// per output (paper §6: Floyd-Warshall), so the limit constrains the
    /// number of generated passes.
    pub max_outputs: u32,
    /// Texture units available for inputs (streams + gathers).
    pub max_inputs: u32,
    /// Maximum helper-function call depth.
    pub max_call_depth: u32,
    /// Worst-case per-element instruction budget; beyond this, drivers of
    /// low-end GPUs fall back to multi-pass emulation.
    pub max_instructions: u64,
    /// Maximum statically deduced trip count for any single loop.
    pub max_loop_trips: u64,
}

impl Default for CertConfig {
    fn default() -> Self {
        // VideoCore IV-class limits used throughout the evaluation.
        CertConfig {
            max_outputs: 4,
            max_inputs: 8,
            max_call_depth: 4,
            max_instructions: 1 << 22,
            max_loop_trips: 1 << 16,
        }
    }
}

impl CertConfig {
    /// A stable 64-bit digest of the limit set — the cert-config
    /// component of a compiled-module cache key (two configs share
    /// compiled artifacts iff they certify identically).
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// One rule finding for one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Violated or annotated rule.
    pub rule: RuleId,
    /// Error for violations; Note for informational entries.
    pub severity: Severity,
    /// Explanation.
    pub message: String,
    /// Location, when attributable.
    pub span: Span,
}

/// Compliance result for one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// Kernel name.
    pub kernel: String,
    /// Violations and notes, rule order.
    pub findings: Vec<Finding>,
    /// Every loop in the kernel with its deduced bound.
    pub loop_bounds: Vec<LoopBound>,
    /// Worst-case instruction estimate (None when a loop is unbounded).
    pub instruction_estimate: Option<u64>,
    /// Worst-case estimate recomputed over the *optimized* IR with the
    /// abstract interpreter's reachability facts — never above
    /// `instruction_estimate` (DCE'd and proven-dead code stops being
    /// billed). `None` until the IR pipeline has run.
    pub refined_estimate: Option<u64>,
    /// Maximum helper call depth reached from this kernel.
    pub call_depth: u32,
    /// Number of GPU passes the backend will emit (= outputs).
    pub passes_required: u32,
}

impl KernelReport {
    /// True when no finding is an error.
    pub fn is_compliant(&self) -> bool {
        self.findings.iter().all(|f| f.severity != Severity::Error)
    }

    /// All error-severity findings.
    pub fn violations(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.severity == Severity::Error)
    }

    /// Worst-case work of one launch of this kernel over `domain_elems`
    /// output elements, in estimated instructions — the unit an
    /// admission controller budgets in. `None` when the kernel carries
    /// an unbounded loop (only possible past a disabled gate): such a
    /// kernel has no static cost and must be refused admission.
    pub fn admission_cost(&self, domain_elems: u64) -> Option<u64> {
        // Prefer the post-optimization analyzer-refined estimate: the
        // AST-level figure bills code the pass pipeline already removed.
        self.refined_estimate
            .or(self.instruction_estimate)
            .map(|per_elem| {
                per_elem
                    .saturating_mul(domain_elems)
                    .saturating_mul(u64::from(self.passes_required.max(1)))
            })
    }
}

/// One kernel's lane-vectorization decision, recorded at compile time
/// when the runtime consults `brook_ir::lanes::plan_with`: the certification
/// data package names which kernels execute on the lane engine and why
/// the rest fall back to the scalar interpreter.
#[derive(Debug, Clone, PartialEq)]
pub struct LanePlan {
    /// Kernel name.
    pub kernel: String,
    /// True when the planner admitted the kernel to the lane engine.
    pub vectorized: bool,
    /// `"lane-vectorized"` or the planner's rejection reason.
    pub detail: String,
}

/// One kernel's Tier-2 closure-threading decision, recorded at
/// compile time when the runtime consults `brook_ir::tier::compile_simd`:
/// which kernels execute as pre-compiled closure chains and why the
/// rest stay on the lane engine (or scalar interpreter).
#[derive(Debug, Clone, PartialEq)]
pub struct TierPlan {
    /// Kernel name.
    pub kernel: String,
    /// True when the compiler admitted the kernel to Tier-2.
    pub compiled: bool,
    /// The compilation summary or the rejection reason.
    pub detail: String,
}

/// One reduce kernel's vectorized-fold admission decision, recorded
/// at compile time when the runtime consults
/// `brook_ir::simd::ReduceProgram::plan_program_with`: which reduce
/// kernels fold through the SIMD per-lane-partials path and why the
/// rest fold serially through the scalar interpreter.
#[derive(Debug, Clone, PartialEq)]
pub struct SimdReduce {
    /// Kernel name.
    pub kernel: String,
    /// True when the planner admitted the reduce to the vectorized
    /// (reassociation-safe) fold.
    pub admitted: bool,
    /// The admission summary (proven operand range) or the reason the
    /// kernel folds serially.
    pub detail: String,
}

/// Whole-program compliance result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ComplianceReport {
    /// Per-kernel reports in source order.
    pub kernels: Vec<KernelReport>,
    /// Provenance of the IR pass pipeline: one record per
    /// (kernel, pass) step, including rollbacks — the certification
    /// data package shows exactly which transformations ran
    /// (see `ir_check::optimize_program`). Empty before lowering.
    pub passes: Vec<crate::ir_check::PassRecord>,
    /// Lane-vectorization decisions, one per lowered kernel (see
    /// `brook_ir::lanes::plan_with`). Empty before lowering or when lane
    /// execution is disabled on the compiling context.
    pub lane_plans: Vec<LanePlan>,
    /// Tier-2 closure-threading decisions, one per lowered kernel (see
    /// `brook_ir::tier::compile_simd`). Empty before lowering or when tier
    /// execution is disabled on the compiling context.
    pub tier_plans: Vec<TierPlan>,
    /// Vectorized-reduce admission decisions, one per reduce kernel
    /// (see `brook_ir::simd::ReduceProgram`). Empty before lowering or
    /// when lane execution is disabled on the compiling context.
    pub simd_reduces: Vec<SimdReduce>,
    /// Abstract-interpretation facts over the optimized IR (see
    /// `crate::absint`): value ranges at gathers, provable-fault
    /// findings, reachability, and pruned estimates. Empty before
    /// lowering.
    pub analysis: crate::absint::AnalysisReport,
    /// Aggregated runtime resilience evidence: faults injected, retries,
    /// contained panics, verified failovers and deadline margins over
    /// the launches executed so far (paper §2 rules d/e — fault
    /// *response*, not just fault-free behavior). Empty at compile time;
    /// the runtime fills it in when the report is re-exported through
    /// `BrookContext::compliance_with_resilience`.
    pub resilience: brook_inject::ResilienceSummary,
}

impl ComplianceReport {
    /// True when every kernel is compliant.
    pub fn is_compliant(&self) -> bool {
        self.kernels.iter().all(|k| k.is_compliant())
    }

    /// Report for one kernel.
    pub fn kernel(&self, name: &str) -> Option<&KernelReport> {
        self.kernels.iter().find(|k| k.kernel == name)
    }

    /// Total number of error findings.
    pub fn violation_count(&self) -> usize {
        self.kernels.iter().map(|k| k.violations().count()).sum()
    }

    /// [`KernelReport::admission_cost`] looked up by kernel name — the
    /// per-request admission charge of launching `kernel` over
    /// `domain_elems` output elements. `None` for unknown kernels or
    /// ones without a static bound; an admission controller treats both
    /// as inadmissible.
    pub fn admission_cost(&self, kernel: &str, domain_elems: u64) -> Option<u64> {
        self.kernel(kernel)?.admission_cost(domain_elems)
    }
}

/// Runs every certification rule against a checked program.
pub fn certify(checked: &CheckedProgram, config: &CertConfig) -> ComplianceReport {
    let cg = CallGraph::build(&checked.program);
    let helper_costs = helper_cost_table(&checked.program);
    let mut kernels = Vec::new();
    for k in checked.program.kernels() {
        kernels.push(certify_kernel(checked, k, config, &cg, &helper_costs));
    }
    ComplianceReport {
        kernels,
        passes: Vec::new(),
        lane_plans: Vec::new(),
        tier_plans: Vec::new(),
        simd_reduces: Vec::new(),
        analysis: crate::absint::AnalysisReport::default(),
        resilience: brook_inject::ResilienceSummary::default(),
    }
}

fn helper_cost_table(program: &Program) -> HashMap<String, u64> {
    // Fixed-point is unnecessary: the call graph is acyclic for compliant
    // programs; iterate a few times to propagate nested helper costs and
    // fall back to a large constant for anything recursive (BA004 flags it).
    let mut costs: HashMap<String, u64> = HashMap::new();
    for _ in 0..8 {
        for f in program.functions() {
            let c = instruction_estimate(&f.body, &costs).unwrap_or(1 << 20);
            costs.insert(f.name.clone(), c);
        }
    }
    costs
}

fn certify_kernel(
    checked: &CheckedProgram,
    k: &KernelDef,
    config: &CertConfig,
    cg: &CallGraph,
    helper_costs: &HashMap<String, u64>,
) -> KernelReport {
    let mut findings = Vec::new();
    let summary = checked.summary(&k.name);

    // BA003 — bounded loops.
    let mut loop_bounds = Vec::new();
    collect_loop_bounds(&k.body, &mut loop_bounds, &mut findings, config);

    // BA004 / BA009 — recursion and call depth.
    let roots: Vec<String> = summary.map(|s| s.called_functions.clone()).unwrap_or_default();
    let call_depth = match cg.max_depth_from(&roots) {
        Some(d) => {
            if d > config.max_call_depth {
                findings.push(Finding {
                    rule: RuleId::StackDepthBound,
                    severity: Severity::Error,
                    message: format!(
                        "helper call depth {d} exceeds the target limit {}",
                        config.max_call_depth
                    ),
                    span: k.span,
                });
            }
            d
        }
        None => {
            findings.push(Finding {
                rule: RuleId::NoRecursion,
                severity: Severity::Error,
                message: "kernel (transitively) calls a recursive helper function".into(),
                span: k.span,
            });
            u32::MAX
        }
    };

    // BA005 — output limit.
    let outputs = k.outputs().count() as u32;
    if outputs > config.max_outputs {
        findings.push(Finding {
            rule: RuleId::OutputLimit,
            severity: Severity::Error,
            message: format!(
                "kernel declares {outputs} outputs but the target supports at most {} passes",
                config.max_outputs
            ),
            span: k.span,
        });
    } else if outputs > 1 {
        findings.push(Finding {
            rule: RuleId::OutputLimit,
            severity: Severity::Note,
            message: format!(
                "kernel has {outputs} outputs: the OpenGL ES 2 backend will split it into \
                 {outputs} single-output passes"
            ),
            span: k.span,
        });
    }

    // BA006 — input limit.
    let inputs = k.stream_inputs().count() as u32;
    if inputs > config.max_inputs {
        findings.push(Finding {
            rule: RuleId::InputLimit,
            severity: Severity::Error,
            message: format!(
                "kernel reads {inputs} streams/gathers but the target has {} texture units",
                config.max_inputs
            ),
            span: k.span,
        });
    }

    // BA010 — instruction budget.
    let estimate = instruction_estimate(&k.body, helper_costs);
    match estimate {
        Some(est) if est > config.max_instructions => {
            findings.push(Finding {
                rule: RuleId::InstructionBudget,
                severity: Severity::Error,
                message: format!(
                    "worst-case instruction estimate {est} exceeds the target budget {}",
                    config.max_instructions
                ),
                span: k.span,
            });
        }
        Some(est) => {
            findings.push(Finding {
                rule: RuleId::InstructionBudget,
                severity: Severity::Note,
                message: format!("worst-case instruction estimate: {est}"),
                span: k.span,
            });
        }
        None => {
            // BA003 already reported the unbounded loop; add the BA010
            // consequence for the certification data package.
            findings.push(Finding {
                rule: RuleId::InstructionBudget,
                severity: Severity::Error,
                message: "instruction count cannot be bounded because a loop is unbounded".into(),
                span: k.span,
            });
        }
    }

    // Rules discharged by construction or runtime design are recorded as
    // notes so the report is a complete certification artifact.
    for meta in crate::rules::RULES {
        if matches!(
            meta.discharge,
            Discharge::ByConstruction | Discharge::RuntimeDesign
        ) && !findings.iter().any(|f| f.rule == meta.id)
        {
            findings.push(Finding {
                rule: meta.id,
                severity: Severity::Note,
                message: format!("satisfied: {}", meta.motivation),
                span: k.span,
            });
        }
    }
    findings.sort_by_key(|f| (f.rule, std::cmp::Reverse(f.severity)));

    KernelReport {
        kernel: k.name.clone(),
        findings,
        loop_bounds,
        instruction_estimate: estimate,
        refined_estimate: None,
        call_depth,
        passes_required: outputs.max(1),
    }
}

fn collect_loop_bounds(
    b: &Block,
    bounds: &mut Vec<LoopBound>,
    findings: &mut Vec<Finding>,
    config: &CertConfig,
) {
    for s in &b.stmts {
        match s {
            Stmt::For {
                init,
                cond,
                step,
                body,
                span,
            } => {
                let bound = for_loop_bound(init.as_deref(), cond.as_ref(), step.as_deref(), body);
                match &bound {
                    LoopBound::Static { trips } => {
                        if *trips > config.max_loop_trips {
                            findings.push(Finding {
                                rule: RuleId::BoundedLoops,
                                severity: Severity::Error,
                                message: format!(
                                    "loop trip count {trips} exceeds the target limit {}",
                                    config.max_loop_trips
                                ),
                                span: *span,
                            });
                        } else {
                            findings.push(Finding {
                                rule: RuleId::BoundedLoops,
                                severity: Severity::Note,
                                message: format!("loop bound deduced: {trips} iterations"),
                                span: *span,
                            });
                        }
                    }
                    LoopBound::Unbounded { reason } => {
                        findings.push(Finding {
                            rule: RuleId::BoundedLoops,
                            severity: Severity::Error,
                            message: format!("loop trip count cannot be deduced: {reason}"),
                            span: *span,
                        });
                    }
                }
                bounds.push(bound);
                collect_loop_bounds(body, bounds, findings, config);
            }
            Stmt::While { span, body, .. } => {
                findings.push(Finding {
                    rule: RuleId::BoundedLoops,
                    severity: Severity::Error,
                    message: "`while` loops have no statically deducible bound in Brook Auto; \
                              rewrite as a counted `for` loop"
                        .into(),
                    span: *span,
                });
                bounds.push(LoopBound::Unbounded {
                    reason: "while loop".into(),
                });
                collect_loop_bounds(body, bounds, findings, config);
            }
            Stmt::DoWhile { span, body, .. } => {
                findings.push(Finding {
                    rule: RuleId::BoundedLoops,
                    severity: Severity::Error,
                    message: "`do/while` loops have no statically deducible bound in Brook Auto; \
                              rewrite as a counted `for` loop"
                        .into(),
                    span: *span,
                });
                bounds.push(LoopBound::Unbounded {
                    reason: "do/while loop".into(),
                });
                collect_loop_bounds(body, bounds, findings, config);
            }
            Stmt::If {
                then_block,
                else_block,
                ..
            } => {
                collect_loop_bounds(then_block, bounds, findings, config);
                if let Some(e) = else_block {
                    collect_loop_bounds(e, bounds, findings, config);
                }
            }
            Stmt::Block(inner) => collect_loop_bounds(inner, bounds, findings, config),
            _ => {}
        }
    }
}

/// Certifies source text directly: parse, type-check, run the rules.
///
/// # Errors
/// Returns the front-end error when the source does not parse or check;
/// rule violations are reported through the returned report instead.
pub fn certify_source(
    src: &str,
    config: &CertConfig,
) -> Result<(CheckedProgram, ComplianceReport), brook_lang::CompileError> {
    let checked = brook_lang::parse_and_check(src)?;
    let report = certify(&checked, config);
    Ok((checked, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_for(src: &str) -> ComplianceReport {
        let (_, report) = certify_source(src, &CertConfig::default()).expect("front-end ok");
        report
    }

    #[test]
    fn compliant_kernel_passes() {
        let r = report_for(
            "kernel void f(float a<>, out float o<>) {
                float s = 0.0;
                int i;
                for (i = 0; i < 16; i++) { s += a; }
                o = s;
            }",
        );
        assert!(r.is_compliant(), "{:?}", r.kernels[0].findings);
        assert_eq!(r.kernels[0].loop_bounds.len(), 1);
        assert_eq!(r.kernels[0].loop_bounds[0].trips(), Some(16));
        assert!(r.kernels[0].instruction_estimate.is_some());
    }

    #[test]
    fn while_loop_violates_ba003() {
        let r = report_for(
            "kernel void f(float a<>, out float o<>) {
                float s = 0.0;
                while (s < 10.0) { s += a; }
                o = s;
            }",
        );
        assert!(!r.is_compliant());
        assert!(r.kernels[0].violations().any(|f| f.rule == RuleId::BoundedLoops));
        assert!(r.kernels[0]
            .violations()
            .any(|f| f.rule == RuleId::InstructionBudget));
    }

    #[test]
    fn non_constant_for_bound_violates_ba003() {
        let r = report_for(
            "kernel void f(float a<>, float n, out float o<>) {
                float s = 0.0;
                int i;
                for (i = 0; i < int(n); i++) { s += a; }
                o = s;
            }",
        );
        assert!(!r.is_compliant());
    }

    #[test]
    fn excessive_trip_count_violates_ba003() {
        let r = report_for(
            "kernel void f(float a<>, out float o<>) {
                float s = 0.0;
                int i;
                for (i = 0; i < 100000; i++) { s += a; }
                o = s;
            }",
        );
        assert!(!r.is_compliant());
    }

    #[test]
    fn multi_output_kernel_noted_for_splitting() {
        let r = report_for(
            "kernel void fw(float d<>, out float dist<>, out float pred<>) {
                dist = d;
                pred = d + 1.0;
            }",
        );
        assert!(r.is_compliant());
        let k = r.kernel("fw").unwrap();
        assert_eq!(k.passes_required, 2);
        assert!(k
            .findings
            .iter()
            .any(|f| f.rule == RuleId::OutputLimit && f.severity == Severity::Note));
    }

    #[test]
    fn too_many_outputs_violates_ba005() {
        let r = report_for(
            "kernel void f(float a<>, out float o1<>, out float o2<>, out float o3<>,
                           out float o4<>, out float o5<>) {
                o1 = a; o2 = a; o3 = a; o4 = a; o5 = a;
            }",
        );
        assert!(!r.is_compliant());
        assert!(r.kernels[0].violations().any(|f| f.rule == RuleId::OutputLimit));
    }

    #[test]
    fn too_many_inputs_violates_ba006() {
        let r = report_for(
            "kernel void f(float a<>, float b<>, float c<>, float d<>, float e<>,
                           float g<>, float h<>, float i<>, float j<>, out float o<>) {
                o = a + b + c + d + e + g + h + i + j;
            }",
        );
        assert!(!r.is_compliant());
        assert!(r.kernels[0].violations().any(|f| f.rule == RuleId::InputLimit));
    }

    #[test]
    fn recursion_violates_ba004() {
        let r = report_for(
            "float f(float x) { return f(x); }
             kernel void k(float a<>, out float o<>) { o = f(a); }",
        );
        assert!(!r.is_compliant());
        assert!(r.kernels[0].violations().any(|f| f.rule == RuleId::NoRecursion));
    }

    #[test]
    fn deep_call_chain_violates_ba009() {
        let r = report_for(
            "float f1(float x) { return x; }
             float f2(float x) { return f1(x); }
             float f3(float x) { return f2(x); }
             float f4(float x) { return f3(x); }
             float f5(float x) { return f4(x); }
             kernel void k(float a<>, out float o<>) { o = f5(a); }",
        );
        assert!(!r.is_compliant());
        assert!(r.kernels[0]
            .violations()
            .any(|f| f.rule == RuleId::StackDepthBound));
    }

    #[test]
    fn by_construction_rules_are_recorded() {
        let r = report_for("kernel void f(float a<>, out float o<>) { o = a; }");
        let k = &r.kernels[0];
        for rule in [
            RuleId::NoPointers,
            RuleId::NoGoto,
            RuleId::NoFaultPropagation,
            RuleId::StaticStreamSizes,
        ] {
            assert!(
                k.findings.iter().any(|f| f.rule == rule),
                "missing by-construction record for {rule}"
            );
        }
    }

    #[test]
    fn nested_loops_all_reported() {
        let r = report_for(
            "kernel void f(float a<>, out float o<>) {
                float s = 0.0;
                int i;
                int j;
                for (i = 0; i < 4; i++) { for (j = 0; j < 8; j++) { s += a; } }
                o = s;
            }",
        );
        assert!(r.is_compliant());
        assert_eq!(r.kernels[0].loop_bounds.len(), 2);
        let est = r.kernels[0].instruction_estimate.unwrap();
        assert!(est >= 32, "nested loops should multiply: {est}");
    }

    #[test]
    fn custom_config_tightens_limits() {
        let cfg = CertConfig {
            max_loop_trips: 8,
            ..CertConfig::default()
        };
        let (_, r) = certify_source(
            "kernel void f(float a<>, out float o<>) {
                float s = 0.0;
                int i;
                for (i = 0; i < 16; i++) { s += a; }
                o = s;
            }",
            &cfg,
        )
        .unwrap();
        assert!(!r.is_compliant());
    }

    #[test]
    fn violation_count_aggregates() {
        let r = report_for(
            "kernel void f(float a<>, out float o<>) {
                float s = 0.0;
                while (s < 1.0) { s += a; }
                o = s;
            }",
        );
        assert!(r.violation_count() >= 2);
    }
}
