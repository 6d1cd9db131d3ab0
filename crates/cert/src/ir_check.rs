//! IR-level certification re-check and the cert-gated pass pipeline.
//!
//! Lowering and optimization are *transformations*, and a transformed
//! program is a different program: the gate that certified the source
//! AST says nothing about what a buggy pass produced. This module closes
//! that hole (the paper's certification argument, §4, applied at the IR
//! layer):
//!
//! * [`check_kernel`] re-derives the syntactic certification artifacts
//!   from the IR itself — loop bounds from the region metadata, a
//!   worst-case instruction estimate from the (possibly optimized)
//!   instruction stream, I/O counts from the parameter list — and
//!   checks them against the same [`CertConfig`] limits the AST gate
//!   enforced. Findings carry the *source* spans threaded through
//!   lowering, so a violation detected after transformation still
//!   points at the offending source line.
//!
//! * [`optimize_program`] runs a pass pipeline under a rollback gate:
//!   after every pass, the kernel is re-verified
//!   ([`brook_ir::verify::verify`]) and re-checked; a pass whose output
//!   is malformed, or that turned a compliant kernel non-compliant, is
//!   **rolled back** and the decision recorded as a [`PassRecord`] in
//!   the `ComplianceReport` — optimization can never bypass
//!   certification, it can only be refused by it.

use crate::engine::{CertConfig, Finding};
use crate::rules::RuleId;
use brook_ir::passes::Pass;
use brook_ir::verify::verify;
use brook_ir::{Inst, IrKernel, IrProgram, Node};
use brook_lang::ast::ParamKind;
use brook_lang::builtins::BUILTINS;
use brook_lang::diag::Severity;

/// What happened to one kernel under one pass.
#[derive(Debug, Clone, PartialEq)]
pub enum PassAction {
    /// The pass ran and its output survived the re-check.
    Applied {
        /// Whether the pass changed anything.
        changed: bool,
    },
    /// The pass's output failed the re-check and was discarded.
    RolledBack {
        /// Why (verifier error or the first new violation).
        reason: String,
    },
}

/// Provenance record of one (kernel, pass) pipeline step, stored in the
/// `ComplianceReport` so the certification data package shows exactly
/// which transformations ran and which were refused.
#[derive(Debug, Clone, PartialEq)]
pub struct PassRecord {
    /// Pass name (e.g. `"const-fold"`).
    pub pass: String,
    /// Kernel the pass ran on.
    pub kernel: String,
    /// Outcome.
    pub action: PassAction,
}

/// IR-level compliance result for one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct IrKernelCheck {
    /// Kernel name.
    pub kernel: String,
    /// Violations and notes (error severity means non-compliant).
    pub findings: Vec<Finding>,
    /// Worst-case instruction estimate over the IR (None with unbounded
    /// loops).
    pub instruction_estimate: Option<u64>,
}

impl IrKernelCheck {
    /// True when no finding is an error.
    pub fn is_compliant(&self) -> bool {
        self.findings.iter().all(|f| f.severity != Severity::Error)
    }
}

/// Per-instruction cost mirroring the AST estimator's units (builtin
/// cost table, texture fetches dominating).
pub(crate) fn inst_cost(inst: &Inst) -> u64 {
    match inst {
        Inst::Nop => 0,
        Inst::Builtin { which, .. } => BUILTINS[*which as usize].cost as u64,
        Inst::Gather { .. } => 4,
        _ => 1,
    }
}

fn nodes_estimate(k: &IrKernel, nodes: &[Node]) -> Option<u64> {
    let mut total = 0u64;
    for n in nodes {
        let c = match n {
            Node::Seq { start, end } => (*start..*end)
                .map(|i| inst_cost(&k.insts[i as usize]))
                .sum::<u64>(),
            Node::If { then, els, .. } => {
                // GPU predication executes both sides.
                1 + nodes_estimate(k, then)? + nodes_estimate(k, els)?
            }
            Node::Loop(l) => {
                let trips = l.bound.trips()?;
                let per_iter = nodes_estimate(k, &l.header)? + nodes_estimate(k, &l.body)? + 1;
                trips.checked_mul(per_iter)?
            }
        };
        total = total.checked_add(c)?;
    }
    Some(total)
}

fn collect_loops<'a>(nodes: &'a [Node], out: &mut Vec<&'a brook_ir::LoopNode>) {
    for n in nodes {
        match n {
            Node::Loop(l) => {
                out.push(l);
                collect_loops(&l.header, out);
                collect_loops(&l.body, out);
            }
            Node::If { then, els, .. } => {
                collect_loops(then, out);
                collect_loops(els, out);
            }
            Node::Seq { .. } => {}
        }
    }
}

/// Re-checks one lowered (and possibly transformed) kernel against the
/// gate limits. Findings point at the original source via the spans
/// lowering threaded through.
pub fn check_kernel(k: &IrKernel, config: &CertConfig) -> IrKernelCheck {
    check_kernel_impl(k, config, true)
}

fn check_kernel_impl(k: &IrKernel, config: &CertConfig, run_verify: bool) -> IrKernelCheck {
    let mut findings = Vec::new();
    // Structural well-formedness first: malformed IR is never compliant.
    // (Callers that just verified — the pass pipeline — skip the
    // duplicate walk.)
    if run_verify {
        if let Err(e) = verify(k) {
            findings.push(Finding {
                rule: RuleId::NoFaultPropagation,
                severity: Severity::Error,
                message: e.to_string(),
                span: k.span,
            });
            // Malformed IR is never compliant, and walking it further
            // would chase the very out-of-range indices the verifier
            // just reported.
            return IrKernelCheck {
                kernel: k.name.clone(),
                findings,
                instruction_estimate: None,
            };
        }
    }
    // BA003 — loop bounds, from the region metadata.
    let mut loops = Vec::new();
    collect_loops(&k.body, &mut loops);
    for l in &loops {
        match l.bound.trips() {
            Some(trips) if trips > config.max_loop_trips => findings.push(Finding {
                rule: RuleId::BoundedLoops,
                severity: Severity::Error,
                message: format!(
                    "loop trip count {trips} exceeds the target limit {}",
                    config.max_loop_trips
                ),
                span: l.span,
            }),
            Some(trips) => findings.push(Finding {
                rule: RuleId::BoundedLoops,
                severity: Severity::Note,
                message: format!("loop bound carried through lowering: {trips} iterations"),
                span: l.span,
            }),
            None => findings.push(Finding {
                rule: RuleId::BoundedLoops,
                severity: Severity::Error,
                message: match &l.bound {
                    brook_lang::loopbound::LoopBound::Unbounded { reason } => {
                        format!("loop trip count cannot be deduced: {reason}")
                    }
                    _ => "loop trip count cannot be deduced".into(),
                },
                span: l.span,
            }),
        }
    }
    // BA005 / BA006 — I/O limits from the parameter list.
    let outputs = k
        .params
        .iter()
        .filter(|p| matches!(p.kind, ParamKind::OutStream | ParamKind::ReduceOut))
        .count() as u32;
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
    }
    let inputs = k
        .params
        .iter()
        .filter(|p| matches!(p.kind, ParamKind::Stream | ParamKind::Gather { .. }))
        .count() as u32;
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
    // BA010 — instruction budget over the flat stream.
    let estimate = nodes_estimate(k, &k.body);
    match estimate {
        Some(est) if est > config.max_instructions => findings.push(Finding {
            rule: RuleId::InstructionBudget,
            severity: Severity::Error,
            message: format!(
                "worst-case IR instruction estimate {est} exceeds the target budget {}",
                config.max_instructions
            ),
            span: k.span,
        }),
        Some(est) => findings.push(Finding {
            rule: RuleId::InstructionBudget,
            severity: Severity::Note,
            message: format!("worst-case IR instruction estimate: {est}"),
            span: k.span,
        }),
        None => findings.push(Finding {
            rule: RuleId::InstructionBudget,
            severity: Severity::Error,
            message: "instruction count cannot be bounded because a loop is unbounded".into(),
            span: k.span,
        }),
    }
    IrKernelCheck {
        kernel: k.name.clone(),
        findings,
        instruction_estimate: estimate,
    }
}

/// Re-checks every kernel of a program; `true` when all are compliant.
pub fn check_program(p: &IrProgram, config: &CertConfig) -> (Vec<IrKernelCheck>, bool) {
    let checks: Vec<IrKernelCheck> = p.kernels.iter().map(|k| check_kernel(k, config)).collect();
    let ok = checks.iter().all(|c| c.is_compliant());
    (checks, ok)
}

/// Runs `passes` over every kernel under the rollback gate. Returns the
/// provenance records (store them in `ComplianceReport::passes`).
pub fn optimize_program(p: &mut IrProgram, config: &CertConfig, passes: &[Box<dyn Pass>]) -> Vec<PassRecord> {
    let baseline: Vec<bool> = p
        .kernels
        .iter()
        .map(|k| check_kernel(k, config).is_compliant())
        .collect();
    optimize_program_from(p, &baseline, config, passes)
}

/// [`optimize_program`] for a caller that has just re-checked the
/// program: `baseline[i]` is whether `p.kernels[i]` was compliant
/// before the passes (the verdicts of [`check_program`]), so the gate
/// does not check the same IR a second time.
///
/// Each kernel is snapshotted once; the snapshot is re-taken only after
/// an accepted change, and a rollback restores it in place.
pub fn optimize_program_from(
    p: &mut IrProgram,
    baseline: &[bool],
    config: &CertConfig,
    passes: &[Box<dyn Pass>],
) -> Vec<PassRecord> {
    assert_eq!(baseline.len(), p.kernels.len(), "one baseline verdict per kernel");
    let mut records = Vec::with_capacity(p.kernels.len() * passes.len());
    for (k, &baseline_ok) in p.kernels.iter_mut().zip(baseline) {
        let mut snapshot = k.clone();
        for (i, pass) in passes.iter().enumerate() {
            // Gate on the actual diff, not the pass's self-reported
            // flag: a buggy pass that mutates but returns false is
            // exactly the threat this pipeline exists to contain.
            let changed = pass.run(k) || *k != snapshot;
            let action = if !changed {
                PassAction::Applied { changed: false }
            } else {
                match verify(k) {
                    Err(e) => {
                        k.clone_from(&snapshot);
                        PassAction::RolledBack {
                            reason: e.to_string(),
                        }
                    }
                    Ok(()) => {
                        // The verifier just ran; skip its second walk.
                        let after = check_kernel_impl(k, config, false);
                        if baseline_ok && !after.is_compliant() {
                            let first = after
                                .findings
                                .iter()
                                .find(|f| f.severity == Severity::Error)
                                .map(|f| format!("[{}] {} (source {})", f.rule.code(), f.message, f.span))
                                .unwrap_or_else(|| "unspecified violation".into());
                            k.clone_from(&snapshot);
                            PassAction::RolledBack { reason: first }
                        } else {
                            // The next pass diffs against, and rolls
                            // back to, the accepted kernel.
                            if i + 1 < passes.len() {
                                snapshot.clone_from(k);
                            }
                            PassAction::Applied { changed: true }
                        }
                    }
                }
            };
            records.push(PassRecord {
                pass: pass.name().to_owned(),
                kernel: k.name.clone(),
                action,
            });
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use brook_ir::lower::lower_kernel;
    use brook_ir::passes::default_passes;
    use brook_lang::parse_and_check;

    fn lower_src(src: &str) -> IrProgram {
        let checked = parse_and_check(src).expect("front-end");
        let (p, errs) = brook_ir::lower::lower_program(&checked);
        assert!(errs.is_empty(), "{errs:?}");
        p
    }

    #[test]
    fn compliant_kernel_recertifies_after_lowering() {
        let p = lower_src(
            "kernel void f(float a<>, out float o<>) {
                float s = 0.0;
                int i;
                for (i = 0; i < 16; i++) { s += a; }
                o = s;
            }",
        );
        let (checks, ok) = check_program(&p, &CertConfig::default());
        assert!(ok, "{:?}", checks[0].findings);
        assert!(checks[0].instruction_estimate.is_some());
    }

    #[test]
    fn over_limit_loop_flagged_with_source_span() {
        let src = "kernel void f(float a<>, out float o<>) {\n    float s = 0.0;\n    int i;\n    for (i = 0; i < 16; i++) { s += a; }\n    o = s;\n}";
        let p = lower_src(src);
        let cfg = CertConfig {
            max_loop_trips: 8,
            ..CertConfig::default()
        };
        let (checks, ok) = check_program(&p, &cfg);
        assert!(!ok);
        let f = checks[0]
            .findings
            .iter()
            .find(|f| f.rule == RuleId::BoundedLoops && f.severity == Severity::Error)
            .expect("BA003 violation");
        assert_eq!(f.span.line, 4, "finding must point at the for-loop's source line");
    }

    #[test]
    fn default_pipeline_applies_cleanly() {
        let mut p = lower_src("kernel void f(float a<>, out float o<>) { o = a * 1.0 + 2.0 * 3.0; }");
        let recs = optimize_program(&mut p, &CertConfig::default(), &default_passes());
        assert_eq!(recs.len(), 4);
        assert!(
            recs.iter()
                .all(|r| matches!(r.action, PassAction::Applied { .. })),
            "{recs:?}"
        );
        assert!(recs
            .iter()
            .any(|r| matches!(r.action, PassAction::Applied { changed: true })));
    }

    /// A sabotaging pass whose output is malformed IR: the gate must
    /// roll it back and record why.
    struct Saboteur;
    impl Pass for Saboteur {
        fn name(&self) -> &'static str {
            "saboteur"
        }
        fn run(&self, k: &mut IrKernel) -> bool {
            // Retarget the first elementwise read at the output
            // parameter — the read-own-output malformation.
            for inst in &mut k.insts {
                if let Inst::ReadElem { param, .. } = inst {
                    *param = (k.params.len() - 1) as u16;
                    return true;
                }
            }
            false
        }
    }

    #[test]
    fn malformed_pass_output_is_rolled_back() {
        let src = "kernel void f(float a<>, out float o<>) { o = a + 1.0; }";
        let mut p = lower_src(src);
        let original = p.kernels[0].clone();
        let recs = optimize_program(
            &mut p,
            &CertConfig::default(),
            &[Box::new(Saboteur) as Box<dyn Pass>],
        );
        assert_eq!(recs.len(), 1);
        let PassAction::RolledBack { reason } = &recs[0].action else {
            panic!("saboteur must be rolled back: {recs:?}");
        };
        assert!(reason.contains("read-own-output"), "{reason}");
        assert_eq!(p.kernels[0], original, "rollback must restore the kernel");
    }

    /// A pass that inflates the loop-bound metadata past the limit: the
    /// re-check catches the (would-be) certification violation and the
    /// finding points at the loop's source line.
    struct BoundInflater;
    impl Pass for BoundInflater {
        fn name(&self) -> &'static str {
            "bound-inflater"
        }
        fn run(&self, k: &mut IrKernel) -> bool {
            fn bump(nodes: &mut [Node]) -> bool {
                for n in nodes {
                    match n {
                        Node::Loop(l) => {
                            l.bound = brook_lang::loopbound::LoopBound::Unbounded {
                                reason: "sabotaged".into(),
                            };
                            return true;
                        }
                        Node::If { then, els, .. } => {
                            if bump(then) || bump(els) {
                                return true;
                            }
                        }
                        Node::Seq { .. } => {}
                    }
                }
                false
            }
            bump(&mut k.body)
        }
    }

    /// Malformed IR is reported non-compliant — the public check API
    /// must never chase the out-of-range indices the verifier found.
    #[test]
    fn malformed_ir_is_noncompliant_not_a_panic() {
        let mut p = lower_src("kernel void f(float a<>, out float o<>) { o = sin(a); }");
        for inst in &mut p.kernels[0].insts {
            if let Inst::Builtin { which, .. } = inst {
                *which = 9999;
            }
        }
        let (checks, ok) = check_program(&p, &CertConfig::default());
        assert!(!ok);
        assert!(checks[0]
            .findings
            .iter()
            .any(|f| f.message.contains("IR verification failed")));
        assert_eq!(checks[0].instruction_estimate, None);
    }

    /// A pass that mutates the kernel but *lies* about it (returns
    /// `false`) is still gated: the pipeline diffs against the snapshot
    /// instead of trusting the flag.
    struct LyingSaboteur;
    impl Pass for LyingSaboteur {
        fn name(&self) -> &'static str {
            "lying-saboteur"
        }
        fn run(&self, k: &mut IrKernel) -> bool {
            for inst in &mut k.insts {
                if let Inst::ReadElem { param, .. } = inst {
                    *param = (k.params.len() - 1) as u16;
                    return false; // the lie
                }
            }
            false
        }
    }

    #[test]
    fn pass_lying_about_changes_is_still_rolled_back() {
        let src = "kernel void f(float a<>, out float o<>) { o = a + 1.0; }";
        let mut p = lower_src(src);
        let original = p.kernels[0].clone();
        let recs = optimize_program(
            &mut p,
            &CertConfig::default(),
            &[Box::new(LyingSaboteur) as Box<dyn Pass>],
        );
        assert!(
            matches!(recs[0].action, PassAction::RolledBack { .. }),
            "{recs:?}"
        );
        assert_eq!(p.kernels[0], original);
    }

    #[test]
    fn cert_violating_pass_output_is_rolled_back() {
        let src = "kernel void f(float a<>, out float o<>) {\n    float s = 0.0;\n    int i;\n    for (i = 0; i < 8; i++) { s += a; }\n    o = s;\n}";
        let checked = parse_and_check(src).expect("front-end");
        let kdef = checked.program.kernels().next().expect("kernel");
        let k = lower_kernel(&checked, kdef).expect("lower");
        let mut p = IrProgram {
            kernels: vec![k.clone()],
        };
        let recs = optimize_program(
            &mut p,
            &CertConfig::default(),
            &[Box::new(BoundInflater) as Box<dyn Pass>],
        );
        let PassAction::RolledBack { reason } = &recs[0].action else {
            panic!("bound inflater must be rolled back: {recs:?}");
        };
        assert!(reason.contains("BA003"), "{reason}");
        assert!(
            reason.contains("source 4:"),
            "must cite the loop's source line: {reason}"
        );
        assert_eq!(p.kernels[0], k);
    }
}
