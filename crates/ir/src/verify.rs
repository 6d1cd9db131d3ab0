//! The BrookIR verifier: structural and type well-formedness.
//!
//! Every backend path runs a kernel's IR through [`verify`] before
//! executing it (the context verifies at launch, the fusion planner at
//! fuse time, the pass pipeline after every pass), so malformed IR —
//! whether hand-built, produced by a buggy pass, or corrupted — is
//! rejected uniformly instead of miscomputing on one substrate.
//!
//! Checked properties:
//!
//! * **bounds**: every register, parameter index, output slot, builtin
//!   index and jump target is in range;
//! * **kinds**: `ReadElem` only reads elementwise *input* streams (a
//!   `ReadElem` of an `out` parameter is the read-own-output shape the
//!   launch layer forbids), `ReadScalar` only scalars, `Gather` only
//!   gather parameters with matching rank;
//! * **types**: logical operators and branch/select conditions take
//!   `bool` registers, arithmetic never takes `bool`, comparisons are
//!   scalar — the static mirror of the interpreter's dynamic faults;
//! * **structure**: the region tree tiles the instruction stream
//!   exactly; every `Jump`/`BranchIfFalse` appears where the tree says,
//!   loop exits target the instruction after the back-edge and
//!   back-edges target their loop head. A loop region whose exit
//!   branch is missing or escapes the region (an *unbounded region*)
//!   is structurally rejected.

use crate::{Inst, IrKernel, LoopKind, Node, Reg};
use brook_lang::ast::{BinOp, ParamKind, ScalarKind, Type, UnOp};
use brook_lang::builtins::BUILTINS;

/// A verification failure.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    /// What is malformed.
    pub msg: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IR verification failed: {}", self.msg)
    }
}

fn err(msg: impl Into<String>) -> VerifyError {
    VerifyError { msg: msg.into() }
}

/// Verifies one kernel. See the module docs for the property list.
///
/// # Errors
/// The first malformation found.
pub fn verify(k: &IrKernel) -> Result<(), VerifyError> {
    if k.spans.len() != k.insts.len() {
        return Err(err("span table length does not match the instruction stream"));
    }
    for (slot, &p) in k.outputs.iter().enumerate() {
        let param = k.params.get(p as usize).ok_or_else(|| {
            err(format!(
                "output slot {slot} references parameter {p} out of range"
            ))
        })?;
        if param.kind != ParamKind::OutStream {
            return Err(err(format!(
                "output slot {slot} references non-output parameter `{}`",
                param.name
            )));
        }
    }
    let mut reads = Vec::new();
    for (i, inst) in k.insts.iter().enumerate() {
        verify_inst(k, i, inst, &mut reads)?;
    }
    verify_structure(k)?;
    Ok(())
}

fn reg_ty(k: &IrKernel, i: usize, r: Reg) -> Result<Type, VerifyError> {
    k.regs
        .get(r as usize)
        .copied()
        .ok_or_else(|| err(format!("instruction {i} references register r{r} out of range")))
}

fn expect_bool(k: &IrKernel, i: usize, r: Reg, what: &str) -> Result<(), VerifyError> {
    let t = reg_ty(k, i, r)?;
    if t != Type::BOOL {
        return Err(err(format!(
            "type mismatch at instruction {i}: {what} must be bool, register r{r} is `{t}`"
        )));
    }
    Ok(())
}

fn param_of(k: &IrKernel, i: usize, p: u16) -> Result<&crate::IrParam, VerifyError> {
    k.params
        .get(p as usize)
        .ok_or_else(|| err(format!("instruction {i} references parameter {p} out of range")))
}

/// Checks one instruction; `reads` is scratch space for its operands.
fn verify_inst(k: &IrKernel, i: usize, inst: &Inst, reads: &mut Vec<Reg>) -> Result<(), VerifyError> {
    // Bounds on every register mention.
    if let Some(d) = inst.dst() {
        reg_ty(k, i, d)?;
    }
    reads.clear();
    inst.reads(reads);
    for r in reads.iter() {
        reg_ty(k, i, *r)?;
    }
    match inst {
        Inst::Bin { dst, op, lhs, rhs } => {
            let lt = reg_ty(k, i, *lhs)?;
            let rt = reg_ty(k, i, *rhs)?;
            if op.is_logical() {
                if lt != Type::BOOL || rt != Type::BOOL {
                    return Err(err(format!(
                        "type mismatch at instruction {i}: `{}` requires bool operands, found `{lt}` \
                         and `{rt}`",
                        op.as_str()
                    )));
                }
                expect_bool(k, i, *dst, "logical result")?;
            } else if op.is_comparison() {
                let bools = (lt == Type::BOOL, rt == Type::BOOL);
                match bools {
                    // bool == bool / bool != bool is legal Brook.
                    (true, true) if matches!(op, BinOp::Eq | BinOp::Ne) => {}
                    (true, _) | (_, true) => {
                        return Err(err(format!(
                            "type mismatch at instruction {i}: comparison `{}` on bool operands",
                            op.as_str()
                        )));
                    }
                    _ => {
                        if lt.width > 1 || rt.width > 1 {
                            return Err(err(format!(
                                "type mismatch at instruction {i}: comparison `{}` on vector operands",
                                op.as_str()
                            )));
                        }
                    }
                }
                expect_bool(k, i, *dst, "comparison result")?;
            } else if lt == Type::BOOL || rt == Type::BOOL {
                return Err(err(format!(
                    "type mismatch at instruction {i}: arithmetic `{}` on bool operands",
                    op.as_str()
                )));
            }
        }
        Inst::Un { dst, op, src } => match op {
            UnOp::Not => {
                expect_bool(k, i, *src, "`!` operand")?;
                expect_bool(k, i, *dst, "`!` result")?;
            }
            UnOp::Neg => {
                if reg_ty(k, i, *src)? == Type::BOOL {
                    return Err(err(format!("type mismatch at instruction {i}: negating a bool")));
                }
            }
        },
        Inst::Construct { width, .. } if !(1..=4).contains(width) => {
            return Err(err(format!(
                "instruction {i}: constructor width {width} out of range"
            )));
        }
        Inst::Builtin { which, args, .. } => {
            let Some(b) = BUILTINS.get(*which as usize) else {
                return Err(err(format!(
                    "instruction {i}: builtin index {which} out of range"
                )));
            };
            let want = brook_lang::builtins::builtin_arity(b);
            if args.len() != want {
                return Err(err(format!(
                    "instruction {i}: builtin `{}` takes {want} argument(s), found {}",
                    b.name,
                    args.len()
                )));
            }
        }
        Inst::Select { cond, .. } => expect_bool(k, i, *cond, "select condition")?,
        Inst::ReadElem { param, .. } => {
            let p = param_of(k, i, *param)?;
            if p.kind != ParamKind::Stream {
                return Err(err(format!(
                    "instruction {i}: ReadElem of `{}` which is not an elementwise input stream \
                     (reading an output stream elementwise is the read-own-output shape the \
                     launch layer forbids)",
                    p.name
                )));
            }
        }
        Inst::ReadScalar { param, .. } => {
            let p = param_of(k, i, *param)?;
            if p.kind != ParamKind::Scalar {
                return Err(err(format!(
                    "instruction {i}: ReadScalar of non-scalar parameter `{}`",
                    p.name
                )));
            }
        }
        Inst::ReadOut { out, .. } | Inst::WriteOut { out, .. } if *out as usize >= k.outputs.len() => {
            return Err(err(format!("instruction {i}: output slot {out} out of range")));
        }
        Inst::Gather { param, idx, .. } => {
            let p = param_of(k, i, *param)?;
            let ParamKind::Gather { rank } = p.kind else {
                return Err(err(format!(
                    "instruction {i}: Gather of non-gather parameter `{}`",
                    p.name
                )));
            };
            if idx.len() != rank as usize {
                return Err(err(format!(
                    "instruction {i}: gather `{}` has rank {rank} but {} indices",
                    p.name,
                    idx.len()
                )));
            }
            for r in idx {
                let t = reg_ty(k, i, *r)?;
                if !(t == Type::INT || t.scalar == ScalarKind::Float && t.width == 1) {
                    return Err(err(format!(
                        "type mismatch at instruction {i}: gather index register r{r} is `{t}`, \
                         expected a scalar int or float"
                    )));
                }
            }
        }
        Inst::Indexof { param, .. } => {
            let p = param_of(k, i, *param)?;
            if !matches!(
                p.kind,
                ParamKind::Stream | ParamKind::OutStream | ParamKind::ReduceOut
            ) {
                return Err(err(format!(
                    "instruction {i}: indexof of non-stream parameter `{}`",
                    p.name
                )));
            }
        }
        Inst::Jump { target } | Inst::BranchIfFalse { target, .. } => {
            if *target as usize > k.insts.len() {
                return Err(err(format!(
                    "instruction {i}: jump target {target} past the end of the stream"
                )));
            }
            if let Inst::BranchIfFalse { cond, .. } = inst {
                expect_bool(k, i, *cond, "branch condition")?;
            }
        }
        _ => {}
    }
    Ok(())
}

/// Walks the region tree with a cursor, checking that it tiles the
/// instruction stream and that every control instruction matches.
fn verify_structure(k: &IrKernel) -> Result<(), VerifyError> {
    let end = check_nodes(k, &k.body, 0)?;
    if end != k.insts.len() as u32 {
        return Err(err(format!(
            "region tree covers instructions 0..{end} but the stream has {}",
            k.insts.len()
        )));
    }
    Ok(())
}

fn is_control(inst: &Inst) -> bool {
    matches!(inst, Inst::Jump { .. } | Inst::BranchIfFalse { .. })
}

fn check_nodes(k: &IrKernel, nodes: &[Node], mut cursor: u32) -> Result<u32, VerifyError> {
    for n in nodes {
        cursor = check_node(k, n, cursor)?;
    }
    Ok(cursor)
}

fn branch_target(k: &IrKernel, at: u32) -> Result<(Reg, u32), VerifyError> {
    match k.insts.get(at as usize) {
        Some(Inst::BranchIfFalse { cond, target }) => Ok((*cond, *target)),
        other => Err(err(format!(
            "expected BranchIfFalse at instruction {at}, found {other:?}"
        ))),
    }
}

fn jump_target(k: &IrKernel, at: u32) -> Result<u32, VerifyError> {
    match k.insts.get(at as usize) {
        Some(Inst::Jump { target }) => Ok(*target),
        other => Err(err(format!("expected Jump at instruction {at}, found {other:?}"))),
    }
}

fn check_node(k: &IrKernel, n: &Node, cursor: u32) -> Result<u32, VerifyError> {
    match n {
        Node::Seq { start, end } => {
            if *start != cursor || end < start || *end as usize > k.insts.len() {
                return Err(err(format!(
                    "sequence [{start}, {end}) does not continue the region tree at {cursor}"
                )));
            }
            for i in *start..*end {
                if is_control(&k.insts[i as usize]) {
                    return Err(err(format!(
                        "control-flow instruction {i} inside a straight-line sequence"
                    )));
                }
            }
            Ok(*end)
        }
        Node::If {
            cond,
            branch_at,
            then,
            jump_at,
            els,
        } => {
            if *branch_at != cursor {
                return Err(err(format!(
                    "if-branch at {branch_at} does not continue the region tree at {cursor}"
                )));
            }
            let (bcond, btarget) = branch_target(k, *branch_at)?;
            if bcond != *cond {
                return Err(err(format!(
                    "if-node condition r{cond} disagrees with branch condition r{bcond}"
                )));
            }
            let after_then = check_nodes(k, then, branch_at + 1)?;
            match jump_at {
                Some(j) => {
                    if *j != after_then {
                        return Err(err(format!(
                            "else-skip at {j} does not follow the then-branch ending at {after_then}"
                        )));
                    }
                    let jtarget = jump_target(k, *j)?;
                    if btarget != j + 1 {
                        return Err(err(format!(
                            "if-branch target {btarget} is not the else-branch start {}",
                            j + 1
                        )));
                    }
                    let after_else = check_nodes(k, els, j + 1)?;
                    if jtarget != after_else {
                        return Err(err(format!(
                            "else-skip target {jtarget} is not the if-region end {after_else}"
                        )));
                    }
                    Ok(after_else)
                }
                None => {
                    if !els.is_empty() {
                        return Err(err("else branch without an else-skip jump"));
                    }
                    if btarget != after_then {
                        return Err(err(format!(
                            "if-branch target {btarget} is not the if-region end {after_then}"
                        )));
                    }
                    Ok(after_then)
                }
            }
        }
        Node::Loop(l) => {
            let region_start = cursor;
            let (after_first, after_second) = match l.kind {
                LoopKind::For | LoopKind::While => {
                    let h_end = check_nodes(k, &l.header, cursor)?;
                    if l.exit_at != h_end {
                        return Err(err(format!(
                            "loop exit at {} does not follow its header ending at {h_end} — the \
                             region has no exit test (unbounded loop region)",
                            l.exit_at
                        )));
                    }
                    let b_end = check_nodes(k, &l.body, l.exit_at + 1)?;
                    (h_end, b_end)
                }
                LoopKind::DoWhile => {
                    let b_end = check_nodes(k, &l.body, cursor)?;
                    let h_end = check_nodes(k, &l.header, b_end)?;
                    if l.exit_at != h_end {
                        return Err(err(format!(
                            "do/while exit at {} does not follow its condition ending at {h_end} \
                             (unbounded loop region)",
                            l.exit_at
                        )));
                    }
                    (b_end, h_end)
                }
            };
            let _ = after_first;
            if l.back_at != after_second {
                return Err(err(format!(
                    "loop back-edge at {} does not close the region ending at {after_second}",
                    l.back_at
                )));
            }
            let (bcond, btarget) = branch_target(k, l.exit_at)?;
            if bcond != l.cond {
                return Err(err(format!(
                    "loop condition r{} disagrees with exit-branch condition r{bcond}",
                    l.cond
                )));
            }
            if btarget != l.back_at + 1 {
                return Err(err(format!(
                    "loop exit target {btarget} does not leave the region (expected {}) — the \
                     region cannot terminate (unbounded loop region)",
                    l.back_at + 1
                )));
            }
            let back = jump_target(k, l.back_at)?;
            if back != region_start {
                return Err(err(format!(
                    "loop back-edge target {back} is not the region head {region_start}"
                )));
            }
            Ok(l.back_at + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_kernel;
    use brook_lang::parse_and_check;

    fn lower_src(src: &str) -> IrKernel {
        let checked = parse_and_check(src).expect("front-end");
        let kdef = checked.program.kernels().next().expect("kernel");
        lower_kernel(&checked, kdef).expect("lower")
    }

    #[test]
    fn lowered_kernels_verify() {
        for src in [
            "kernel void add(float a<>, float b<>, out float c<>) { c = a + b; }",
            "kernel void lp(float a<>, out float o<>) { float s = 0.0; int i; for (i = 0; i < 8; i++) { s += a; } o = s; }",
            "kernel void br(float a<>, out float o<>) { if (a > 0.0) { o = a; } else { o = -a; } }",
            "float sq(float x) { return x * x; } kernel void h(float a<>, out float o<>) { o = sq(a); }",
        ] {
            let k = lower_src(src);
            verify(&k).unwrap_or_else(|e| panic!("{src}: {e}"));
        }
    }

    #[test]
    fn read_own_output_rejected() {
        let mut k = lower_src("kernel void f(float a<>, out float o<>) { o = a; }");
        // Retarget the elementwise read at the output parameter.
        for inst in &mut k.insts {
            if let Inst::ReadElem { param, .. } = inst {
                *param = 1; // `o`
            }
        }
        let e = verify(&k).expect_err("must reject");
        assert!(e.msg.contains("read-own-output"), "{e}");
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut k = lower_src("kernel void f(float a<>, out float o<>) { o = a + 1.0; }");
        for inst in &mut k.insts {
            if let Inst::Bin { op, .. } = inst {
                *op = BinOp::And; // logical op on float registers
            }
        }
        let e = verify(&k).expect_err("must reject");
        assert!(e.msg.contains("type mismatch"), "{e}");
    }

    #[test]
    fn builtin_arity_mismatch_rejected() {
        let mut k = lower_src("kernel void f(float a<>, out float o<>) { o = sin(a); }");
        for inst in &mut k.insts {
            if let Inst::Builtin { args, .. } = inst {
                args.clear(); // sin() with zero arguments
            }
        }
        let e = verify(&k).expect_err("must reject");
        assert!(e.msg.contains("takes 1 argument"), "{e}");
    }

    #[test]
    fn loop_without_exit_rejected() {
        let mut k = lower_src(
            "kernel void f(float a<>, out float o<>) { float s = 0.0; int i; for (i = 0; i < 4; i++) { s += a; } o = s; }",
        );
        // Break the exit branch: point it back inside the region so the
        // loop can never terminate.
        fn find_loop(nodes: &mut [Node]) -> Option<&mut crate::LoopNode> {
            for n in nodes {
                if let Node::Loop(l) = n {
                    return Some(l);
                }
            }
            None
        }
        let exit_at = find_loop(&mut k.body).expect("loop").exit_at;
        if let Inst::BranchIfFalse { target, .. } = &mut k.insts[exit_at as usize] {
            *target = exit_at; // exit "escapes" into itself
        }
        let e = verify(&k).expect_err("must reject");
        assert!(e.msg.contains("unbounded loop region"), "{e}");
    }
}
