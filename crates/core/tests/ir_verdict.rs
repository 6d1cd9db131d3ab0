//! IR verification runs once, where a module is built, and every launch
//! reports the stored verdict: a malformed kernel is rejected on every
//! `run`, `reduce` and graph execution of its module — not only the
//! first — with the verifier's message, and the context stays usable.

use brook_auto::{registered_backends, Arg, BrookContext, BrookError, BrookModule};
use brook_ir::{Inst, IrProgram};
use brook_lang::parse_and_check;

const SRC: &str = "kernel void f(float a<>, out float o<>) { o = a + 1.0; }
reduce void s(float a<>, reduce float r<>) { r += a; }";

/// `SRC` lowered, with every elementwise read retargeted at a parameter
/// the kernel does not have.
fn malformed() -> IrProgram {
    let checked = parse_and_check(SRC).expect("front-end");
    let (mut ir, errs) = brook_ir::lower::lower_program(&checked);
    assert!(errs.is_empty(), "{errs:?}");
    for k in &mut ir.kernels {
        for inst in &mut k.insts {
            if let Inst::ReadElem { param, .. } = inst {
                *param = 99;
            }
        }
    }
    ir
}

/// The verifier's own message for kernel `name` of `ir`.
fn verifier_message(ir: &IrProgram, name: &str) -> String {
    let k = ir.kernel(name).expect("kernel");
    brook_ir::verify::verify(k).expect_err("malformed").to_string()
}

fn usage_message(err: BrookError) -> String {
    match err {
        BrookError::Usage(m) => m,
        other => panic!("expected a usage error, got {other}"),
    }
}

fn contexts() -> Vec<(&'static str, BrookContext)> {
    let mut all: Vec<(&'static str, BrookContext)> = registered_backends()
        .iter()
        .map(|b| (b.name, (b.make)()))
        .collect();
    all.push(("cpu-ast", BrookContext::cpu_ast_oracle()));
    all
}

/// Runs `f` and reduces `s` of `module`, built from `ir`, three times
/// each and asserts every launch is rejected with the verifier's
/// message; then checks the context still runs a valid module.
fn assert_every_launch_rejected(name: &str, ctx: &mut BrookContext, module: &BrookModule, ir: &IrProgram) {
    let (want_run, want_reduce) = (verifier_message(ir, "f"), verifier_message(ir, "s"));
    let a = ctx.stream(&[4]).expect("a");
    let o = ctx.stream(&[4]).expect("o");
    ctx.write(&a, &[1.0; 4]).expect("write");
    for attempt in 0..3 {
        let err = ctx
            .run(module, "f", &[Arg::Stream(&a), Arg::Stream(&o)])
            .expect_err("malformed kernel must be rejected");
        assert_eq!(usage_message(err), want_run, "{name}: run {attempt}");
        let err = ctx
            .reduce(module, "s", &a)
            .expect_err("malformed reduce must be rejected");
        assert_eq!(usage_message(err), want_reduce, "{name}: reduce {attempt}");
    }
    let good = ctx.compile(SRC).expect("compile");
    ctx.run(&good, "f", &[Arg::Stream(&a), Arg::Stream(&o)])
        .expect("the context stays usable");
    assert_eq!(ctx.read(&o).expect("read"), vec![2.0; 4], "{name}");
    assert_eq!(ctx.reduce(&good, "s", &a).expect("reduce"), 4.0, "{name}");
}

#[test]
fn malformed_kernel_rejected_on_every_launch_on_every_backend() {
    let ir = malformed();
    assert!(verifier_message(&ir, "f").contains("IR verification failed"));
    for (name, mut ctx) in contexts() {
        let module = ctx.module_with_raw_ir(SRC, ir.clone()).expect("module");
        assert_every_launch_rejected(name, &mut ctx, &module, &ir);
    }
}

#[test]
fn malformed_kernel_rejected_on_every_graph_execution() {
    let ir = malformed();
    let want = verifier_message(&ir, "f");
    for (name, mut ctx) in contexts() {
        let module = ctx.module_with_raw_ir(SRC, ir.clone()).expect("module");
        let a = ctx.stream(&[4]).expect("a");
        let o = ctx.stream(&[4]).expect("o");
        ctx.write(&a, &[1.0; 4]).expect("write");
        for attempt in 0..3 {
            let mut g = ctx.graph();
            g.run(&module, "f", &[Arg::Stream(&a), Arg::Stream(&o)])
                .expect("recording succeeds");
            let err = g.execute().expect_err("execution reports the verdict");
            assert_eq!(usage_message(err), want, "{name}: graph execution {attempt}");
        }
        let good = ctx.compile(SRC).expect("compile");
        let mut g = ctx.graph();
        g.run(&good, "f", &[Arg::Stream(&a), Arg::Stream(&o)])
            .expect("record");
        g.execute().expect("the context stays usable");
        assert_eq!(ctx.read(&o).expect("read"), vec![2.0; 4], "{name}");
    }
}
