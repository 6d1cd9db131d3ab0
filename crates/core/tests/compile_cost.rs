//! Compile cost stays linear in the source size.
//!
//! Two compliant straight-line kernels of 16 000 statements (about
//! 510 KB each) must compile through `BrookContext::compile` in well
//! under the 10 s bound, in a debug build too: one long chain whose
//! last link feeds the output, and one whose chain is entirely dead.
//! The pass pipeline's value numbering and dead-code elimination are
//! the phases a quadratic algorithm would blow up on these shapes.

use brook_auto::BrookContext;
use std::time::{Duration, Instant};

const STATEMENTS: usize = 16_000;
const BOUND: Duration = Duration::from_secs(10);

/// `float tI = tI-1 * a + c;` for I in 1..=STATEMENTS, then `tail`.
fn chain_source(tail: &str) -> String {
    let mut src =
        String::from("kernel void chain(float a<>, float c<>, out float o<>) {\n    float t0 = a;\n");
    for i in 1..=STATEMENTS {
        src += &format!("    float t{i} = t{} * a + c;\n", i - 1);
    }
    src += tail;
    src += "\n}\n";
    src
}

/// Compiles `source`, asserting a compliant report within the bound,
/// and returns the optimized IR text.
fn compile_within_bound(what: &str, source: &str) -> String {
    let mut ctx = BrookContext::cpu();
    let t = Instant::now();
    let module = ctx
        .compile(source)
        .unwrap_or_else(|e| panic!("{what}: compile: {e}"));
    let took = t.elapsed();
    assert!(module.report.is_compliant(), "{what}: {:?}", module.report);
    assert!(took < BOUND, "{what}: compiling took {took:?}, bound {BOUND:?}");
    ctx.emit_ir(&module).expect("emit_ir")
}

#[test]
fn long_live_chain_compiles_in_linear_time() {
    let ir = compile_within_bound("live chain", &chain_source(&format!("    o = t{STATEMENTS};")));
    assert!(
        ir.contains(" * ") && ir.contains(" + "),
        "the live chain must survive"
    );
}

#[test]
fn long_dead_chain_compiles_in_linear_time_and_dies() {
    let ir = compile_within_bound("dead chain", &chain_source("    o = a;"));
    assert!(
        !ir.contains(" * ") && !ir.contains(" + "),
        "no arithmetic of the dead chain may survive:\n{}",
        &ir[..ir.len().min(2000)]
    );
}
