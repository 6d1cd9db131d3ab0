//! Golden-snapshot tests for the shader the device runs: GLSL generated
//! from the lowered *and optimized* BrookIR (the default pass pipeline,
//! as at compile time), pinned against committed `.glsl` fixtures. The
//! `golden_ir` suite pins the same kernels straight after lowering, so a
//! drift in either the optimizer's effect on the shader or the generator
//! itself shows up as a reviewable diff.
//!
//! To update the fixtures after an *intentional* change:
//!
//! ```text
//! BROOK_BLESS=1 cargo test -p brook-codegen --test golden
//! ```
//!
//! then review the diff like any other code change.

mod common;

use brook_codegen::{KernelShapes, StorageMode, StreamRank};
use brook_ir::passes::default_passes;
use brook_ir::verify::verify;
use common::{assert_no_orphans, check_golden, lower};

fn check(name: &str, src: &str, kernel: &str, output: &str, shapes: KernelShapes, storage: StorageMode) {
    let mut ir = lower(src);
    for k in &mut ir.kernels {
        for pass in default_passes() {
            pass.run(k);
            verify(k).unwrap_or_else(|e| panic!("`{}` broke `{}`: {e}", pass.name(), k.name));
        }
    }
    check_golden("golden", name, &ir, kernel, output, shapes, storage);
}

/// The canonical elementwise kernel on the native-float desktop profile.
#[test]
fn golden_saxpy_native_grid() {
    check(
        "saxpy_native_grid",
        "kernel void saxpy(float x<>, float y<>, float alpha, out float r<>) { r = alpha * x + y; }",
        "saxpy",
        "r",
        KernelShapes::default()
            .with("x", StreamRank::Grid)
            .with("y", StreamRank::Grid)
            .with("r", StreamRank::Grid),
        StorageMode::Native,
    );
}

/// Packed RGBA8 storage: every fetch routes through `ba_decode` and the
/// result through `ba_encode` (paper §5.4).
#[test]
fn golden_scale_packed_linear() {
    check(
        "scale_packed_linear",
        "kernel void scale(float a<>, float k, out float o<>) { o = a * k; }",
        "scale",
        "o",
        KernelShapes::default()
            .with("a", StreamRank::Linear)
            .with("o", StreamRank::Linear),
        StorageMode::Packed,
    );
}

/// Gathers in both ranks: logical-space edge clamping plus the hidden
/// `_meta_*` size uniforms (paper §5.2-§5.3).
#[test]
fn golden_gather_mix_packed() {
    check(
        "gather_mix_packed",
        "kernel void g(float lut[], float m[][], float i<>, out float o<>) {
            o = lut[int(i)] + m[int(i) + 1][int(i)];
        }",
        "g",
        "o",
        KernelShapes::default()
            .with("lut", StreamRank::Linear)
            .with("m", StreamRank::Grid)
            .with("i", StreamRank::Linear)
            .with("o", StreamRank::Linear),
        StorageMode::Packed,
    );
}

/// Control flow, `indexof` and a helper call in one kernel.
#[test]
fn golden_loop_indexof_helper_native() {
    check(
        "loop_indexof_helper_native",
        "float sq(float v) { return v * v; }
         kernel void f(float a<>, out float o<>) {
            float s = 0.0;
            int i;
            for (i = 0; i < 8; i += 1) {
                if (a > 0.5) { s += sq(a); } else { s -= 0.25; }
            }
            o = s + indexof(o).x;
         }",
        "f",
        "o",
        KernelShapes::default()
            .with("a", StreamRank::Grid)
            .with("o", StreamRank::Grid),
        StorageMode::Native,
    );
}

/// The shape the stream-graph fuser emits (see `brook-auto`'s graph
/// planner): a producer's body inlined ahead of the consumer's, its
/// output let-bound to the zero-initialized local `t0`. Pinned in packed
/// storage so the let-bound intermediate demonstrably stays in registers
/// — no `ba_encode`/`ba_decode` round-trip between the fused halves.
/// (`brook-auto`'s `tests/graph.rs` pins the planner's actual output in
/// native storage.)
#[test]
fn golden_fused_chain_packed() {
    check(
        "fused_chain_packed",
        "kernel void fused_dbl_inc(float in0<>, out float o0<>) {
    float t0 = 0.0;
    t0 = (in0 * 2.0);
    o0 = (t0 + 1.0);
}",
        "fused_dbl_inc",
        "o0",
        KernelShapes::default()
            .with("in0", StreamRank::Linear)
            .with("o0", StreamRank::Linear),
        StorageMode::Packed,
    );
}

/// Every fixture on disk corresponds to a test above (no stale goldens).
#[test]
fn no_orphan_fixtures() {
    assert_no_orphans(
        "golden",
        &[
            "saxpy_native_grid.glsl",
            "scale_packed_linear.glsl",
            "gather_mix_packed.glsl",
            "loop_indexof_helper_native.glsl",
            "fused_chain_packed.glsl",
        ],
    );
}
