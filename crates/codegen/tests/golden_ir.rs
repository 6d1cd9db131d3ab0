//! Golden-snapshot tests for the generator on freshly lowered BrookIR:
//! GLSL from `generate_ir_kernel_shader`, pinned against committed
//! `.glsl` fixtures, so any codegen drift shows up as a reviewable diff.
//! The `golden` suite pins the same kernels after the optimizer, as the
//! device runs them.
//!
//! To update after an *intentional* change:
//!
//! ```text
//! BROOK_BLESS=1 cargo test -p brook-codegen --test golden_ir
//! ```

mod common;

use brook_codegen::{KernelShapes, StorageMode, StreamRank};
use common::{assert_no_orphans, check_golden, lower};

fn check(name: &str, src: &str, kernel: &str, output: &str, shapes: KernelShapes, storage: StorageMode) {
    check_golden("golden_ir", name, &lower(src), kernel, output, shapes, storage);
}

/// The canonical elementwise kernel on the native-float desktop profile.
#[test]
fn golden_ir_saxpy_native_grid() {
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

/// Packed RGBA8 storage: fetches route through `ba_decode`, the result
/// through `ba_encode` (paper §5.4).
#[test]
fn golden_ir_scale_packed_linear() {
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

/// Gathers in both ranks with the hidden `_meta_*` size uniforms.
#[test]
fn golden_ir_gather_mix_packed() {
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

/// Control flow, `indexof` and a helper call: the loop maps to the
/// gate-variable `for` pattern and the helper arrives pre-inlined — no
/// GLSL function definition is emitted for it.
#[test]
fn golden_ir_loop_indexof_helper_native() {
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

/// Every fixture on disk corresponds to a test above (no stale goldens).
#[test]
fn no_orphan_ir_fixtures() {
    assert_no_orphans(
        "golden_ir",
        &[
            "saxpy_native_grid.glsl",
            "scale_packed_linear.glsl",
            "gather_mix_packed.glsl",
            "loop_indexof_helper_native.glsl",
        ],
    );
}
