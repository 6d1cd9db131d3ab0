//! Golden BrookIR snapshots for representative applications.
//!
//! `BrookContext::emit_ir` renders the lowered, optimized and
//! re-certified IR in its canonical textual form; these tests pin that
//! rendering for four structurally distinct apps — a gather-driven
//! matrix kernel (sgemm), an `indexof`-driven bounded-loop kernel
//! (mandelbrot), a log-stepped scan pass (prefix_sum) and a 3×3
//! convolution (image_filter) — so any change to lowering, the pass
//! pipeline or the printer is a reviewed diff, not an accident.
//!
//! Re-bless with `BROOK_BLESS=1 cargo test --test ir_golden`.

use brook_auto::BrookContext;
use std::path::PathBuf;

fn check_golden(name: &str, source: &str) {
    let mut ctx = BrookContext::cpu();
    let module = ctx
        .compile(source)
        .unwrap_or_else(|e| panic!("{name}: compile: {e}"));
    let ir = ctx
        .emit_ir(&module)
        .unwrap_or_else(|e| panic!("{name}: emit_ir: {e}"));
    // The debug surface must be deterministic.
    assert_eq!(
        ir,
        ctx.emit_ir(&module).unwrap(),
        "{name}: emit_ir is nondeterministic"
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden_ir")
        .join(format!("{name}.ir"));
    if std::env::var_os("BROOK_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &ir).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with BROOK_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        ir, expected,
        "{name}: IR drifted from its golden fixture; if intentional, re-bless with BROOK_BLESS=1"
    );
}

#[test]
fn sgemm_ir_matches_golden() {
    check_golden("sgemm", &brook_apps::sgemm::kernel_source(8));
}

#[test]
fn mandelbrot_ir_matches_golden() {
    check_golden("mandelbrot", &brook_apps::mandelbrot::kernel_source());
}

#[test]
fn prefix_sum_ir_matches_golden() {
    check_golden("prefix_sum", brook_apps::prefix_sum::KERNEL);
}

#[test]
fn image_filter_ir_matches_golden() {
    check_golden("image_filter", brook_apps::image_filter::KERNEL);
}

/// The golden renderings include the structural artifacts the IR layer
/// promises: recorded loop bounds and inlined straight-line math.
#[test]
fn golden_ir_carries_certification_artifacts() {
    let mut ctx = BrookContext::cpu();
    let module = ctx
        .compile(&brook_apps::mandelbrot::kernel_source())
        .expect("compile");
    let ir = ctx.emit_ir(&module).expect("emit");
    assert!(ir.contains("loop for [bound=256]"), "{ir}");
    assert!(ir.contains("indexof o"), "{ir}");
}

/// `emit_ir` refuses foreign modules like every other module-keyed API.
#[test]
fn emit_ir_rejects_foreign_modules() {
    let mut a = BrookContext::cpu();
    let b = BrookContext::cpu();
    let m = a
        .compile("kernel void f(float a<>, out float o<>) { o = a; }")
        .expect("compile");
    assert!(b.emit_ir(&m).is_err());
}

/// The Tier-2 compile decisions for the loop kernels of the suite, as
/// the compliance report records them: how many `for` loops run on a
/// static trip count, and how many of those stop at their first no-op
/// iteration. A specialization lost to a lowering or pass change fails
/// here instead of only showing as a slower benchmark.
#[test]
fn tier_counted_loop_plans_are_pinned() {
    let cases = [
        (
            "mandelbrot",
            brook_apps::mandelbrot::kernel_source(),
            "1 counted loops (1 quiescent-exit)",
        ),
        (
            "bsearch",
            brook_apps::binary_search::KERNEL.to_string(),
            "1 counted loops (1 quiescent-exit)",
        ),
        (
            "flops",
            brook_apps::flops::Flops::default().kernel_source(),
            "1 counted loops (0 quiescent-exit)",
        ),
        (
            "sgemm",
            brook_apps::sgemm::kernel_source(8),
            "1 counted loops (0 quiescent-exit)",
        ),
    ];
    for (kernel, source, want) in cases {
        let mut ctx = BrookContext::cpu();
        let module = ctx
            .compile(&source)
            .unwrap_or_else(|e| panic!("{kernel}: compile: {e}"));
        let plan = module
            .report
            .tier_plans
            .iter()
            .find(|p| p.kernel == kernel)
            .unwrap_or_else(|| panic!("{kernel}: no tier plan"));
        assert!(plan.compiled, "{kernel}: {}", plan.detail);
        assert!(
            plan.detail.ends_with(want),
            "{kernel}: expected `{want}` in `{}`",
            plan.detail
        );
    }
}
