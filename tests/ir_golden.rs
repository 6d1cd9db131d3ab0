//! Golden BrookIR snapshots for the eleven suite applications.
//!
//! `BrookContext::emit_ir` renders the lowered, optimized and
//! re-certified IR in its canonical textual form; these tests pin that
//! rendering (`<app>.ir`) and the cert-gated pass pipeline's provenance
//! records (`<app>.passes`, the `Debug` form of `report.passes`) for
//! every app of `brook_apps::kernel_sources()`, so any change to
//! lowering, the pass pipeline or the printer is a reviewed diff, not
//! an accident.
//!
//! Re-bless with `BROOK_BLESS=1 cargo test --test ir_golden`.

use brook_auto::BrookContext;
use std::path::PathBuf;

/// Compares `actual` with the fixture `tests/golden_ir/<file>`, or
/// writes it under `BROOK_BLESS`.
fn check_fixture(name: &str, file: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden_ir")
        .join(file);
    if std::env::var_os("BROOK_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with BROOK_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name}: {file} drifted from its golden fixture; if intentional, re-bless with BROOK_BLESS=1"
    );
}

/// Pins the optimized IR and the pass records of suite app `name`.
fn check_golden(name: &str) {
    let (_, source) = brook_apps::kernel_sources()
        .into_iter()
        .find(|(app, _)| *app == name)
        .unwrap_or_else(|| panic!("{name}: not a suite app"));
    let mut ctx = BrookContext::cpu();
    let module = ctx
        .compile(&source)
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
    check_fixture(name, &format!("{name}.ir"), &ir);
    check_fixture(
        name,
        &format!("{name}.passes"),
        &format!("{:#?}\n", module.report.passes),
    );
}

#[test]
fn sgemm_ir_matches_golden() {
    check_golden("sgemm");
}

#[test]
fn mandelbrot_ir_matches_golden() {
    check_golden("mandelbrot");
}

#[test]
fn prefix_sum_ir_matches_golden() {
    check_golden("prefix_sum");
}

#[test]
fn image_filter_ir_matches_golden() {
    check_golden("image_filter");
}

#[test]
fn flops_ir_matches_golden() {
    check_golden("flops");
}

#[test]
fn binomial_ir_matches_golden() {
    check_golden("binomial");
}

#[test]
fn black_scholes_ir_matches_golden() {
    check_golden("black_scholes");
}

#[test]
fn spmv_ir_matches_golden() {
    check_golden("spmv");
}

#[test]
fn binary_search_ir_matches_golden() {
    check_golden("binary_search");
}

#[test]
fn bitonic_sort_ir_matches_golden() {
    check_golden("bitonic_sort");
}

#[test]
fn floyd_warshall_ir_matches_golden() {
    check_golden("floyd_warshall");
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
