//! The fixture check shared by the golden-snapshot suites.

use brook_codegen::{generate_ir_kernel_shader, KernelShapes, StorageMode};
use brook_ir::lower::lower_program;
use brook_ir::IrProgram;
use brook_lang::parse_and_check;
use std::fs;
use std::path::PathBuf;

/// `src` through the front-end and lowering, which must both succeed.
pub fn lower(src: &str) -> IrProgram {
    let checked = parse_and_check(src).expect("front-end");
    let (ir, errs) = lower_program(&checked);
    assert!(errs.is_empty(), "{errs:?}");
    ir
}

/// Path of fixture `name` in the suite's fixture directory `dir`.
pub fn fixture_path(dir: &str, name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join(dir)
        .join(format!("{name}.glsl"))
}

/// Generates the shader of `kernel`/`output` from `ir` and compares it
/// with fixture `name` in `dir`; `BROOK_BLESS=1` rewrites the fixture.
pub fn check_golden(
    dir: &str,
    name: &str,
    ir: &IrProgram,
    kernel: &str,
    output: &str,
    shapes: KernelShapes,
    storage: StorageMode,
) {
    let generated = generate_ir_kernel_shader(ir, kernel, output, &shapes, storage).expect("ir codegen");
    // The generated shader must always be valid GLSL ES for the
    // simulator, golden or not.
    glsl_es::compile(&generated.glsl).expect("generated GLSL must compile");
    let path = fixture_path(dir, name);
    if std::env::var_os("BROOK_BLESS").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &generated.glsl).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with BROOK_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        generated.glsl, expected,
        "IR-generated GLSL for `{dir}/{name}` drifted from its golden fixture; \
         if intentional, re-bless with BROOK_BLESS=1 and review the diff"
    );
}

/// Asserts every fixture in `dir` is one of `known` (no stale goldens).
pub fn assert_no_orphans(dir: &str, known: &[&str]) {
    let path = fixture_path(dir, "x");
    for entry in fs::read_dir(path.parent().unwrap()).expect("fixture dir") {
        let name = entry.unwrap().file_name();
        let name = name.to_string_lossy().into_owned();
        assert!(
            known.contains(&name.as_str()),
            "orphan golden fixture `{name}`: remove it or add a test"
        );
    }
}
