//! `brookc --emit-glsl` prints the shaders the device runs: generated
//! from the lowered, optimized BrookIR, valid GLSL ES, and byte-equal to
//! what `generate_ir_kernel_shader` produces from that IR. A source that
//! fails certification prints no shader and exits non-zero.

use brook_codegen::{generate_ir_kernel_shader, KernelShapes, StorageMode};
use std::io::Write;
use std::process::{Command, Output, Stdio};

const SAXPY: &str =
    "kernel void saxpy(float x<>, float y<>, float alpha, out float r<>) { r = alpha * x + y; }";

const RECURSIVE: &str = "float twice(float x) { return twice(x); }
kernel void k(float a<>, out float o<>) { o = twice(a); }";

const SHADER_MARKER: &str = "// ---- ";

/// Runs `brookc - <args>` with `source` on stdin.
fn brookc(source: &str, args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_brookc"))
        .arg("-")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn brookc");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(source.as_bytes())
        .expect("write source");
    child.wait_with_output().expect("brookc output")
}

/// The `(header, shader)` pairs of an `--emit-glsl` run, in order.
fn shaders(stdout: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for line in stdout.lines() {
        if line.starts_with(SHADER_MARKER) {
            out.push((line.to_owned(), String::new()));
        } else if let Some((_, glsl)) = out.last_mut() {
            glsl.push_str(line);
            glsl.push('\n');
        }
    }
    out
}

/// The shader for `saxpy`/`r` from the IR pipeline `brookc` runs:
/// lower, optimize under the certification gate, analyze.
fn expected_saxpy(storage: StorageMode) -> String {
    let checked = brook_lang::parse_and_check(SAXPY).expect("front-end");
    let (mut ir, errors) = brook_ir::lower::lower_program(&checked);
    assert!(errors.is_empty(), "{errors:?}");
    let config = brook_cert::CertConfig::default();
    brook_cert::ir_check::optimize_program(&mut ir, &config, &brook_ir::passes::default_passes());
    brook_cert::absint::analyze_and_annotate_program(&mut ir, true);
    generate_ir_kernel_shader(&ir, "saxpy", "r", &KernelShapes::default(), storage)
        .expect("codegen")
        .glsl
}

#[test]
fn emit_glsl_prints_the_ir_generated_shader() {
    for (args, storage) in [
        (&["--emit-glsl"][..], StorageMode::Packed),
        (&["--emit-glsl", "--native"][..], StorageMode::Native),
    ] {
        let out = brookc(SAXPY, args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        let printed = shaders(&stdout);
        assert_eq!(printed.len(), 1, "{args:?}: one shader for one output:\n{stdout}");
        let (header, glsl) = &printed[0];
        assert_eq!(header, "// ---- kernel `saxpy`, output `r` ----");
        glsl_es::compile(glsl).unwrap_or_else(|e| panic!("{args:?}: printed GLSL does not compile: {e}"));
        assert_eq!(glsl, &expected_saxpy(storage), "{args:?}");
    }
}

#[test]
fn non_compliant_source_prints_no_shader_and_fails() {
    for args in [&["--emit-glsl"][..], &["--emit-glsl", "--native"][..]] {
        let out = brookc(RECURSIVE, args);
        assert!(!out.status.success(), "{args:?}: a recursive helper must fail");
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        assert!(
            shaders(&stdout).is_empty(),
            "{args:?}: no shader expected:\n{stdout}"
        );
    }
}

#[test]
fn over_deep_source_is_a_diagnostic_not_an_abort() {
    let sum = format!(
        "kernel void f(float a<>, out float o<>) {{ o = a{}; }}",
        " + a".repeat(20_000)
    );
    let out = brookc(&sum, &["--emit-glsl"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert!(
        stderr.contains("expression nesting exceeds the depth limit 128 [P011]"),
        "{stderr}"
    );
}
