//! Self-contained repro bundles for diverging cases.
//!
//! A bundle under `target/fuzz-repros/<case>/` holds everything needed
//! to reproduce and debug a divergence without the fuzzer: the `.br`
//! source, the exact input data, every backend's outputs, and a README
//! describing the failure and how to re-run it.

use crate::differential::{BackendOutput, CaseFailure};
use crate::gen::FuzzCase;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The repro root: `<workspace>/target/fuzz-repros` (honouring
/// `CARGO_TARGET_DIR` when set).
pub fn repro_root() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..")
                .join("target")
        });
    target.join("fuzz-repros")
}

fn render_buffer(out: &mut String, label: &str, shape: &[usize], data: &[f32]) {
    let _ = writeln!(out, "# {label} shape={shape:?}");
    for v in data {
        // Bit-exact float rendering: Rust's shortest round-trip form.
        let _ = writeln!(out, "{v}");
    }
}

/// Writes the bundle and returns its directory.
///
/// # Errors
/// Propagates filesystem errors (the caller treats them as non-fatal:
/// a failed bundle write must not mask the divergence itself).
pub fn write_repro(
    case: &FuzzCase,
    failure: &CaseFailure,
    outputs: &[BackendOutput],
    seed: u64,
) -> io::Result<PathBuf> {
    let dir = repro_root().join(&case.name);
    fs::create_dir_all(&dir)?;
    fs::write(dir.join("program.br"), &case.source)?;

    let mut inputs = String::new();
    for (i, buf) in case.inputs.iter().enumerate() {
        render_buffer(&mut inputs, &format!("s{i}"), &case.domain_shape, buf);
    }
    if let Some(g) = &case.gather {
        render_buffer(&mut inputs, "t", &g.shape, &g.data);
    }
    if !case.scalars.is_empty() {
        let _ = writeln!(inputs, "# scalars");
        for (i, v) in case.scalars.iter().enumerate() {
            let _ = writeln!(inputs, "k{i} = {v}");
        }
    }
    fs::write(dir.join("inputs.txt"), inputs)?;

    for run in outputs {
        let mut out = String::new();
        for (oi, buf) in run.outputs.iter().enumerate() {
            render_buffer(&mut out, &format!("o{oi}"), &case.domain_shape, buf);
        }
        fs::write(dir.join(format!("output-{}.txt", run.backend)), out)?;
    }

    let mut readme = String::new();
    let _ = writeln!(readme, "# Fuzz repro `{}`", case.name);
    let _ = writeln!(readme);
    let _ = writeln!(readme, "Failure: {failure}");
    let _ = writeln!(readme);
    let _ = writeln!(readme, "* campaign seed: `0x{seed:x}`");
    let _ = writeln!(readme, "* domain shape: `{:?}`", case.domain_shape);
    let _ = writeln!(readme, "* kernel source: `program.br`");
    let _ = writeln!(readme, "* inputs (streams, gather, scalars): `inputs.txt`");
    let _ = writeln!(readme, "* per-backend outputs: `output-<backend>.txt`");
    let _ = writeln!(readme);
    let _ = writeln!(
        readme,
        "Reproduce: re-run the campaign with the seed above \
         (`cargo test -p brook-fuzz`), or feed `program.br` and the \
         inputs through `brook_fuzz::differential::run_case` directly. \
         Generation is deterministic, so the same seed regenerates this \
         exact case."
    );
    fs::write(dir.join("README.md"), readme)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differential::Divergence;
    use crate::gen::{gen_case, GenConfig};

    #[test]
    fn bundle_contains_all_artifacts() {
        let case = gen_case(0xEE, 0, &GenConfig::default());
        let failure = CaseFailure::Divergence(Divergence {
            backend: "gles2-packed",
            output_index: 0,
            element: 3,
            reference: 1.0,
            actual: 2.0,
        });
        let outputs = vec![BackendOutput {
            backend: "cpu",
            outputs: vec![vec![0.0; case.domain_len()]; case.n_outputs],
            ..BackendOutput::default()
        }];
        let dir = write_repro(&case, &failure, &outputs, 0xEE).expect("write bundle");
        assert!(dir.join("program.br").is_file());
        assert!(dir.join("inputs.txt").is_file());
        assert!(dir.join("output-cpu.txt").is_file());
        let readme = fs::read_to_string(dir.join("README.md")).unwrap();
        assert!(readme.contains("gles2-packed"));
        assert!(readme.contains("0xee"));
        fs::remove_dir_all(&dir).ok();
    }
}
