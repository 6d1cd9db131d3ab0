//! `brookc` — the Brook Auto compiler driver.
//!
//! Mirrors the workflow of the paper's modified Brook compiler (§5.1):
//! parse + type-check a `.br` translation unit, run the ISO 26262
//! certification rules, and emit the GLSL ES 1.00 shaders the device
//! runs — generated from the optimized BrookIR, as at dispatch time.
//!
//! ```sh
//! brookc kernel.br                  # certify, list kernels
//! brookc kernel.br --report         # full compliance report
//! brookc kernel.br --emit-glsl      # print generated shaders (packed storage;
//!                                   # none for a non-compliant source)
//! brookc kernel.br --emit-glsl --native
//! brookc kernel.br --matrix         # rule x kernel pass/fail matrix
//! echo 'kernel ...' | brookc -      # read from stdin
//! ```
//!
//! Exit status: 0 when compliant, 1 on any violation or error — suitable
//! for CI gates in a certification workflow.

use brook_cert::{certify, render_matrix, render_report, CertConfig};
use brook_codegen::{generate_ir_kernel_shader, KernelShapes, StorageMode};
use std::io::Read;
use std::process::ExitCode;

struct Options {
    input: String,
    report: bool,
    matrix: bool,
    emit_glsl: bool,
    native: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: brookc <file.br | -> [--report] [--matrix] [--emit-glsl] [--native]\n\
         \n\
         Certifies a Brook Auto translation unit against the ISO 26262 rule\n\
         catalogue (BA001..BA012) and optionally emits the OpenGL ES 2.0\n\
         shader code the backend generates."
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut input = None;
    let mut opts = Options {
        input: String::new(),
        report: false,
        matrix: false,
        emit_glsl: false,
        native: false,
    };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--report" => opts.report = true,
            "--matrix" => opts.matrix = true,
            "--emit-glsl" => opts.emit_glsl = true,
            "--native" => opts.native = true,
            "--help" | "-h" => usage(),
            other if other.starts_with("--") => {
                eprintln!("unknown option `{other}`");
                usage();
            }
            path => {
                if input.replace(path.to_owned()).is_some() {
                    eprintln!("multiple input files given");
                    usage();
                }
            }
        }
    }
    match input {
        Some(i) => opts.input = i,
        None => usage(),
    }
    opts
}

fn read_source(input: &str) -> Result<String, String> {
    if input == "-" {
        let mut src = String::new();
        std::io::stdin()
            .read_to_string(&mut src)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(src)
    } else {
        std::fs::read_to_string(input).map_err(|e| format!("reading `{input}`: {e}"))
    }
}

fn main() -> ExitCode {
    let opts = parse_args();
    let src = match read_source(&opts.input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("brookc: {e}");
            return ExitCode::FAILURE;
        }
    };
    let checked = match brook_lang::parse_and_check(&src) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("brookc: compilation failed");
            for d in &e.diagnostics {
                eprintln!("  {d}");
            }
            return ExitCode::FAILURE;
        }
    };
    let config = CertConfig::default();
    let mut report = certify(&checked, &config);
    // The AST-level gate alone is not the full certification: the
    // provable-fault rules (BA013 out-of-bounds gather, BA014 division
    // by zero) come from the abstract interpreter over the *optimized*
    // IR. Run the same lower → optimize → analyze pipeline `compile()`
    // runs and merge its findings, so a CLI pass is the same pass every
    // backend enforces. The IR is kept only for a compliant program:
    // `--emit-glsl` prints the shaders generated from it.
    let mut ir = None;
    if report.is_compliant() {
        let (mut lowered, lower_errors) = brook_ir::lower::lower_program(&checked);
        if let Some(e) = lower_errors.first() {
            eprintln!("brookc: internal lowering failure: {e}");
            return ExitCode::FAILURE;
        }
        report.passes = brook_cert::ir_check::optimize_program(
            &mut lowered,
            &config,
            &brook_ir::passes::default_passes(),
        );
        let (analysis, _facts) = brook_cert::absint::analyze_and_annotate_program(&mut lowered, true);
        for ka in &analysis.kernels {
            let Some(kr) = report.kernels.iter_mut().find(|r| r.kernel == ka.kernel) else {
                continue;
            };
            kr.findings.extend(ka.faults.iter().cloned());
            kr.refined_estimate = match (ka.pruned_estimate, kr.instruction_estimate) {
                (Some(p), Some(a)) => Some(p.min(a)),
                (p, a) => p.or(a),
            };
        }
        report.analysis = analysis;
        ir = report.is_compliant().then_some(lowered);
    }
    if opts.report {
        print!("{}", render_report(&report));
    }
    if opts.matrix {
        print!("{}", render_matrix(&report));
    }
    if !opts.report && !opts.matrix {
        for k in &report.kernels {
            let summary = checked.summary(&k.kernel);
            let kind = match summary {
                Some(s) if s.is_reduce => "reduce kernel",
                _ => "kernel",
            };
            println!(
                "{kind} `{}`: {} ({} pass(es), worst-case {} instruction(s))",
                k.kernel,
                if k.is_compliant() {
                    "compliant"
                } else {
                    "NOT COMPLIANT"
                },
                k.passes_required,
                k.instruction_estimate
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| "unbounded".into()),
            );
        }
    }
    if let Some(ir) = ir.as_ref().filter(|_| opts.emit_glsl) {
        let storage = if opts.native {
            StorageMode::Native
        } else {
            StorageMode::Packed
        };
        let shapes = KernelShapes::default();
        for summary in &checked.kernels {
            if summary.is_reduce {
                if let Some(op) = summary.reduce_op {
                    println!("// ---- reduce kernel `{}` (X-axis pass) ----", summary.name);
                    print!(
                        "{}",
                        brook_codegen::reduce_pass_shader(op, brook_codegen::ReduceAxis::X, storage)
                    );
                }
                continue;
            }
            for output in &summary.outputs {
                match generate_ir_kernel_shader(ir, &summary.name, output, &shapes, storage) {
                    Ok(generated) => {
                        println!("// ---- kernel `{}`, output `{output}` ----", summary.name);
                        print!("{}", generated.glsl);
                    }
                    Err(e) => {
                        eprintln!("brookc: codegen for `{}`/{output} failed: {e}", summary.name);
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }
    if report.is_compliant() {
        ExitCode::SUCCESS
    } else {
        eprintln!("brookc: {} certification violation(s)", report.violation_count());
        ExitCode::FAILURE
    }
}
