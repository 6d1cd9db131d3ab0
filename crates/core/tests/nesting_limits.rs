//! The front end's nesting limits make the whole pipeline safe on a
//! small stack. A kernel at exactly `MAX_EXPR_DEPTH` expression tree
//! depth and one at exactly `MAX_STMT_DEPTH` statement nesting compile
//! and run on the CPU reference, the AST oracle and both GLES2
//! profiles (whose shaders go through `glsl_es::compile`), all inside a
//! thread with the default 2 MiB stack — what a service connection
//! thread gets. One level more is a P011 / P012 diagnostic.

use brook_auto::{Arg, BrookContext, BrookError, DeviceProfile};
use brook_lang::parser::{MAX_EXPR_DEPTH, MAX_STMT_DEPTH};

/// The default stack size of a spawned Rust thread.
const SMALL_STACK: usize = 2 * 1024 * 1024;

const INPUT: [f32; 4] = [0.25, 0.75, -1.5, 3.0];

fn on_small_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(SMALL_STACK)
            .spawn_scoped(scope, f)
            .expect("spawn")
            .join()
            .expect("no panic")
    })
}

/// An expression over `a` of exactly `depth` tree levels, cycling
/// through binary and unary operators, calls, constructor swizzles and
/// ternaries, each parenthesized so that it nests as written.
fn deep_expr(depth: u32) -> String {
    let mut e = String::from("a");
    let mut d = 1;
    let mut form = 0;
    while d < depth {
        let (next, levels) = match form % 5 {
            0 => (format!("({e} * 0.5 + 0.25)"), 2),
            1 => (format!("- {e}"), 1),
            2 => (format!("abs({e})"), 1),
            3 => (format!("float2({e}, 1.0).x"), 2),
            _ => (format!("(a > 0.5 ? {e} : 0.125)"), 1),
        };
        form += 1;
        if d + levels <= depth {
            e = next;
            d += levels;
        }
    }
    e
}

/// A kernel body nested exactly `depth` levels deep (the body itself is
/// level 1), cycling through blocks, `if`, `else` and single-statement
/// bodies, with a `for` body every 16 levels: abstract interpretation
/// costs time exponential in loop nesting.
fn deep_body(depth: u32) -> String {
    let mut body = String::from("s = s * 2.0 + 1.0;");
    for level in (2..=depth).rev() {
        body = match level % 4 {
            _ if level % 16 == 3 => {
                format!("for (int i{level} = 0; i{level} < 2; i{level}++) {{ s += 1.0; {body} }}")
            }
            0 => format!("{{ s += 0.5; {body} }}"),
            // The body is an `if`, never a `{ .. }` the `if` would take
            // as its own block.
            1 => format!("if (s > -1000.0) {body}"),
            2 => format!("if (s < 1000.0) {{ s -= 0.25; {body} }}"),
            _ => format!("if (s > 1000.0) {{ s = 0.0; }} else {{ {body} }}"),
        };
    }
    format!("kernel void deep(float a<>, out float o<>) {{ float s = a; {body} o = s; }}")
}

fn expr_kernel(depth: u32) -> String {
    format!(
        "kernel void deep(float a<>, out float o<>) {{ o = {}; }}",
        deep_expr(depth)
    )
}

/// `deep` over [`INPUT`] on the context.
fn run(mut ctx: BrookContext, src: &str) -> Vec<f32> {
    let name = ctx.backend_name();
    let module = ctx.compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let a = ctx.stream(&[INPUT.len()]).expect("a");
    let o = ctx.stream(&[INPUT.len()]).expect("o");
    ctx.write(&a, &INPUT).expect("write");
    ctx.run(&module, "deep", &[Arg::Stream(&a), Arg::Stream(&o)])
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    ctx.read(&o).expect("read")
}

/// Runs `src` on the CPU reference, the AST oracle and both GLES2
/// profiles: the oracle must agree bitwise, the devices within their
/// storage tolerance.
fn runs_everywhere(src: &str) {
    let reference = run(BrookContext::cpu(), src);
    let oracle = run(BrookContext::cpu_ast_oracle(), src);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&oracle), bits(&reference), "cpu-ast vs cpu");
    for profile in [DeviceProfile::radeon_hd3400(), DeviceProfile::videocore_iv()] {
        let device = run(BrookContext::gles2(profile), src);
        for (d, r) in device.iter().zip(&reference) {
            assert!((d - r).abs() <= 1e-3 * r.abs().max(1.0), "gles2 {d} vs cpu {r}");
        }
    }
}

/// The front-end error of compiling `src`, which must be exactly one
/// diagnostic with `code` and `message` among the errors.
fn assert_rejected(src: &str, code: &str, message: &str) {
    let err = BrookContext::cpu().compile(src).expect_err("over the limit");
    let BrookError::FrontEnd(err) = err else {
        panic!("expected a front-end error, got {err}");
    };
    let hits: Vec<_> = err.diagnostics.iter().filter(|d| d.code == code).collect();
    assert_eq!(hits.len(), 1, "{:?}", err.diagnostics);
    assert_eq!(hits[0].message, message);
}

#[test]
fn expression_at_the_depth_limit_runs_everywhere_on_a_small_stack() {
    on_small_stack(|| runs_everywhere(&expr_kernel(MAX_EXPR_DEPTH)));
}

#[test]
fn statements_at_the_nesting_limit_run_everywhere_on_a_small_stack() {
    on_small_stack(|| runs_everywhere(&deep_body(MAX_STMT_DEPTH)));
}

#[test]
fn one_level_past_either_limit_is_a_diagnostic() {
    on_small_stack(|| {
        assert_rejected(
            &expr_kernel(MAX_EXPR_DEPTH + 1),
            "P011",
            "expression nesting exceeds the depth limit 128",
        );
        assert_rejected(
            &deep_body(MAX_STMT_DEPTH + 1),
            "P012",
            "statement nesting exceeds the depth limit 64",
        );
    });
}

#[test]
fn hostile_sources_are_diagnostics_not_stack_overflows() {
    let sum = format!(
        "kernel void f(float a<>, out float o<>) {{ o = a{}; }}",
        " + a".repeat(20_000)
    );
    let minus = format!(
        "kernel void f(float a<>, out float o<>) {{ o = {}a; }}",
        "- ".repeat(20_000)
    );
    let braces = format!(
        "kernel void f(float a<>, out float o<>) {{ {} o = a; {} }}",
        "{ ".repeat(20_000),
        "} ".repeat(20_000)
    );
    on_small_stack(|| {
        for (src, code) in [(&sum, "P011"), (&minus, "P011"), (&braces, "P012")] {
            let err = brook_lang::parse_and_check(src).expect_err("over the limit");
            assert!(err.has_code(code), "expected {code}: {:?}", err.first_error());
            assert_eq!(err.diagnostics.len(), 1, "{:?}", err.diagnostics);
        }
    });
}
