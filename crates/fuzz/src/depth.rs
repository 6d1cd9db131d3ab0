//! Front-end nesting-limit mode (`frontend-depth`).
//!
//! The parser bounds expression tree depth (`MAX_EXPR_DEPTH`, P011) and
//! statement nesting (`MAX_STMT_DEPTH`, P012), and every later layer
//! relies on those bounds to recurse safely on the caller's stack. This
//! mode generates seeded kernels that mix the five nesting forms —
//! statement nesting (blocks and `if`, `else` and `for` bodies), binary
//! operator chains, prefix operator chains, parentheses, and calls
//! (arguments, gather indices, swizzle bases and ternary arms) — at
//! random depths around both limits, tracking the exact depth each form
//! adds. Each case compiles through `BrookContext::compile` on a thread
//! with the default 2 MiB stack, and its verdict must be the one the
//! tracked depths predict: a compiled module within both limits, a
//! front-end error carrying P012 past the statement limit, or P011 past
//! the expression limit. A stack overflow aborts the campaign.

use brook_auto::{BrookContext, BrookError};
use brook_lang::parser::{MAX_EXPR_DEPTH, MAX_STMT_DEPTH};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The default stack size of a spawned Rust thread — what a service
/// connection thread gets.
const SMALL_STACK: usize = 2 * 1024 * 1024;

/// Loops per case at most: the abstract interpreter re-analyzes a loop
/// body on every fixpoint round of each enclosing loop, so its cost
/// grows exponentially with loop nesting.
const MAX_LOOPS: u32 = 3;

/// Statistics of one front-end depth campaign.
#[derive(Debug, Clone, Default)]
pub struct DepthStats {
    /// Cases generated and compiled.
    pub cases: u32,
    /// Cases within both limits that compiled.
    pub accepted: u32,
    /// Cases past the expression limit rejected with P011.
    pub rejected_expr: u32,
    /// Cases past the statement limit rejected with P012.
    pub rejected_stmt: u32,
    /// Cases at exactly one of the limits.
    pub at_limit: u32,
}

/// One generated kernel and the depths its source was built to.
#[derive(Debug, Clone)]
pub struct DepthCase {
    /// Kernel source (`kernel void deep(float a<>, float g[], out float o<>)`).
    pub source: String,
    /// Tree depth of the innermost assignment's value.
    pub expr_depth: u32,
    /// Statement nesting of that assignment (the kernel body is 1).
    pub stmt_depth: u32,
}

/// A depth near `limit`: within four levels of it on either side, or
/// (one case in four) below half of it.
fn target(rng: &mut StdRng, limit: u32) -> u32 {
    match rng.gen_range(0..4) {
        0 => rng.gen_range(1..limit / 2),
        _ => rng.gen_range(limit - 4..limit + 5),
    }
}

/// An expression over `a` and `g` of exactly `depth` tree levels.
fn gen_expr(rng: &mut StdRng, depth: u32) -> String {
    // `paren`: the text is parenthesized at the top, so one more
    // parenthesis adds a level even around a node.
    let (mut e, mut d, mut paren) = (String::from("a"), 1, false);
    while d < depth {
        let room = depth - d;
        let k = rng.gen_range(1..room.min(4) + 1);
        match rng.gen_range(0..5) {
            // Binary chain with `e` leftmost: each operator is a level.
            0 => {
                let mut chain = e;
                for _ in 0..k {
                    chain.push_str(if rng.gen_range(0..2) == 0 {
                        " + a"
                    } else {
                        " - 0.5"
                    });
                }
                (e, d, paren) = (format!("({chain})"), d + k, true);
            }
            // Prefix chain, spaced so that `- -` never lexes as `--`.
            1 => (e, d, paren) = (format!("{}{e}", "- ".repeat(k as usize)), d + k, false),
            // Parentheses: around a node the first adds no level.
            2 => {
                let levels = if d == 1 || paren { k } else { k - 1 };
                if levels > 0 {
                    let (open, close) = ("(".repeat(k as usize), ")".repeat(k as usize));
                    (e, d, paren) = (format!("{open}{e}{close}"), d + levels, true);
                }
            }
            // A call argument, or a gather index that is never provably
            // negative (which certification rejects as BA013).
            3 if room >= 3 && rng.gen_range(0..2) == 0 => {
                (e, d, paren) = (format!("g[int(abs({e}))]"), d + 3, false)
            }
            3 => (e, d, paren) = (format!("max({e}, 0.25)"), d + 1, false),
            // A swizzle base through a constructor, or a ternary arm
            // (its condition is depth 2).
            _ if room >= 2 && d >= 2 && rng.gen_range(0..2) == 0 => {
                (e, d, paren) = (format!("float2({e}, a).y"), d + 2, false)
            }
            _ if d >= 2 => (e, d, paren) = (format!("(a > 0.5 ? 0.125 : {e})"), d + 1, true),
            _ => {}
        }
    }
    e
}

/// A kernel whose innermost statement sits `stmt_depth` levels deep and
/// assigns an expression `expr_depth` levels deep.
pub fn gen_depth_case(seed: u64, index: u32) -> DepthCase {
    let mut rng = StdRng::seed_from_u64(seed ^ (u64::from(index) << 32) ^ 0xDE97);
    let (stmt_depth, expr_depth) = match rng.gen_range(0..3) {
        0 => (target(&mut rng, MAX_STMT_DEPTH), rng.gen_range(1..9)),
        1 => (rng.gen_range(1..9), target(&mut rng, MAX_EXPR_DEPTH)),
        _ => (target(&mut rng, MAX_STMT_DEPTH), target(&mut rng, MAX_EXPR_DEPTH)),
    };
    let mut body = format!("s = {};", gen_expr(&mut rng, expr_depth));
    let mut loops = 0;
    for level in (2..=stmt_depth).rev() {
        // An `if` without braces may wrap `body` unless it is a
        // `{ .. }`, which the `if` would take as its own block.
        let single = !body.starts_with('{');
        body = match rng.gen_range(0..5) {
            0 if loops < MAX_LOOPS => {
                loops += 1;
                format!("for (int i{level} = 0; i{level} < 2; i{level}++) {{ s += 1.0; {body} }}")
            }
            1 if single => format!("if (s > -1000.0) {body}"),
            2 => format!("if (s > 1000.0) {{ s = 0.0; }} else {{ {body} }}"),
            3 => format!("if (s < 1000.0) {{ s -= 0.25; {body} }}"),
            _ => format!("{{ s += 0.5; {body} }}"),
        };
    }
    DepthCase {
        source: format!(
            "kernel void deep(float a<>, float g[], out float o<>) {{ float s = a; {body} o = s; }}"
        ),
        expr_depth,
        stmt_depth,
    }
}

/// Compiles `source` on a thread with the default stack.
fn compile_on_small_stack(source: &str) -> Result<(), BrookError> {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(SMALL_STACK)
            .spawn_scoped(scope, || BrookContext::cpu().compile(source).map(|_| ()))
            .expect("spawn the compile thread")
            .join()
            .expect("compile thread panicked")
    })
}

/// Runs the campaign: `cases` generated kernels, each compiled on a
/// 2 MiB stack and held to the verdict its depths predict.
///
/// # Errors
/// The first case whose verdict differs, with its source.
pub fn run_depth_campaign(seed: u64, cases: u32) -> Result<DepthStats, String> {
    let mut stats = DepthStats::default();
    for index in 0..cases {
        let case = gen_depth_case(seed, index);
        let expected = if case.stmt_depth > MAX_STMT_DEPTH {
            Some("P012")
        } else if case.expr_depth > MAX_EXPR_DEPTH {
            Some("P011")
        } else {
            None
        };
        let fail = |why: String| {
            format!(
                "case {index} (seed {seed:#x}, statement depth {}, expression depth {}): {why}\n{}",
                case.stmt_depth, case.expr_depth, case.source
            )
        };
        match (compile_on_small_stack(&case.source), expected) {
            (Ok(()), None) => stats.accepted += 1,
            (Err(BrookError::FrontEnd(err)), Some(code)) => {
                // One diagnostic per over-deep body: both arms of an
                // `if`/`else` at the limit are one level too deep.
                let codes: Vec<_> = err.diagnostics.iter().map(|d| d.code.as_str()).collect();
                if codes.is_empty() || codes.iter().any(|c| *c != code) {
                    return Err(fail(format!("expected only {code}, got {codes:?}")));
                }
                match code {
                    "P012" => stats.rejected_stmt += 1,
                    _ => stats.rejected_expr += 1,
                }
            }
            (Ok(()), Some(code)) => return Err(fail(format!("compiled, expected {code}"))),
            (Err(err), _) => return Err(fail(format!("unexpected error: {err}"))),
        }
        if case.stmt_depth == MAX_STMT_DEPTH || case.expr_depth == MAX_EXPR_DEPTH {
            stats.at_limit += 1;
        }
        stats.cases += 1;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for index in 0..8 {
            assert_eq!(gen_depth_case(1, index).source, gen_depth_case(1, index).source);
        }
    }

    #[test]
    fn expressions_reach_exactly_their_depth() {
        // One level over the limit is P011, the limit itself compiles:
        // the generator's depth accounting matches the parser's.
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..8 {
            let wrap =
                |e: String| format!("kernel void deep(float a<>, float g[], out float o<>) {{ o = {e}; }}");
            assert!(compile_on_small_stack(&wrap(gen_expr(&mut rng, MAX_EXPR_DEPTH))).is_ok());
            let over = compile_on_small_stack(&wrap(gen_expr(&mut rng, MAX_EXPR_DEPTH + 1)));
            assert!(matches!(over, Err(BrookError::FrontEnd(e)) if e.has_code("P011")));
        }
    }
}
