//! Seeded, deterministic generation of random *well-typed* Brook Auto
//! programs.
//!
//! The generator works at the AST level through
//! [`brook_lang::build::AstBuilder`], so every produced program is
//! correct by construction: parameters are declared before use, locals
//! are initialized before they are read, loop counters are unique, and
//! gather indices are integral (BA011). Certification limits are not
//! hard-coded — the generator queries [`brook_cert::CertPredicates`]
//! for the same limits the gate enforces, so the two cannot drift.
//!
//! Two regimes:
//!
//! * [`gen_case`] stays *inside* the certifiable subset and keeps every
//!   expression's magnitude statically bounded (no overflow to infinity,
//!   no NaN-producing operand ranges), because the packed RGBA8 storage
//!   path canonicalizes non-finite values and a differential comparison
//!   against the CPU reference would otherwise report false positives;
//! * [`gen_noncompliant`] steps *outside* the subset by exactly one rule
//!   and returns the [`RuleId`] the gate must reject it with.

use brook_cert::{CertConfig, CertPredicates, RuleId};
use brook_lang::ast::*;
use brook_lang::build::AstBuilder;
use brook_lang::pretty::print_program;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Magnitude ceiling for generated intermediate expressions; squared it
/// still sits far below `f32::MAX`, so no compliant case can overflow.
const MAX_MAGNITUDE: f64 = 1.0e12;

/// Tuning knobs of the generator. The defaults match the certifiable
/// subset with room to spare and keep the per-case execution cost small
/// enough for a 256-case smoke run on every backend.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Maximum elementwise input streams (at least 1 is always present).
    pub max_elem_inputs: u32,
    /// Maximum scalar (uniform) parameters.
    pub max_scalars: u32,
    /// Maximum `out` streams (at least 1 is always present).
    pub max_outputs: u32,
    /// Maximum local-variable statements in the kernel body.
    pub max_locals: u32,
    /// Maximum expression tree depth.
    pub max_expr_depth: u32,
    /// Maximum trip count of a generated counted loop.
    pub max_loop_trips: i64,
    /// Whether gather parameters are generated.
    pub allow_gather: bool,
    /// Whether helper functions are generated.
    pub allow_helper: bool,
    /// Whether vector-typed locals (`float2`..`float4`) are generated.
    pub allow_vectors: bool,
    /// Bias input/gather data toward special floats (NaN, `-0.0`,
    /// subnormals). Only safe for campaigns whose comparisons are all
    /// bitwise or same-backend pairs — the packed device storage
    /// canonicalizes non-finite values, so a cross-backend tolerance
    /// comparison would report false positives.
    pub special_floats: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_elem_inputs: 3,
            max_scalars: 2,
            max_outputs: 2,
            max_locals: 5,
            max_expr_depth: 3,
            max_loop_trips: 8,
            allow_gather: true,
            allow_helper: true,
            allow_vectors: true,
            special_floats: false,
        }
    }
}

/// Backing data for a gather parameter.
#[derive(Debug, Clone)]
pub struct GatherData {
    /// Logical shape of the gather stream.
    pub shape: Vec<usize>,
    /// Row-major values.
    pub data: Vec<f32>,
}

/// One generated differential-test case: a program plus the seeded
/// inputs it runs on. The kernel's parameters are always declared in
/// canonical order — elementwise inputs `s0..`, the optional gather `t`,
/// scalars `k0..`, outputs `o0..` — which is what
/// [`crate::differential`] relies on when binding arguments.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// Stable case name (`case_<seed>_<index>`), used for repro bundles.
    pub name: String,
    /// Canonical pretty-printed source (kept in sync with `program`).
    pub source: String,
    /// The generated syntax tree.
    pub program: Program,
    /// Output/input domain shape.
    pub domain_shape: Vec<usize>,
    /// One buffer per elementwise input stream.
    pub inputs: Vec<Vec<f32>>,
    /// Optional gather table.
    pub gather: Option<GatherData>,
    /// Scalar parameter values.
    pub scalars: Vec<f32>,
    /// Number of `out` streams.
    pub n_outputs: usize,
    /// Seed the input buffers were derived from (used by the shrinker to
    /// regenerate data for smaller shapes).
    pub data_seed: u64,
    /// Whether the special-float overlay was applied to the data (see
    /// [`GenConfig::special_floats`]); [`FuzzCase::refresh`] reapplies
    /// it so shrinking preserves the data distribution.
    pub special_floats: bool,
}

impl FuzzCase {
    /// A case over a fixed one-kernel `source` (streams in canonical
    /// parameter order, one output) with the given domain, inputs and
    /// gather table, and data seed 0.
    pub(crate) fn fixed(
        name: String,
        source: &str,
        domain_shape: Vec<usize>,
        inputs: Vec<Vec<f32>>,
        gather: Option<GatherData>,
    ) -> FuzzCase {
        let program = brook_lang::parse(source).unwrap_or_else(|e| panic!("fixed kernel: {e}\n{source}"));
        FuzzCase {
            name,
            source: print_program(&program),
            program,
            domain_shape,
            inputs,
            gather,
            scalars: Vec::new(),
            n_outputs: 1,
            data_seed: 0,
            special_floats: false,
        }
    }

    /// Number of elements in the output domain.
    pub fn domain_len(&self) -> usize {
        self.domain_shape.iter().product()
    }

    /// Total statements in the kernel body (a shrinking metric).
    pub fn stmt_count(&self) -> usize {
        fn count(b: &Block) -> usize {
            b.stmts
                .iter()
                .map(|s| match s {
                    Stmt::If {
                        then_block,
                        else_block,
                        ..
                    } => 1 + count(then_block) + else_block.as_ref().map(count).unwrap_or(0),
                    Stmt::For { body, .. } | Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => {
                        1 + count(body)
                    }
                    Stmt::Block(inner) => count(inner),
                    _ => 1,
                })
                .sum()
        }
        self.program.kernels().map(|k| count(&k.body)).sum()
    }

    /// Re-derives `source` from `program` and regenerates the input
    /// buffers for the current shapes (after a shrinking edit).
    pub fn refresh(&mut self) {
        self.source = print_program(&self.program);
        let len = self.domain_len();
        for (i, buf) in self.inputs.iter_mut().enumerate() {
            *buf = gen_values(self.data_seed.wrapping_add(i as u64), len);
            if self.special_floats {
                special_overlay(self.data_seed.wrapping_add(i as u64), buf);
            }
        }
        if let Some(g) = &mut self.gather {
            let glen: usize = g.shape.iter().product();
            g.data = gen_values(self.data_seed ^ 0x67617468, glen);
            if self.special_floats {
                special_overlay(self.data_seed ^ 0x67617468, &mut g.data);
            }
        }
    }
}

/// Deterministic input data in the safe magnitude band `[-4, 4)`.
pub fn gen_values(seed: u64, n: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-4.0f32..4.0)).collect()
}

/// The special values the SIMD campaign cares about: quiet NaN, both
/// signed zeros, subnormals on both sides, and the smallest normal —
/// the inputs where a vector instruction's edge-case semantics could
/// drift from the scalar loop (NaN propagation in `min`/`max`, `-0.0`
/// sign handling in compares and blends, subnormal flush behavior).
const SPECIAL_FLOATS: [f32; 8] = [
    f32::NAN,
    -0.0,
    0.0,
    f32::MIN_POSITIVE / 2.0,
    -f32::MIN_POSITIVE / 4.0,
    1.0e-39,
    -1.0e-39,
    f32::MIN_POSITIVE,
];

/// Overwrites ~1/4 of `buf` with [`SPECIAL_FLOATS`] picks, seeded —
/// the [`GenConfig::special_floats`] bias.
pub fn special_overlay(seed: u64, buf: &mut [f32]) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5BEC_1A15);
    for v in buf.iter_mut() {
        if rng.gen_range(0u32..4) == 0 {
            *v = SPECIAL_FLOATS[rng.gen_range(0..SPECIAL_FLOATS.len())];
        }
    }
}

// ---------------------------------------------------------------------------
// Expression generation with magnitude tracking.
// ---------------------------------------------------------------------------

/// A name the expression generator may reference, with a conservative
/// magnitude bound for overflow avoidance.
#[derive(Debug, Clone)]
struct Ref {
    name: String,
    mag: f64,
}

struct ExprGen<'a> {
    b: &'a mut AstBuilder,
    rng: &'a mut StdRng,
    /// Float-typed names in scope (streams, scalars, initialized locals).
    env: Vec<Ref>,
    /// Name of the helper function, if one was generated.
    helper: Option<(String, f64)>,
    /// Output-domain length (for `indexof` magnitude).
    domain_len: f64,
    /// First output name (the `indexof` anchor).
    indexof_anchor: String,
    /// Whether the output domain is 2-D (`indexof(..).y` meaningful).
    domain_2d: bool,
}

impl ExprGen<'_> {
    /// A float literal; negatives are built as `Neg(lit)` to match the
    /// parser's canonical tree (the lexer has no negative literals, so a
    /// raw negative `FloatLit` would break the print/reparse fixed point).
    fn flit(&mut self, v: f32) -> (Expr, f64) {
        let e = if v < 0.0 {
            let p = self.b.float_lit(-v);
            self.b.unary(UnOp::Neg, p)
        } else {
            self.b.float_lit(v)
        };
        (e, v.abs().max(1.0) as f64)
    }

    /// An int literal, negatives as `Neg(lit)` (same reason as [`flit`]).
    ///
    /// [`flit`]: ExprGen::flit
    fn ilit(&mut self, v: i64) -> Expr {
        if v < 0 {
            let p = self.b.int_lit(-v);
            self.b.unary(UnOp::Neg, p)
        } else {
            self.b.int_lit(v)
        }
    }

    /// A literal from the exactly-representable quarter grid in [-4, 4];
    /// the pretty-printer and lexer round-trip these without loss.
    fn literal(&mut self) -> (Expr, f64) {
        let v = self.rng.gen_range(-16i32..17) as f32 * 0.25;
        let (e, _) = self.flit(v);
        (e, 4.0)
    }

    fn leaf(&mut self) -> (Expr, f64) {
        let n_env = self.env.len();
        match self.rng.gen_range(0u32..10) {
            // Weighted toward in-scope names so inputs actually matter.
            0..=5 if n_env > 0 => {
                let r = &self.env[self.rng.gen_range(0..n_env)];
                let (name, mag) = (r.name.clone(), r.mag);
                (self.b.var(name), mag)
            }
            6 if !self.indexof_anchor.is_empty() => {
                // indexof(o0).x — the linear (or column) element index.
                let io = self.b.indexof(self.indexof_anchor.clone());
                let comp = if self.domain_2d && self.rng.gen_range(0u32..2) == 0 {
                    "y"
                } else {
                    "x"
                };
                (self.b.swizzle(io, comp), self.domain_len)
            }
            _ => self.literal(),
        }
    }

    /// Generates a float expression of at most `depth` levels along with
    /// a conservative magnitude bound.
    fn expr(&mut self, depth: u32) -> (Expr, f64) {
        if depth == 0 {
            return self.leaf();
        }
        match self.rng.gen_range(0u32..12) {
            0 | 1 => {
                let (l, lm) = self.expr(depth - 1);
                let (r, rm) = self.expr(depth - 1);
                (self.b.binary(BinOp::Add, l, r), lm + rm)
            }
            2 => {
                let (l, lm) = self.expr(depth - 1);
                let (r, rm) = self.expr(depth - 1);
                (self.b.binary(BinOp::Sub, l, r), lm + rm)
            }
            3 => {
                let (l, lm) = self.expr(depth - 1);
                let (r, rm) = self.expr(depth - 1);
                if lm * rm <= MAX_MAGNITUDE {
                    (self.b.binary(BinOp::Mul, l, r), lm * rm)
                } else {
                    (self.b.binary(BinOp::Sub, l, r), lm + rm)
                }
            }
            4 => {
                // Division with a guarded denominator: |d| + 1 >= 1, so
                // the quotient magnitude never exceeds the numerator's
                // and no backend can produce inf/NaN here.
                let (num, nm) = self.expr(depth - 1);
                let (den, _) = self.expr(depth - 1);
                let abs_den = self.b.call("abs", vec![den]);
                let one = self.b.float_lit(1.0);
                let guarded = self.b.binary(BinOp::Add, abs_den, one);
                (self.b.binary(BinOp::Div, num, guarded), nm)
            }
            5 => {
                let (e, m) = self.expr(depth - 1);
                (self.b.unary(UnOp::Neg, e), m)
            }
            6 => {
                let cond = self.condition(depth - 1);
                let (t, tm) = self.expr(depth - 1);
                let (f, fm) = self.expr(depth - 1);
                (self.b.ternary(cond, t, f), tm.max(fm))
            }
            7 | 8 => self.builtin_call(depth),
            9 => {
                if let Some((name, hm)) = self.helper.clone() {
                    let (arg, _) = self.expr(depth - 1);
                    // Helper arguments are clamped at the call site so the
                    // helper's own magnitude analysis stays valid.
                    let clamped = self.clamp4(arg);
                    (self.b.call(name, vec![clamped]), hm)
                } else {
                    self.leaf()
                }
            }
            _ => self.leaf(),
        }
    }

    /// `clamp(e, -4.0, 4.0)` — pins an arbitrary expression back into
    /// the leaf magnitude band.
    fn clamp4(&mut self, e: Expr) -> Expr {
        let (lo, _) = self.flit(-4.0);
        let hi = self.b.float_lit(4.0);
        self.b.call("clamp", vec![e, lo, hi])
    }

    fn builtin_call(&mut self, depth: u32) -> (Expr, f64) {
        match self.rng.gen_range(0u32..11) {
            0 => {
                let (e, m) = self.expr(depth - 1);
                (self.b.call("abs", vec![e]), m)
            }
            1 => {
                let (e, m) = self.expr(depth - 1);
                (self.b.call("floor", vec![e]), m + 1.0)
            }
            2 => {
                let (e, m) = self.expr(depth - 1);
                (self.b.call("ceil", vec![e]), m + 1.0)
            }
            3 => {
                let (e, _) = self.expr(depth - 1);
                (self.b.call("fract", vec![e]), 1.0)
            }
            4 => {
                let (e, _) = self.expr(depth - 1);
                (self.b.call("sin", vec![e]), 1.0)
            }
            5 => {
                let (e, _) = self.expr(depth - 1);
                (self.b.call("cos", vec![e]), 1.0)
            }
            6 => {
                // sqrt over a non-negative operand only.
                let (e, m) = self.expr(depth - 1);
                let a = self.b.call("abs", vec![e]);
                (self.b.call("sqrt", vec![a]), m.sqrt().max(1.0))
            }
            7 => {
                let (l, lm) = self.expr(depth - 1);
                let (r, rm) = self.expr(depth - 1);
                (self.b.call("min", vec![l, r]), lm.max(rm))
            }
            8 => {
                let (l, lm) = self.expr(depth - 1);
                let (r, rm) = self.expr(depth - 1);
                (self.b.call("max", vec![l, r]), lm.max(rm))
            }
            9 => {
                let (edge, _) = self.expr(depth - 1);
                let (x, _) = self.expr(depth - 1);
                (self.b.call("step", vec![edge, x]), 1.0)
            }
            _ => {
                let (a, am) = self.expr(depth - 1);
                let (b_, bm) = self.expr(depth - 1);
                let (t, _) = self.expr(depth - 1);
                let tf = self.b.call("fract", vec![t]);
                (self.b.call("lerp", vec![a, b_, tf]), am + bm)
            }
        }
    }

    /// A boolean expression for `if`/ternary conditions.
    fn condition(&mut self, depth: u32) -> Expr {
        let cmp = |g: &mut Self, depth: u32| {
            let op = match g.rng.gen_range(0u32..6) {
                0 => BinOp::Lt,
                1 => BinOp::Le,
                2 => BinOp::Gt,
                3 => BinOp::Ge,
                4 => BinOp::Eq,
                _ => BinOp::Ne,
            };
            let (l, _) = g.expr(depth);
            let (r, _) = g.expr(depth);
            g.b.binary(op, l, r)
        };
        match self.rng.gen_range(0u32..6) {
            0 if depth > 0 => {
                let l = cmp(self, depth - 1);
                let r = cmp(self, depth - 1);
                self.b.binary(BinOp::And, l, r)
            }
            1 if depth > 0 => {
                let l = cmp(self, depth - 1);
                let r = cmp(self, depth - 1);
                self.b.binary(BinOp::Or, l, r)
            }
            2 if depth > 0 => {
                let c = cmp(self, depth - 1);
                self.b.unary(UnOp::Not, c)
            }
            _ => cmp(self, depth),
        }
    }
}

// ---------------------------------------------------------------------------
// Whole-case generation.
// ---------------------------------------------------------------------------

/// Generates one well-typed, certifiable, magnitude-safe case.
///
/// Determinism: the case is a pure function of `(seed, index)` and the
/// config — two runs with the same arguments produce identical sources
/// and identical input data.
pub fn gen_case(seed: u64, index: u32, cfg: &GenConfig) -> FuzzCase {
    let cert_cfg = CertConfig::default();
    let pred = CertPredicates::new(&cert_cfg);
    let mut rng = StdRng::seed_from_u64(seed ^ ((index as u64) << 32 | 0xF022));
    let mut b = AstBuilder::new();

    // Parameter plan (canonical order: inputs, gather, scalars, outputs).
    let n_inputs = rng.gen_range(1..cfg.max_elem_inputs + 1) as usize;
    let use_gather = cfg.allow_gather && rng.gen_range(0u32..10) < 3;
    let gather_rank: u8 = if rng.gen_range(0u32..2) == 0 { 1 } else { 2 };
    let n_scalars = rng.gen_range(0..cfg.max_scalars + 1) as usize;
    let n_outputs = rng.gen_range(1..cfg.max_outputs + 1) as usize;
    assert!(
        pred.inputs_within_limit((n_inputs + usize::from(use_gather)) as u32),
        "generator exceeded the BA006 input limit"
    );
    assert!(
        pred.outputs_within_limit(n_outputs as u32),
        "generator exceeded the BA005 output limit"
    );

    // Shapes.
    let domain_shape: Vec<usize> = {
        let pool: [&[usize]; 10] = [
            &[1],
            &[3],
            &[4],
            &[7],
            &[16],
            &[33],
            &[2, 3],
            &[4, 4],
            &[3, 5],
            &[8, 8],
        ];
        pool[rng.gen_range(0..pool.len())].to_vec()
    };
    let gather_shape: Vec<usize> = if gather_rank == 1 {
        vec![[5usize, 10, 16][rng.gen_range(0usize..3)]]
    } else {
        [[3usize, 5], [4, 4], [2, 7]][rng.gen_range(0usize..3)].to_vec()
    };
    let domain_2d = domain_shape.len() == 2;

    // Optional helper function.
    let use_helper = cfg.allow_helper && rng.gen_range(0u32..4) == 0;
    let mut items = Vec::new();
    let mut helper = None;
    if use_helper {
        let mut hg = ExprGen {
            b: &mut b,
            rng: &mut rng,
            env: vec![Ref {
                name: "x".into(),
                mag: 4.0,
            }],
            helper: None,
            domain_len: 1.0,
            indexof_anchor: String::new(),
            domain_2d: false,
        };
        // No indexof inside helpers: the anchor stream is not in scope.
        let (body_expr, hm) = hg.expr(2);
        let ret = b.ret(Some(body_expr));
        items.push(b.function(
            "h0",
            Some(Type::FLOAT),
            vec![("x".into(), Type::FLOAT)],
            vec![ret],
        ));
        helper = Some(("h0".to_string(), hm));
    }

    // Parameters.
    let mut params = Vec::new();
    let mut env = Vec::new();
    for i in 0..n_inputs {
        let name = format!("s{i}");
        params.push(b.param(&name, Type::FLOAT, ParamKind::Stream));
        env.push(Ref { name, mag: 4.0 });
    }
    if use_gather {
        params.push(b.param("t", Type::FLOAT, ParamKind::Gather { rank: gather_rank }));
    }
    for i in 0..n_scalars {
        let name = format!("k{i}");
        params.push(b.param(&name, Type::FLOAT, ParamKind::Scalar));
        env.push(Ref { name, mag: 4.0 });
    }
    for i in 0..n_outputs {
        params.push(b.param(format!("o{i}"), Type::FLOAT, ParamKind::OutStream));
    }

    // Body: locals, then one assignment per output.
    let mut stmts: Vec<Stmt> = Vec::new();
    let mut counter = 0usize; // fresh loop-variable names
    let n_locals = rng.gen_range(1..cfg.max_locals + 1) as usize;
    let domain_len: usize = domain_shape.iter().product();
    for j in 0..n_locals {
        let local = format!("v{j}");
        let form = rng.gen_range(0u32..10);
        // A kernel that declares a gather parameter must actually read
        // it (first local), and the read must survive DCE (output 0
        // consumes `v0` below) — otherwise most campaigns would test
        // the clamp/elision path only by accident.
        let form = if use_gather && j == 0 { 5 } else { form };
        let mut g = ExprGen {
            b: &mut b,
            rng: &mut rng,
            env: env.clone(),
            helper: helper.clone(),
            domain_len: domain_len as f64,
            indexof_anchor: "o0".into(),
            domain_2d,
        };
        match form {
            // Bounded accumulation loop (the BA003 shape).
            0 | 1 => {
                let trips = g.rng.gen_range(1..cfg.max_loop_trips + 1);
                assert!(
                    pred.loop_trips_within_limit(trips as u64),
                    "generator exceeded the BA003 trip limit"
                );
                let ivar = format!("i{counter}");
                counter += 1;
                // The loop counter participates as a float via int->float
                // coercion.
                g.env.push(Ref {
                    name: ivar.clone(),
                    mag: trips as f64,
                });
                let (body_e, bm) = g.expr(cfg.max_expr_depth - 1);
                let acc = g.b.var(local.clone());
                let add = g.b.assign_op(acc, AssignOp::AddAssign, body_e);
                let loop_stmt = g.b.counted_for(&ivar, 0, trips, vec![add]);
                let zero = b.float_lit(0.0);
                stmts.push(b.decl(&local, Type::FLOAT, Some(zero)));
                stmts.push(b.decl(&ivar, Type::INT, None));
                stmts.push(loop_stmt);
                env.push(Ref {
                    name: local,
                    mag: bm * trips as f64,
                });
            }
            // Conditional reassignment.
            2 | 3 => {
                let (init, im) = g.expr(cfg.max_expr_depth);
                let cond = g.condition(1);
                let (then_e, tm) = g.expr(cfg.max_expr_depth - 1);
                let with_else = g.rng.gen_range(0u32..2) == 0;
                let (else_stmts, em) = if with_else {
                    let (else_e, em) = g.expr(cfg.max_expr_depth - 1);
                    let tgt = g.b.var(local.clone());
                    (Some(vec![g.b.assign(tgt, else_e)]), em)
                } else {
                    (None, im)
                };
                let tgt = g.b.var(local.clone());
                let then_stmts = vec![g.b.assign(tgt, then_e)];
                let if_stmt = g.b.if_stmt(cond, then_stmts, else_stmts);
                stmts.push(b.decl(&local, Type::FLOAT, Some(init)));
                stmts.push(if_stmt);
                env.push(Ref {
                    name: local,
                    mag: im.max(tm).max(em),
                });
            }
            // Vector construct + reduce back to scalar.
            4 if cfg.allow_vectors => {
                let width = g.rng.gen_range(2u8..5);
                let mut comps = Vec::new();
                for _ in 0..width {
                    let (c, _) = g.expr(1);
                    comps.push(g.clamp4(c));
                }
                let wname = format!("w{j}");
                let ctor = g.b.call(format!("float{width}"), comps);
                let wvar = g.b.var(wname.clone());
                let wvar2 = g.b.var(wname.clone());
                let dot = g.b.call("dot", vec![wvar, wvar2]);
                let wx = g.b.var(wname.clone());
                let swiz = g.b.swizzle(wx, "x");
                let sum = g.b.binary(BinOp::Add, dot, swiz);
                stmts.push(b.decl(&wname, Type::float(width), Some(ctor)));
                stmts.push(b.decl(&local, Type::FLOAT, Some(sum)));
                // dot of clamped(±4) components: <= 4 * 16 + 4.
                env.push(Ref {
                    name: local,
                    mag: 4.0 * 16.0 + 4.0,
                });
            }
            // Gather read (boundary indices included on purpose: all
            // backends clamp to the edge, BA012).
            5 if use_gather => {
                let glen: i64 = gather_shape.iter().product::<usize>() as i64;
                // Constant indices stay non-negative: the absint pass
                // hard-rejects provably-negative gathers (BA013), so a
                // literal below zero would make the generated kernel
                // uncompilable by design rather than a backend diff.
                // Negative runtime indices still flow through the
                // `int(expr)` arm, where the analyzer cannot prove a
                // fault and every backend clamps (BA012).
                let index_expr = |g: &mut ExprGen<'_>, dim: i64| -> Expr {
                    match g.rng.gen_range(0u32..4) {
                        0 => {
                            // Biased toward the edges: 0, dim-1, and a
                            // couple past the end exercise the clamp /
                            // elision boundary most often.
                            let v = g.rng.gen_range(0..dim + 3);
                            let v = if g.rng.gen_range(0u32..2) == 0 {
                                [0, (dim - 1).max(0), dim][g.rng.gen_range(0usize..3)]
                            } else {
                                v
                            };
                            g.ilit(v)
                        }
                        1 => {
                            // Far out of range, clamped by every backend.
                            g.ilit(10000)
                        }
                        _ => {
                            // Anchor on a genuine runtime input (stream
                            // elements are unknown to the analyzer), so
                            // constant folding can never prove this index
                            // negative no matter what `e` folds to, while
                            // runtime values still go negative and hit the
                            // low-side clamp.
                            let (e, _) = g.expr(1);
                            let anchor = g.b.var(format!("s{}", g.rng.gen_range(0..n_inputs)));
                            let sum = g.b.binary(BinOp::Sub, anchor, e);
                            g.b.call("int", vec![sum])
                        }
                    }
                };
                let indices: Vec<Expr> = if gather_rank == 1 {
                    vec![index_expr(&mut g, glen)]
                } else {
                    gather_shape
                        .iter()
                        .map(|d| index_expr(&mut g, *d as i64))
                        .collect()
                };
                let base = g.b.var("t");
                let access = g.b.index(base, indices);
                stmts.push(b.decl(&local, Type::FLOAT, Some(access)));
                env.push(Ref {
                    name: local,
                    mag: 4.0,
                });
            }
            // Plain expression local.
            _ => {
                let (e, m) = g.expr(cfg.max_expr_depth);
                stmts.push(b.decl(&local, Type::FLOAT, Some(e)));
                env.push(Ref { name: local, mag: m });
            }
        }
    }

    for i in 0..n_outputs {
        let mut g = ExprGen {
            b: &mut b,
            rng: &mut rng,
            env: env.clone(),
            helper: helper.clone(),
            domain_len: domain_len as f64,
            indexof_anchor: "o0".into(),
            domain_2d,
        };
        let (e, _) = g.expr(cfg.max_expr_depth);
        // Keep the forced gather read (local `v0`, see the locals loop)
        // live through dead-code elimination.
        let e = if i == 0 && use_gather {
            let gv = g.b.var("v0");
            g.b.binary(BinOp::Add, e, gv)
        } else {
            e
        };
        let tgt = b.var(format!("o{i}"));
        stmts.push(b.assign(tgt, e));
    }

    items.push(b.kernel("fk", params, stmts));
    let program = b.program(items);
    let source = print_program(&program);

    // Seeded input data.
    let data_seed = seed ^ ((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let inputs: Vec<Vec<f32>> = (0..n_inputs)
        .map(|i| {
            let mut buf = gen_values(data_seed.wrapping_add(i as u64), domain_len);
            if cfg.special_floats {
                special_overlay(data_seed.wrapping_add(i as u64), &mut buf);
            }
            buf
        })
        .collect();
    let gather = use_gather.then(|| {
        let glen: usize = gather_shape.iter().product();
        let mut data = gen_values(data_seed ^ 0x67617468, glen);
        if cfg.special_floats {
            special_overlay(data_seed ^ 0x67617468, &mut data);
        }
        GatherData {
            shape: gather_shape.clone(),
            data,
        }
    });
    let scalars: Vec<f32> = {
        let mut srng = StdRng::seed_from_u64(data_seed ^ 0x7363616c);
        (0..n_scalars).map(|_| srng.gen_range(-4.0f32..4.0)).collect()
    };

    FuzzCase {
        name: format!("case_{seed:x}_{index}"),
        source,
        program,
        domain_shape,
        inputs,
        gather,
        scalars,
        n_outputs,
        data_seed,
        special_floats: cfg.special_floats,
    }
}

// ---------------------------------------------------------------------------
// Deliberately non-compliant generation.
// ---------------------------------------------------------------------------

/// Generates a program that violates exactly one certification rule and
/// returns the [`RuleId`] the gate must report. The structural choices
/// (how many outputs, how deep a call chain, how many loop trips) are
/// taken from [`CertPredicates`], so the cases track the gate's
/// configured limits instead of hard-coding them.
pub fn gen_noncompliant(seed: u64, index: u32, cert_cfg: &CertConfig) -> (Program, String, RuleId) {
    let pred = CertPredicates::new(cert_cfg);
    let mut rng = StdRng::seed_from_u64(seed ^ ((index as u64) << 32 | 0xBAD));
    let mut b = AstBuilder::new();
    let variant = rng.gen_range(0u32..7);
    let (items, rule) = match variant {
        // BA003: structurally unbounded loop.
        0 => {
            let a = b.var("s0");
            let zero = b.float_lit(0.0);
            let svar = b.var("v0");
            let cond = b.binary(BinOp::Lt, svar, a);
            let acc = b.var("v0");
            let one = b.float_lit(1.0);
            let add = b.assign_op(acc, AssignOp::AddAssign, one);
            let while_stmt = b.while_loop(cond, vec![add]);
            let o = b.var("o0");
            let v = b.var("v0");
            let body = vec![b.decl("v0", Type::FLOAT, Some(zero)), while_stmt, b.assign(o, v)];
            let k = b.kernel(
                "bad",
                vec![
                    b.param("s0", Type::FLOAT, ParamKind::Stream),
                    b.param("o0", Type::FLOAT, ParamKind::OutStream),
                ],
                body,
            );
            (vec![k], RuleId::BoundedLoops)
        }
        // BA003: loop bound not a compile-time constant.
        1 => {
            let zero = b.float_lit(0.0);
            let k0 = b.var("k0");
            let bound = b.call("int", vec![k0]);
            let ivar = b.var("i");
            let cond = b.binary(BinOp::Lt, ivar, bound);
            let init_tgt = b.var("i");
            let init_v = b.int_lit(0);
            let init = b.assign(init_tgt, init_v);
            let step_tgt = b.var("i");
            let step_v = b.int_lit(1);
            let step = b.assign_op(step_tgt, AssignOp::AddAssign, step_v);
            let acc = b.var("v0");
            let s0 = b.var("s0");
            let add = b.assign_op(acc, AssignOp::AddAssign, s0);
            let loop_stmt = b.for_loop(Some(init), Some(cond), Some(step), vec![add]);
            let o = b.var("o0");
            let v = b.var("v0");
            let body = vec![
                b.decl("v0", Type::FLOAT, Some(zero)),
                b.decl("i", Type::INT, None),
                loop_stmt,
                b.assign(o, v),
            ];
            let k = b.kernel(
                "bad",
                vec![
                    b.param("s0", Type::FLOAT, ParamKind::Stream),
                    b.param("k0", Type::FLOAT, ParamKind::Scalar),
                    b.param("o0", Type::FLOAT, ParamKind::OutStream),
                ],
                body,
            );
            (vec![k], RuleId::BoundedLoops)
        }
        // BA003: trip count over the configured limit.
        2 => {
            let trips = pred.min_violating_trips() as i64;
            let zero = b.float_lit(0.0);
            let acc = b.var("v0");
            let s0 = b.var("s0");
            let add = b.assign_op(acc, AssignOp::AddAssign, s0);
            let loop_stmt = b.counted_for("i", 0, trips, vec![add]);
            let o = b.var("o0");
            let v = b.var("v0");
            let body = vec![
                b.decl("v0", Type::FLOAT, Some(zero)),
                b.decl("i", Type::INT, None),
                loop_stmt,
                b.assign(o, v),
            ];
            let k = b.kernel(
                "bad",
                vec![
                    b.param("s0", Type::FLOAT, ParamKind::Stream),
                    b.param("o0", Type::FLOAT, ParamKind::OutStream),
                ],
                body,
            );
            (vec![k], RuleId::BoundedLoops)
        }
        // BA005: one output too many.
        3 => {
            let n = pred.min_violating_outputs() as usize;
            let mut params = vec![b.param("s0", Type::FLOAT, ParamKind::Stream)];
            let mut body = Vec::new();
            for i in 0..n {
                params.push(b.param(format!("o{i}"), Type::FLOAT, ParamKind::OutStream));
                let tgt = b.var(format!("o{i}"));
                let src = b.var("s0");
                body.push(b.assign(tgt, src));
            }
            let k = b.kernel("bad", params, body);
            (vec![k], RuleId::OutputLimit)
        }
        // BA006: one input too many.
        4 => {
            let n = pred.min_violating_inputs() as usize;
            let mut params = Vec::new();
            let mut sum = b.float_lit(0.0);
            for i in 0..n {
                params.push(b.param(format!("s{i}"), Type::FLOAT, ParamKind::Stream));
                let v = b.var(format!("s{i}"));
                sum = b.binary(BinOp::Add, sum, v);
            }
            params.push(b.param("o0", Type::FLOAT, ParamKind::OutStream));
            let tgt = b.var("o0");
            let body = vec![b.assign(tgt, sum)];
            let k = b.kernel("bad", params, body);
            (vec![k], RuleId::InputLimit)
        }
        // BA009: helper chain one level too deep.
        5 => {
            let depth = pred.min_violating_call_depth() as usize;
            let mut items = Vec::new();
            for lvl in 0..depth {
                let inner = if lvl == 0 {
                    b.var("x")
                } else {
                    let arg = b.var("x");
                    b.call(format!("h{}", lvl - 1), vec![arg])
                };
                let ret = b.ret(Some(inner));
                items.push(b.function(
                    format!("h{lvl}"),
                    Some(Type::FLOAT),
                    vec![("x".into(), Type::FLOAT)],
                    vec![ret],
                ));
            }
            let arg = b.var("s0");
            let call = b.call(format!("h{}", depth - 1), vec![arg]);
            let tgt = b.var("o0");
            let body = vec![b.assign(tgt, call)];
            let k = b.kernel(
                "bad",
                vec![
                    b.param("s0", Type::FLOAT, ParamKind::Stream),
                    b.param("o0", Type::FLOAT, ParamKind::OutStream),
                ],
                body,
            );
            items.push(k);
            (items, RuleId::StackDepthBound)
        }
        // BA004: recursion through a helper.
        _ => {
            let arg = b.var("x");
            let rec = b.call("r0", vec![arg]);
            let ret = b.ret(Some(rec));
            let f = b.function(
                "r0",
                Some(Type::FLOAT),
                vec![("x".into(), Type::FLOAT)],
                vec![ret],
            );
            let arg2 = b.var("s0");
            let call = b.call("r0", vec![arg2]);
            let tgt = b.var("o0");
            let body = vec![b.assign(tgt, call)];
            let k = b.kernel(
                "bad",
                vec![
                    b.param("s0", Type::FLOAT, ParamKind::Stream),
                    b.param("o0", Type::FLOAT, ParamKind::OutStream),
                ],
                body,
            );
            (vec![f, k], RuleId::NoRecursion)
        }
    };
    let program = b.program(items);
    let source = print_program(&program);
    (program, source, rule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use brook_cert::{certify, violates};
    use brook_lang::parse_and_check;

    #[test]
    fn generated_cases_parse_check_and_certify() {
        let cfg = GenConfig::default();
        for i in 0..50 {
            let case = gen_case(42, i, &cfg);
            let checked = parse_and_check(&case.source)
                .unwrap_or_else(|e| panic!("case {i} invalid: {e}\n{}", case.source));
            let report = certify(&checked, &CertConfig::default());
            assert!(
                report.is_compliant(),
                "case {i} not certifiable:\n{}",
                case.source
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        for i in 0..10 {
            let a = gen_case(7, i, &cfg);
            let b = gen_case(7, i, &cfg);
            assert_eq!(a.source, b.source);
            assert_eq!(a.inputs, b.inputs);
            assert_eq!(a.scalars, b.scalars);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = GenConfig::default();
        let a = gen_case(1, 0, &cfg);
        let b = gen_case(2, 0, &cfg);
        assert_ne!(a.source, b.source);
    }

    #[test]
    fn pretty_print_is_fixed_point_on_generated_cases() {
        let cfg = GenConfig::default();
        for i in 0..50 {
            let case = gen_case(99, i, &cfg);
            let reparsed = brook_lang::parse(&case.source).expect("reparse");
            let printed = brook_lang::pretty::print_program(&reparsed);
            assert_eq!(case.source, printed, "case {i} not a fixed point");
        }
    }

    #[test]
    fn noncompliant_cases_are_rejected_for_the_expected_rule() {
        let cert_cfg = CertConfig::default();
        for i in 0..30 {
            let (_, source, rule) = gen_noncompliant(13, i, &cert_cfg);
            let checked = parse_and_check(&source)
                .unwrap_or_else(|e| panic!("negative case {i} must still type-check: {e}\n{source}"));
            let report = certify(&checked, &cert_cfg);
            assert!(
                violates(&report, rule),
                "negative case {i} expected {rule} violation:\n{source}"
            );
        }
    }

    #[test]
    fn stmt_count_counts_nested_statements() {
        let cfg = GenConfig::default();
        let case = gen_case(5, 3, &cfg);
        assert!(case.stmt_count() >= 2);
    }
}
