//! The cert-preserving optimization passes over BrookIR.
//!
//! Every pass is an **index-stable, in-place rewrite**: instructions
//! are replaced (`Bin` → `Const`, duplicate → `Mov`, dead → `Nop`) but
//! never inserted, deleted or moved, so jump targets and the structured
//! region tree stay valid by construction and the verifier can re-check
//! the result after every pass (the rollback gate in
//! `brook-cert::ir_check` does exactly that).
//!
//! Bit-exactness discipline: the optimized program must produce the
//! same f32 bit patterns as the unoptimized one on the CPU backends
//! (the `cpu-noopt` rung of the `brook-fuzz` campaign asserts it). Constant
//! folding therefore evaluates with the *interpreter's own* functions
//! ([`crate::eval`]), and algebraic rewrites are restricted to IEEE
//! bit-exact identities (`x*1.0`, `x/1.0`, `x-0.0` — but **not**
//! `x+0.0`, which flips the sign of `-0.0`).

use crate::eval;
use crate::{Inst, IrKernel, Node, Reg};
use brook_lang::ast::{AssignOp, BinOp, ScalarKind, Type, UnOp};
use brook_lang::builtins::BUILTINS;
use glsl_es::Value;

/// One optimization pass.
pub trait Pass {
    /// Stable pass name recorded in the `ComplianceReport` provenance.
    fn name(&self) -> &'static str;
    /// Rewrites `k` in place; returns whether anything changed.
    fn run(&self, k: &mut IrKernel) -> bool;
}

/// The default pipeline: constant folding, algebraic simplification,
/// common-subexpression elimination, dead-code elimination.
pub fn default_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(ConstFold),
        Box::new(Algebraic),
        Box::new(Cse),
        Box::new(Dce),
    ]
}

/// How many times each register is written (the accumulator register of
/// a reduce kernel gets an extra external definition: the harness seeds
/// it before every fold step).
fn def_counts(k: &IrKernel) -> Vec<u32> {
    let mut counts = vec![0u32; k.regs.len()];
    for inst in &k.insts {
        if let Some(d) = inst.dst() {
            counts[d as usize] += 1;
        }
    }
    if let Some(acc) = k.acc_reg {
        counts[acc as usize] += 1;
    }
    counts
}

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

/// Sparse conditional-free constant propagation: registers defined by
/// exactly one instruction whose operands are all known constants fold
/// to `Const`, using the interpreter's own evaluation helpers so the
/// folded value is bit-identical to what execution would compute.
pub struct ConstFold;

impl Pass for ConstFold {
    fn name(&self) -> &'static str {
        "const-fold"
    }

    fn run(&self, k: &mut IrKernel) -> bool {
        let defs = def_counts(k);
        let mut known: Vec<Option<Value>> = vec![None; k.regs.len()];
        let mut changed = false;
        // Fixpoint: values only ever become known, so iteration count is
        // bounded by the longest const dependency chain.
        loop {
            let mut progressed = false;
            for i in 0..k.insts.len() {
                let Some(d) = k.insts[i].dst() else { continue };
                if defs[d as usize] != 1 || known[d as usize].is_some() {
                    continue;
                }
                let get = |r: Reg| known[r as usize];
                let folded: Option<Value> = match &k.insts[i] {
                    Inst::Const { v, .. } => Some(*v),
                    Inst::Mov { src, .. } => get(*src),
                    Inst::DeclInit { src, ty, .. } => get(*src).map(|v| eval::coerce_to(v, *ty)),
                    Inst::Bin { op, lhs, rhs, .. } => match (get(*lhs), get(*rhs)) {
                        (Some(l), Some(r)) => eval::brook_bin_op(*op, l, r).ok(),
                        _ => None,
                    },
                    Inst::Un { op, src, .. } => get(*src).and_then(|v| match op {
                        UnOp::Neg => match v {
                            Value::Int(x) => Some(Value::Int(x.wrapping_neg())),
                            other => other.map(|f| -f),
                        },
                        UnOp::Not => v.as_bool().map(|b| Value::Bool(!b)),
                    }),
                    Inst::CastInt { src, .. } => get(*src).and_then(|v| match v {
                        Value::Float(f) => Some(Value::Int(f as i32)),
                        Value::Int(x) => Some(Value::Int(x)),
                        _ => None,
                    }),
                    Inst::Construct { width, args, .. } => {
                        let vals: Option<Vec<Value>> = args.iter().map(|r| get(*r)).collect();
                        vals.and_then(|v| eval::construct(*width as usize, &v).ok())
                    }
                    Inst::Swizzle { src, sel, .. } => get(*src).and_then(|v| eval::swizzle(&v, sel).ok()),
                    Inst::Select { cond, a, b, .. } => match get(*cond).and_then(|c| c.as_bool()) {
                        Some(true) => get(*a),
                        Some(false) => get(*b),
                        None => None,
                    },
                    Inst::Builtin { which, args, .. } => {
                        let vals: Option<Vec<Value>> = args.iter().map(|r| get(*r)).collect();
                        vals.and_then(|v| BUILTINS[*which as usize].eval(&v).ok())
                    }
                    _ => None,
                };
                if let Some(v) = folded {
                    known[d as usize] = Some(v);
                    if !matches!(&k.insts[i], Inst::Const { .. }) {
                        k.insts[i] = Inst::Const { dst: d, v };
                        changed = true;
                    }
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        changed
    }
}

// ---------------------------------------------------------------------------
// Algebraic simplification
// ---------------------------------------------------------------------------

/// The runtime value kind a register is guaranteed to hold, computed by
/// a small forward fixpoint. Registers have static *upper-bound* types;
/// the dynamic semantics can narrow them (an int literal returned from
/// a float helper stays `Int` until an operation promotes it), so the
/// algebraic rules consult this lattice instead of the static type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Unknown,
    Float,
    Int,
    Bool,
    Mixed,
}

fn join(a: Kind, b: Kind) -> Kind {
    match (a, b) {
        (Kind::Unknown, x) | (x, Kind::Unknown) => x,
        (x, y) if x == y => x,
        _ => Kind::Mixed,
    }
}

fn value_kinds(k: &IrKernel) -> Vec<Kind> {
    let mut kinds = vec![Kind::Unknown; k.regs.len()];
    if let Some(acc) = k.acc_reg {
        kinds[acc as usize] = Kind::Float; // seeded with the identity
    }
    for _ in 0..8 {
        let mut changed = false;
        for inst in &k.insts {
            let Some(d) = inst.dst() else { continue };
            let got = match inst {
                Inst::Const { v, .. } => match v {
                    Value::Int(_) => Kind::Int,
                    Value::Bool(_) => Kind::Bool,
                    _ => Kind::Float,
                },
                Inst::ReadElem { .. }
                | Inst::Gather { .. }
                | Inst::Builtin { .. }
                | Inst::Indexof { .. }
                | Inst::Swizzle { .. }
                | Inst::SwizzleStore { .. }
                | Inst::Construct { .. } => Kind::Float,
                Inst::ReadScalar { param, .. } => match k.params[*param as usize].ty.scalar {
                    ScalarKind::Int => Kind::Int,
                    ScalarKind::Bool => Kind::Bool,
                    ScalarKind::Float => Kind::Float,
                },
                Inst::ReadOut { .. } => Kind::Float,
                Inst::CastInt { .. } => Kind::Int,
                Inst::DeclInit { src, ty, .. } => {
                    let s = kinds[*src as usize];
                    if ty.is_float() {
                        match s {
                            Kind::Float | Kind::Int => Kind::Float,
                            other => other,
                        }
                    } else {
                        s
                    }
                }
                Inst::Mov { src, .. } => kinds[*src as usize],
                Inst::Select { a, b, .. } => join(kinds[*a as usize], kinds[*b as usize]),
                Inst::AssignLocal { dst, src, op } => {
                    let cur = kinds[*dst as usize];
                    let s = kinds[*src as usize];
                    match op {
                        AssignOp::Assign => match (cur, s) {
                            (Kind::Float, Kind::Int) => Kind::Float,
                            _ => s,
                        },
                        _ => match (cur, s) {
                            (Kind::Int, Kind::Int) => Kind::Int,
                            (Kind::Float, Kind::Float | Kind::Int) | (Kind::Int, Kind::Float) => Kind::Float,
                            (Kind::Unknown, _) | (_, Kind::Unknown) => Kind::Unknown,
                            _ => Kind::Mixed,
                        },
                    }
                }
                Inst::Bin { op, lhs, rhs, .. } => {
                    if op.is_comparison() || op.is_logical() {
                        Kind::Bool
                    } else {
                        match (kinds[*lhs as usize], kinds[*rhs as usize]) {
                            (Kind::Int, Kind::Int) => Kind::Int,
                            (Kind::Float, Kind::Float | Kind::Int) | (Kind::Int, Kind::Float) => Kind::Float,
                            (Kind::Unknown, _) | (_, Kind::Unknown) => Kind::Unknown,
                            _ => Kind::Mixed,
                        }
                    }
                }
                Inst::Un { op, src, .. } => match op {
                    UnOp::Not => Kind::Bool,
                    UnOp::Neg => kinds[*src as usize],
                },
                _ => continue,
            };
            let merged = join(kinds[d as usize], got);
            if merged != kinds[d as usize] {
                kinds[d as usize] = merged;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    kinds
}

/// Bit-exact algebraic identities: `x*1.0`, `1.0*x`, `x/1.0`, `x-0.0`
/// on guaranteed-float registers (and the int/bool mirrors) rewrite to
/// `Mov`. `x+0.0` is deliberately absent — it would turn `-0.0` into
/// `+0.0` and break the CPU backends' bitwise equivalence contract.
pub struct Algebraic;

impl Pass for Algebraic {
    fn name(&self) -> &'static str {
        "algebraic"
    }

    fn run(&self, k: &mut IrKernel) -> bool {
        let defs = def_counts(k);
        let kinds = value_kinds(k);
        // A register is a usable constant operand when its single def is
        // a Const.
        let mut const_of: Vec<Option<Value>> = vec![None; k.regs.len()];
        for inst in &k.insts {
            if let Inst::Const { dst, v } = inst {
                if defs[*dst as usize] == 1 {
                    const_of[*dst as usize] = Some(*v);
                }
            }
        }
        let mut changed = false;
        for i in 0..k.insts.len() {
            let repl = match &k.insts[i] {
                Inst::Bin { dst, op, lhs, rhs } => {
                    let lc = const_of[*lhs as usize];
                    let rc = const_of[*rhs as usize];
                    let lk = kinds[*lhs as usize];
                    let rk = kinds[*rhs as usize];
                    let f_one = |v: Option<Value>| matches!(v, Some(Value::Float(f)) if f.to_bits() == 1.0f32.to_bits());
                    let f_zero = |v: Option<Value>| matches!(v, Some(Value::Float(f)) if f.to_bits() == 0.0f32.to_bits());
                    let i_one = |v: Option<Value>| matches!(v, Some(Value::Int(1)));
                    let i_zero = |v: Option<Value>| matches!(v, Some(Value::Int(0)));
                    let keep = match op {
                        // x * 1.0 → x ; 1.0 * x → x (float), x * 1 → x (int)
                        BinOp::Mul if lk == Kind::Float && f_one(rc) => Some(*lhs),
                        BinOp::Mul if rk == Kind::Float && f_one(lc) => Some(*rhs),
                        BinOp::Mul if lk == Kind::Int && i_one(rc) => Some(*lhs),
                        BinOp::Mul if rk == Kind::Int && i_one(lc) => Some(*rhs),
                        // x / 1.0 → x ; x / 1 → x
                        BinOp::Div if lk == Kind::Float && f_one(rc) => Some(*lhs),
                        BinOp::Div if lk == Kind::Int && i_one(rc) => Some(*lhs),
                        // x - 0.0 → x (exact even for -0.0) ; x - 0 → x
                        BinOp::Sub if lk == Kind::Float && f_zero(rc) => Some(*lhs),
                        BinOp::Sub if lk == Kind::Int && i_zero(rc) => Some(*lhs),
                        // x + 0 / 0 + x only for ints (-0.0 forbids the
                        // float version).
                        BinOp::Add if lk == Kind::Int && i_zero(rc) => Some(*lhs),
                        BinOp::Add if rk == Kind::Int && i_zero(lc) => Some(*rhs),
                        // bool identities
                        BinOp::And if rk == Kind::Bool && matches!(lc, Some(Value::Bool(true))) => Some(*rhs),
                        BinOp::And if lk == Kind::Bool && matches!(rc, Some(Value::Bool(true))) => Some(*lhs),
                        BinOp::Or if rk == Kind::Bool && matches!(lc, Some(Value::Bool(false))) => Some(*rhs),
                        BinOp::Or if lk == Kind::Bool && matches!(rc, Some(Value::Bool(false))) => Some(*lhs),
                        _ => None,
                    };
                    keep.map(|src| Inst::Mov { dst: *dst, src })
                }
                Inst::Select { dst, cond, a, b } => match const_of[*cond as usize] {
                    Some(Value::Bool(true)) => Some(Inst::Mov { dst: *dst, src: *a }),
                    Some(Value::Bool(false)) => Some(Inst::Mov { dst: *dst, src: *b }),
                    _ => None,
                },
                _ => None,
            };
            if let Some(r) = repl {
                k.insts[i] = r;
                changed = true;
            }
        }
        changed
    }
}

// ---------------------------------------------------------------------------
// Common-subexpression elimination
// ---------------------------------------------------------------------------

/// Local value numbering within each straight-line `Seq` region:
/// a pure instruction recomputing an expression already available in a
/// register becomes a `Mov` from it.
pub struct Cse;

/// Key identifying a pure computation (Values keyed by bit pattern so
/// `NaN` and `-0.0` participate correctly).
#[derive(Debug, Clone, PartialEq)]
enum CseKey {
    Const([u32; 4], u8),
    Bin(BinOp, Reg, Reg),
    Un(UnOp, Reg),
    CastInt(Reg),
    DeclInit(Reg, Type),
    Construct(u8, Vec<Reg>),
    Swizzle(Reg, String),
    Builtin(u16, Vec<Reg>),
    Select(Reg, Reg, Reg),
    ReadElem(u16),
    ReadScalar(u16),
    Gather(u16, Vec<Reg>),
    Indexof(u16),
    Mov(Reg),
}

fn value_bits(v: &Value) -> ([u32; 4], u8) {
    match v {
        Value::Float(f) => ([f.to_bits(), 0, 0, 0], 1),
        Value::Vec2(l) => ([l[0].to_bits(), l[1].to_bits(), 0, 0], 2),
        Value::Vec3(l) => ([l[0].to_bits(), l[1].to_bits(), l[2].to_bits(), 0], 3),
        Value::Vec4(l) => (
            [l[0].to_bits(), l[1].to_bits(), l[2].to_bits(), l[3].to_bits()],
            4,
        ),
        Value::Int(i) => ([*i as u32, 0, 0, 0], 5),
        Value::Bool(b) => ([u32::from(*b), 0, 0, 0], 6),
    }
}

fn cse_key(inst: &Inst) -> Option<CseKey> {
    Some(match inst {
        Inst::Const { v, .. } => {
            let (bits, tag) = value_bits(v);
            CseKey::Const(bits, tag)
        }
        Inst::Bin { op, lhs, rhs, .. } => CseKey::Bin(*op, *lhs, *rhs),
        Inst::Un { op, src, .. } => CseKey::Un(*op, *src),
        Inst::CastInt { src, .. } => CseKey::CastInt(*src),
        Inst::DeclInit { src, ty, .. } => CseKey::DeclInit(*src, *ty),
        Inst::Construct { width, args, .. } => CseKey::Construct(*width, args.clone()),
        Inst::Swizzle { src, sel, .. } => CseKey::Swizzle(*src, sel.clone()),
        Inst::Builtin { which, args, .. } => CseKey::Builtin(*which, args.clone()),
        Inst::Select { cond, a, b, .. } => CseKey::Select(*cond, *a, *b),
        Inst::ReadElem { param, .. } => CseKey::ReadElem(*param),
        Inst::ReadScalar { param, .. } => CseKey::ReadScalar(*param),
        Inst::Gather { param, idx, .. } => CseKey::Gather(*param, idx.clone()),
        Inst::Indexof { param, .. } => CseKey::Indexof(*param),
        Inst::Mov { src, .. } => CseKey::Mov(*src),
        _ => return None,
    })
}

fn canonicalize(key: CseKey, f: impl Fn(Reg) -> Reg) -> CseKey {
    match key {
        CseKey::Bin(op, a, b) => CseKey::Bin(op, f(a), f(b)),
        CseKey::Un(op, a) => CseKey::Un(op, f(a)),
        CseKey::CastInt(a) => CseKey::CastInt(f(a)),
        CseKey::DeclInit(a, t) => CseKey::DeclInit(f(a), t),
        CseKey::Construct(w, args) => CseKey::Construct(w, args.into_iter().map(&f).collect()),
        CseKey::Swizzle(a, s) => CseKey::Swizzle(f(a), s),
        CseKey::Builtin(w, args) => CseKey::Builtin(w, args.into_iter().map(&f).collect()),
        CseKey::Select(c, a, b) => CseKey::Select(f(c), f(a), f(b)),
        CseKey::Gather(p, args) => CseKey::Gather(p, args.into_iter().map(&f).collect()),
        CseKey::Mov(a) => CseKey::Mov(f(a)),
        other @ (CseKey::Const(..) | CseKey::ReadElem(_) | CseKey::ReadScalar(_) | CseKey::Indexof(_)) => {
            other
        }
    }
}

fn key_mentions(key: &CseKey, r: Reg) -> bool {
    match key {
        CseKey::Const(..) | CseKey::ReadElem(_) | CseKey::ReadScalar(_) | CseKey::Indexof(_) => false,
        CseKey::Bin(_, a, b) => *a == r || *b == r,
        CseKey::Un(_, a)
        | CseKey::CastInt(a)
        | CseKey::DeclInit(a, _)
        | CseKey::Swizzle(a, _)
        | CseKey::Mov(a) => *a == r,
        CseKey::Construct(_, args) | CseKey::Builtin(_, args) | CseKey::Gather(_, args) => args.contains(&r),
        CseKey::Select(c, a, b) => *c == r || *a == r || *b == r,
    }
}

fn collect_seqs(nodes: &[Node], out: &mut Vec<(u32, u32)>) {
    for n in nodes {
        match n {
            Node::Seq { start, end } => out.push((*start, *end)),
            Node::If { then, els, .. } => {
                collect_seqs(then, out);
                collect_seqs(els, out);
            }
            Node::Loop(l) => {
                collect_seqs(&l.header, out);
                collect_seqs(&l.body, out);
            }
        }
    }
}

impl Pass for Cse {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&self, k: &mut IrKernel) -> bool {
        let mut seqs = Vec::new();
        collect_seqs(&k.body, &mut seqs);
        let mut changed = false;
        for (start, end) in seqs {
            let mut available: Vec<(CseKey, Reg)> = Vec::new();
            // Copy aliases (`Mov` chains) resolved to a canonical root,
            // so keys over copies of the same value still match.
            let mut alias: Vec<Option<Reg>> = vec![None; k.regs.len()];
            let resolve = |alias: &[Option<Reg>], mut r: Reg| {
                while let Some(a) = alias[r as usize] {
                    r = a;
                }
                r
            };
            for i in start..end {
                let inst = k.insts[i as usize].clone();
                let key = cse_key(&inst).map(|ky| canonicalize(ky, |r| resolve(&alias, r)));
                if let (Some(d), Some(key)) = (inst.dst(), key.clone()) {
                    if let Some((_, prior)) = available.iter().find(|(ky, _)| *ky == key) {
                        let prior = *prior;
                        if prior != d && !matches!(inst, Inst::Mov { .. }) {
                            k.insts[i as usize] = Inst::Mov { dst: d, src: prior };
                            changed = true;
                        }
                    }
                }
                // Any write invalidates facts reading or producing the
                // register, and aliases rooted at it.
                if let Some(d) = k.insts[i as usize].dst() {
                    let dc = resolve(&alias, d);
                    let _ = dc;
                    available.retain(|(ky, res)| *res != d && !key_mentions(ky, d));
                    alias[d as usize] = None;
                    for a in alias.iter_mut() {
                        if *a == Some(d) {
                            *a = None;
                        }
                    }
                }
                if let Inst::Mov { dst: d, src } = k.insts[i as usize] {
                    if d != src {
                        alias[d as usize] = Some(resolve(&alias, src));
                    }
                }
                if let (Some(d), Some(key)) = (k.insts[i as usize].dst(), cse_key(&k.insts[i as usize])) {
                    available.push((canonicalize(key, |r| resolve(&alias, r)), d));
                }
            }
        }
        changed
    }
}

// ---------------------------------------------------------------------------
// Dead-code elimination
// ---------------------------------------------------------------------------

/// Replaces pure instructions whose results are never read with `Nop`,
/// iterating to a fixpoint so dead chains disappear wholesale. The
/// accumulator register of reduce kernels is externally observed and
/// therefore always live; instructions without destinations (stores,
/// faults, control flow) are never touched.
pub struct Dce;

impl Pass for Dce {
    fn name(&self) -> &'static str {
        "dce"
    }

    fn run(&self, k: &mut IrKernel) -> bool {
        let mut changed = false;
        loop {
            // reads[r] = instruction indices reading r.
            let mut read_by: Vec<Vec<usize>> = vec![Vec::new(); k.regs.len()];
            let mut buf = Vec::new();
            for (i, inst) in k.insts.iter().enumerate() {
                buf.clear();
                inst.reads(&mut buf);
                for r in &buf {
                    read_by[*r as usize].push(i);
                }
            }
            let mut round = false;
            for i in 0..k.insts.len() {
                let Some(d) = k.insts[i].dst() else { continue };
                if Some(d) == k.acc_reg {
                    continue;
                }
                let readers = &read_by[d as usize];
                let only_self = readers.iter().all(|&r| r == i);
                if only_self && !matches!(k.insts[i], Inst::Nop) {
                    k.insts[i] = Inst::Nop;
                    round = true;
                    changed = true;
                }
            }
            if !round {
                break;
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run_simple;
    use crate::lower::lower_kernel;
    use crate::verify::verify;
    use brook_lang::parse_and_check;

    fn lower_src(src: &str) -> IrKernel {
        let checked = parse_and_check(src).expect("front-end");
        let kdef = checked.program.kernels().next().expect("kernel");
        lower_kernel(&checked, kdef).expect("lower")
    }

    fn optimized(src: &str) -> (IrKernel, IrKernel) {
        let base = lower_src(src);
        let mut opt = base.clone();
        for p in default_passes() {
            p.run(&mut opt);
            verify(&opt).unwrap_or_else(|e| panic!("{} broke the IR: {e}", p.name()));
        }
        (base, opt)
    }

    #[test]
    fn const_folding_collapses_literal_math() {
        let (_, opt) = optimized("kernel void f(float a<>, out float o<>) { o = a + (2.0 * 3.0 + 4.0); }");
        assert!(
            opt.insts
                .iter()
                .any(|i| matches!(i, Inst::Const { v: Value::Float(f), .. } if *f == 10.0)),
            "{:?}",
            opt.insts
        );
        // Only one live Bin remains (a + 10).
        let bins = opt.insts.iter().filter(|i| matches!(i, Inst::Bin { .. })).count();
        assert_eq!(bins, 1, "{:?}", opt.insts);
    }

    #[test]
    fn algebraic_strips_mul_by_one() {
        let (_, opt) = optimized("kernel void f(float a<>, out float o<>) { o = a * 1.0; }");
        assert!(
            !opt.insts.iter().any(|i| matches!(i, Inst::Bin { .. })),
            "x*1.0 must disappear: {:?}",
            opt.insts
        );
    }

    #[test]
    fn add_zero_is_not_simplified_on_floats() {
        // -0.0 + 0.0 == +0.0: rewriting x+0.0 → x would flip the sign
        // bit. The pass must leave it alone.
        let (_, opt) = optimized("kernel void f(float a<>, out float o<>) { o = a + 0.0; }");
        assert!(
            opt.insts
                .iter()
                .any(|i| matches!(i, Inst::Bin { op: BinOp::Add, .. })),
            "x+0.0 must stay: {:?}",
            opt.insts
        );
    }

    #[test]
    fn cse_deduplicates_repeated_subexpressions() {
        let (base, opt) =
            optimized("kernel void f(float a<>, float b<>, out float o<>) { o = (a * b) + (a * b); }");
        let muls = |k: &IrKernel| {
            k.insts
                .iter()
                .filter(|i| matches!(i, Inst::Bin { op: BinOp::Mul, .. }))
                .count()
        };
        assert_eq!(muls(&base), 2);
        assert_eq!(muls(&opt), 1, "{:?}", opt.insts);
    }

    #[test]
    fn dce_removes_unused_locals() {
        let (_, opt) =
            optimized("kernel void f(float a<>, out float o<>) { float unused = sin(a) * 7.0; o = a; }");
        assert!(
            !opt.insts.iter().any(|i| matches!(i, Inst::Builtin { .. })),
            "dead sin() must be eliminated: {:?}",
            opt.insts
        );
    }

    #[test]
    fn passes_preserve_results_bitwise() {
        let srcs = [
            "kernel void f(float a<>, out float o<>) { o = (a * 1.0 + 2.0 * 3.0) / 1.0 - 0.0; }",
            "kernel void g(float a<>, out float o<>) {
                float s = 0.0;
                int i;
                for (i = 0; i < 5; i++) { s += a * 1.0 + (2.0 - 2.0); }
                o = s + (a > 0.0 ? 1.0 : 2.0);
            }",
            "float h2(float x) { if (x > 1.0) { return x * 2.0; } return x; }
             kernel void h(float a<>, out float o<>) { o = h2(a) + (3.0 * 3.0); }",
        ];
        let data: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) * 0.37).collect();
        for src in srcs {
            let (base, opt) = optimized(src);
            let a = run_simple(&base, &[&data], data.len()).expect("base run");
            let b = run_simple(&opt, &[&data], data.len()).expect("opt run");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "{src}");
            }
        }
    }

    #[test]
    fn reduce_accumulator_survives_dce() {
        let base = lower_src("reduce void sum(float a<>, reduce float r<>) { r += a; }");
        let mut opt = base.clone();
        for p in default_passes() {
            p.run(&mut opt);
        }
        let a = crate::interp::run_reduce(&base, &[1.0, 2.0, 3.0]).unwrap();
        let b = crate::interp::run_reduce(&opt, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
