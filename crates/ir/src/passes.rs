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
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

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
///
/// Every register carries a write generation, and a key names its
/// operands as (copy root, generation) pairs, so a write makes every key
/// and copy alias that mentions the register stale without a scan. The
/// value table maps a key to its holders in recording order and answers
/// with the oldest holder not written since; stale holders are dropped
/// as lookups meet them. Keys are fixed size, so the pass costs expected
/// linear time in the instruction count.
pub struct Cse;

/// The operation half of a key: everything but the operands (values
/// keyed by bit pattern so `NaN` and `-0.0` participate correctly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    Const([u32; 4], u8),
    Bin(BinOp),
    Un(UnOp),
    CastInt,
    DeclInit(Type),
    Construct(u8),
    Swizzle([u8; 4]),
    Builtin(u16),
    Select,
    ReadElem(u16),
    ReadScalar(u16),
    Gather(u16),
    Indexof(u16),
}

/// A register's current value: (copy root, the root's write generation).
type Val = (Reg, u32);

/// Identifies a pure computation within one `Seq` region. Unused
/// operand slots are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    region: u32,
    op: Op,
    arity: u8,
    args: [Val; 4],
}

impl Hash for Key {
    /// One word per used operand: the fewer words, the cheaper the hash.
    fn hash<H: Hasher>(&self, h: &mut H) {
        h.write_u64(u64::from(self.region) << 8 | u64::from(self.arity));
        self.op.hash(h);
        for &(root, gen) in &self.args[..usize::from(self.arity)] {
            h.write_u64(u64::from(root) | u64::from(gen) << 32);
        }
    }
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

/// The operation and operand registers of a CSE-able instruction.
/// `Mov` has none: a `Mov` is never rewritten, so no lookup could use
/// its key. Operand lists longer than four (which no source lowers to)
/// and swizzles longer than four lanes are left alone.
fn key_parts(inst: &Inst) -> Option<(Op, [Reg; 4], u8)> {
    fn list(rs: &[Reg]) -> Option<([Reg; 4], u8)> {
        let mut a = [0; 4];
        a.get_mut(..rs.len())?.copy_from_slice(rs);
        Some((a, rs.len() as u8))
    }
    let (op, (regs, arity)) = match inst {
        Inst::Const { v, .. } => {
            let (bits, tag) = value_bits(v);
            (Op::Const(bits, tag), ([0; 4], 0))
        }
        Inst::Bin { op, lhs, rhs, .. } => (Op::Bin(*op), ([*lhs, *rhs, 0, 0], 2)),
        Inst::Un { op, src, .. } => (Op::Un(*op), ([*src, 0, 0, 0], 1)),
        Inst::CastInt { src, .. } => (Op::CastInt, ([*src, 0, 0, 0], 1)),
        Inst::DeclInit { src, ty, .. } => (Op::DeclInit(*ty), ([*src, 0, 0, 0], 1)),
        Inst::Construct { width, args, .. } => (Op::Construct(*width), list(args)?),
        Inst::Swizzle { src, sel, .. } => {
            let mut lanes = [0u8; 4];
            lanes.get_mut(..sel.len())?.copy_from_slice(sel.as_bytes());
            (Op::Swizzle(lanes), ([*src, 0, 0, 0], 1))
        }
        Inst::Builtin { which, args, .. } => (Op::Builtin(*which), list(args)?),
        Inst::Select { cond, a, b, .. } => (Op::Select, ([*cond, *a, *b, 0], 3)),
        Inst::ReadElem { param, .. } => (Op::ReadElem(*param), ([0; 4], 0)),
        Inst::ReadScalar { param, .. } => (Op::ReadScalar(*param), ([0; 4], 0)),
        Inst::Gather { param, idx, .. } => (Op::Gather(*param), list(idx)?),
        Inst::Indexof { param, .. } => (Op::Indexof(*param), ([0; 4], 0)),
        _ => return None,
    };
    Some((op, regs, arity))
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

const NONE: u32 = u32::MAX;

/// One register holding a key's value, valid while the register's
/// generation is still `gen`; `next` links the key's later holders.
struct Holder {
    reg: Reg,
    gen: u32,
    next: u32,
}

/// Key → holders in recording order, as (head, tail) links into one
/// shared holder arena. Keys derive from source a client submits, so
/// the map keeps the standard library's collision-resistant hasher.
struct ValueTable {
    heads: HashMap<Key, (u32, u32)>,
    holders: Vec<Holder>,
}

impl ValueTable {
    /// A table sized for `n` instructions, so it never grows.
    fn with_capacity(n: usize) -> ValueTable {
        ValueTable {
            heads: HashMap::with_capacity(n),
            holders: Vec::with_capacity(n),
        }
    }

    /// The oldest holder of `key` whose generation has not moved,
    /// dropping the stale holders in front of it. When that is no
    /// holder, or `push`'s own register, `push` (a register and the
    /// generation its write is about to give it) becomes the newest
    /// holder: one hash serves the lookup and the recording.
    fn first_or_push(&mut self, key: Key, gens: &[u32], push: Option<(Reg, u32)>) -> Option<Reg> {
        let slot = match push {
            Some(_) => self.heads.entry(key).or_insert((NONE, NONE)),
            None => self.heads.get_mut(&key)?,
        };
        let mut found = None;
        while slot.0 != NONE {
            let h = &self.holders[slot.0 as usize];
            if gens[h.reg as usize] == h.gen {
                found = Some(h.reg);
                break;
            }
            slot.0 = h.next;
        }
        if slot.0 == NONE {
            slot.1 = NONE;
        }
        if let Some((reg, gen)) = push.filter(|&(reg, _)| found.is_none_or(|f| f == reg)) {
            append(&mut self.holders, slot, reg, gen);
        }
        found
    }

    /// Records `reg` (at generation `gen`) as the newest holder of `key`.
    fn push(&mut self, key: Key, reg: Reg, gen: u32) {
        append(
            &mut self.holders,
            self.heads.entry(key).or_insert((NONE, NONE)),
            reg,
            gen,
        );
    }
}

/// Links a new holder at the tail of a key's `(head, tail)` list.
fn append(holders: &mut Vec<Holder>, (head, tail): &mut (u32, u32), reg: Reg, gen: u32) {
    let at = holders.len() as u32;
    holders.push(Holder { reg, gen, next: NONE });
    if *tail == NONE {
        *head = at;
    } else {
        holders[*tail as usize].next = at;
    }
    *tail = at;
}

/// A `Mov` copy: `root` at generation `gen`, recorded in `region`.
#[derive(Clone, Copy)]
struct Alias {
    root: Reg,
    gen: u32,
    region: u32,
}

impl Pass for Cse {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&self, k: &mut IrKernel) -> bool {
        let mut seqs = Vec::new();
        collect_seqs(&k.body, &mut seqs);
        let mut gens = vec![0u32; k.regs.len()];
        // Copy aliases (`Mov` chains) resolved to a canonical root, so
        // keys over copies of the same value still match. An alias is
        // live while its root keeps its generation, within its region.
        let mut alias = vec![
            Alias {
                root: 0,
                gen: 0,
                region: NONE,
            };
            k.regs.len()
        ];
        let mut table = ValueTable::with_capacity(k.insts.len());
        let mut changed = false;
        for (region, (start, end)) in (0u32..).zip(seqs) {
            let val = |gens: &[u32], alias: &[Alias], r: Reg| -> Val {
                let a = alias[r as usize];
                if a.region == region && gens[a.root as usize] == a.gen {
                    (a.root, a.gen)
                } else {
                    (r, gens[r as usize])
                }
            };
            let key = |gens: &[u32], alias: &[Alias], (op, regs, arity): (Op, [Reg; 4], u8)| {
                let mut args = [(0, 0); 4];
                for (v, &r) in args.iter_mut().zip(&regs[..arity as usize]) {
                    *v = val(gens, alias, r);
                }
                Key {
                    region,
                    op,
                    arity,
                    args,
                }
            };
            for i in start as usize..end as usize {
                let Some(d) = k.insts[i].dst() else { continue };
                // The key a surviving instruction records names its
                // operands' values after its own write: the lookup key,
                // unless an operand reaches `d`. An operand that *is*
                // `d` names the value this write destroys, so such an
                // instruction records nothing; one that is a copy of `d`
                // keeps the value under its own name and is re-keyed
                // after the write.
                let mut rekey = None;
                if let Some(parts @ (_, regs, arity)) = key_parts(&k.insts[i]) {
                    let pre = key(&gens, &alias, parts);
                    let reads_d = regs[..usize::from(arity)].contains(&d);
                    let via_d = pre.args[..usize::from(arity)].iter().any(|&(root, _)| root == d);
                    let push = (!reads_d && !via_d).then(|| (d, gens[d as usize].wrapping_add(1)));
                    match table.first_or_push(pre, &gens, push) {
                        Some(prior) if prior != d => {
                            k.insts[i] = Inst::Mov { dst: d, src: prior };
                            changed = true;
                        }
                        _ if via_d && !reads_d => rekey = Some(parts),
                        _ => {}
                    }
                }
                // The write moves `d`'s generation: every key, alias and
                // holder naming its old value goes stale.
                gens[d as usize] = gens[d as usize].wrapping_add(1);
                alias[d as usize].region = NONE;
                if let Inst::Mov { src, .. } = k.insts[i] {
                    if src != d {
                        let (root, gen) = val(&gens, &alias, src);
                        alias[d as usize] = Alias { root, gen, region };
                    }
                }
                if let Some(parts) = rekey {
                    table.push(key(&gens, &alias, parts), d, gens[d as usize]);
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
/// to a fixpoint, so dead chains disappear wholesale. The accumulator
/// register of reduce kernels is externally observed and therefore
/// always live; instructions without destinations (stores, faults,
/// control flow) are never touched.
///
/// A worklist: reads are counted once, an instruction dies when every
/// read of its destination is its own, and killing it uncounts its
/// reads and re-queues the definitions of the registers it read. Dying
/// is monotone, so this reaches the same fixpoint as repeated sweeps,
/// in time linear in the instruction count.
pub struct Dce;

impl Pass for Dce {
    fn name(&self) -> &'static str {
        "dce"
    }

    fn run(&self, k: &mut IrKernel) -> bool {
        let n_regs = k.regs.len();
        // reads[r]: live reads of r; own[i]: reads of instruction i's
        // own destination; max_own[r]: the most any definition of r
        // reads r, so r's definitions can die only once reads[r] is at
        // most that.
        let mut reads = vec![0u32; n_regs];
        let mut own = vec![0u32; k.insts.len()];
        let mut max_own = vec![0u32; n_regs];
        // Definitions of every register, as CSR ranges over `defs`.
        let mut def_at = vec![0u32; n_regs + 1];
        let mut buf = Vec::new();
        for (i, inst) in k.insts.iter().enumerate() {
            buf.clear();
            inst.reads(&mut buf);
            for &r in &buf {
                reads[r as usize] += 1;
            }
            if let Some(d) = inst.dst() {
                own[i] = buf.iter().filter(|&&r| r == d).count() as u32;
                max_own[d as usize] = max_own[d as usize].max(own[i]);
                def_at[d as usize + 1] += 1;
            }
        }
        for r in 0..n_regs {
            def_at[r + 1] += def_at[r];
        }
        let mut defs = vec![0u32; def_at[n_regs] as usize];
        let mut fill = def_at.clone();
        for (i, inst) in k.insts.iter().enumerate() {
            if let Some(d) = inst.dst() {
                defs[fill[d as usize] as usize] = i as u32;
                fill[d as usize] += 1;
            }
        }
        let mut work: Vec<u32> = (0..k.insts.len() as u32).rev().collect();
        let mut changed = false;
        while let Some(i) = work.pop() {
            let i = i as usize;
            let Some(d) = k.insts[i].dst() else { continue };
            if Some(d) == k.acc_reg || reads[d as usize] != own[i] {
                continue;
            }
            buf.clear();
            k.insts[i].reads(&mut buf);
            k.insts[i] = Inst::Nop;
            changed = true;
            for &r in &buf {
                let r = r as usize;
                reads[r] -= 1;
                if reads[r] <= max_own[r] {
                    work.extend_from_slice(&defs[def_at[r] as usize..def_at[r + 1] as usize]);
                }
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

    /// `k` after the default pipeline, verified after every pass.
    fn optimize(k: &IrKernel) -> IrKernel {
        let mut opt = k.clone();
        for p in default_passes() {
            p.run(&mut opt);
            verify(&opt).unwrap_or_else(|e| panic!("{} broke the IR: {e}", p.name()));
        }
        opt
    }

    fn optimized(src: &str) -> (IrKernel, IrKernel) {
        let base = lower_src(src);
        let opt = optimize(&base);
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

    /// Lowers `src` and overwrites the listed instructions: IR no source
    /// lowers to, but which the verifier accepts.
    fn patched(src: &str, patches: Vec<(usize, Inst)>) -> IrKernel {
        let mut k = lower_src(src);
        for (i, inst) in patches {
            k.insts[i] = inst;
        }
        verify(&k).expect("patched IR verifies");
        k
    }

    /// Runs `k` and its fully optimized form on two input streams and
    /// asserts the outputs are bitwise equal; returns the optimized form.
    fn assert_optimizes_bitwise(k: &IrKernel) -> IrKernel {
        let opt = optimize(k);
        let a: Vec<f32> = (0..16).map(|i| i as f32 * 0.75 - 3.0).collect();
        let b: Vec<f32> = (0..16).map(|i| 2.5 - i as f32 * 0.5).collect();
        let want = run_simple(k, &[&a, &b], a.len()).expect("base run");
        let got = run_simple(&opt, &[&a, &b], a.len()).expect("opt run");
        for (x, y) in want.iter().zip(&got) {
            assert_eq!(x.to_bits(), y.to_bits(), "{:?}", opt.insts);
        }
        opt
    }

    fn bin(dst: Reg, op: BinOp, lhs: Reg, rhs: Reg) -> Inst {
        Inst::Bin { dst, op, lhs, rhs }
    }

    /// An instruction that overwrites one of its operands computes a
    /// value over the operand's *old* contents; its key must not name
    /// the new ones. `r4 = r0 + r1` below reads the overwritten `r0`
    /// and so computes `(a + b) + b`, not `r0`'s value again.
    #[test]
    fn cse_does_not_record_a_key_over_its_own_overwritten_operand() {
        let k = patched(
            "kernel void f(float a<>, float b<>, out float o<>) { o = (a + b) + b; }",
            vec![(2, bin(0, BinOp::Add, 0, 1)), (4, bin(4, BinOp::Add, 0, 1))],
        );
        let mut cse = k.clone();
        Cse.run(&mut cse);
        assert!(matches!(cse.insts[4], Inst::Bin { .. }), "{:?}", cse.insts);
        assert_optimizes_bitwise(&k);
    }

    /// A local redefined between two identical expressions over it
    /// holds a new value: the second expression is recomputed.
    #[test]
    fn cse_does_not_reuse_an_expression_over_a_redefined_local() {
        let src = "kernel void f(float a<>, float b<>, out float o<>) {
            float x = a;
            float p = x * b;
            x = b;
            float q = x * b;
            o = p + q;
        }";
        let opt = assert_optimizes_bitwise(&lower_src(src));
        let muls = opt
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Bin { op: BinOp::Mul, .. }))
            .count();
        assert_eq!(muls, 2, "{:?}", opt.insts);
    }

    /// A copy `r2 = r0` aliases `r0` until `r0` is rewritten; after
    /// that, `r2 * r1` and `r0 * r1` are different values.
    #[test]
    fn cse_drops_an_alias_when_its_root_is_rewritten() {
        let k = patched(
            "kernel void f(float a<>, float b<>, out float o<>) { o = (a * b) + (a * b); }",
            vec![
                (2, Inst::Mov { dst: 2, src: 0 }),
                (3, bin(0, BinOp::Mul, 1, 1)),
                (4, bin(4, BinOp::Mul, 2, 1)),
                (5, bin(5, BinOp::Mul, 0, 1)),
                (6, bin(6, BinOp::Add, 4, 5)),
            ],
        );
        let mut cse = k.clone();
        Cse.run(&mut cse);
        assert_eq!(cse.insts, k.insts, "nothing is a repeat");
        assert_optimizes_bitwise(&k);
    }

    /// A key recorded by a register that is then overwritten, and again
    /// by a second register: the lookup skips the stale first holder and
    /// answers with the second.
    #[test]
    fn cse_skips_an_overwritten_first_holder() {
        let k = patched(
            "kernel void f(float a<>, float b<>, out float o<>) { o = (a * b) + (a * b) + (a * b); }",
            vec![(4, Inst::Mov { dst: 2, src: 1 }), (5, bin(5, BinOp::Mul, 3, 1))],
        );
        let mut cse = k.clone();
        Cse.run(&mut cse);
        assert!(
            matches!(cse.insts[5], Inst::Bin { op: BinOp::Mul, .. }),
            "the first holder was overwritten: {:?}",
            cse.insts
        );
        assert_eq!(cse.insts[9], Inst::Mov { dst: 9, src: 5 }, "{:?}", cse.insts);
        assert_optimizes_bitwise(&k);
    }

    /// A dead chain ending in a dead local with two definitions (the
    /// second reading the first) dies wholesale, one link after another;
    /// the output's chain survives.
    #[test]
    fn dce_removes_dead_chains_to_the_fixpoint() {
        let src = "kernel void f(float a<>, float b<>, out float o<>) {
            float t1 = a * b;
            float t2 = t1 * b + a;
            float t3 = t2 * t2 - b;
            float s = a;
            s *= t3;
            float u = b * a;
            o = u * u;
        }";
        let opt = assert_optimizes_bitwise(&lower_src(src));
        let bins: Vec<_> = opt
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Bin { .. }))
            .collect();
        assert_eq!(bins.len(), 2, "only `b * a` and `u * u` stay: {:?}", opt.insts);
        assert!(
            !opt.insts.iter().any(|i| matches!(i, Inst::AssignLocal { .. })),
            "{:?}",
            opt.insts
        );
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
