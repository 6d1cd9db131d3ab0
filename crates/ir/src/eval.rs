//! The scalar semantics of Brook Auto, shared by the flat IR
//! interpreter and the legacy AST tree walker in `brook-auto`.
//!
//! These helpers used to live inside the CPU backend; they moved here
//! so the IR interpreter and the tree-walking oracle execute *the same
//! functions* — bit-exact agreement between the two is then a property
//! of construction, not of testing luck. Both fuzz campaigns still
//! assert it. Builtins are not here: every engine evaluates them
//! through the shared table, [`glsl_es::math`] (on values via
//! [`brook_lang::builtins::Builtin::eval`]).

use brook_lang::ast::{AssignOp, BinOp, ScalarKind, Type};
use glsl_es::math::Bin;
use glsl_es::Value;

/// Builds a float value from lanes (1..=4 of them).
pub fn value_from_slice(lanes: &[f32]) -> Value {
    Value::from_lanes(lanes)
}

/// Lane index of a (normalized) swizzle component letter.
pub fn lane_index(c: u8) -> usize {
    match c {
        b'x' => 0,
        b'y' => 1,
        b'z' => 2,
        _ => 3,
    }
}

/// Component selection `v.components` with the tree walker's dynamic
/// error surface.
///
/// # Errors
/// Swizzling a non-float value or out-of-range components.
pub fn swizzle(v: &Value, components: &str) -> Result<Value, String> {
    let lanes = v.lanes();
    if lanes.is_empty() {
        return Err("cannot swizzle a non-float value".into());
    }
    let mut out = Vec::with_capacity(components.len());
    for c in components.bytes() {
        let i = lane_index(c);
        if i >= lanes.len() {
            return Err(format!("swizzle `.{components}` out of range"));
        }
        out.push(lanes[i]);
    }
    Ok(value_from_slice(&out))
}

/// Brook type -> simulator value type (used for zero initialization).
pub fn brook_to_glsl_type(t: Type) -> glsl_es::GlslType {
    match (t.scalar, t.width) {
        (ScalarKind::Float, 1) => glsl_es::GlslType::Float,
        (ScalarKind::Float, 2) => glsl_es::GlslType::Vec2,
        (ScalarKind::Float, 3) => glsl_es::GlslType::Vec3,
        (ScalarKind::Float, _) => glsl_es::GlslType::Vec4,
        (ScalarKind::Int, _) => glsl_es::GlslType::Int,
        (ScalarKind::Bool, _) => glsl_es::GlslType::Bool,
    }
}

/// Brook-style implicit promotion for assignment (declaration sites).
pub fn coerce_to(v: Value, ty: Type) -> Value {
    match (v, ty.scalar) {
        (Value::Int(i), ScalarKind::Float) => {
            if ty.width == 1 {
                Value::Float(i as f32)
            } else {
                value_from_slice(&vec![i as f32; ty.width as usize])
            }
        }
        (Value::Float(f), ScalarKind::Float) if ty.width > 1 => value_from_slice(&vec![f; ty.width as usize]),
        _ => v,
    }
}

/// Assignment semantics: plain assignment still broadcasts scalars into
/// vectors; compound operators combine through [`brook_bin_op`].
///
/// # Errors
/// Operand type/shape mismatches (same messages as the tree walker).
pub fn apply_assign(current: Value, op: AssignOp, rhs: Value) -> Result<Value, String> {
    let bop = match op {
        AssignOp::Assign => {
            // Plain assignment still broadcasts scalars into vectors.
            if current.width() > 1 && rhs.width() == 1 {
                if let Some(f) = rhs.as_float() {
                    return Ok(value_from_slice(&vec![f; current.width()]));
                }
                if let Value::Int(i) = rhs {
                    return Ok(value_from_slice(&vec![i as f32; current.width()]));
                }
            }
            if current.glsl_type() == glsl_es::GlslType::Float {
                if let Value::Int(i) = rhs {
                    return Ok(Value::Float(i as f32));
                }
            }
            return Ok(rhs);
        }
        AssignOp::AddAssign => BinOp::Add,
        AssignOp::SubAssign => BinOp::Sub,
        AssignOp::MulAssign => BinOp::Mul,
        AssignOp::DivAssign => BinOp::Div,
    };
    brook_bin_op(bop, current, rhs)
}

/// Binary operation with Brook's implicit int -> float promotion.
///
/// # Errors
/// Logical operators on non-bools, arithmetic on bools, vector
/// comparisons and operand shape mismatches.
pub fn brook_bin_op(op: BinOp, l: Value, r: Value) -> Result<Value, String> {
    // Pure integer arithmetic stays integral.
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return Ok(match op {
            BinOp::Add => Value::Int(a.wrapping_add(b)),
            BinOp::Sub => Value::Int(a.wrapping_sub(b)),
            BinOp::Mul => Value::Int(a.wrapping_mul(b)),
            // wrapping_*: INT_MIN / -1 must wrap like the other int ops,
            // not abort the process with a divide-overflow panic.
            BinOp::Div => Value::Int(if b == 0 { 0 } else { a.wrapping_div(b) }),
            BinOp::Rem => Value::Int(if b == 0 { 0 } else { a.wrapping_rem(b) }),
            BinOp::Lt => Value::Bool(a < b),
            BinOp::Le => Value::Bool(a <= b),
            BinOp::Gt => Value::Bool(a > b),
            BinOp::Ge => Value::Bool(a >= b),
            BinOp::Eq => Value::Bool(a == b),
            BinOp::Ne => Value::Bool(a != b),
            BinOp::And | BinOp::Or => return Err("logical op on ints".into()),
        });
    }
    if let (Value::Bool(a), Value::Bool(b)) = (l, r) {
        return Ok(match op {
            BinOp::And => Value::Bool(a && b),
            BinOp::Or => Value::Bool(a || b),
            BinOp::Eq => Value::Bool(a == b),
            BinOp::Ne => Value::Bool(a != b),
            _ => return Err("arithmetic on bools".into()),
        });
    }
    // Promote ints to floats (Brook implicit conversion).
    let promote = |v: Value| match v {
        Value::Int(i) => Value::Float(i as f32),
        other => other,
    };
    let (l, r) = (promote(l), promote(r));
    if op.is_comparison() {
        let (Some(a), Some(b)) = (l.as_float(), r.as_float()) else {
            return Err("comparisons need scalar operands".into());
        };
        return Ok(Value::Bool(match op {
            BinOp::Lt => a < b,
            BinOp::Le => a <= b,
            BinOp::Gt => a > b,
            BinOp::Ge => a >= b,
            BinOp::Eq => a == b,
            _ => a != b,
        }));
    }
    if op.is_logical() {
        return Err("logical op on non-bools".into());
    }
    let f = match op {
        BinOp::Add => |a: f32, b: f32| a + b,
        BinOp::Sub => |a: f32, b: f32| a - b,
        BinOp::Mul => |a: f32, b: f32| a * b,
        BinOp::Div => |a: f32, b: f32| a / b,
        BinOp::Rem => |a: f32, b: f32| Bin::Fmod.apply(a, b),
        _ => unreachable!("handled above"),
    };
    l.zip(&r, f).ok_or_else(|| "operand shape mismatch".into())
}

/// Random-access gather with per-dimension clamping — the CPU analogue
/// of CLAMP_TO_EDGE (paper §4).
pub fn gather_clamped(data: &[f32], shape: &[usize], width: u8, idx: &[i64]) -> Value {
    // Clamp per dimension, then linearize row-major.
    let mut linear: usize = 0;
    if idx.len() == shape.len() {
        for (&ix, &dim) in idx.iter().zip(shape) {
            let clamped = ix.clamp(0, dim as i64 - 1) as usize;
            linear = linear * dim + clamped;
        }
    } else {
        // Rank mismatch: treat as linear index into the whole stream.
        let len: usize = shape.iter().product();
        linear = idx.first().copied().unwrap_or(0).clamp(0, len as i64 - 1) as usize;
    }
    let base = linear * width as usize;
    value_from_slice(&data[base..base + width as usize])
}

/// Maximum value of each `indexof` component (`[x_max, y_max]`) for a
/// launch domain — the runtime half of [`crate::ProvenIdx::IndexofRel`].
/// Linear domains collapse to `[total - 1, 0]` because
/// [`crate::interp::indexof_pos`] packs the linear position into `x`.
pub fn indexof_comp_max(domain: (usize, usize), linear: bool) -> [i64; 2] {
    if linear {
        [(domain.0 * domain.1) as i64 - 1, 0]
    } else {
        [domain.0 as i64 - 1, domain.1 as i64 - 1]
    }
}

/// Whether an analyzer-proven per-dimension index range fits the
/// runtime shape a gather is actually bound to — the launch-time side
/// of clamp elision. Shapes and domains are runtime-only, so
/// `brook_cert::absint` proves ranges and executors check them against
/// the bound stream here (`comp_max` from [`indexof_comp_max`]); only
/// when this returns true may [`gather_unclamped`] replace
/// [`gather_clamped`].
pub fn proven_fits_dyn(proven: &[crate::ProvenIdx], shape: &[usize], comp_max: [i64; 2]) -> bool {
    proven.len() == shape.len()
        && proven.iter().zip(shape).all(|(p, &dim)| match *p {
            crate::ProvenIdx::Const { lo, hi } => lo >= 0 && hi < dim as i64,
            crate::ProvenIdx::IndexofRel { comp, lo, hi } => {
                // The f32 guard: every runtime path converts the float
                // index with `(f + 0.5).floor()` in f32, and for odd
                // integer v >= 2^23 the sum v + 0.5 is a round-to-even
                // tie that rounds *up* (8388609.5 -> 8388610), pushing
                // the converted index one past the proven bound. The
                // `+ 0.5` centering is exact only below 2^23, so that —
                // not the 2^24 integer-representability limit — is the
                // admission ceiling.
                comp < 2
                    && lo >= 0
                    && comp_max[comp as usize].saturating_add(hi) < dim as i64
                    && comp_max[comp as usize].saturating_add(hi.max(0)) < 1 << 23
            }
        })
}

/// [`gather_clamped`] with the per-dimension clamp elided — valid only
/// when the analyzer proved the indices in bounds *and*
/// [`proven_fits_dyn`] accepted the runtime shape. Debug builds cross-check
/// against the clamped path so an unsound elision aborts loudly.
pub fn gather_unclamped(data: &[f32], shape: &[usize], width: u8, idx: &[i64]) -> Value {
    debug_assert_eq!(idx.len(), shape.len(), "clamp elision requires matching rank");
    let mut linear: usize = 0;
    for (&ix, &dim) in idx.iter().zip(shape) {
        debug_assert!(
            ix >= 0 && (ix as usize) < dim,
            "unsound clamp elision: index {ix} outside [0, {dim}) — analyzer bug"
        );
        linear = linear * dim + ix as usize;
    }
    let base = linear * width as usize;
    let v = value_from_slice(&data[base..base + width as usize]);
    debug_assert_eq!(
        v,
        gather_clamped(data, shape, width, idx),
        "unsound clamp elision: unclamped gather diverged from clamped gather"
    );
    v
}

/// Gather index conversion: ints pass through, floats get the GPU
/// path's `(i + 0.5)` texel centering (round half-up).
///
/// # Errors
/// Non-scalar index values.
pub fn gather_index(v: Value) -> Result<i64, String> {
    match v {
        Value::Int(i) => Ok(i as i64),
        Value::Float(f) => Ok((f + 0.5).floor() as i64),
        _ => Err("gather index must be scalar".into()),
    }
}

/// Vector-constructor semantics shared by the IR `Construct` instruction
/// and the tree walker: lanes concatenate, ints convert, a single
/// scalar splats.
///
/// # Errors
/// Too few components.
pub fn construct(callee_width: usize, args: &[Value]) -> Result<Value, String> {
    let mut lanes = Vec::new();
    for v in args {
        match v {
            Value::Int(i) => lanes.push(*i as f32),
            other => lanes.extend_from_slice(other.lanes()),
        }
    }
    if lanes.len() == 1 && callee_width > 1 {
        return Ok(value_from_slice(&vec![lanes[0]; callee_width]));
    }
    if lanes.len() < callee_width {
        return Err(format!(
            "`float{callee_width}` constructor needs {callee_width} components"
        ));
    }
    lanes.truncate(callee_width);
    Ok(value_from_slice(&lanes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_op_int_division_by_zero_is_zero() {
        assert_eq!(
            brook_bin_op(BinOp::Div, Value::Int(7), Value::Int(0)).unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn assign_broadcasts_scalar_into_vector() {
        let cur = Value::Vec3([1.0, 2.0, 3.0]);
        let got = apply_assign(cur, AssignOp::Assign, Value::Float(5.0)).unwrap();
        assert_eq!(got, Value::Vec3([5.0, 5.0, 5.0]));
    }

    #[test]
    fn gather_clamps_per_dimension() {
        let data = [0.0, 1.0, 2.0, 3.0];
        let v = gather_clamped(&data, &[2, 2], 1, &[5, -1]);
        assert_eq!(v, Value::Float(2.0)); // row clamped to 1, col to 0
    }

    #[test]
    fn construct_splats_single_scalar() {
        let v = construct(4, &[Value::Float(2.0)]).unwrap();
        assert_eq!(v, Value::Vec4([2.0; 4]));
    }

    #[test]
    fn gather_index_rounds_floats_half_up() {
        assert_eq!(gather_index(Value::Float(1.6)).unwrap(), 2);
        assert_eq!(gather_index(Value::Int(-3)).unwrap(), -3);
        assert!(gather_index(Value::Bool(true)).is_err());
    }

    #[test]
    fn proven_fits_dyn_rejects_indices_reaching_f32_tie_range() {
        // For odd integers v >= 2^23, v + 0.5 is a round-to-even tie in
        // f32 that rounds *up*, so the runtime conversion lands one past
        // the proven bound...
        assert_eq!(gather_index(Value::Float(8_388_609.0)).unwrap(), 8_388_610);
        // ...hence a proof whose max reachable index hits 2^23 must be
        // rejected even though the stream is big enough.
        let proven = [crate::ProvenIdx::IndexofRel {
            comp: 0,
            lo: 0,
            hi: 0,
        }];
        let big = (1usize << 23) + 2;
        assert!(!proven_fits_dyn(
            &proven,
            &[big],
            indexof_comp_max((big, 1), true)
        ));
        // Just below the ceiling (max index 2^23 - 1) it still admits.
        let ok = 1usize << 23;
        assert!(proven_fits_dyn(&proven, &[ok], indexof_comp_max((ok, 1), true)));
    }
}
