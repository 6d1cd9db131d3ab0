//! Brook's builtin operations, defined once for every engine.
//!
//! The AST oracle, the flat-IR interpreter, constant folding, the lane
//! executor, the Tier-2 closures and this crate's GLSL ES interpreter
//! all evaluate builtins through this module, so an engine cannot drift
//! from the others on one formula:
//!
//! * [`Un`] and [`Bin`] are the componentwise primitives, including the
//!   helper ops the lane planner decomposes composites into;
//! * [`with_prim!`](crate::with_prim) binds a primitive to its concrete
//!   function, so engines that loop over slabs stay monomorphized per
//!   op (no function-pointer call, no per-element `match`);
//! * [`Fun`] names a whole builtin, and [`eval`] evaluates it on
//!   [`Value`]s, writing the composites (`clamp`, `lerp`/`mix`,
//!   `smoothstep`, `distance`) in the primitives and the reductions
//!   (`dot`, `length`, `normalize`) through [`dot`].
//!
//! Three rules are Brook's own rather than std's: `dot` folds left from
//! the first product (std's `Sum` picks its own starting zero, which
//! decides the sign of a zero result), `saturate(x)` is
//! `clamp(x, 0.0, 1.0)` (so NaN gives 0.0, as on a GPU), and `sign`
//! keeps ±0.0 and NaN as GLSL ES 1.00 §8.3 does.

use crate::value::Value;

/// Componentwise unary primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Un {
    Sin,
    Cos,
    Tan,
    Exp,
    Exp2,
    Log,
    Log2,
    Sqrt,
    Rsqrt,
    Abs,
    Floor,
    Ceil,
    Fract,
    Round,
    Sign,
    Saturate,
    /// The smoothstep finisher `v * v * (3 - 2v)`.
    Hermite,
}

/// Componentwise binary primitives (a scalar operand broadcasts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bin {
    Min,
    Max,
    Pow,
    Fmod,
    /// `step(edge, x)`.
    Step,
    Atan2,
    /// `x * (1 - t)` — the lerp decomposition's left term.
    MulOneMinusB,
    /// `clamp(a / b, 0, 1)` with NaN kept — the smoothstep ramp.
    DivClamp01,
    /// Plain `a + b` / `a - b` / `a * b` used by the lerp, smoothstep
    /// and distance decompositions.
    Add,
    Sub,
    Mul,
}

/// A builtin function: a primitive applied componentwise, or a
/// composite written in primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fun {
    Un(Un),
    Bin(Bin),
    /// `clamp(x, lo, hi) = min(max(x, lo), hi)`.
    Clamp,
    /// `lerp(a, b, t)` (GLSL `mix`) `= a * (1 - t) + b * t`.
    Lerp,
    /// `smoothstep(e0, e1, x) = hermite(clamp((x - e0) / (e1 - e0), 0, 1))`.
    Smoothstep,
    Dot,
    Length,
    /// `distance(a, b) = length(a - b)`.
    Distance,
    Normalize,
}

impl Fun {
    /// Number of arguments.
    pub fn arity(self) -> usize {
        match self {
            Fun::Un(_) | Fun::Length | Fun::Normalize => 1,
            Fun::Bin(_) | Fun::Dot | Fun::Distance => 2,
            Fun::Clamp | Fun::Lerp | Fun::Smoothstep => 3,
        }
    }
}

/// Binds `$g` to the concrete function of a primitive and evaluates
/// `$e` with it: `with_prim!(un op, g => body)` for a [`Un`](crate::math::Un),
/// `with_prim!(bin op, g => body)` for a [`Bin`](crate::math::Bin).
/// Each arm instantiates `$e` with its own function type, so generic
/// loops and closures built in `$e` are monomorphized per op. This is
/// the table: one line per primitive.
#[macro_export]
#[rustfmt::skip]
macro_rules! with_prim {
    (un $op:expr, $g:ident => $e:expr) => {
        match $op {
            $crate::math::Un::Sin => { let $g = f32::sin; $e }
            $crate::math::Un::Cos => { let $g = f32::cos; $e }
            $crate::math::Un::Tan => { let $g = f32::tan; $e }
            $crate::math::Un::Exp => { let $g = f32::exp; $e }
            $crate::math::Un::Exp2 => { let $g = f32::exp2; $e }
            $crate::math::Un::Log => { let $g = f32::ln; $e }
            $crate::math::Un::Log2 => { let $g = f32::log2; $e }
            $crate::math::Un::Sqrt => { let $g = f32::sqrt; $e }
            $crate::math::Un::Rsqrt => { let $g = |x: f32| 1.0 / x.sqrt(); $e }
            $crate::math::Un::Abs => { let $g = f32::abs; $e }
            $crate::math::Un::Floor => { let $g = f32::floor; $e }
            $crate::math::Un::Ceil => { let $g = f32::ceil; $e }
            $crate::math::Un::Fract => { let $g = f32::fract; $e }
            // Half-up, as codegen emits it: `floor(x + 0.5)`.
            $crate::math::Un::Round => { let $g = |x: f32| (x + 0.5).floor(); $e }
            $crate::math::Un::Sign => { let $g = $crate::math::sign; $e }
            $crate::math::Un::Saturate => { let $g = $crate::math::saturate; $e }
            $crate::math::Un::Hermite => { let $g = |v: f32| v * v * (3.0 - 2.0 * v); $e }
        }
    };
    (bin $op:expr, $g:ident => $e:expr) => {
        match $op {
            $crate::math::Bin::Min => { let $g = f32::min; $e }
            $crate::math::Bin::Max => { let $g = f32::max; $e }
            $crate::math::Bin::Pow => { let $g = f32::powf; $e }
            $crate::math::Bin::Fmod => { let $g = |x: f32, y: f32| x - y * (x / y).floor(); $e }
            $crate::math::Bin::Step => { let $g = |e: f32, x: f32| if x < e { 0.0 } else { 1.0 }; $e }
            $crate::math::Bin::Atan2 => { let $g = f32::atan2; $e }
            $crate::math::Bin::MulOneMinusB => { let $g = |x: f32, t: f32| x * (1.0 - t); $e }
            // `f32::clamp` keeps NaN, unlike `saturate`.
            $crate::math::Bin::DivClamp01 => { let $g = |a: f32, b: f32| (a / b).clamp(0.0, 1.0); $e }
            $crate::math::Bin::Add => { let $g = |x: f32, y: f32| x + y; $e }
            $crate::math::Bin::Sub => { let $g = |x: f32, y: f32| x - y; $e }
            $crate::math::Bin::Mul => { let $g = |x: f32, y: f32| x * y; $e }
        }
    };
}

/// GLSL ES 1.00 §8.3 `sign`: 1.0 above zero, -1.0 below, and `x`
/// itself otherwise, so ±0.0 keep their sign and NaN stays NaN.
#[inline]
pub fn sign(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else if x < 0.0 {
        -1.0
    } else {
        x
    }
}

/// `saturate(x) = clamp(x, 0.0, 1.0)`, as codegen emits it: NaN gives
/// 0.0 (`max(NaN, 0.0)` selects 0.0) and -0.0 stays -0.0 (`max`
/// returns its first operand on a tie). Written with comparisons, not
/// `f32::max`, whose tie result is unspecified and can change when a
/// constant operand lets the compiler pick other instructions.
#[inline]
pub fn saturate(x: f32) -> f32 {
    if x.is_nan() {
        0.0
    } else {
        x.clamp(0.0, 1.0)
    }
}

/// `x · y` over `n >= 1` components, folded left from the first
/// product: `((x0 y0 + x1 y1) + x2 y2) + ...`. No `Sum`, whose starting
/// zero is std's choice; from the first product, `dot(-0.0, 0.0)` is
/// -0.0 as in IEEE arithmetic.
#[inline]
pub fn dot(n: usize, x: impl Fn(usize) -> f32, y: impl Fn(usize) -> f32) -> f32 {
    let mut sum = x(0) * y(0);
    for c in 1..n {
        sum += x(c) * y(c);
    }
    sum
}

/// `length(x) = sqrt(dot(x, x))`.
#[inline]
pub fn length(n: usize, x: impl Fn(usize) -> f32) -> f32 {
    dot(n, &x, &x).sqrt()
}

/// `normalize(v) = v / length(v)`, in place.
#[inline]
pub fn normalize(v: &mut [f32]) {
    let len = length(v.len(), |c| v[c]);
    for x in v {
        *x /= len;
    }
}

/// Evaluates builtin `f` on float arguments (callers promote ints
/// first). `None` when the arguments do not fit the builtin's shape.
pub fn eval(f: Fun, args: &[Value]) -> Option<Value> {
    let un = |u: Un, x: &Value| with_prim!(un u, g => x.map(g));
    let bin = |b: Bin, x: &Value, y: &Value| with_prim!(bin b, g => x.zip(y, g));
    match f {
        Fun::Un(u) => un(u, &args[0]),
        Fun::Bin(b) => bin(b, &args[0], &args[1]),
        Fun::Clamp => bin(Bin::Min, &bin(Bin::Max, &args[0], &args[1])?, &args[2]),
        Fun::Lerp => {
            let at = bin(Bin::MulOneMinusB, &args[0], &args[2])?;
            bin(Bin::Add, &at, &bin(Bin::Mul, &args[1], &args[2])?)
        }
        Fun::Smoothstep => {
            let num = bin(Bin::Sub, &args[2], &args[0])?;
            let den = bin(Bin::Sub, &args[1], &args[0])?;
            un(Un::Hermite, &bin(Bin::DivClamp01, &num, &den)?)
        }
        Fun::Dot => {
            let (a, b) = (args[0].lanes(), args[1].lanes());
            (!a.is_empty() && a.len() == b.len()).then(|| Value::Float(dot(a.len(), |c| a[c], |c| b[c])))
        }
        Fun::Length => {
            let a = args[0].lanes();
            (!a.is_empty()).then(|| Value::Float(length(a.len(), |c| a[c])))
        }
        Fun::Distance => eval(Fun::Length, &[bin(Bin::Sub, &args[0], &args[1])?]),
        Fun::Normalize => {
            let mut v = args[0].lanes().to_vec();
            (!v.is_empty()).then(|| {
                normalize(&mut v);
                Value::from_lanes(&v)
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_folds_from_the_first_product() {
        let d = eval(Fun::Dot, &[Value::Float(-0.0), Value::Float(0.0)]).unwrap();
        assert_eq!(d.as_float().unwrap().to_bits(), (-0.0f32).to_bits());
        let d = eval(Fun::Dot, &[Value::Vec2([-0.0, 0.0]), Value::Vec2([1.0, -1.0])]).unwrap();
        assert_eq!(d.as_float().unwrap().to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn saturate_is_clamp_and_sign_keeps_zeros() {
        assert_eq!(saturate(f32::NAN).to_bits(), 0);
        let clamp = eval(
            Fun::Clamp,
            &[Value::Float(f32::NAN), Value::Float(0.0), Value::Float(1.0)],
        );
        assert_eq!(clamp, Some(Value::Float(saturate(f32::NAN))));
        assert_eq!(sign(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(sign(-0.0).to_bits(), (-0.0f32).to_bits());
        assert!(sign(f32::NAN).is_nan());
        assert_eq!((sign(-3.0), sign(1e-40)), (-1.0, 1.0));
    }

    #[test]
    fn shape_mismatches_are_none() {
        let (v2, v3) = (Value::Vec2([1.0; 2]), Value::Vec3([1.0; 3]));
        assert_eq!(eval(Fun::Dot, &[v2, v3]), None);
        assert_eq!(eval(Fun::Bin(Bin::Min), &[v2, v3]), None);
        assert_eq!(eval(Fun::Length, &[Value::Bool(true)]), None);
    }
}
