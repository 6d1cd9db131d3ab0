//! Built-in function signatures shared by the type checker, the CPU
//! engines and the GLSL ES code generator; each entry names its
//! semantics in the shared table, [`glsl_es::math`].

use crate::ast::Type;
use glsl_es::math::{self, Bin, Fun, Un};
use glsl_es::Value;

/// Shape of a builtin's signature relative to its float-vector argument
/// width `N` (1..=4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuiltinSig {
    /// `(floatN) -> floatN` — componentwise unary, e.g. `sin`.
    MapUnary,
    /// `(floatN, floatN) -> floatN` — componentwise binary, e.g. `min`.
    /// The second argument may also be scalar `float` (broadcast).
    MapBinary,
    /// `(floatN, floatN, floatN) -> floatN` — componentwise ternary,
    /// e.g. `clamp`, `lerp`. Trailing arguments may be scalar (broadcast).
    MapTernary,
    /// `(floatN, floatN) -> float` — reduction to scalar, e.g. `dot`.
    DotLike,
    /// `(floatN) -> float` — reduction to scalar, e.g. `length`.
    LengthLike,
}

/// A named builtin with its signature shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Builtin {
    /// Brook-side name.
    pub name: &'static str,
    /// What it computes, in the shared builtin table; its signature
    /// shape follows ([`Builtin::sig`]).
    pub op: Fun,
    /// GLSL ES 1.00 spelling (differs for e.g. `lerp` -> `mix`).
    pub glsl_name: &'static str,
    /// Approximate ALU cost in simulator instruction units, used by the
    /// interpreter cost accounting (transcendentals are multi-cycle on
    /// every embedded GPU).
    pub cost: u32,
}

impl Builtin {
    /// Signature shape, read off what the builtin computes.
    pub fn sig(&self) -> BuiltinSig {
        match self.op {
            Fun::Un(_) | Fun::Normalize => BuiltinSig::MapUnary,
            Fun::Bin(_) => BuiltinSig::MapBinary,
            Fun::Clamp | Fun::Lerp | Fun::Smoothstep => BuiltinSig::MapTernary,
            Fun::Dot | Fun::Distance => BuiltinSig::DotLike,
            Fun::Length => BuiltinSig::LengthLike,
        }
    }

    /// Evaluates the builtin through the shared table, promoting int
    /// arguments to float first (Brook's implicit conversion). Every
    /// engine that works on values (the AST walker, the IR interpreter,
    /// constant folding) calls this.
    ///
    /// # Errors
    /// Operand shape mismatches.
    pub fn eval(&self, args: &[Value]) -> Result<Value, String> {
        let mut vals = [Value::Float(0.0); 3];
        for (v, a) in vals.iter_mut().zip(args) {
            *v = match *a {
                Value::Int(i) => Value::Float(i as f32),
                other => other,
            };
        }
        math::eval(self.op, &vals[..args.len()])
            .ok_or_else(|| format!("invalid arguments for `{}`", self.name))
    }
}

/// The builtin function table of the Brook Auto subset.
///
/// Names follow Brook/HLSL conventions (`lerp`, `rsqrt`, `saturate`,
/// `fmod`) with GLSL translations recorded per entry.
pub const BUILTINS: &[Builtin] = &[
    Builtin {
        name: "sin",
        op: Fun::Un(Un::Sin),
        glsl_name: "sin",
        cost: 4,
    },
    Builtin {
        name: "cos",
        op: Fun::Un(Un::Cos),
        glsl_name: "cos",
        cost: 4,
    },
    Builtin {
        name: "tan",
        op: Fun::Un(Un::Tan),
        glsl_name: "tan",
        cost: 6,
    },
    Builtin {
        name: "exp",
        op: Fun::Un(Un::Exp),
        glsl_name: "exp",
        cost: 4,
    },
    Builtin {
        name: "exp2",
        op: Fun::Un(Un::Exp2),
        glsl_name: "exp2",
        cost: 4,
    },
    Builtin {
        name: "log",
        op: Fun::Un(Un::Log),
        glsl_name: "log",
        cost: 4,
    },
    Builtin {
        name: "log2",
        op: Fun::Un(Un::Log2),
        glsl_name: "log2",
        cost: 4,
    },
    Builtin {
        name: "sqrt",
        op: Fun::Un(Un::Sqrt),
        glsl_name: "sqrt",
        cost: 4,
    },
    Builtin {
        name: "rsqrt",
        op: Fun::Un(Un::Rsqrt),
        glsl_name: "inversesqrt",
        cost: 4,
    },
    Builtin {
        name: "abs",
        op: Fun::Un(Un::Abs),
        glsl_name: "abs",
        cost: 1,
    },
    Builtin {
        name: "floor",
        op: Fun::Un(Un::Floor),
        glsl_name: "floor",
        cost: 1,
    },
    Builtin {
        name: "ceil",
        op: Fun::Un(Un::Ceil),
        glsl_name: "ceil",
        cost: 1,
    },
    Builtin {
        name: "fract",
        op: Fun::Un(Un::Fract),
        glsl_name: "fract",
        cost: 1,
    },
    Builtin {
        name: "round",
        op: Fun::Un(Un::Round),
        glsl_name: "floor",
        cost: 2,
    },
    Builtin {
        name: "sign",
        op: Fun::Un(Un::Sign),
        glsl_name: "sign",
        cost: 1,
    },
    Builtin {
        name: "saturate",
        op: Fun::Un(Un::Saturate),
        glsl_name: "clamp",
        cost: 1,
    },
    Builtin {
        name: "normalize",
        op: Fun::Normalize,
        glsl_name: "normalize",
        cost: 6,
    },
    Builtin {
        name: "min",
        op: Fun::Bin(Bin::Min),
        glsl_name: "min",
        cost: 1,
    },
    Builtin {
        name: "max",
        op: Fun::Bin(Bin::Max),
        glsl_name: "max",
        cost: 1,
    },
    Builtin {
        name: "pow",
        op: Fun::Bin(Bin::Pow),
        glsl_name: "pow",
        cost: 6,
    },
    Builtin {
        name: "fmod",
        op: Fun::Bin(Bin::Fmod),
        glsl_name: "mod",
        cost: 2,
    },
    Builtin {
        name: "step",
        op: Fun::Bin(Bin::Step),
        glsl_name: "step",
        cost: 1,
    },
    Builtin {
        name: "atan2",
        op: Fun::Bin(Bin::Atan2),
        glsl_name: "atan",
        cost: 8,
    },
    Builtin {
        name: "clamp",
        op: Fun::Clamp,
        glsl_name: "clamp",
        cost: 1,
    },
    Builtin {
        name: "lerp",
        op: Fun::Lerp,
        glsl_name: "mix",
        cost: 2,
    },
    Builtin {
        name: "smoothstep",
        op: Fun::Smoothstep,
        glsl_name: "smoothstep",
        cost: 3,
    },
    Builtin {
        name: "dot",
        op: Fun::Dot,
        glsl_name: "dot",
        cost: 2,
    },
    Builtin {
        name: "distance",
        op: Fun::Distance,
        glsl_name: "distance",
        cost: 6,
    },
    Builtin {
        name: "length",
        op: Fun::Length,
        glsl_name: "length",
        cost: 5,
    },
];

/// Looks up a builtin by Brook name.
pub fn builtin(name: &str) -> Option<&'static Builtin> {
    BUILTINS.iter().find(|b| b.name == name)
}

/// Result type of a builtin applied to float arguments of width `n`.
pub fn builtin_result_type(b: &Builtin, n: u8) -> Type {
    match b.sig() {
        BuiltinSig::MapUnary | BuiltinSig::MapBinary | BuiltinSig::MapTernary => Type::float(n),
        BuiltinSig::DotLike | BuiltinSig::LengthLike => Type::FLOAT,
    }
}

/// Number of arguments the builtin expects.
pub fn builtin_arity(b: &Builtin) -> usize {
    b.op.arity()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_finds_known_builtins() {
        assert!(builtin("sin").is_some());
        assert!(builtin("lerp").is_some());
        assert!(builtin("nonsense").is_none());
    }

    #[test]
    fn lerp_maps_to_mix() {
        assert_eq!(builtin("lerp").unwrap().glsl_name, "mix");
        assert_eq!(builtin("rsqrt").unwrap().glsl_name, "inversesqrt");
        assert_eq!(builtin("fmod").unwrap().glsl_name, "mod");
    }

    #[test]
    fn arity_matches_signature() {
        assert_eq!(builtin_arity(builtin("sin").unwrap()), 1);
        assert_eq!(builtin_arity(builtin("pow").unwrap()), 2);
        assert_eq!(builtin_arity(builtin("clamp").unwrap()), 3);
        assert_eq!(builtin_arity(builtin("dot").unwrap()), 2);
    }

    #[test]
    fn result_types() {
        let dot = builtin("dot").unwrap();
        assert_eq!(builtin_result_type(dot, 3), Type::FLOAT);
        let sin = builtin("sin").unwrap();
        assert_eq!(builtin_result_type(sin, 4), Type::FLOAT4);
    }

    #[test]
    fn no_duplicate_names() {
        let mut names: Vec<_> = BUILTINS.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), BUILTINS.len());
    }
}
