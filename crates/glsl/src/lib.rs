//! # glsl-es — GLSL ES 1.00 fragment-shader compiler and interpreter
//!
//! The OpenGL ES 2.0 simulator substrate of the Brook Auto reproduction
//! needs to actually *execute* the shader code the Brook Auto compiler
//! generates (paper §5.1: the Cg compiler's GLSL ES output path). This
//! crate implements the required GLSL ES 1.00 subset from scratch:
//!
//! * lexer/parser for `precision`, `uniform`/`varying`/`const` globals,
//!   function definitions, structured control flow and the float/vector
//!   expression language with swizzles and constructors ([`syntax`]);
//! * a resolver producing a slot-indexed IR with recursion rejected by
//!   declaration order, as the GLSL ES specification requires
//!   ([`resolve`]);
//! * a strict interpreter with per-fragment ALU/texture/branch cost
//!   counters feeding the performance model ([`interp`]);
//! * the builtin table every Brook engine shares, this interpreter
//!   included ([`math`]).
//!
//! ```
//! use glsl_es::{compile, run_fragment, FragmentEnv, Value};
//! let shader = compile("void main() { gl_FragColor = vec4(0.5); }")?;
//! let sample = |_unit: i32, _u: f32, _v: f32| [0.0f32; 4];
//! let env = FragmentEnv { uniforms: &[], varyings: &[], sample: &sample };
//! let (color, cost) = run_fragment(&shader, &env)?;
//! assert_eq!(color, [0.5; 4]);
//! assert!(cost.alu > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod error;
pub mod interp;
pub mod math;
pub mod resolve;
pub mod syntax;
pub mod value;

pub use error::{ExecError, ShaderError};
pub use interp::{run_fragment, Cost, FragmentEnv, SampleFn};
pub use resolve::{compile, Shader, UniformInfo};
pub use value::{GlslType, Value};
