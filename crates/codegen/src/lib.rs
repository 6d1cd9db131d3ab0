//! # brook-codegen — Brook Auto kernels to GLSL ES 1.00
//!
//! The source-to-source backend of the Brook Auto compiler (paper §5).
//! Where the original implementation drove NVIDIA's Cg 3.1 compiler
//! through its hidden GLSL ES output option, this crate generates the
//! fragment shader directly from the optimized, re-certified BrookIR
//! every other backend executes:
//!
//! * **array indexing & `indexof`** (§5.2): OpenGL ES 2.0 only addresses
//!   textures with normalized coordinates, so the generator passes every
//!   stream's logical and allocated sizes as hidden `_meta_*` uniforms
//!   and scales indices in the emitted code — fully transparent to the
//!   kernel author;
//! * **texture size translation** (§5.3): power-of-two padded
//!   allocations and 1D/3D/4D streams living in 2D textures are handled
//!   by generated fetch helpers using the same hidden uniforms;
//! * **numerical formats** (§5.4): on devices without float textures the
//!   [`StorageMode::Packed`] path routes every stream element through the
//!   `brook-numfmt` encode/decode shader functions;
//! * **kernel splitting**: a kernel with several `out` streams compiles
//!   into one single-output shader per stream, since core OpenGL ES 2.0
//!   has a single render target (the paper's Floyd-Warshall case);
//! * **reductions** (§5.5): [`reduce::reduce_pass_shader`] emits the
//!   two-to-one combining pass executed iteratively over ping-pong
//!   textures by the runtime.
//!
//! Modules: [`ir_gen`] (kernel shaders from BrookIR), `fetch` (the
//! texel-fetch helpers those shaders call), [`names`] (the hidden
//! uniform naming contract with the runtime) and [`reduce`] (reduction
//! passes).

pub(crate) mod fetch;
pub mod ir_gen;
pub mod names;
pub mod reduce;

pub use ir_gen::generate_ir_kernel_shader;
pub use reduce::{reduce_pass_shader, ReduceAxis};

use std::collections::{BTreeSet, HashMap};
use std::error::Error;
use std::fmt;

/// How stream elements live in texels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageMode {
    /// One float bit-packed into one RGBA8 texel via `brook-numfmt`
    /// (mandatory on the embedded target profile). Streams must have
    /// scalar `float` elements — the paper's evaluation converted vector
    /// kernels to scalar for exactly this reason (§6).
    Packed,
    /// One element per RGBA32F texel (`OES_texture_float` devices, the
    /// desktop reference platform). Vector elements use the texel's
    /// channels directly.
    Native,
}

/// How a stream's logical shape maps onto its 2D texture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StreamRank {
    /// Elements packed row-major by linear index with the allocated
    /// width as stride (1D, 3D and 4D streams; paper §5.3).
    Linear,
    /// Logical 2D `(row, col)` stored at texel `(col, row)` directly.
    Grid,
}

/// Runtime-known shape classes for the kernel's streams. Sizes themselves
/// stay in uniforms so one compiled shader serves every size of the same
/// shape class.
#[derive(Debug, Clone, Default)]
pub struct KernelShapes {
    /// Shape class per elementwise stream, output stream and gather.
    pub ranks: HashMap<String, StreamRank>,
    /// Gather parameters whose `_gather_<name>` helper may skip the
    /// per-dimension clamp for this dispatch: every gather on the
    /// parameter carries an analyzer-proven range
    /// ([`brook_ir::ProvenIdx`]) and the runtime checked it against the
    /// bound stream's shape and the launch domain
    /// ([`brook_ir::eval::proven_fits_dyn`]). Part of the shader cache
    /// key — dispatches that fail the fit check compile the clamped
    /// variant.
    pub elide_gathers: BTreeSet<String>,
}

impl KernelShapes {
    /// Shape class for a parameter; defaults to `Grid`.
    pub fn rank(&self, param: &str) -> StreamRank {
        self.ranks.get(param).copied().unwrap_or(StreamRank::Grid)
    }

    /// Whether the gather helper for `param` may skip its clamps.
    pub fn elide(&self, param: &str) -> bool {
        self.elide_gathers.contains(param)
    }

    /// Builder-style insertion.
    pub fn with(mut self, param: &str, rank: StreamRank) -> Self {
        self.ranks.insert(param.to_owned(), rank);
        self
    }
}

/// The generated shader plus everything the runtime needs to bind it.
#[derive(Debug, Clone)]
pub struct GeneratedShader {
    /// GLSL ES 1.00 fragment shader source.
    pub glsl: String,
    /// Stream/gather parameter names in texture-unit order: the runtime
    /// binds parameter `samplers[i]` to unit `i` and sets `_tex_<name>`
    /// to `i`.
    pub samplers: Vec<String>,
    /// Scalar parameter names (set via `_p_<name>` uniforms).
    pub scalars: Vec<String>,
    /// Parameters that need a `_meta_<name>` uniform.
    pub metas: Vec<String>,
    /// Parameters that need a `_shape_<name>` uniform (rank-3/4 gathers).
    pub shapes_needed: Vec<String>,
    /// The output stream this shader writes.
    pub output: String,
}

/// Code generation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CodegenError {
    /// The requested kernel does not exist in the program.
    UnknownKernel(String),
    /// The requested output stream is not an output of the kernel.
    UnknownOutput(String),
    /// Vector-element streams cannot be stored on this profile.
    VectorStreamOnPackedTarget {
        /// Offending parameter.
        param: String,
    },
    /// A construct reached the backend that it cannot express.
    Unsupported(String),
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::UnknownKernel(k) => write!(f, "unknown kernel `{k}`"),
            CodegenError::UnknownOutput(o) => write!(f, "kernel has no output stream `{o}`"),
            CodegenError::VectorStreamOnPackedTarget { param } => write!(
                f,
                "stream `{param}` has a vector element type, which the RGBA8 (packed) target \
                 cannot store; convert the kernel to scalar streams (paper §6)"
            ),
            CodegenError::Unsupported(m) => write!(f, "unsupported construct: {m}"),
        }
    }
}

impl Error for CodegenError {}

/// Source-level tests of GLSL generation: each parses a Brook Auto
/// kernel, lowers it to BrookIR and checks the shader
/// [`generate_ir_kernel_shader`] emits for it — hidden uniforms, fetch
/// helpers, casts, kernel splitting and the rejected constructs.
#[cfg(test)]
mod glsl_gen {
    mod tests;
}
