//! # brook-auto — certification-friendly GPU streaming for automotive systems
//!
//! A from-scratch reproduction of *Brook Auto: High-Level
//! Certification-Friendly Programming for GPU-powered Automotive Systems*
//! (Trompouki & Kosmidis, DAC 2018). Brook Auto is an ISO 26262-amenable
//! subset of the Brook GPU streaming language, compiled to OpenGL ES 2.0
//! fragment shaders so it runs on *any* embedded GPU — including the
//! low-end, graphics-only parts shipped in automotive platforms.
//!
//! The crate ties the toolchain together:
//!
//! * `brook-lang` front-end (lexer/parser/type checker),
//! * `brook-cert` certification rule engine — every [`compile`] runs the
//!   full ISO 26262 rule catalogue and refuses non-compliant kernels,
//! * `brook-ir` — BrookIR, the typed flat register-based mid-level IR
//!   every backend executes: [`compile`] lowers the checked program,
//!   re-gates it at the IR level and runs the cert-gated optimization
//!   pipeline (rollback on any violation, provenance recorded in the
//!   module's `ComplianceReport`),
//! * `brook-codegen` GLSL ES 1.00 generation from the optimized IR,
//! * the pluggable [`backend`] layer: a [`BackendExecutor`] trait with
//!   three in-tree implementations — the serial CPU interpreter (the
//!   reference semantics), a data-parallel CPU backend, and the
//!   `gles2-sim` + `glsl-es` simulated device in native-float or packed
//!   RGBA8 storage.
//!
//! ```
//! use brook_auto::{Arg, BrookContext};
//! let mut ctx = BrookContext::gles2(gles2_sim::DeviceProfile::videocore_iv());
//! let module = ctx.compile(
//!     "kernel void saxpy(float x<>, float y<>, float a, out float r<>) { r = a * x + y; }",
//! )?;
//! let x = ctx.stream(&[4])?;
//! let y = ctx.stream(&[4])?;
//! let r = ctx.stream(&[4])?;
//! ctx.write(&x, &[1.0, 2.0, 3.0, 4.0])?;
//! ctx.write(&y, &[10.0, 10.0, 10.0, 10.0])?;
//! ctx.run(&module, "saxpy", &[Arg::Stream(&x), Arg::Stream(&y), Arg::Float(2.0), Arg::Stream(&r)])?;
//! assert_eq!(ctx.read(&r)?, vec![12.0, 14.0, 16.0, 18.0]);
//! # Ok::<(), brook_auto::BrookError>(())
//! ```
//!
//! The same program runs unchanged on every registered backend — the
//! paper's portability claim, executable:
//!
//! ```
//! use brook_auto::{registered_backends, Arg};
//! let mut results = Vec::new();
//! for spec in registered_backends() {
//!     let mut ctx = (spec.make)();
//!     let module = ctx.compile(
//!         "kernel void dbl(float a<>, out float o<>) { o = a * 2.0; }",
//!     )?;
//!     let a = ctx.stream(&[3])?;
//!     let o = ctx.stream(&[3])?;
//!     ctx.write(&a, &[1.0, 2.0, 3.0])?;
//!     ctx.run(&module, "dbl", &[Arg::Stream(&a), Arg::Stream(&o)])?;
//!     results.push((spec.name, ctx.read(&o)?));
//! }
//! assert!(results.iter().all(|(_, r)| r == &vec![2.0, 4.0, 6.0]));
//! assert_eq!(results.len(), 4); // cpu, cpu-parallel, gles2-native, gles2-packed
//! # Ok::<(), brook_auto::BrookError>(())
//! ```
//!
//! [`compile`]: BrookContext::compile

pub mod backend;
pub mod budget;
pub mod context;
pub mod cpu;
pub mod cpu_parallel;
pub mod error;
pub(crate) mod gpu;
pub mod graph;
pub(crate) mod pool;
pub mod resilience;
pub mod stream;

pub use backend::{registered_backends, BackendExecutor, BackendSpec, BoundArg, KernelLaunch};
pub use budget::{plan_memory, plan_memory_with_widths, MemoryPlan, PlannedStream};
pub use context::{Arg, BrookContext, BrookModule, ModuleArtifact};
pub use cpu::CpuBackend;
pub use cpu_parallel::ParallelCpuBackend;
pub use error::{BrookError, Result};
pub use graph::{BrookGraph, FusedKernel, GraphReport, ReduceHandle};
pub use resilience::{ResiliencePolicy, ResilienceReport};
pub use stream::{Stream, StreamDesc, StreamLayout};

// Re-exports so applications only need this crate.
pub use brook_cert::{CertConfig, ComplianceReport, PassAction, PassRecord};
pub use brook_codegen::StorageMode;
pub use brook_inject as inject;
pub use brook_inject::{
    CancelToken, FaultInjector, FaultKind, FaultMix, FaultPlan, InjectedFault, LaunchResilience,
    ResilienceSummary, ScheduledFault,
};
pub use brook_ir;
pub use brook_lang::ReduceOp;
pub use gles2_sim::{DeviceProfile, DrawMode};
