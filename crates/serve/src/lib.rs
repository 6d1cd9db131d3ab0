//! Brook as a service: sharded multi-tenant execution of certified
//! Brook Auto programs behind a length-prefixed wire protocol.
//!
//! The paper's premise — statically sized streams, a certification
//! gate, statically bounded iteration — is exactly what makes a
//! multi-tenant execution service tractable: every request's cost is
//! known *before* it runs, so admission control is a table lookup, not
//! a guess. This crate turns the (tier-compiled) execution pipeline
//! into a long-running host:
//!
//! * [`wire`] — the framed binary protocol (std-only, no serializer);
//! * [`cache`] — the shared compiled-module cache keyed by
//!   `(source hash, cert fingerprint, backend)`, handing out
//!   context-neutral artifacts that each tenant *adopts* (re-stamps),
//!   so cross-tenant module isolation survives cache hits;
//! * [`admission`] — budgets spent from static artifacts
//!   (`instruction_estimate × domain`, stream bytes): over-budget
//!   requests get a structured rejection, never a queue slot;
//! * [`server`] — the execution host: each connection's thread runs
//!   its requests under the tenant's shard lock, with a bounded wait
//!   (more than `queue_depth` waiters ⇒ `Busy`, shed not buffered), a
//!   server-wide launch watchdog, and a panic shield that converts any
//!   caught panic into a failed *request* plus a poisoned tenant —
//!   never a failed process;
//! * [`client`] — a blocking client for tests, tools and the
//!   `serve_report` load harness.

pub mod admission;
pub mod cache;
pub mod client;
pub mod server;
pub mod wire;

pub use admission::{Admission, AdmissionConfig, AdmissionError};
pub use cache::{hash_source, CacheKey, ModuleCache};
pub use client::{Client, ClientError, ClientResult, RetryPolicy, DEFAULT_SOCKET_TIMEOUT};
pub use server::{BreakerConfig, Server, ServerConfig, Stats};
pub use wire::{ErrorCode, Request, Response, WireArg};
