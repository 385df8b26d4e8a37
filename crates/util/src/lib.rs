//! Shared infrastructure for the CTS workspace.
//!
//! The single export that matters is [`exec`]: an order-preserving scoped
//! thread pool used by the characterization sweeps (`cts-timing`), the
//! per-level parallel merge stage of the synthesis pipeline (`cts-core`),
//! and — through [`exec::run_two_stage`] — the batch driver's overlapped
//! synthesize/verify execution. [`exec::run_two_stage_pull`] is the
//! dynamic-source variant behind the long-running synthesis service:
//! jobs are pulled from a live queue (ordering, and therefore priorities,
//! belong to the source) with cooperative cancellation checked at each
//! stage boundary. The pool used to live as a private helper inside
//! `cts_timing::characterize`; promoting it here lets every crate fan out
//! embarrassingly parallel work without re-inventing the worker loop.
//!
//! [`fnv`] holds [`Fnv1a`], the one hash behind every fingerprint in the
//! workspace (library cache names, corner-cache keys, circuit topology
//! and verification-stage keys).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod fnv;

pub use exec::{
    available_threads, resolve_threads, run_parallel, run_parallel_with, run_two_stage,
    run_two_stage_pull, Pull,
};
pub use fnv::Fnv1a;
