//! Buffered clock tree synthesis under aggressive buffer insertion —
//! a full reproduction of the DAC 2010 paper (Y.-Y. Chen, C. Dong,
//! D. Chen) and its thesis expansion, as one facade crate.
//!
//! The workspace implements the entire stack the paper depends on:
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | geometry | [`geom`] | Manhattan metric, merge arcs, routing grids |
//! | circuits | [`spice`] | nonlinear RC transient simulator (SPICE stand-in) |
//! | timing | [`timing`] | Elmore/D2M baselines, characterization, delay/slew library |
//! | synthesis | [`core`] | topology generation, merge-routing, H-corrections, verification |
//! | workloads | [`benchmarks`] | GSRC r1–r5, ISPD'09 f11–fnb1, bookshelf IO |
//! | network | [`net`] | JSON-over-TCP front end: `cts-serve` server, blocking client |
//!
//! The most common types are re-exported at the top level.
//!
//! # Quickstart
//!
//! The flow of `examples/quickstart.rs`, compile-checked and *run* as a
//! doc-test (`cargo test --doc`): synthesize a small instance, then
//! SPICE-verify the synthesized netlist — the two stages every workload
//! in this workspace composes.
//!
//! ```
//! use cts::{CtsOptions, Instance, Sink, Synthesizer, Technology, VerifyOptions};
//! use cts::geom::Point;
//!
//! // Four flip-flops on a 2 mm die.
//! let sinks = vec![
//!     Sink::new("ff0", Point::new(0.0, 0.0), 25e-15),
//!     Sink::new("ff1", Point::new(2000.0, 100.0), 25e-15),
//!     Sink::new("ff2", Point::new(150.0, 1900.0), 25e-15),
//!     Sink::new("ff3", Point::new(1800.0, 2000.0), 25e-15),
//! ];
//! let instance = Instance::new("quick", sinks);
//!
//! // Characterized delay/slew library (cached on disk after first use).
//! let library = cts::timing::fast_library();
//! let synth = Synthesizer::new(library, CtsOptions::default());
//! let result = synth.synthesize(&instance)?;
//! assert_eq!(result.tree.sinks_under(result.source).len(), 4);
//!
//! // SPICE-verify the synthesized netlist — the numbers the paper reports.
//! let tech = Technology::nominal_45nm();
//! let verified = cts::verify_tree(
//!     &result.tree,
//!     result.source,
//!     &tech,
//!     &VerifyOptions::default(),
//! )?;
//! assert!(
//!     verified.worst_slew <= synth.options().slew_limit,
//!     "slew limit must be honored"
//! );
//! # Ok::<(), cts::CtsError>(())
//! ```
//!
//! For many instances at once, use [`BatchRunner`]; for a long-running
//! shared process serving concurrent clients, use [`SynthesisService`]
//! (see `examples/service_flow.rs`); to drive that process over TCP —
//! from other processes or non-Rust clients — use [`net`]
//! (`examples/remote_flow.rs` and `docs/PROTOCOL.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Benchmark instances (re-export of `cts-benchmarks`).
pub use cts_benchmarks as benchmarks;
/// The synthesis flow (re-export of `cts-core`).
pub use cts_core as core;
/// Manhattan geometry substrate (re-export of `cts-geom`).
pub use cts_geom as geom;
/// The JSON-over-TCP service front end (re-export of `cts-net`).
pub use cts_net as net;
/// Span tracing, latency histograms, and trace exporters (re-export of
/// `cts-obs`).
pub use cts_obs as obs;
/// Circuit simulation substrate (re-export of `cts-spice`).
pub use cts_spice as spice;
/// Delay/slew modeling (re-export of `cts-timing`).
pub use cts_timing as timing;

pub use cts_core::{
    verify_tree, Admission, BatchItem, BatchOptions, BatchOutput, BatchRunner, BatchSummary,
    Buffering, ClockTree, CornerRow, CtsError, CtsOptions, CtsOptionsBuilder, CtsResult, DistStats,
    HCorrection, Instance, LevelStats, NodeKind, OptionsError, ParetoFront, ParetoPoint,
    RequestHandle, RequestId, RequestStatus, ServiceError, ServiceMetrics, ServiceOptions,
    ServiceStats, Sink, SubmitError, SynthesisRequest, SynthesisResult, SynthesisService,
    Synthesizer, Ticket, TimingEngine, TimingReport, TreeNode, TreeNodeId, TreeStructureError,
    Variation, VariationMode, VariationSummary, VerifiedTiming, Verifier, VerifyOptions,
    VerifyStats,
};
pub use cts_spice::Technology;
pub use cts_timing::{
    corner_seed, library_fingerprint, perturb_library, BufferId, CornerLibraryCache,
    DelaySlewLibrary, Load, PerturbSigma,
};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        // Compile-time check that the key paths exist and agree.
        fn assert_same<T>(_: T, _: T) {}
        assert_same(
            crate::CtsOptions::default(),
            crate::core::CtsOptions::default(),
        );
        let t = crate::Technology::nominal_45nm();
        assert_eq!(t.buffer_library().len(), 3);
    }
}
