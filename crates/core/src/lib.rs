//! Buffered clock tree synthesis under aggressive buffer insertion —
//! the paper's primary contribution (DAC 2010 / UIUC thesis, Y.-Y. Chen).
//!
//! Unlike prior buffered-CTS work that restricts buffers to merge nodes,
//! this flow inserts and sizes buffers **anywhere along routing paths**,
//! keeping every net's slew under a hard limit while preserving low skew
//! through accurate library-based timing and balanced routing:
//!
//! * [`Synthesizer`] — the top-level flow: levelized topology generation
//!   (nearest-neighbor matching, farthest-from-centroid greedy, odd-node
//!   seeding) driving merge-routing per level (§4.1);
//! * [`MergeRouting`] — the three-stage merge (§4.2): wire-snaking
//!   *balance*, bi-directional slew-aware *maze routing* with intelligent
//!   buffer sizing, and merge-point *binary search*;
//! * [`merge_with_correction_with`] — H-structure re-estimation/correction of
//!   intertwined pairings (§4.1.2);
//! * [`TimingEngine`] — top-down delay/slew propagation over the
//!   characterized library;
//! * [`verify_tree`] — SPICE verification of the synthesized netlist (the
//!   numbers the paper reports);
//! * [`BatchRunner`] — sharded multi-instance batching with SPICE
//!   verification overlapped against later instances' synthesis;
//! * [`SynthesisService`] — the long-running front end over the same
//!   stages: a bounded prioritized request queue, per-request result
//!   streams with cooperative cancellation, and graceful draining
//!   shutdown, so many clients share one process and one characterized
//!   library;
//! * [`VariationSummary`] — the Monte Carlo variation axis: evaluate each
//!   instance under N deterministically perturbed libraries and fold the
//!   corners into a yield-style skew/slew/latency distribution;
//! * [`baseline`] — unbuffered zero-skew DME and merge-node-only buffering
//!   for comparisons and ablations.
//!
//! See the crate-level example on [`Synthesizer`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod baseline;
pub mod batch;
mod engine;
mod flow;
mod hcorrect;
mod instance;
pub mod maze;
mod merge;
mod options;
pub mod pareto;
pub mod pipeline;
pub mod service;
pub mod spatial;
pub mod sweep;
pub mod topology;
mod tree;
mod vanginneken;
pub mod variation;
pub mod verify;

pub use batch::{BatchItem, BatchOptions, BatchOutput, BatchRunner, BatchSummary};
pub use engine::{TimingEngine, TimingReport};
pub use flow::{CtsResult, Synthesizer};
pub use hcorrect::merge_with_correction_with;
pub use instance::{Instance, Sink};
pub use merge::{MergeOutcome, MergeRouting, MergeScratch};
pub use options::{
    Buffering, CtsError, CtsOptions, CtsOptionsBuilder, HCorrection, OptionsError, Variation,
    VariationMode,
};
pub use pareto::{ParetoFront, ParetoPoint};
pub use pipeline::{LevelSnapshot, LevelStats};
pub use service::{
    Admission, RequestHandle, RequestId, RequestStatus, ServiceError, ServiceMetrics,
    ServiceOptions, ServiceStats, SubmitError, SweepSubmitError, SynthesisRequest, SynthesisResult,
    SynthesisService, Ticket,
};
pub use sweep::{pareto_point, SweepError};
pub use tree::{ClockTree, NodeKind, TreeNode, TreeNodeId, TreeStructureError};
pub use variation::{CornerRow, DistStats, VariationSummary};
pub use verify::{verify_tree, VerifiedTiming, Verifier, VerifyOptions, VerifyStats};
