//! `cts-net` — the JSON-over-TCP network front end for the long-running
//! synthesis service, so non-Rust clients (and Rust clients in other
//! processes) can drive one shared, characterized-library
//! [`cts_core::SynthesisService`].
//!
//! Three layers, bottom up — all std-only (the build environment is
//! offline; there is no serde or tokio here, and none is needed):
//!
//! 1. **[`json`] + [`frame`]** — a hand-rolled minimal JSON value
//!    (parse/serialize with full escaping, strict numbers, depth limits)
//!    and a newline-delimited framing codec that distinguishes
//!    recoverable malformed frames from fatal transport failures.
//! 2. **[`proto`]** — the versioned request/response protocol: `hello`,
//!    `submit` (instance spec + options subset + priority + deadline +
//!    client id), `submit_batch` (N instances in one frame, admitted
//!    atomically), `fetch_tree` (the routed tree geometry of a completed
//!    request, streamed as chunked `tree` events), `status`, `cancel`,
//!    `metrics`, `stats` (latency histograms + span summaries),
//!    `shutdown`, and structured error replies. Pushed frames are one
//!    [`Event`] enum behind one envelope (`{"ok":true,"op":…,"event":true}`):
//!    `result` (a request resolved, with its full stats), `tree` (a
//!    `fetch_tree` chunk or its terminal frame), `sweep_progress` (one sweep
//!    point resolved) and `pareto` (a finished sweep's front). Every
//!    fixed-shape object is a `wire_struct!` table, each field named once.
//!    Spec and transcripts: `docs/PROTOCOL.md`.
//! 3. **[`server`] + [`client`]** — a threaded TCP server (a reader and
//!    a writer thread per connection, the writer owning every request
//!    after admission; graceful drain on the `shutdown` op) around one
//!    [`cts_core::SynthesisService`],
//!    and a blocking [`Client`]. The `cts-serve` binary wraps the server
//!    for standalone deployment.
//!
//! # Example
//!
//! An in-process server on an ephemeral port and a client driving it —
//! the shape of `examples/remote_flow.rs`:
//!
//! ```no_run
//! use cts_core::{CtsOptions, Instance, ServiceOptions, Sink, SynthesisService};
//! use cts_geom::Point;
//! use cts_net::{Client, Outcome, Server, SubmitSpec};
//! use std::sync::Arc;
//!
//! let service = Arc::new(SynthesisService::new(
//!     Arc::new(cts_timing::fast_library().clone()),
//!     Arc::new(cts_spice::Technology::nominal_45nm()),
//!     CtsOptions::default(),
//!     ServiceOptions::default(),
//! ));
//! let server = Server::bind("127.0.0.1:0", Arc::clone(&service))?;
//! let addr = server.local_addr();
//! let running = std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr)?;
//! let sinks = (0..4)
//!     .map(|i| Sink::new(format!("ff{i}"), Point::new(700.0 * i as f64, 0.0), 25e-15))
//!     .collect();
//! let id = client.submit_spec(SubmitSpec::new(Instance::new("remote", sinks)))?;
//! match client.wait_result(id)? {
//!     Outcome::Completed(result) => println!("skew: {} s", result.estimate.skew),
//!     other => println!("request resolved {other:?}"),
//! }
//! client.shutdown()?; // drain + stop; server.run() returns
//! running.join().unwrap()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod json;
pub mod proto;
pub mod server;
mod wire;

pub use client::{
    ChunkMode, Client, NetError, ServerInfo, SubmitSpec, SweepSubmission, TreeProgress,
};
pub use json::{Json, JsonError};
pub use proto::{
    BatchEntry, ErrorCode, Event, MetricsReply, OptionsPatch, Outcome, ParetoEvent,
    ParetoWirePoint, RemoteResult, RemoteTree, ResultEvent, Scheduling, SpanStat, StatsReply,
    SweepAxesSpec, SweepPointOutcome, SweepProgressEvent, SweepRange, TimingStats, TreeChunkEvent,
    TreeDoneEvent, TreeEvent, TreeInfo, VariationStats, DEFAULT_TREE_CHUNK, MAX_TREE_CHUNK,
    PROTOCOL_VERSION,
};
pub use server::{Server, ServerHandle};
