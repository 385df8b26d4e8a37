//! `cts-obs` — observability for the synthesis stack: span tracing,
//! mergeable latency histograms, and a trace exporter. Std-only, like the
//! rest of the workspace (the build environment is offline).
//!
//! Three pieces, designed around one invariant — **telemetry never feeds
//! back into results**. Tracing on or off leaves every synthesis result
//! byte-identical; the tier-1 determinism suites run with a recording
//! [`Recorder`] installed to pin it.
//!
//! * **Spans** ([`span`], [`span_with`], [`record`]) — scoped wall-time
//!   measurements stamped with a process-monotonic nanosecond clock
//!   ([`now_ns`]). An installed [`Recorder`] folds each finished span,
//!   under one lock, into exact per-name summaries and onto a list of the
//!   newest 262,144 events kept for the trace; older events are evicted
//!   and counted ([`Recorder::dropped`]). Nothing is kept per thread. With
//!   no recorder installed the hot path is one relaxed atomic load — cheap
//!   enough to leave the instrumentation in the merge inner loops
//!   permanently.
//! * **Histograms** ([`Histogram`]) — fixed-bucket log2 latency
//!   distributions whose [`Histogram::merge`] is exact and
//!   grouping-independent: merging per-shard histograms in any order or
//!   nesting yields the same buckets, the same totals, and therefore
//!   bit-identical [`Histogram::percentile`] answers — the same fold
//!   contract `BatchSummary::fold` keeps for batch stats.
//! * **Exporter** — [`chrome_trace`] renders drained spans as Chrome
//!   trace-event JSON (loadable in `chrome://tracing` or Perfetto).
//!
//! # Example
//!
//! ```
//! use cts_obs::{Name, Recorder};
//!
//! static STAGE: Name = Name::new("demo.stage");
//!
//! let recorder = Recorder::install();
//! {
//!     let _span = cts_obs::span_with(&STAGE, 42);
//!     // ... the measured work ...
//! }
//! let spans = recorder.summaries();
//! assert_eq!(spans.len(), 1);
//! assert_eq!(spans[0].name, "demo.stage");
//! assert_eq!(spans[0].durations.count(), 1);
//! Recorder::uninstall();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod hist;
mod span;

pub use export::chrome_trace;
pub use hist::{bucket_bounds, bucket_of, Histogram, HISTOGRAM_BUCKETS};
pub use span::{
    now_ns, record, span, span_with, Name, Recorder, SpanEvent, SpanGuard, SpanSummary,
};
