//! Shared plumbing for the table/figure regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` for the index); this library holds the pieces
//! they share: the cached delay library, the standard flow invocation, and
//! row formatting.

use cts::spice::units::{NS, PS};
use cts::timing::CharacterizeConfig;
use cts::{
    BatchItem, BatchOptions, BatchRunner, CtsOptions, DelaySlewLibrary, Instance, Technology,
};

/// The characterization the binaries use, as its disk-cache stem and
/// config: [`CharacterizeConfig::fast`] by default,
/// [`CharacterizeConfig::standard`] (paper scale, slower first run) when
/// `CTS_STANDARD_LIB` is set.
pub fn library_config() -> (&'static str, CharacterizeConfig) {
    if std::env::var("CTS_STANDARD_LIB").is_err() {
        ("ctslib_fast", CharacterizeConfig::fast())
    } else {
        ("ctslib_standard", CharacterizeConfig::standard())
    }
}

/// Loads (or characterizes and caches) the delay library of `tech` the
/// binaries use, with [`library_config`], through
/// [`cts::timing::cached_library`]. For the nominal technology and the
/// fast config that is the same disk cache as [`cts::timing::fast_library`].
///
/// # Panics
///
/// Panics if characterization fails — the binaries cannot run without a
/// library.
pub fn library(tech: &Technology) -> DelaySlewLibrary {
    let (stem, cfg) = library_config();
    cts::timing::cached_library(stem, tech, &cfg)
        .expect("delay library characterization must succeed")
}

/// One row of a Table 5.1/5.2-style report.
#[derive(Debug, Clone)]
pub struct FlowRow {
    /// Benchmark name.
    pub name: String,
    /// Sink count.
    pub sinks: usize,
    /// SPICE-verified worst slew (s).
    pub worst_slew: f64,
    /// SPICE-verified skew (s).
    pub skew: f64,
    /// SPICE-verified max latency (s).
    pub max_latency: f64,
    /// Buffers inserted.
    pub buffers: usize,
    /// Total wirelength (µm).
    pub wirelength_um: f64,
    /// Synthesis wall time (s).
    pub synth_seconds: f64,
}

impl FlowRow {
    /// Builds a table row from a batch item (verified numbers when the
    /// batch ran verification, engine estimates otherwise).
    pub fn from_item(item: &BatchItem) -> FlowRow {
        FlowRow {
            name: item.name.clone(),
            sinks: item.sinks,
            worst_slew: item.worst_slew(),
            skew: item.skew(),
            max_latency: item.max_latency(),
            buffers: item.result.buffers,
            wirelength_um: item.result.wirelength_um,
            synth_seconds: item.synth_seconds,
        }
    }
}

/// Runs a whole suite through the sharded batch driver — SPICE
/// verification of finished trees overlaps with synthesis of later
/// instances — and returns one table row per instance, in input order.
///
/// This is the standard flow invocation of every table-regeneration
/// binary; pass custom [`CtsOptions`] for ablations (H-corrections etc.).
///
/// # Panics
///
/// Panics if synthesis or verification fails — benchmark instances are
/// expected to be feasible.
pub fn run_suite(
    lib: &DelaySlewLibrary,
    tech: &Technology,
    options: CtsOptions,
    instances: &[Instance],
) -> Vec<FlowRow> {
    run_suite_items(lib, tech, options, instances)
        .iter()
        .map(FlowRow::from_item)
        .collect()
}

/// [`run_suite`] returning the full batch items (tree, level stats,
/// verified timing) instead of flattened rows.
///
/// Multi-instance suites parallelize on the **shard axis**: the caller's
/// `options.threads` is overridden to `1`, since per-instance merge
/// parallelism on top of the shards would oversubscribe the cores without
/// changing any result (synthesis is bit-identical for every thread
/// count). A single-instance suite keeps the caller's thread knob and
/// parallelizes within the instance instead.
///
/// # Panics
///
/// Panics if synthesis or verification fails — benchmark instances are
/// expected to be feasible.
pub fn run_suite_items(
    lib: &DelaySlewLibrary,
    tech: &Technology,
    mut options: CtsOptions,
    instances: &[Instance],
) -> Vec<BatchItem> {
    if instances.len() > 1 {
        options.threads = 1;
    }
    let runner = BatchRunner::new(lib, tech, options, BatchOptions::default());
    runner
        .run(instances)
        .expect("benchmark suite must synthesize and verify")
        .items
}

/// Prints the standard flow-table header.
pub fn print_flow_header() {
    println!(
        "{:<6} {:>7} {:>14} {:>10} {:>13} {:>8} {:>10} {:>8}",
        "bench", "#sinks", "worst slew", "skew", "max latency", "#buf", "wire", "time"
    );
}

/// Prints one flow-table row.
pub fn print_flow_row(r: &FlowRow) {
    println!(
        "{:<6} {:>7} {:>11.1} ps {:>7.1} ps {:>10.2} ns {:>8} {:>7.1} mm {:>6.1} s",
        r.name,
        r.sinks,
        r.worst_slew / PS,
        r.skew / PS,
        r.max_latency / NS,
        r.buffers,
        r.wirelength_um / 1000.0,
        r.synth_seconds
    );
}

/// Prints one row's shape check: `<bench>: slew limit HONORED (81.6 ps <=
/// 100 ps), <note>`, or `VIOLATED (107.8 ps > 100 ps)` when the
/// SPICE-verified worst slew is over the paper's 100 ps limit. CI's slew
/// gate reads these lines from both table binaries.
pub fn print_shape_check(r: &FlowRow, note: std::fmt::Arguments<'_>) {
    let (verdict, op) = if r.worst_slew <= 100.0 * PS {
        ("HONORED", "<=")
    } else {
        ("VIOLATED", ">")
    };
    println!(
        "{}: slew limit {verdict} ({:.1} ps {op} 100 ps), {note}",
        r.name,
        r.worst_slew / PS
    );
}

/// Returns `true` when `--full` was passed (run unreduced instances).
pub fn full_run_requested() -> bool {
    std::env::args().any(|a| a == "--full")
}
