//! ISPD'09 flow: synthesize ISPD clock-network instances through the
//! sharded batch driver and check the paper's §5.1 observation that skew
//! stays within ~3 % of max latency.
//!
//! Run with (f22 by default; pass f11, f12, f21, f22, f31, f32, fnb1, or
//! `all` for the whole suite; an optional second argument names a
//! directory of real bookshelf files — any `<name>.bms` present is
//! loaded instead of the synthetic equivalent):
//! ```sh
//! cargo run --release --example ispd_flow -- f31
//! cargo run --release --example ispd_flow -- all
//! cargo run --release --example ispd_flow -- all /path/to/ispd/files
//! ```

use cts::benchmarks::{generate_ispd, ispd_from_dir, IspdBenchmark, SuiteSource};
use cts::spice::units::{NS, PS};
use cts::{BatchOptions, BatchRunner, CtsOptions, Instance, Technology};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let which = std::env::args().nth(1).unwrap_or_else(|| "f22".into());
    let dir = std::env::args().nth(2);
    let selected: Vec<IspdBenchmark> = if which == "all" {
        IspdBenchmark::all().to_vec()
    } else {
        let bench = IspdBenchmark::all()
            .into_iter()
            .find(|b| b.name() == which)
            .ok_or_else(|| format!("unknown ISPD benchmark '{which}' (or pass `all`)"))?;
        vec![bench]
    };
    let suite: Vec<Instance> = match &dir {
        // Real benchmark ingestion with per-file synthetic fallback.
        Some(dir) => selected
            .iter()
            .map(|&b| {
                let entry = ispd_from_dir(b, dir)?;
                match &entry.source {
                    SuiteSource::File(path) => println!("{}: loaded {}", b, path.display()),
                    SuiteSource::Synthetic => println!("{b}: no file in {dir}, synthetic"),
                }
                Ok(entry.instance)
            })
            .collect::<Result<_, String>>()?,
        None => selected.iter().map(|&b| generate_ispd(b)).collect(),
    };
    for instance in &suite {
        println!("instance: {instance}");
    }

    let tech = Technology::nominal_45nm();
    let library = cts::timing::fast_library();
    // Multi-instance runs parallelize on the shard axis; a lone instance
    // keeps the per-level parallel merges instead.
    let threads = if suite.len() > 1 { 1 } else { 0 };
    let options = CtsOptions::builder().threads(threads).build()?;
    let runner = BatchRunner::new(library, &tech, options, BatchOptions::default());
    let out = runner.run(&suite)?;

    for item in &out.items {
        let pct = 100.0 * item.skew() / item.max_latency();
        println!(
            "{}: worst slew {:.1} ps | skew {:.1} ps | latency {:.2} ns | skew/latency {:.1} %",
            item.name,
            item.worst_slew() / PS,
            item.skew() / PS,
            item.max_latency() / NS,
            pct
        );
        if item.worst_slew() <= 100.0 * PS {
            println!("slew limit honored ✓");
        } else {
            println!("slew limit EXCEEDED ✗");
        }
    }
    Ok(())
}
