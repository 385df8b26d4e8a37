//! GSRC flow: synthesize GSRC bookshelf instances through the sharded
//! batch driver and print Table 5.1-style rows (worst slew / skew / max
//! latency, SPICE-verified).
//!
//! Run with (r1 by default; pass r1..r5, or `all` for the whole suite;
//! an optional second argument names a directory of real bookshelf
//! files — any `r<i>.bms` present is loaded instead of the synthetic
//! equivalent):
//! ```sh
//! cargo run --release --example gsrc_flow -- r2
//! cargo run --release --example gsrc_flow -- all
//! cargo run --release --example gsrc_flow -- all /path/to/gsrc/files
//! ```

use cts::benchmarks::{generate_gsrc, gsrc_from_dir, GsrcBenchmark, SuiteSource};
use cts::spice::units::{NS, PS};
use cts::{BatchOptions, BatchRunner, CtsOptions, Instance, Technology};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let which = std::env::args().nth(1).unwrap_or_else(|| "r1".into());
    let dir = std::env::args().nth(2);
    let selected: Vec<GsrcBenchmark> = if which == "all" {
        GsrcBenchmark::all().to_vec()
    } else {
        let bench = GsrcBenchmark::all()
            .into_iter()
            .find(|b| b.name() == which)
            .ok_or_else(|| format!("unknown GSRC benchmark '{which}' (use r1..r5 or all)"))?;
        vec![bench]
    };
    let suite: Vec<Instance> = match &dir {
        // Real benchmark ingestion: load any converted bookshelf file in
        // the directory, fall back per file to the synthetic equivalent.
        Some(dir) => selected
            .iter()
            .map(|&b| {
                let entry = gsrc_from_dir(b, dir)?;
                match &entry.source {
                    SuiteSource::File(path) => println!("{}: loaded {}", b, path.display()),
                    SuiteSource::Synthetic => println!("{b}: no file in {dir}, synthetic"),
                }
                Ok(entry.instance)
            })
            .collect::<Result<_, String>>()?,
        None => selected.iter().map(|&b| generate_gsrc(b)).collect(),
    };
    for instance in &suite {
        println!("instance: {instance}");
    }

    let tech = Technology::nominal_45nm();
    let library = cts::timing::fast_library();
    // Even a single instance goes through the batch driver — it is the one
    // entry point for 1..N instances, and with `all` the suite shards
    // across the cores with verification overlapped. Multi-instance runs
    // parallelize on the shard axis (per-instance merge parallelism on top
    // would oversubscribe the cores); a lone instance keeps the per-level
    // parallel merges instead.
    let threads = if suite.len() > 1 { 1 } else { 0 };
    let options = CtsOptions::builder().threads(threads).build()?;
    let runner = BatchRunner::new(library, &tech, options, BatchOptions::default());
    let t0 = std::time::Instant::now();
    let out = runner.run(&suite)?;
    println!(
        "batch of {} synthesized+verified in {:.1} s: {} buffers, {:.1} mm wire",
        out.summary.instances,
        t0.elapsed().as_secs_f64(),
        out.summary.buffers,
        out.summary.wirelength_um / 1000.0
    );

    println!(
        "\n{:<6} {:>8} {:>12} {:>10} {:>14}",
        "bench", "#sinks", "worst slew", "skew", "max latency"
    );
    for item in &out.items {
        println!(
            "{:<6} {:>8} {:>9.1} ps {:>7.1} ps {:>11.2} ns",
            item.name,
            item.sinks,
            item.worst_slew() / PS,
            item.skew() / PS,
            item.max_latency() / NS
        );
    }
    Ok(())
}
