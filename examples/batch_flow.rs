//! Batch flow: the `BatchRunner` walkthrough — shard a suite of instances
//! over the worker pool with SPICE verification overlapped against the
//! remaining synthesis, then compare against a plain serial loop.
//!
//! This is also the end-to-end smoke test CI runs on every push (small
//! instances; the point is exercising the batch path, not benchmark
//! scale).
//!
//! ```sh
//! cargo run --release --example batch_flow            # 6 small instances
//! cargo run --release --example batch_flow -- 12      # instance count
//! ```

use cts::benchmarks::generate_custom;
use cts::spice::units::{NS, PS};
use cts::{BatchOptions, BatchRunner, CtsOptions, Instance, Synthesizer, Technology};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let count: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse())
        .transpose()?
        .unwrap_or(6);
    // A queue of small independent requests — the production shape the
    // batch driver is built for (a benchmark suite works the same way).
    let suite: Vec<Instance> = (0..count)
        .map(|k| generate_custom(&format!("req{k}"), 8 + k % 5, 2500.0, 0xba7c + k as u64))
        .collect();

    let tech = Technology::nominal_45nm();
    let library = cts::timing::fast_library();

    // Shard across every core, verification overlapped (the defaults).
    // The batch shards are the parallel axis, so synthesis stays serial.
    let options = CtsOptions::builder().threads(1).build()?;
    let runner = BatchRunner::new(library, &tech, options.clone(), BatchOptions::default());
    let t0 = std::time::Instant::now();
    let out = runner.run(&suite)?;
    let batch_seconds = t0.elapsed().as_secs_f64();

    println!(
        "{:<7} {:>7} {:>12} {:>10} {:>13} {:>6}",
        "name", "#sinks", "worst slew", "skew", "max latency", "#buf"
    );
    for item in &out.items {
        println!(
            "{:<7} {:>7} {:>9.1} ps {:>7.1} ps {:>10.2} ns {:>6}",
            item.name,
            item.sinks,
            item.worst_slew() / PS,
            item.skew() / PS,
            item.max_latency() / NS,
            item.result.buffers
        );
    }
    let s = &out.summary;
    println!(
        "\nsuite: {} instances, {} sinks, {} buffers, {:.1} mm wire, worst slew {:.1} ps, \
         worst skew {:.1} ps, deepest topology {} levels",
        s.instances,
        s.sinks,
        s.buffers,
        s.wirelength_um / 1000.0,
        s.worst_slew / PS,
        s.worst_skew / PS,
        s.levels_max
    );

    // The batch contract: per-instance results are byte-identical to a
    // serial synthesize/verify loop — sharding and overlap change wall
    // time only.
    let serial = Synthesizer::new(library, options);
    let t0 = std::time::Instant::now();
    for (item, instance) in out.items.iter().zip(&suite) {
        let reference = serial.synthesize(instance)?;
        assert_eq!(
            item.result.tree, reference.tree,
            "{}: tree drift",
            item.name
        );
        assert_eq!(item.result.report, reference.report);
    }
    let serial_synth_seconds = t0.elapsed().as_secs_f64();
    println!(
        "\nbatch (synthesize + verify, overlapped): {batch_seconds:.1} s; \
         serial re-synthesis alone: {serial_synth_seconds:.1} s"
    );
    println!("determinism: batch results identical to the serial loop ✓");
    Ok(())
}
