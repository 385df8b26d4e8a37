//! Quickstart: synthesize and verify a buffered clock tree for a handful
//! of flip-flops.
//!
//! The same flow is the `cts` facade crate's front-page example, where it
//! runs as a doc-test (`cargo test --doc -p cts`) so it can never rot.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cts::geom::Point;
use cts::spice::units::{NS, PS};
use cts::{CtsOptions, Instance, Sink, Synthesizer, Technology, VerifyOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Eight flip-flops scattered over a ~3 mm die.
    let sinks = vec![
        Sink::new("ff0", Point::new(0.0, 0.0), 25e-15),
        Sink::new("ff1", Point::new(3000.0, 150.0), 30e-15),
        Sink::new("ff2", Point::new(200.0, 2800.0), 25e-15),
        Sink::new("ff3", Point::new(2900.0, 3000.0), 20e-15),
        Sink::new("ff4", Point::new(1500.0, 1500.0), 35e-15),
        Sink::new("ff5", Point::new(700.0, 900.0), 25e-15),
        Sink::new("ff6", Point::new(2400.0, 800.0), 25e-15),
        Sink::new("ff7", Point::new(1100.0, 2500.0), 30e-15),
    ];
    let instance = Instance::new("quickstart", sinks);
    println!("instance: {instance}");

    // The fast delay/slew library: characterized on the first run, then
    // cached on disk under a fingerprint of the technology and config.
    let tech = Technology::nominal_45nm();
    let library = cts::timing::fast_library();

    // Synthesize with the paper's settings: 100 ps slew limit, 80 ps
    // synthesis target, R = 45 routing grid.
    let options = CtsOptions::default();
    let synth = Synthesizer::new(library, options);
    let result = synth.synthesize(&instance)?;

    println!(
        "synthesized: {} levels, {} buffers, {:.0} µm of wire",
        result.levels, result.buffers, result.wirelength_um
    );
    println!(
        "engine estimate: skew {:.1} ps, latency {:.3} ns, worst slew {:.1} ps",
        result.report.skew() / PS,
        result.report.latency / NS,
        result.report.worst_slew / PS
    );

    // SPICE-verify the synthesized netlist — the numbers the paper reports.
    let verified = cts::verify_tree(
        &result.tree,
        result.source,
        &tech,
        &VerifyOptions::default(),
    )?;
    println!(
        "verified:        skew {:.1} ps, latency {:.3} ns, worst slew {:.1} ps",
        verified.skew / PS,
        verified.max_latency / NS,
        verified.worst_slew / PS
    );
    assert!(
        verified.worst_slew <= synth.options().slew_limit,
        "slew limit violated"
    );
    println!("slew limit of 100 ps honored ✓");
    Ok(())
}
