//! Variation flow: the Monte Carlo corner axis end to end — a handful of
//! instances, each evaluated under hundreds of deterministically perturbed
//! libraries, pushed through one `SynthesisService` and folded into a
//! yield-style skew/slew/latency table.
//!
//! The contract this example enforces (and CI replays): the folded
//! [`VariationSummary`] is **bit-identical** for 1 vs 4 service workers and
//! for serial vs service execution, and the per-corner library derivations
//! are shared through the service's corner cache (hits visible in
//! [`ServiceMetrics`]).
//!
//! ```sh
//! cargo run --release --example variation_flow            # 4 instances × 100 corners
//! cargo run --release --example variation_flow -- 3 16    # instances, corners
//! ```

use cts::benchmarks::generate_custom;
use cts::spice::units::PS;
use cts::{
    library_fingerprint, CornerLibraryCache, CtsOptions, CtsOptionsBuilder, Instance,
    ServiceOptions, SynthesisRequest, SynthesisService, Synthesizer, Technology, Variation,
    VariationMode, VariationSummary,
};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let instances: usize = args.next().map(|a| a.parse()).transpose()?.unwrap_or(4);
    let corners: usize = args.next().map(|a| a.parse()).transpose()?.unwrap_or(100);

    let tech = Technology::nominal_45nm();
    let library = cts::timing::fast_library();

    // Service workers are the parallel axis, so synthesis stays serial.
    // Variation defaults: 5 % sigma on buffer delay, wire delay, and slew.
    let options = CtsOptions::builder()
        .threads(1)
        .variation(Variation {
            corners,
            seed: 2010,
            ..Variation::default()
        })
        .build()?;

    let suite: Vec<Instance> = (0..instances)
        .map(|i| generate_custom(&format!("v{i}"), 6 + i % 4, 2000.0, 0xC75 + i as u64))
        .collect();

    // Serial reference: synthesize once, then walk the corners directly.
    let synth = Synthesizer::new(library, options.clone());
    let base_fp = library_fingerprint(library);
    let serial_cache = CornerLibraryCache::new();
    let mut serial: Vec<VariationSummary> = Vec::new();
    for instance in &suite {
        let nominal = synth.synthesize(instance)?;
        let summary = synth
            .evaluate_variation_with(instance, &nominal, &serial_cache, base_fp)?
            .expect("corners > 0");
        serial.push(summary);
    }

    // Service runs: the same suite through 1 worker and through 4. Both
    // must reproduce the serial summaries bit for bit — shard count and
    // dispatch interleaving must not leak into the fold.
    for workers in [1usize, 4] {
        let mut svc_options = ServiceOptions::default();
        svc_options.workers = workers;
        svc_options.verify = false; // engine estimates; corners are the point here
        let service = SynthesisService::new(
            Arc::new(library.clone()),
            Arc::new(tech.clone()),
            options.clone(),
            svc_options,
        );
        let tickets: Vec<_> = suite
            .iter()
            .map(|instance| {
                service
                    .submit(SynthesisRequest::new(instance.clone()))
                    .expect("service accepts while running")
            })
            .collect();
        let mut got: Vec<(String, VariationSummary)> = tickets
            .into_iter()
            .map(|t| {
                let done = t.wait().expect("synthesis succeeds");
                let summary = done.item.variation.clone().expect("variation axis on");
                (done.item.name.clone(), summary)
            })
            .collect();
        got.sort_by(|a, b| a.0.cmp(&b.0));

        let m = service.metrics();
        service.shutdown();
        for (i, (name, summary)) in got.iter().enumerate() {
            assert_eq!(
                summary, &serial[i],
                "{name}: service summary drifted from serial at {workers} workers"
            );
        }
        assert_eq!(
            m.corners_evaluated,
            (instances * corners) as u64,
            "every submitted corner is counted"
        );
        // Every lookup is accounted for, and derived libraries are shared
        // across instances. With one worker the counts are exact; with
        // several, racing workers may each derive a key before either
        // publishes it (derivation happens outside the cache lock), so
        // misses are only bounded — results are unaffected either way.
        assert_eq!(
            m.corner_lib_hits + m.corner_lib_misses,
            (instances * corners) as u64,
            "every corner lookup hits or misses: {m}"
        );
        if workers == 1 {
            assert_eq!(m.corner_lib_misses, corners as u64, "exact with 1 worker");
        } else {
            assert!(
                m.corner_lib_misses >= corners as u64
                    && m.corner_lib_misses <= (workers * corners) as u64,
                "misses bounded by the worker race: {m}"
            );
        }
        assert!(
            m.corner_lib_hits > 0,
            "corner cache shares derived libraries across instances: {m}"
        );
        println!(
            "workers {workers}: {} corners evaluated, corner cache {} hit / {} miss ✓",
            m.corners_evaluated, m.corner_lib_hits, m.corner_lib_misses
        );
    }

    // Resynthesize mode: the perturbed library changes insertion decisions,
    // not just the measured numbers. A small corner budget — each corner is
    // a full synthesis pass.
    let rs_options = CtsOptionsBuilder::from(options.clone())
        .variation(Variation {
            corners: corners.min(8),
            mode: VariationMode::Resynthesize,
            ..options.variation
        })
        .build()?;
    let rs_synth = Synthesizer::new(library, rs_options.clone());
    let rs_nominal = rs_synth.synthesize(&suite[0])?;
    let rs_serial = rs_synth
        .evaluate_variation_with(&suite[0], &rs_nominal, &CornerLibraryCache::new(), base_fp)?
        .expect("corners > 0");
    let mut svc_options = ServiceOptions::default();
    svc_options.workers = 2;
    svc_options.verify = false;
    let service = SynthesisService::new(
        Arc::new(library.clone()),
        Arc::new(tech.clone()),
        options.clone(),
        svc_options,
    );
    let ticket = service
        .submit(SynthesisRequest::new(suite[0].clone()).with_options(rs_options))
        .expect("service accepts while running");
    let done = ticket.wait().expect("synthesis succeeds");
    service.shutdown();
    let rs_service = done.item.variation.clone().expect("variation axis on");
    assert_eq!(
        rs_service, rs_serial,
        "resynthesize-mode summary drifted from serial"
    );
    assert!(
        rs_service.rows.iter().all(|r| r.resynthesized),
        "resynthesize mode re-runs synthesis per corner"
    );
    println!(
        "resynthesize: {} corners of {} re-synthesized, service == serial ✓\n",
        rs_service.corners,
        suite[0].name()
    );

    // The yield table: skew/slew/latency distributions across corners.
    println!(
        "{:<6} {:>7} | {:>9} {:>9} {:>9} {:>9} | {:>10} | {:>10}",
        "inst", "corners", "skew min", "median", "p95", "max", "slew p95", "lat p95"
    );
    for (instance, summary) in suite.iter().zip(&serial) {
        println!(
            "{:<6} {:>7} | {:>6.2} ps {:>6.2} ps {:>6.2} ps {:>6.2} ps | {:>7.1} ps | {:>7.1} ps",
            instance.name(),
            summary.corners,
            summary.skew.min / PS,
            summary.skew.median / PS,
            summary.skew.p95 / PS,
            summary.skew.max / PS,
            summary.worst_slew.p95 / PS,
            summary.latency.p95 / PS,
        );
    }

    // Exact-bits fingerprints, one line per instance: CI runs this example
    // twice and diffs these lines — any nondeterminism in the corner walk
    // or the fold shows up as a bit flip here.
    for (instance, summary) in suite.iter().zip(&serial) {
        println!(
            "p95_skew_bits {} {:016x}",
            instance.name(),
            summary.skew.p95.to_bits()
        );
    }
    println!("\ndeterminism: serial == service (1 and 4 workers), bit for bit ✓");
    Ok(())
}
