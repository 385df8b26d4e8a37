//! Service metrics under concurrency: counters must be monotone while
//! four workers hammer mixed batches, and the final totals must equal
//! what a serial accounting of the same work predicts. Every snapshot is
//! a copy of one ledger, so it must also be consistent across counters:
//! no snapshot shows more resolved-plus-queued requests than admitted.

use cts::{
    Admission, CtsOptions, Instance, ServiceMetrics, ServiceOptions, SynthesisRequest,
    SynthesisService, Technology,
};
use cts_timing::fast_library;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Every cumulative counter pair must satisfy `before <= after`;
/// `queue_depth` is a gauge and exempt.
fn assert_monotone(before: &ServiceMetrics, after: &ServiceMetrics) {
    let pairs = [
        ("submitted", before.submitted, after.submitted),
        ("completed", before.completed, after.completed),
        ("cancelled", before.cancelled, after.cancelled),
        ("expired", before.expired, after.expired),
        ("failed", before.failed, after.failed),
        (
            "stages_simulated",
            before.stages_simulated,
            after.stages_simulated,
        ),
        ("stages_reused", before.stages_reused, after.stages_reused),
        ("symbolic_hits", before.symbolic_hits, after.symbolic_hits),
        (
            "symbolic_misses",
            before.symbolic_misses,
            after.symbolic_misses,
        ),
        (
            "sinks_synthesized",
            before.sinks_synthesized,
            after.sinks_synthesized,
        ),
        (
            "sinks_verified",
            before.sinks_verified,
            after.sinks_verified,
        ),
        (
            "corners_evaluated",
            before.corners_evaluated,
            after.corners_evaluated,
        ),
        (
            "corner_lib_hits",
            before.corner_lib_hits,
            after.corner_lib_hits,
        ),
        (
            "corner_lib_misses",
            before.corner_lib_misses,
            after.corner_lib_misses,
        ),
        (
            "queue_depth_high_water",
            before.queue_depth_high_water,
            after.queue_depth_high_water,
        ),
    ];
    for (name, b, a) in pairs {
        assert!(b <= a, "counter '{name}' went backwards: {b} -> {a}");
    }
    let seconds = [
        ("synth_seconds", before.synth_seconds, after.synth_seconds),
        (
            "verify_seconds",
            before.verify_seconds,
            after.verify_seconds,
        ),
        (
            "topology_seconds",
            before.topology_seconds,
            after.topology_seconds,
        ),
        ("merge_seconds", before.merge_seconds, after.merge_seconds),
    ];
    for (name, b, a) in seconds {
        assert!(b <= a, "accumulator '{name}' went backwards: {b} -> {a}");
    }
}

#[test]
fn hammered_counters_stay_monotone_and_sum_exactly() {
    let lib = fast_library();
    let tech = Technology::nominal_45nm();
    let mut options = CtsOptions::default();
    options.threads = 1; // the 4 worker shards are the parallel axis

    // Eight distinct tiny instances, so verification always simulates
    // fresh work (no cross-request stage reuse to reason about).
    let instances: Vec<Instance> = (0..8)
        .map(|k| {
            cts::benchmarks::generate_custom(
                &format!("m{k}"),
                6 + k,
                2200.0 + 300.0 * k as f64,
                100 + k as u64,
            )
        })
        .collect();
    let total_sinks: u64 = instances.iter().map(|i| i.sinks().len() as u64).sum();

    let mut svc_options = ServiceOptions::default();
    svc_options.workers = 4;
    svc_options.verify = true;
    let service = Arc::new(SynthesisService::new(
        Arc::new(lib.clone()),
        Arc::new(tech),
        options,
        svc_options,
    ));

    // A sampler thread snapshots metrics as fast as it can for the whole
    // run; any counter moving backwards fails the test at join.
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut samples = 0u64;
            let mut previous = service.metrics();
            while !stop.load(Ordering::Acquire) {
                let now = service.metrics();
                assert_monotone(&previous, &now);
                let accounted = now.completed
                    + now.cancelled
                    + now.expired
                    + now.failed
                    + now.queue_depth as u64;
                assert!(
                    accounted <= now.submitted,
                    "inconsistent snapshot: {accounted} resolved or queued > {} submitted",
                    now.submitted
                );
                previous = now;
                samples += 1;
            }
            samples
        })
    };

    // Two mixed batches (atomic admission) across a priority spread.
    let mut tickets = Vec::new();
    for half in instances.chunks(4) {
        let requests: Vec<SynthesisRequest> = half
            .iter()
            .enumerate()
            .map(|(k, inst)| SynthesisRequest::new(inst.clone()).with_priority(k as i32 % 3 - 1))
            .collect();
        tickets.extend(
            service
                .admit(requests, Admission::Blocking)
                .expect("batch admitted"),
        );
    }
    for ticket in tickets {
        ticket.wait().expect("request completes");
    }
    service.shutdown();
    stop.store(true, Ordering::Release);
    let samples = sampler
        .join()
        .expect("sampler saw only monotone, consistent counters");
    assert!(samples > 0, "the sampler never ran");

    // Final totals: exactly the serial accounting of the same work.
    let m = service.metrics();
    assert_eq!(m.submitted, 8);
    assert_eq!(m.completed, 8);
    assert_eq!(m.cancelled, 0);
    assert_eq!(m.expired, 0);
    assert_eq!(m.failed, 0);
    assert_eq!(m.queue_depth, 0);
    assert_eq!(m.sinks_synthesized, total_sinks);
    assert_eq!(m.sinks_verified, total_sinks);
    assert_eq!(m.corners_evaluated, 0, "no request enabled variation");
    // The high-water gauge saw at least one queued request and never
    // more than everything submitted at once.
    assert!(
        (1..=8).contains(&m.queue_depth_high_water),
        "queue_depth_high_water = {}",
        m.queue_depth_high_water
    );

    // The latency histograms agree with the counters: one synth and one
    // verify sample per completed request, and the per-priority queue
    // wait histograms partition all eight.
    let stats = service.stats();
    assert_eq!(stats.synth_latency.count(), 8);
    assert_eq!(stats.verify_latency.count(), 8);
    let waits: u64 = stats
        .queue_wait_by_priority
        .iter()
        .map(|(_, h)| h.count())
        .sum();
    assert_eq!(waits, 8);
    let priorities: Vec<i32> = stats
        .queue_wait_by_priority
        .iter()
        .map(|&(p, _)| p)
        .collect();
    assert_eq!(priorities, vec![-1, 0, 1], "sorted priority keys");
}
