//! Cross-crate timing accuracy: the library-based engine against full
//! circuit simulation on synthesized trees of varying shapes.

use cts::benchmarks::generate_custom;
use cts::spice::units::PS;
use cts::{CtsOptions, Synthesizer, Technology, TimingEngine, VerifyOptions};
use cts_timing::fast_library;

/// Per-sink arrival times from the engine and the simulator must agree in
/// *ordering* for clearly separated sinks — the engine steers the binary
/// search, so systematic inversions would corrupt balancing.
#[test]
fn per_sink_arrival_ordering_agrees() {
    let lib = fast_library();
    let tech = Technology::nominal_45nm();
    let synth = Synthesizer::new(lib, CtsOptions::default());
    let instance = generate_custom("order", 10, 6000.0, 123);
    let result = synth.synthesize(&instance).expect("synthesis");

    let engine = TimingEngine::new(lib);
    let est = engine.evaluate(&result.tree, result.source, synth.options().source_slew);
    let ver = cts::verify_tree(
        &result.tree,
        result.source,
        &tech,
        &VerifyOptions::default(),
    )
    .expect("verification");

    let est_map = est.arrival_map();
    let ver_map: std::collections::HashMap<_, _> = ver.sink_arrivals.iter().copied().collect();
    let mut checked = 0;
    for (&a, &ta) in &est_map {
        for (&b, &tb) in &est_map {
            // Only check pairs the engine separates by > 20 ps.
            if ta + 20.0 * PS < tb {
                assert!(
                    ver_map[&a] < ver_map[&b] + 10.0 * PS,
                    "engine says {a} << {b} but simulation disagrees"
                );
                checked += 1;
            }
        }
    }
    assert!(
        checked > 0,
        "test must exercise at least one separated pair"
    );
}

/// Engine worst-slew and verified worst-slew agree within the margin the
/// flow reserves (target 80 ps vs limit 100 ps).
#[test]
fn worst_slew_estimates_track() {
    let lib = fast_library();
    let tech = Technology::nominal_45nm();
    let synth = Synthesizer::new(lib, CtsOptions::default());
    for seed in [1u64, 2, 3] {
        let instance = generate_custom("slews", 8, 7000.0, seed);
        let result = synth.synthesize(&instance).expect("synthesis");
        let ver = cts::verify_tree(
            &result.tree,
            result.source,
            &tech,
            &VerifyOptions::default(),
        )
        .expect("verification");
        let err = (result.report.worst_slew - ver.worst_slew).abs();
        assert!(
            err < 25.0 * PS,
            "seed {seed}: engine slew {} ps vs verified {} ps",
            result.report.worst_slew / PS,
            ver.worst_slew / PS
        );
    }
}

/// The Elmore-based DME baseline really is optimistic: its model skew is
/// near zero, but simulation of the same unbuffered tree reveals slew
/// violations on a big die (the gap the paper's Chapter 3 documents).
#[test]
fn dme_model_vs_reality_gap() {
    let lib = fast_library();
    let opts = CtsOptions::default();
    let instance = generate_custom("gap", 10, 9000.0, 17);
    let base = cts::core::baseline::dme_zero_skew(lib, &opts, &instance).expect("dme");

    // Elmore believes the tree is balanced...
    let delays: Vec<f64> = base.elmore_sink_delays.iter().map(|&(_, d)| d).collect();
    let spread = delays.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - delays.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = delays.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        spread <= 0.02 * max.max(1e-12),
        "DME should be Elmore-balanced"
    );

    // ...but the unbuffered net on a 9 mm die cannot pass a slew check.
    let tech = Technology::nominal_45nm();
    match cts::verify_tree(&base.tree, base.source, &tech, &VerifyOptions::default()) {
        Err(_) => {} // transition never completes: maximal violation
        Ok(v) => assert!(
            v.worst_slew > opts.slew_limit,
            "unbuffered 9 mm tree should violate slew, got {} ps",
            v.worst_slew / PS
        ),
    }
}

fn fnv1a(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The slew the annotated evaluation records at every stage load, pinned
/// to exact bits on the tree `tests/determinism.rs` pins: the global
/// refinement re-times each joint from these, so a change to the stage
/// walk that moves them moves trees.
#[test]
fn annotated_driver_slews_are_pinned() {
    let lib = fast_library();
    let options = CtsOptions::builder().threads(1).build().expect("options");
    let instance = cts::benchmarks::generate_scale(256, 0x5ca1e);
    let synth = Synthesizer::new(lib, options);
    let result = synth.synthesize(&instance).expect("synthesis");
    let (_, slews) = TimingEngine::new(lib).evaluate_annotated(
        &result.tree,
        result.source,
        synth.options().source_slew,
    );
    let mut entries: Vec<_> = slews.into_iter().collect();
    entries.sort_by_key(|&(id, _)| id.index());
    let h = entries
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &(id, slew)| {
            fnv1a(fnv1a(h, id.index() as u64), slew.to_bits())
        });
    assert_eq!(entries.len(), 294, "annotated node count moved");
    assert_eq!(
        h, 0x4ec3_fb90_1f68_3fcb,
        "annotated slews moved: got {h:#018x}"
    );
}

/// The annotated evaluation times the tree exactly as the plain one does.
#[test]
fn annotated_report_equals_evaluate() {
    let lib = fast_library();
    let synth = Synthesizer::new(lib, CtsOptions::default());
    for seed in [3, 29] {
        let instance = generate_custom("annotated", 24, 7000.0, seed);
        let result = synth.synthesize(&instance).expect("synthesis");
        let engine = TimingEngine::new(lib);
        let slew = synth.options().source_slew;
        let plain = engine.evaluate(&result.tree, result.source, slew);
        let (annotated, _) = engine.evaluate_annotated(&result.tree, result.source, slew);
        assert_eq!(plain, annotated, "seed {seed}");
        assert_eq!(plain.worst_slew.to_bits(), annotated.worst_slew.to_bits());
    }
}
