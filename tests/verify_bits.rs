//! SPICE verification pinned to exact bits, and its work bounded.
//!
//! `verified_timing_bits_are_pinned` hashes every bit a `VerifiedTiming`
//! carries for two synthesized trees. The constants were computed with
//! every stage simulated over the full `VerifyOptions::stage_window`, so
//! they also prove that stopping each stage at its horizon is bit-exact.

use cts::benchmarks::{generate_gsrc, GsrcBenchmark};
use cts::timing::fast_library;
use cts::{CtsOptions, Instance, Synthesizer, Technology, VerifiedTiming, Verifier, VerifyOptions};

/// FNV-1a over the little-endian bytes of `word`, written out so the
/// pinned constants cannot drift with the standard library's hasher.
fn fnv1a(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn timing_hash(v: &VerifiedTiming) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = fnv1a(h, v.worst_slew.to_bits());
    h = fnv1a(h, v.skew.to_bits());
    h = fnv1a(h, v.max_latency.to_bits());
    for &(id, arrival) in &v.sink_arrivals {
        h = fnv1a(h, id.index() as u64);
        h = fnv1a(h, arrival.to_bits());
    }
    h
}

/// Synthesizes `instance` single-threaded with the fast library and
/// verifies it cold; returns the timing and the verifier that produced it.
fn verify_cold(instance: &Instance) -> (VerifiedTiming, Verifier) {
    let options = CtsOptions::builder().threads(1).build().expect("options");
    let result = Synthesizer::new(fast_library(), options)
        .synthesize(instance)
        .expect("synthesis");
    let mut verifier = Verifier::new();
    let timing = verifier
        .verify(
            &result.tree,
            result.source,
            &Technology::nominal_45nm(),
            &VerifyOptions::default(),
        )
        .expect("verify");
    (timing, verifier)
}

#[test]
fn verified_timing_bits_are_pinned() {
    let (scale, _) = verify_cold(&cts::benchmarks::generate_scale(256, 0x5ca1e));
    assert_eq!(scale.sink_arrivals.len(), 256, "sink count moved");
    let h = timing_hash(&scale);
    assert_eq!(
        h, 0x2bf8_b566_18f4_fbed,
        "256-sink scale tree timing bits moved: got {h:#018x}"
    );

    let (r1, _) = verify_cold(&generate_gsrc(GsrcBenchmark::R1));
    assert_eq!(r1.sink_arrivals.len(), 267, "sink count moved");
    let h = timing_hash(&r1);
    assert_eq!(
        h, 0x076d_cc39_9153_d2ab,
        "GSRC r1 timing bits moved: got {h:#018x}"
    );
}

/// Stopping each stage at its horizon is the point: a cold verify takes
/// well under a third of the steps of simulating every stage over the
/// whole reference window.
#[test]
fn cold_verify_steps_stay_under_thirty_percent_of_the_window() {
    let (_, verifier) = verify_cold(&cts::benchmarks::generate_scale(256, 0x5ca1e));
    let stats = verifier.stats();
    let opts = VerifyOptions::default();
    let window_steps = stats.stages_simulated as f64 * opts.stage_window / opts.dt;
    let share = stats.steps_simulated as f64 / window_steps;
    assert!(stats.stages_simulated > 0);
    assert!(
        share <= 0.30,
        "{} steps over {} stages is {:.1} % of the window",
        stats.steps_simulated,
        stats.stages_simulated,
        100.0 * share
    );
}
