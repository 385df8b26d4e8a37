//! Verification throughput on a 512-sink tree: cold (empty caches) vs
//! warm (stage store and solver plans populated by a prior verify of the
//! same tree) vs peer (a fresh peer of that warm verifier: its own empty
//! solver context over the warm stage store).
//!
//! The warm case is the one the batch driver and service actually hit
//! when a tree is re-verified (or when sibling instances share stage
//! geometry): every stage is served from the incremental cache and
//! nothing is re-simulated. The peer case is a repeated service request
//! landing on a different worker than its first copy. Both are gated in
//! CI against cold (see `examples/bench_gate.rs`): each must stay at
//! least 5x faster.
//!
//! Alongside wall time, the cold pass prints stage throughput
//! (stages/second) once, so BENCH_ci.json trend lines can be read in
//! units that survive tree-size changes, and the transient steps it took
//! as a share of simulating every stage over the whole stage window.

use criterion::{criterion_group, criterion_main, Criterion};
use cts::benchmarks::generate_custom;
use cts::timing::fast_library;
use cts::{CtsOptions, Synthesizer, Technology, Verifier, VerifyOptions};

fn bench_verify_throughput(c: &mut Criterion) {
    let lib = fast_library();
    let tech = Technology::nominal_45nm();
    let options = CtsOptions::builder().threads(1).build().unwrap();
    let synth = Synthesizer::new(lib, options);
    let inst = generate_custom("verify512", 512, 9000.0, 0x5eed);
    let result = synth.synthesize(&inst).expect("512-sink synthesis");
    let opts = VerifyOptions::default();

    // One instrumented pass for the stages/second headline number.
    let mut probe = Verifier::new();
    let t0 = std::time::Instant::now();
    probe
        .verify(&result.tree, result.source, &tech, &opts)
        .expect("verify succeeds");
    let cold_secs = t0.elapsed().as_secs_f64();
    let stats = probe.stats();
    let stages = stats.stages_simulated;
    let window_steps = stages as f64 * opts.stage_window / opts.dt;
    println!(
        "verify512: {stages} stages cold in {cold_secs:.3} s ({:.0} stages/s), \
         {} steps ({:.1} % of the full window)",
        stages as f64 / cold_secs,
        stats.steps_simulated,
        100.0 * stats.steps_simulated as f64 / window_steps
    );

    let mut group = c.benchmark_group("verify_512sinks");
    group.sample_size(10);
    // Cold: a fresh Verifier every iteration — no solver plans, no stage
    // records. This is what a one-shot `verify_tree` call pays.
    group.bench_function("cold", |b| {
        b.iter(|| {
            let mut v = Verifier::new();
            v.verify(&result.tree, result.source, &tech, &opts)
                .expect("verify succeeds")
        });
    });
    // Warm: one long-lived Verifier — after the first pass every stage
    // hit is served from the cache (stages_simulated stops growing).
    let mut warm = Verifier::new();
    warm.verify(&result.tree, result.source, &tech, &opts)
        .expect("warmup verify");
    group.bench_function("warm", |b| {
        b.iter(|| {
            warm.verify(&result.tree, result.source, &tech, &opts)
                .expect("verify succeeds")
        });
    });
    // Peer: a fresh peer of the warm verifier every iteration — no solve
    // plans of its own, but every stage replays from the shared store.
    group.bench_function("peer", |b| {
        b.iter(|| {
            let mut peer = warm.peer();
            peer.verify(&result.tree, result.source, &tech, &opts)
                .expect("verify succeeds")
        });
    });
    // Calibration: a fixed pure-FP workload with no cache or allocator
    // sensitivity. The CI gate compares verify medians *normalized by
    // this* so a slower runner does not read as a code regression.
    group.bench_function("calibration", |b| {
        b.iter(|| {
            let mut x = 1.000_000_1_f64;
            let mut acc = 0.0_f64;
            for _ in 0..4_000_000u32 {
                acc += x;
                x = (x * 1.000_000_1).rem_euclid(2.0);
            }
            criterion::black_box(acc)
        });
    });
    group.finish();
}

criterion_group!(verify, bench_verify_throughput);
criterion_main!(verify);
