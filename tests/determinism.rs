//! Reproducibility: identical inputs produce identical trees, reports, and
//! serialized artifacts — byte for byte.

use cts::benchmarks::{bookshelf, generate_gsrc, generate_ispd, GsrcBenchmark, IspdBenchmark};
use cts::{
    BatchOptions, BatchRunner, CtsOptions, Instance, ServiceOptions, SynthesisRequest,
    SynthesisService, Synthesizer, Technology, VerifyOptions,
};
use cts_timing::fast_library;
use std::sync::Arc;

#[test]
fn benchmark_generation_is_stable() {
    // Regression pins: if the generator changes, every recorded experiment
    // changes meaning. These fingerprints catch silent drift.
    let r1 = generate_gsrc(GsrcBenchmark::R1);
    let sum: f64 = r1.sinks().iter().map(|s| s.location.x + s.location.y).sum();
    let first = &r1.sinks()[0];
    // Loose fingerprint (exact values depend only on the seeded RNG).
    assert_eq!(r1.sinks().len(), 267);
    assert!(sum > 0.0 && sum.is_finite());
    let again = generate_gsrc(GsrcBenchmark::R1);
    assert_eq!(first, &again.sinks()[0]);
    assert_eq!(r1, again);
}

#[test]
fn synthesis_is_deterministic_across_runs() {
    let lib = fast_library();
    let synth = Synthesizer::new(lib, CtsOptions::default());
    let instance = cts::benchmarks::generate_custom("det", 14, 4500.0, 77);
    let a = synth.synthesize(&instance).expect("first run");
    let b = synth.synthesize(&instance).expect("second run");
    assert_eq!(a.tree, b.tree, "trees must match node for node");
    assert_eq!(a.report, b.report);
    assert_eq!(a.buffers, b.buffers);
    assert_eq!(a.wirelength_um, b.wirelength_um);
}

/// The parallel pipeline's contract: for a GSRC-style instance, synthesis
/// with one worker and with many workers produces identical trees, buffer
/// counts, and skew — bit for bit. Merges run on detached sub-forests and
/// graft back in deterministic pair order, so the arena layout cannot
/// depend on scheduling.
#[test]
fn thread_count_does_not_change_results() {
    let lib = fast_library();
    let instance = cts::benchmarks::generate_scaled_gsrc(cts::benchmarks::GsrcBenchmark::R1, 40);
    let mut serial = CtsOptions::default();
    serial.threads = 1;
    let mut wide = CtsOptions::default();
    wide.threads = 4;

    let a = Synthesizer::new(lib, serial)
        .synthesize(&instance)
        .expect("serial synthesis");
    let b = Synthesizer::new(lib, wide)
        .synthesize(&instance)
        .expect("parallel synthesis");

    assert_eq!(a.tree, b.tree, "trees must match node for node");
    assert_eq!(a.buffers, b.buffers, "buffer counts must match");
    assert_eq!(
        a.report.skew(),
        b.report.skew(),
        "skew must be bit-identical"
    );
    assert_eq!(a.report, b.report);
    assert_eq!(a.wirelength_um, b.wirelength_um);
    assert_eq!(a.level_stats, b.level_stats);

    // And `0` (auto) agrees too, whatever the hardware provides.
    let mut auto = CtsOptions::default();
    auto.threads = 0;
    let c = Synthesizer::new(lib, auto)
        .synthesize(&instance)
        .expect("auto-threaded synthesis");
    assert_eq!(a.tree, c.tree);
}

/// The batch driver's contract: a multi-instance batch produces per-
/// instance `CtsResult`s byte-identical to serial `Synthesizer::synthesize`
/// calls — for every shard count and with verification overlap on or off.
/// Sharding, scratch reuse, and the two-stage scheduling change wall time
/// only.
#[test]
fn batch_shard_count_and_overlap_do_not_change_results() {
    let lib = fast_library();
    let tech = Technology::nominal_45nm();
    let suite: Vec<Instance> = vec![
        cts::benchmarks::generate_custom("b0", 9, 2800.0, 11),
        cts::benchmarks::generate_custom("b1", 12, 3600.0, 12),
        cts::benchmarks::generate_scaled_gsrc(GsrcBenchmark::R1, 10),
    ];
    let mut options = CtsOptions::default();
    options.threads = 1;

    // Serial references: the plain per-instance loop the batch must match.
    let synth = Synthesizer::new(lib, options.clone());
    let references: Vec<_> = suite
        .iter()
        .map(|inst| {
            let r = synth.synthesize(inst).expect("serial synthesis");
            let v = cts::verify_tree(&r.tree, r.source, &tech, &VerifyOptions::default())
                .expect("serial verification");
            (r, v)
        })
        .collect();

    for shards in [1usize, 2, 4] {
        for overlap_verify in [true, false] {
            let mut batch = BatchOptions::default();
            batch.shards = shards;
            batch.overlap_verify = overlap_verify;
            let runner = BatchRunner::new(lib, &tech, options.clone(), batch);
            let out = runner
                .run(&suite)
                .unwrap_or_else(|e| panic!("batch shards={shards}: {e}"));
            assert_eq!(out.items.len(), suite.len());
            for (item, (reference, verified)) in out.items.iter().zip(&references) {
                let ctxt = format!(
                    "{} with shards={shards}, overlap_verify={overlap_verify}",
                    item.name
                );
                assert_eq!(item.result.tree, reference.tree, "{ctxt}: tree drift");
                assert_eq!(item.result.source, reference.source, "{ctxt}");
                assert_eq!(item.result.report, reference.report, "{ctxt}");
                assert_eq!(item.result.buffers, reference.buffers, "{ctxt}");
                assert_eq!(item.result.wirelength_um, reference.wirelength_um, "{ctxt}");
                assert_eq!(item.result.level_stats, reference.level_stats, "{ctxt}");
                assert_eq!(
                    item.verified.as_ref().expect("verification enabled"),
                    verified,
                    "{ctxt}: SPICE numbers drift"
                );
            }
        }
    }
}

/// The service's contract: a request streamed through the long-running
/// [`SynthesisService`] resolves to results byte-identical to a direct
/// serial `Synthesizer::synthesize` + `verify_tree` call — for every
/// worker count. Queueing, priorities, warm per-worker scratch, and the
/// overlapped verify stage change wall time only.
#[test]
fn service_worker_count_does_not_change_results() {
    let lib = fast_library();
    let tech = Technology::nominal_45nm();
    let suite: Vec<Instance> = vec![
        cts::benchmarks::generate_custom("s0", 8, 2600.0, 21),
        cts::benchmarks::generate_custom("s1", 11, 3400.0, 22),
        cts::benchmarks::generate_scaled_gsrc(GsrcBenchmark::R1, 12),
    ];
    let mut options = CtsOptions::default();
    options.threads = 1;

    // Serial references: the plain per-instance loop the service must match.
    let synth = Synthesizer::new(lib, options.clone());
    let references: Vec<_> = suite
        .iter()
        .map(|inst| {
            let r = synth.synthesize(inst).expect("serial synthesis");
            let v = cts::verify_tree(&r.tree, r.source, &tech, &VerifyOptions::default())
                .expect("serial verification");
            (r, v)
        })
        .collect();

    for workers in [1usize, 2, 4] {
        let mut svc_options = ServiceOptions::default();
        svc_options.workers = workers;
        let service = SynthesisService::new(
            Arc::new(lib.clone()),
            Arc::new(tech.clone()),
            options.clone(),
            svc_options,
        );
        let tickets: Vec<_> = suite
            .iter()
            .enumerate()
            .map(|(k, inst)| {
                // Mixed priorities: scheduling order must not leak into
                // the results.
                service
                    .submit(SynthesisRequest::new(inst.clone()).with_priority(k as i32 % 2))
                    .expect("service accepts")
            })
            .collect();
        for (ticket, ((reference, verified), inst)) in
            tickets.into_iter().zip(references.iter().zip(&suite))
        {
            let done = ticket
                .wait()
                .unwrap_or_else(|e| panic!("workers={workers}: {e}"));
            let ctxt = format!("{} with workers={workers}", inst.name());
            assert_eq!(done.item.result.tree, reference.tree, "{ctxt}: tree drift");
            assert_eq!(done.item.result.source, reference.source, "{ctxt}");
            assert_eq!(done.item.result.report, reference.report, "{ctxt}");
            assert_eq!(done.item.result.buffers, reference.buffers, "{ctxt}");
            assert_eq!(
                done.item.result.wirelength_um, reference.wirelength_um,
                "{ctxt}"
            );
            assert_eq!(
                done.item.result.level_stats, reference.level_stats,
                "{ctxt}"
            );
            assert_eq!(
                done.item.verified.as_ref().expect("verification enabled"),
                verified,
                "{ctxt}: SPICE numbers drift"
            );
        }
        service.shutdown();
    }
}

/// The observability contract: installing a span recorder must not
/// change synthesis results — not the tree, not the timing report, not
/// the SPICE numbers, not the serialized wire frame — by a single byte.
/// Tracing observes the flow; it never participates in it.
#[test]
fn tracing_does_not_change_results() {
    let lib = fast_library();
    let tech = Technology::nominal_45nm();
    let instance = cts::benchmarks::generate_custom("traced", 13, 4200.0, 33);
    let mut options = CtsOptions::default();
    options.threads = 2;
    // Exercise the Monte Carlo corner axis under tracing too.
    options.variation.corners = 4;

    let run_once = || {
        let mut svc_options = ServiceOptions::default();
        svc_options.workers = 2;
        let service = SynthesisService::new(
            Arc::new(lib.clone()),
            Arc::new(tech.clone()),
            options.clone(),
            svc_options,
        );
        let ticket = service
            .submit(SynthesisRequest::new(instance.clone()))
            .expect("service accepts");
        let result = ticket.wait().expect("request completes");
        service.shutdown();
        result
    };

    // Baseline: no recorder installed anywhere in the process.
    let baseline = run_once();

    // Traced: the same run with a recording recorder installed.
    let recorder = cts::obs::Recorder::install();
    let traced = run_once();
    let summaries = recorder.summaries();
    cts::obs::Recorder::uninstall();

    assert_eq!(traced.item.result.tree, baseline.item.result.tree);
    assert_eq!(traced.item.result.source, baseline.item.result.source);
    assert_eq!(traced.item.result.report, baseline.item.result.report);
    assert_eq!(traced.item.result.buffers, baseline.item.result.buffers);
    assert_eq!(
        traced.item.result.wirelength_um,
        baseline.item.result.wirelength_um
    );
    assert_eq!(
        traced.item.result.level_stats,
        baseline.item.result.level_stats
    );
    assert_eq!(traced.item.verified, baseline.item.verified);
    assert_eq!(traced.item.variation, baseline.item.variation);

    // The wire frame a server would push for each run is byte-identical
    // (modulo the two wall-clock duration fields, which vary run to run
    // whether or not tracing is on — zeroed so the comparison pins every
    // deterministic byte).
    let frame = |r: &cts::SynthesisResult| {
        let mut r = r.clone();
        r.item.synth_seconds = 0.0;
        r.item.verify_seconds = 0.0;
        let event = cts::net::proto::Event::Result(cts::net::proto::ResultEvent {
            id: r.id.0,
            outcome: cts::net::Outcome::from_service(&Ok(r)),
        });
        cts::net::proto::encode_event(&event).to_string()
    };
    assert_eq!(frame(&traced), frame(&baseline));

    // And the recorder actually recorded: the traced run produced spans
    // from every layer it crossed.
    let names: Vec<&str> = summaries.iter().map(|s| s.name).collect();
    for expected in [
        "pipeline.match_level",
        "pipeline.merge_level",
        "service.synth",
        "service.queue_wait",
        "verify.tree",
        "batch.corner_stage",
    ] {
        assert!(
            names.contains(&expected),
            "span '{expected}' missing from traced run; got {names:?}"
        );
    }
}

#[test]
fn bookshelf_roundtrip_is_identity_for_all_benchmarks() {
    for b in GsrcBenchmark::all() {
        let inst = generate_gsrc(b);
        let text = bookshelf::to_string(&inst);
        let back = bookshelf::parse_str(b.name(), &text).expect("parse");
        assert_eq!(inst.sinks().len(), back.sinks().len());
    }
    for b in IspdBenchmark::all() {
        let inst = generate_ispd(b);
        let text = bookshelf::to_string(&inst);
        let back = bookshelf::parse_str(b.name(), &text).expect("parse");
        assert_eq!(inst.sinks().len(), back.sinks().len());
    }
}

#[test]
fn library_serialization_roundtrip_preserves_queries() {
    use cts::timing::{load_library_str, save_library_string, Load};
    let lib = fast_library();
    let text = save_library_string(lib);
    let back = load_library_str(&text).expect("parse");
    for drive in lib.buffer_ids() {
        for load in lib.buffer_ids() {
            let q1 = lib.single_wire(drive, Load::Buffer(load), 55e-12, 640.0);
            let q2 = back.single_wire(drive, Load::Buffer(load), 55e-12, 640.0);
            assert_eq!(q1, q2, "query drift after roundtrip ({drive}, {load})");
        }
    }
}

/// FNV-1a, written out so the pinned constant below cannot drift with the
/// standard library's hasher (`DefaultHasher` is not stable across Rust
/// releases).
fn fnv1a(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A whole synthesized tree pinned to exact bits: node kinds, buffer ids,
/// positions, wire lengths and links. Any change to the fitted-surface
/// arithmetic, the maze router's tie-breaking, or the flow moves this
/// hash, and must then be deliberate. The constant was computed before the
/// power-table fit kernel and the pinned pending-delay curves landed, so
/// it also proves those are bit-exact.
#[test]
fn scale_tree_bits_are_pinned() {
    use cts::NodeKind;
    let lib = fast_library();
    let options = CtsOptions::builder().threads(1).build().expect("options");
    let instance = cts::benchmarks::generate_scale(256, 0x5ca1e);
    let result = Synthesizer::new(lib, options)
        .synthesize(&instance)
        .expect("synthesis");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for node in result.tree.nodes() {
        h = match node.kind {
            NodeKind::Source { driver } => fnv1a(fnv1a(h, 0), driver.0 as u64),
            NodeKind::Sink { index, cap } => fnv1a(fnv1a(fnv1a(h, 1), index as u64), cap.to_bits()),
            NodeKind::Joint => fnv1a(h, 2),
            NodeKind::Buffer { buffer } => fnv1a(fnv1a(h, 3), buffer.0 as u64),
        };
        h = fnv1a(h, node.location.x.to_bits());
        h = fnv1a(h, node.location.y.to_bits());
        h = fnv1a(h, node.wire_to_parent_um.to_bits());
        h = fnv1a(h, node.parent.map_or(u64::MAX, |p| p.index() as u64));
    }
    assert_eq!(result.tree.len(), 550, "node count moved");
    assert_eq!(h, 0x0d4d_7857_6cd8_df2d, "tree bits moved: got {h:#018x}");
}
