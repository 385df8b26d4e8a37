//! Trace flow: the `cts-obs` walkthrough CI runs end-to-end — a traced
//! batch run asserted **bit-identical** to an untraced one, the Chrome
//! trace-event export re-parsed with the workspace's own JSON parser,
//! and the wire-level `stats` op round-tripped exactly (bucket counts
//! and percentile bits equal between server and client).
//!
//! Three acts:
//!
//! 1. **Tracing changes nothing.** Run a batch untraced, install a
//!    recorder, run it again: every tree, report, and SPICE number must
//!    match bit for bit, while the recorder captures spans from every
//!    pipeline layer. Then trace one single-threaded 2,000-sink
//!    `generate_scale` synthesis: no span may be dropped, and every
//!    `pipeline.merge_pair` span must be in the retained events.
//! 2. **The trace is valid.** Export the Chrome trace-event JSON and
//!    re-parse it with `cts::net::Json` — structurally valid, every
//!    event `ph:"X"` with a name and microsecond timestamps (load the
//!    same file in Perfetto / `chrome://tracing`).
//! 3. **`stats` round-trips exactly.** Serve the traced service over
//!    TCP, fetch `stats` with the client, and check the decoded
//!    histograms against the service's own: identical bucket counts,
//!    bit-identical percentiles recomputed client-side, and wire
//!    percentile fields equal to what the decoded buckets re-derive.
//!
//! ```sh
//! cargo run --release --example trace_flow
//! ```

use cts::net::{Client, Json, Server};
use cts::obs::Recorder;
use cts::{
    BatchOptions, BatchOutput, BatchRunner, CtsOptions, Instance, ServiceOptions, SynthesisRequest,
    SynthesisService, Synthesizer, Technology,
};
use std::sync::Arc;

fn run_batch(
    lib: &cts::DelaySlewLibrary,
    tech: &Technology,
    suite: &[Instance],
) -> Result<BatchOutput, cts::CtsError> {
    let options = CtsOptions::builder()
        .threads(2)
        .build()
        .expect("valid options");
    let mut batch = BatchOptions::default();
    batch.shards = 2;
    BatchRunner::new(lib, tech, options, batch).run(suite)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = Technology::nominal_45nm();
    let library = cts::timing::fast_library();
    let suite: Vec<Instance> = (0..4)
        .map(|k| {
            cts::benchmarks::generate_custom(
                &format!("trace{k}"),
                7 + k,
                2600.0 + 250.0 * k as f64,
                0x0b5 + k as u64,
            )
        })
        .collect();

    // Act 1: a traced batch is bit-identical to an untraced one.
    let untraced = run_batch(library, &tech, &suite)?;
    let recorder = Recorder::install();
    let traced = run_batch(library, &tech, &suite)?;
    assert_eq!(traced.items.len(), untraced.items.len());
    for (t, u) in traced.items.iter().zip(&untraced.items) {
        assert_eq!(t.result.tree, u.result.tree, "{}: tree drift", t.name);
        assert_eq!(t.result.report, u.result.report, "{}: report drift", t.name);
        assert_eq!(t.verified, u.verified, "{}: SPICE drift", t.name);
        assert_eq!(t.result.level_stats, u.result.level_stats, "{}", t.name);
    }
    let summaries = recorder.summaries();
    assert!(
        summaries.iter().any(|s| s.name == "pipeline.merge_level"),
        "traced run captured no merge spans"
    );
    println!(
        "act 1: {} instances bit-identical traced vs untraced; {} span families recorded",
        suite.len(),
        summaries.len()
    );

    // Every merge joins two roots into one, so an n-sink synthesis merges
    // n - 1 pairs, each a span the recorder must retain.
    let merge_pairs = |recorder: &Recorder| {
        let events = recorder.events();
        events
            .iter()
            .filter(|e| e.name == "pipeline.merge_pair")
            .count()
    };
    let before = merge_pairs(&recorder);
    let scale = cts::benchmarks::generate_scale(2000, 0x5ca1e);
    let single = CtsOptions::builder().threads(1).build()?;
    Synthesizer::new(library, single).synthesize_unverified(&scale)?;
    assert_eq!(recorder.dropped(), 0, "spans dropped during the synthesis");
    assert_eq!(
        merge_pairs(&recorder) - before,
        scale.sinks().len() - 1,
        "merge_pair spans missing"
    );
    println!(
        "act 1: a {}-sink single-threaded synthesis kept all {} merge_pair spans, 0 dropped",
        scale.sinks().len(),
        scale.sinks().len() - 1
    );

    // Act 2: the Chrome trace export re-parses with our own JSON parser.
    let trace = recorder.chrome_trace();
    let parsed = Json::parse(&trace)?;
    // The export is the flat trace-event array form (no {"traceEvents"}
    // envelope) — Perfetto and chrome://tracing load both.
    let events = parsed.as_arr().expect("trace is a JSON array of events");
    assert!(!events.is_empty(), "trace exported no events");
    for event in events {
        assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
        assert!(event.get("name").and_then(Json::as_str).is_some());
        assert!(event.get("ts").and_then(Json::as_f64).is_some());
        assert!(event.get("dur").and_then(Json::as_f64).is_some());
    }
    std::fs::write("target/trace_flow.json", &trace)?;
    println!(
        "act 2: {} trace events re-parsed cleanly; wrote target/trace_flow.json (open in Perfetto)",
        events.len()
    );

    // Act 3: the stats op round-trips histograms exactly. Serve the
    // still-installed recorder's process over TCP and compare the
    // client's decoded view against the service's own histograms.
    let options = CtsOptions::builder().threads(1).build()?;
    let mut svc_options = ServiceOptions::default();
    svc_options.workers = 2;
    let service = Arc::new(SynthesisService::new(
        Arc::new(library.clone()),
        Arc::new(tech.clone()),
        options,
        svc_options,
    ));
    let tickets: Vec<_> = suite
        .iter()
        .map(|inst| {
            service
                .submit(SynthesisRequest::new(inst.clone()))
                .expect("service accepts while running")
        })
        .collect();
    for ticket in tickets {
        ticket.wait()?;
    }

    let server = Server::bind("127.0.0.1:0", Arc::clone(&service))?;
    let addr = server.local_addr();
    let running = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr)?;
    let remote = client.stats()?;
    let local = service.stats();

    // Bucket counts identical, percentile bits identical — the decoded
    // histogram answers exactly as the server-side one.
    assert_eq!(
        remote.synth_latency.nonzero_buckets(),
        local.synth_latency.nonzero_buckets()
    );
    assert_eq!(remote.synth_latency, local.synth_latency);
    assert_eq!(remote.verify_latency, local.verify_latency);
    assert_eq!(remote.queue_wait, local.queue_wait_by_priority);
    for p in [50.0, 90.0, 99.0, 100.0] {
        assert_eq!(
            remote.synth_latency.percentile(p),
            local.synth_latency.percentile(p),
            "p{p} drifted across the wire"
        );
    }
    assert_eq!(remote.metrics.completed, suite.len() as u64);
    assert!(
        remote.metrics.queue_depth_high_water >= 1,
        "the queue was never observed non-empty"
    );
    assert!(
        remote.spans.iter().any(|s| s.name == "service.synth"),
        "server-side recorder summaries missing from the stats reply"
    );

    // The wire's derived percentile fields equal what the decoded
    // buckets recompute: pull the raw frame fields via a second raw
    // exchange through the JSON layer.
    let raw = cts::net::proto::encode_response(
        Some(0),
        &cts::net::proto::Response::Stats(Box::new(cts::net::StatsReply {
            workers: remote.workers,
            metrics: remote.metrics,
            queue_wait: remote.queue_wait.clone(),
            synth_latency: remote.synth_latency.clone(),
            verify_latency: remote.verify_latency.clone(),
            spans: remote.spans.clone(),
            dropped: remote.dropped,
        })),
    )
    .to_string();
    let reparsed = Json::parse(&raw)?;
    let wire_p90 = reparsed
        .get("synth_latency")
        .and_then(|h| h.get("p90_ns"))
        .and_then(Json::as_u64)
        .expect("stats frame carries p90_ns");
    assert_eq!(wire_p90, remote.synth_latency.percentile(90.0));
    println!(
        "act 3: stats round-trip exact — synth p50/p90/p99 = {}/{}/{} ns over {} samples",
        remote.synth_latency.percentile(50.0),
        remote.synth_latency.percentile(90.0),
        remote.synth_latency.percentile(99.0),
        remote.synth_latency.count()
    );

    client.shutdown()?;
    running.join().unwrap()?;
    Recorder::uninstall();
    println!("\ntrace_flow: all assertions held");
    Ok(())
}
