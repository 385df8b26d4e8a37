//! Sweep and level-streaming integration tests: the standing invariants
//! the wire sweep subsystem promises — a swept point's tree is
//! byte-identical to the same options submitted individually, for any
//! worker count and any chunk mode; the terminal `pareto` event is
//! reproducible client-side from individually fetched stats; and a
//! mid-synthesis `fetch_tree` in levels mode only ever shows
//! level-complete prefixes, never a torn level, and answers every poll
//! until the request resolves.

use cts_core::{
    ClockTree, CtsOptions, Instance, ParetoFront, ParetoPoint, ServiceOptions, Sink,
    SynthesisService,
};
use cts_geom::Point;
use cts_net::{
    ChunkMode, Client, OptionsPatch, Outcome, Server, ServerHandle, SubmitSpec, SweepAxesSpec,
    SweepRange,
};
use cts_spice::Technology;
use cts_timing::fast_library;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;

struct TestServer {
    addr: SocketAddr,
    handle: ServerHandle,
    running: Option<JoinHandle<std::io::Result<()>>>,
}

impl TestServer {
    /// No SPICE verification (speed), explicit worker count — the sweep
    /// invariants must hold at every parallelism level.
    fn start(workers: usize) -> TestServer {
        let cts = CtsOptions::builder().threads(1).build().unwrap();
        let mut svc = ServiceOptions::default();
        svc.workers = workers;
        svc.verify = false;
        let service = Arc::new(SynthesisService::new(
            Arc::new(fast_library().clone()),
            Arc::new(Technology::nominal_45nm()),
            cts,
            svc,
        ));
        let server = Server::bind("127.0.0.1:0", service).expect("ephemeral bind");
        let addr = server.local_addr();
        let handle = server.handle();
        let running = Some(std::thread::spawn(move || server.run()));
        TestServer {
            addr,
            handle,
            running,
        }
    }

    fn stop(mut self) {
        self.handle.shutdown();
        self.running
            .take()
            .expect("server thread")
            .join()
            .expect("server thread panicked")
            .expect("server run failed");
    }
}

fn spread(name: &str, n: usize) -> Instance {
    let sinks = (0..n)
        .map(|i| {
            Sink::new(
                format!("s{i}"),
                Point::new(
                    710.0 * ((i * 13 + 5) % n) as f64,
                    530.0 * ((i * 11 + 2) % n) as f64,
                ),
                24e-15,
            )
        })
        .collect();
    Instance::new(name, sinks)
}

/// The 2×2 axes every test sweeps: slew target × H-correction.
fn axes() -> SweepAxesSpec {
    SweepAxesSpec {
        slew_targets_ps: vec![70.0, 95.0],
        h_corrections: vec![cts_core::HCorrection::Off, cts_core::HCorrection::Correct],
        ..SweepAxesSpec::default()
    }
}

/// The per-point patches the axes above expand to, in expansion order
/// (slew outermost) — what an individual-submission client would send.
fn expanded_patches() -> Vec<OptionsPatch> {
    let mut patches = Vec::new();
    for &slew in &[70.0, 95.0] {
        for &h in &[cts_core::HCorrection::Off, cts_core::HCorrection::Correct] {
            patches.push(OptionsPatch {
                slew_target_ps: Some(slew),
                h_correction: Some(h),
                ..OptionsPatch::default()
            });
        }
    }
    patches
}

/// Runs the standard sweep on a server with `workers` workers and
/// returns (per-point trees, the terminal pareto event's rows as a
/// rebuilt front, per-point engine stats).
fn run_sweep(workers: usize, chunk: ChunkMode) -> (Vec<ClockTree>, ParetoFront, Vec<ParetoPoint>) {
    let ts = TestServer::start(workers);
    let mut client = Client::connect(ts.addr).unwrap();
    let sub = client
        .submit_sweep(
            SubmitSpec::new(spread("sweep", 12)),
            SweepRange::Axes(axes()),
        )
        .unwrap();
    assert_eq!(sub.ids.len(), 4, "2×2 axes expand to 4 points");
    let pareto = client.wait_pareto(sub.sweep).unwrap();
    assert_eq!(pareto.total, 4);
    assert_eq!(pareto.completed, 4);
    assert_eq!(pareto.points.len(), 4);
    // Progress events: one per point, done counters 1..=4, each naming a
    // sweep member.
    let progress = client.take_sweep_progress(sub.sweep);
    assert_eq!(progress.len(), 4);
    for (k, p) in progress.iter().enumerate() {
        assert_eq!(p.done, k as u64 + 1);
        assert_eq!(p.total, 4);
        assert!(sub.ids.contains(&p.id));
    }
    // Client-side stats of every point, in expansion (ordinal) order.
    let mut stats = Vec::new();
    for (ordinal, &id) in sub.ids.iter().enumerate() {
        match client.wait_result(id).unwrap() {
            Outcome::Completed(r) => stats.push(ParetoPoint {
                ordinal,
                skew: r.estimate.skew,
                buffer_cap: r.buffer_cap_f,
                latency: r.estimate.latency,
            }),
            other => panic!("sweep point {id} did not complete: {other:?}"),
        }
    }
    let trees = sub
        .ids
        .iter()
        .map(|&id| client.fetch_tree(id, chunk).unwrap().tree)
        .collect();
    ts.stop();
    (trees, pareto.to_front(), stats)
}

#[test]
fn sweep_points_match_individual_submissions_bit_for_bit() {
    // Reference: the same four option points submitted individually.
    let ts = TestServer::start(1);
    let mut client = Client::connect(ts.addr).unwrap();
    let mut reference = Vec::new();
    for patch in expanded_patches() {
        let id = client
            .submit_spec(SubmitSpec::new(spread("sweep", 12)).with_options(patch))
            .unwrap();
        assert!(matches!(
            client.wait_result(id).unwrap(),
            Outcome::Completed(_)
        ));
        reference.push(client.fetch_tree(id, ChunkMode::Default).unwrap().tree);
    }
    ts.stop();

    // The swept expansion must reproduce those trees bit for bit at
    // every worker count, under every chunk mode — and the pareto event
    // must carry exactly the stats a client would fold itself.
    for (workers, chunk) in [
        (1, ChunkMode::Default),
        (2, ChunkMode::Nodes(5)),
        (4, ChunkMode::Levels),
    ] {
        let (trees, front, stats) = run_sweep(workers, chunk);
        assert_eq!(
            trees, reference,
            "sweep with {workers} workers diverged from individual submissions"
        );
        let folded = ParetoFront::from_points(stats);
        assert_eq!(
            front, folded,
            "pareto event with {workers} workers is not the client-side fold"
        );
        assert!(!front.front_ordinals().is_empty());
    }
}

#[test]
fn mid_synthesis_level_stream_never_shows_a_torn_level() {
    let ts = TestServer::start(1);
    let mut client = Client::connect(ts.addr).unwrap();
    // Large instance: synthesis takes long enough that polling observes
    // the tree mid-growth (the invariants below hold either way).
    let id = client
        .submit_spec(SubmitSpec::new(spread("watched", 360)).with_publish_levels(true))
        .unwrap();

    let mut last_levels = 0u64;
    let mut last_nodes = 0usize;
    let full = loop {
        let p = client.fetch_tree_progress(id).unwrap();
        if !p.partial {
            break p;
        }
        // Levels only land whole: the published prefix grows
        // monotonically, level by level...
        assert!(p.levels_done >= last_levels, "levels went backwards");
        assert!(p.nodes.len() >= last_nodes, "snapshot shrank");
        // ...and every snapshot is self-contained — a torn level would
        // leave a parent or child pointing past the published prefix.
        for node in &p.nodes {
            if let Some(parent) = node.parent {
                assert!(parent.index() < p.nodes.len(), "parent outside snapshot");
            }
            for &child in &node.children {
                assert!(child.index() < p.nodes.len(), "child outside snapshot");
            }
        }
        assert!(p.source.is_none() && p.level_stats.is_empty() && p.name.is_empty());
        last_levels = p.levels_done;
        last_nodes = p.nodes.len();
    };

    // Completed: the progress stream hands over the full arena, and the
    // rebuilt tree is the one a plain fetch returns.
    let remote = client.fetch_tree(id, ChunkMode::Levels).unwrap();
    assert_eq!(full.name, "watched");
    assert_eq!(full.source, Some(remote.source));
    assert_eq!(full.level_stats, remote.level_stats);
    let rebuilt = ClockTree::from_nodes(full.nodes).unwrap();
    assert_eq!(rebuilt, remote.tree);

    // A completed tree refuses the whole-tree accessor only while
    // partial; now both modes agree.
    assert_eq!(
        client.fetch_tree(id, ChunkMode::Default).unwrap().tree,
        remote.tree
    );
    ts.stop();
}

/// A levels-mode watcher polls from submission until the full tree
/// comes back. A poll that lands just after the service resolved the
/// request, but before the connection filed its tree, must still answer
/// (partial or full) — never `unknown_id`. The sizes vary so completions
/// fall at every phase of the poll cadence; 60 requests in a row give the
/// window many chances.
#[test]
fn levels_poll_never_misses_a_just_resolved_request() {
    let ts = TestServer::start(1);
    let mut client = Client::connect(ts.addr).unwrap();
    for k in 0..60 {
        let instance = spread(&format!("race{k}"), 16 + 4 * (k % 12));
        let id = client
            .submit_spec(SubmitSpec::new(instance).with_publish_levels(true))
            .unwrap();
        while client
            .fetch_tree_progress(id)
            .unwrap_or_else(|e| panic!("request {k} (id {id}): levels poll failed: {e}"))
            .partial
        {}
    }
    ts.stop();
}
