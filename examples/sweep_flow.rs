//! Sweep flow: the `submit_sweep` walkthrough CI runs end-to-end — a
//! Pareto sweep over (slew target × H-correction) whose every point is
//! asserted **byte-identical** to the same options submitted
//! individually, whose terminal `pareto` event is re-folded client-side
//! from individually fetched stats, and a mid-synthesis `fetch_tree` in
//! levels mode that only ever observes level-complete prefixes.
//!
//! Three acts:
//!
//! 1. **A sweep is just N submits.** One `submit_sweep` frame of a 2×2
//!    axis grid against a 4-worker server must produce trees and stats
//!    bit-identical to the four expanded option patches submitted
//!    individually on a 1-worker server — worker count, dispatch
//!    interleaving, and the sweep path itself never reach the result.
//! 2. **The fold is reproducible.** The `pareto` event's rows and front
//!    must equal a client-side `ParetoFront` fold of the stats fetched
//!    point by point — the server's fold is grouping-independent, so
//!    rebuilding it from any partition gives the same bytes.
//! 3. **Levels land whole.** A `publish_levels` submission polled
//!    mid-synthesis streams a monotonically growing, always
//!    self-contained forest; once resolved, the final stream rebuilds
//!    exactly the tree a plain fetch returns.
//!
//! ```sh
//! cargo run --release --example sweep_flow
//! ```

use cts::net::{
    ChunkMode, Client, OptionsPatch, Outcome, Server, SubmitSpec, SweepAxesSpec, SweepRange,
};
use cts::spice::units::PS;
use cts::{
    ClockTree, CtsOptions, HCorrection, ParetoFront, ParetoPoint, ServiceOptions, SynthesisService,
    Technology,
};
use std::sync::Arc;

/// The swept axes: 2 slew targets × 2 H-correction modes = 4 points.
const SLEWS_PS: [f64; 2] = [70.0, 95.0];
const MODES: [HCorrection; 2] = [HCorrection::Off, HCorrection::Correct];

fn serve(library: &cts::DelaySlewLibrary, tech: &Technology, workers: usize) -> ServerThread {
    // Service workers are the parallel axis, so synthesis stays serial;
    // verification off — the sweep invariants are about synthesis bytes.
    let options = CtsOptions::builder()
        .threads(1)
        .build()
        .expect("valid options");
    let mut svc = ServiceOptions::default();
    svc.workers = workers;
    svc.verify = false;
    let service = Arc::new(SynthesisService::new(
        Arc::new(library.clone()),
        Arc::new(tech.clone()),
        options,
        svc,
    ));
    let server = Server::bind("127.0.0.1:0", service).expect("ephemeral bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let running = std::thread::spawn(move || server.run());
    ServerThread {
        addr,
        handle,
        running: Some(running),
    }
}

struct ServerThread {
    addr: std::net::SocketAddr,
    handle: cts::net::ServerHandle,
    running: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl ServerThread {
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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = Technology::nominal_45nm();
    let library = cts::timing::fast_library();
    let instance = cts::benchmarks::generate_custom("sweep", 14, 2800.0, 0x5eeb);

    // ---- Act 1 reference: the expanded patches submitted individually,
    // in expansion order (slew outermost, matching the axes' row-major
    // contract), on a single-worker server.
    let reference_server = serve(library, &tech, 1);
    let mut reference_client = Client::connect(reference_server.addr)?;
    let mut reference = Vec::new();
    for &slew in &SLEWS_PS {
        for &mode in &MODES {
            let patch = OptionsPatch {
                slew_target_ps: Some(slew),
                h_correction: Some(mode),
                ..OptionsPatch::default()
            };
            let id = reference_client
                .submit_spec(SubmitSpec::new(instance.clone()).with_options(patch))?;
            let result = match reference_client.wait_result(id)? {
                Outcome::Completed(result) => *result,
                other => panic!("reference point did not complete: {other:?}"),
            };
            let tree = reference_client.fetch_tree(id, ChunkMode::Default)?.tree;
            reference.push((result, tree));
        }
    }
    reference_server.stop();

    // The sweep: one frame, four points, four workers racing.
    let sweep_server = serve(library, &tech, 4);
    let mut client = Client::connect(sweep_server.addr)?;
    let axes = SweepAxesSpec {
        slew_targets_ps: SLEWS_PS.to_vec(),
        h_corrections: MODES.to_vec(),
        ..SweepAxesSpec::default()
    };
    let sub = client.submit_sweep(SubmitSpec::new(instance.clone()), SweepRange::Axes(axes))?;
    assert_eq!(
        sub.ids.len(),
        reference.len(),
        "2×2 axes expand to 4 points"
    );
    let pareto = client.wait_pareto(sub.sweep)?;
    assert_eq!(pareto.total, 4);
    assert_eq!(pareto.completed, 4);
    let progress = client.take_sweep_progress(sub.sweep);
    assert_eq!(progress.len(), 4, "one progress event per point");

    let mut stats = Vec::new();
    for (ordinal, &id) in sub.ids.iter().enumerate() {
        let swept = match client.wait_result(id)? {
            Outcome::Completed(result) => *result,
            other => panic!("sweep point {id} did not complete: {other:?}"),
        };
        let (expected, expected_tree) = &reference[ordinal];
        assert_eq!(
            swept.levels, expected.levels,
            "point {ordinal}: levels drift"
        );
        assert_eq!(
            swept.buffers, expected.buffers,
            "point {ordinal}: buffers drift"
        );
        assert_eq!(
            swept.wirelength_um, expected.wirelength_um,
            "point {ordinal}: wirelength drift"
        );
        assert_eq!(
            swept.estimate, expected.estimate,
            "point {ordinal}: estimate drift"
        );
        assert_eq!(
            swept.buffer_cap_f, expected.buffer_cap_f,
            "point {ordinal}: buffer cap drift"
        );
        let tree = client.fetch_tree(id, ChunkMode::Levels)?.tree;
        assert_eq!(
            &tree, expected_tree,
            "point {ordinal}: routed geometry drift"
        );
        stats.push(ParetoPoint {
            ordinal,
            skew: swept.estimate.skew,
            buffer_cap: swept.buffer_cap_f,
            latency: swept.estimate.latency,
        });
    }
    println!(
        "act 1: sweep of {} points bit-identical to {} individual submits (4 workers vs 1) ✓",
        reference.len(),
        reference.len()
    );

    // ---- Act 2: the server's fold, rebuilt from individually fetched
    // stats, reproduces the pareto event exactly.
    let folded = ParetoFront::from_points(stats);
    assert_eq!(
        pareto.to_front(),
        folded,
        "pareto event is not the client-side fold of per-point stats"
    );
    let front: Vec<u64> = folded.front_ordinals().iter().map(|&o| o as u64).collect();
    assert_eq!(pareto.front, front, "front ordinals drifted");
    println!(
        "act 2: pareto front {{{}}} reproduced from individually fetched stats ✓",
        pareto
            .points
            .iter()
            .filter(|p| pareto.front.contains(&p.ordinal))
            .map(|p| format!(
                "#{} {:.1} ps / {:.1} fF",
                p.ordinal,
                p.skew / PS,
                p.buffer_cap_f * 1e15
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // ---- Act 3: watch a tree grow level by level. Every partial
    // snapshot must be self-contained (no parent/child index past the
    // published prefix) and monotone; the final stream rebuilds the tree
    // a plain fetch returns.
    let watched = cts::benchmarks::generate_custom("watched", 240, 6400.0, 0x11f);
    let id = client.submit_spec(SubmitSpec::new(watched).with_publish_levels(true))?;
    let mut polls = 0usize;
    let mut last = (0u64, 0usize);
    let full = loop {
        let p = client.fetch_tree_progress(id)?;
        if !p.partial {
            break p;
        }
        polls += 1;
        assert!(p.levels_done >= last.0, "levels went backwards");
        assert!(p.nodes.len() >= last.1, "snapshot shrank");
        for node in &p.nodes {
            if let Some(parent) = node.parent {
                assert!(parent.index() < p.nodes.len(), "parent outside snapshot");
            }
            for &child in &node.children {
                assert!(child.index() < p.nodes.len(), "child outside snapshot");
            }
        }
        last = (p.levels_done, p.nodes.len());
    };
    let final_tree = client.fetch_tree(id, ChunkMode::Default)?;
    let rebuilt = ClockTree::from_nodes(full.nodes)?;
    assert_eq!(
        rebuilt, final_tree.tree,
        "level stream drifted from the tree"
    );
    assert_eq!(full.source, Some(final_tree.source));
    println!(
        "act 3: {polls} mid-synthesis polls saw only level-complete prefixes; final stream rebuilt the tree ✓",
    );

    let metrics = client.metrics()?;
    assert_eq!(metrics.metrics.sweeps_submitted, 1);
    client.shutdown()?;
    sweep_server.stop();
    println!("\nsweep_flow: all assertions held");
    Ok(())
}
