//! Remote flow: the `cts-net` walkthrough — an in-process TCP server on
//! an ephemeral port wrapping one `SynthesisService`, driven by N
//! concurrent protocol clients submitting prioritized requests, with the
//! returned stats asserted **byte-identical** to a serial `synthesize` +
//! `verify_tree` of the same instances, and a final `metrics` reply
//! checked against the completed request count.
//!
//! The second act exercises protocol v2's batch + geometry path: one
//! `submit_batch` frame of N instances must return stats byte-identical
//! to N serial `submit`s of the same instances, and a `fetch_tree` of
//! each result must round-trip the routed tree — every node coordinate,
//! buffer cell id, and wire segment — **bit-for-bit** against the
//! in-process synthesis.
//!
//! This is the end-to-end smoke test CI runs on every push (small
//! instances; the point is exercising the wire path, not benchmark
//! scale).
//!
//! ```sh
//! cargo run --release --example remote_flow            # 2 clients × 2 requests
//! cargo run --release --example remote_flow -- 3 2     # clients, requests each
//! ```

use cts::benchmarks::generate_custom;
use cts::net::{ChunkMode, Client, Outcome, RemoteResult, Server, SubmitSpec};
use cts::spice::units::{NS, PS};
use cts::{
    verify_tree, CtsOptions, ServiceOptions, SynthesisService, Synthesizer, Technology,
    VerifyOptions,
};
use std::sync::{Arc, Mutex};

fn instance_for(client: usize, k: usize) -> cts::Instance {
    generate_custom(
        &format!("c{client}r{k}"),
        6 + (client + k) % 4,
        2200.0,
        0x4e7 + (client * 29 + k) as u64,
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let clients: usize = args.next().map(|a| a.parse()).transpose()?.unwrap_or(2);
    let per_client: usize = args.next().map(|a| a.parse()).transpose()?.unwrap_or(2);

    let tech = Technology::nominal_45nm();
    let library = cts::timing::fast_library();

    // Service workers are the parallel axis, so synthesis stays serial.
    let options = CtsOptions::builder().threads(1).build()?;
    let mut svc_options = ServiceOptions::default();
    svc_options.workers = 0; // every core
    let service = Arc::new(SynthesisService::new(
        Arc::new(library.clone()),
        Arc::new(tech.clone()),
        options.clone(),
        svc_options,
    ));

    // Ephemeral port: bind 127.0.0.1:0, read the resolved address back,
    // run the server on its own thread.
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service))?;
    let addr = server.local_addr();
    let running = std::thread::spawn(move || server.run());
    println!(
        "cts-net server on {addr} ({} workers); {clients} clients x {per_client} requests\n",
        service.workers()
    );

    // Every client is its own thread with its own TCP connection —
    // concurrent connections multiplexing one service is the point.
    let results: Mutex<Vec<RemoteResult>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for client_idx in 0..clients {
            let results = &results;
            scope.spawn(move || {
                let mut client = Client::connect_as(addr, Some(&format!("client-{client_idx}")))
                    .expect("connect");
                // Submit everything first (mixed priorities), then wait —
                // exercising the stash path for out-of-order completions.
                let ids: Vec<u64> = (0..per_client)
                    .map(|k| {
                        client
                            .submit_spec(
                                SubmitSpec::new(instance_for(client_idx, k))
                                    .with_priority(client_idx as i32),
                            )
                            .expect("submit")
                    })
                    .collect();
                for id in ids {
                    match client.wait_result(id).expect("wait_result") {
                        Outcome::Completed(result) => results.lock().unwrap().push(*result),
                        other => panic!("request {id} did not complete: {other:?}"),
                    }
                }
            });
        }
    });

    let mut results = results.into_inner().unwrap();
    results.sort_by_key(|r| r.id);
    println!(
        "{:<8} {:>10} {:>4} {:>7} {:>12} {:>10} {:>13}",
        "request", "client", "prio", "#sinks", "worst slew", "skew", "max latency"
    );
    for r in &results {
        let v = r.verified.as_ref().expect("server verifies");
        println!(
            "{:<8} {:>10} {:>4} {:>7} {:>9.1} ps {:>7.1} ps {:>10.2} ns",
            r.name,
            r.client_id.as_deref().unwrap_or("-"),
            r.priority,
            r.sinks,
            v.worst_slew / PS,
            v.skew / PS,
            v.latency / NS,
        );
    }

    // The wire contract: every stat that crossed the socket is
    // byte-identical (f64 round-trips exactly through the JSON codec) to
    // a serial synthesize + verify_tree of the same instance.
    let serial = Synthesizer::new(library, options);
    for r in &results {
        let (client_idx, k) = parse_name(&r.name);
        let instance = instance_for(client_idx, k);
        let reference = serial.synthesize(&instance)?;
        let reference_verified = verify_tree(
            &reference.tree,
            reference.source,
            &tech,
            &VerifyOptions::default(),
        )?;
        assert_eq!(r.sinks as usize, instance.sinks().len());
        assert_eq!(
            r.levels as usize, reference.levels,
            "{}: levels drift",
            r.name
        );
        assert_eq!(
            r.buffers as usize, reference.buffers,
            "{}: buffers drift",
            r.name
        );
        assert_eq!(
            r.wirelength_um, reference.wirelength_um,
            "{}: wirelength drift",
            r.name
        );
        assert_eq!(r.estimate.worst_slew, reference.report.worst_slew);
        assert_eq!(r.estimate.skew, reference.report.skew());
        assert_eq!(r.estimate.latency, reference.report.latency);
        let v = r.verified.as_ref().expect("server verifies");
        assert_eq!(
            v.worst_slew, reference_verified.worst_slew,
            "{}: slew drift",
            r.name
        );
        assert_eq!(v.skew, reference_verified.skew, "{}: skew drift", r.name);
        assert_eq!(
            v.latency, reference_verified.max_latency,
            "{}: latency drift",
            r.name
        );
    }
    println!("\ndeterminism: remote stats identical to serial synthesize + verify_tree ✓");

    // ---- Act two: batch-frame submission + routed-geometry streaming.
    //
    // One submit_batch frame of N instances vs N serial submits of the
    // same instances on a second connection: every stat that crosses the
    // wire must be byte-identical, and the admission must be atomic
    // (consecutive ids).
    // Cap at 64: the server retains completed results for fetch_tree in
    // a per-connection FIFO of that size (docs/PROTOCOL.md), so a larger
    // batch would see its earliest trees evicted before the fetch loop.
    let batch_n = (clients * per_client).clamp(2, 64);
    let batch_instances: Vec<cts::Instance> = (0..batch_n)
        .map(|k| generate_custom(&format!("bat{k}"), 5 + k % 4, 2400.0, 0xba7c + k as u64))
        .collect();
    let mut batcher = Client::connect_as(addr, Some("batcher"))?;
    let mut serial_submitter = Client::connect_as(addr, Some("serial"))?;
    // Uniform specs: submit_specs folds them into one atomic
    // `submit_batch` frame.
    let batch_ids = batcher.submit_specs(
        batch_instances
            .iter()
            .map(|i| SubmitSpec::new(i.clone()))
            .collect(),
    )?;
    assert_eq!(batch_ids.len(), batch_n);
    assert!(
        batch_ids.windows(2).all(|w| w[1] == w[0] + 1),
        "atomic batch admission must hand out consecutive ids: {batch_ids:?}"
    );
    let serial_ids: Vec<u64> = batch_instances
        .iter()
        .map(|i| serial_submitter.submit_spec(SubmitSpec::new(i.clone())))
        .collect::<Result<_, _>>()?;

    let completed = |outcome: Outcome, what: &str| -> RemoteResult {
        match outcome {
            Outcome::Completed(result) => *result,
            other => panic!("{what} did not complete: {other:?}"),
        }
    };
    for (k, (&bid, &sid)) in batch_ids.iter().zip(&serial_ids).enumerate() {
        let b = completed(batcher.wait_result(bid)?, "batch entry");
        let s = completed(serial_submitter.wait_result(sid)?, "serial submit");
        // Scheduling metadata (ids, dispatch order, wall times) differs
        // by construction; every synthesis stat must agree bytewise.
        assert_eq!(b.name, s.name, "entry {k}");
        assert_eq!(b.sinks, s.sinks);
        assert_eq!(b.levels, s.levels, "{}: levels drift", b.name);
        assert_eq!(b.buffers, s.buffers, "{}: buffers drift", b.name);
        assert_eq!(
            b.wirelength_um, s.wirelength_um,
            "{}: wirelength drift",
            b.name
        );
        assert_eq!(b.estimate, s.estimate, "{}: estimate drift", b.name);
        assert_eq!(b.verified, s.verified, "{}: verified drift", b.name);
    }
    println!(
        "submit_batch: one frame of {batch_n} == {batch_n} serial submits, stats byte-identical ✓"
    );

    // fetch_tree of every batch result: the streamed geometry must
    // rebuild the exact in-process tree — node for node, bit for bit.
    for (k, &bid) in batch_ids.iter().enumerate() {
        let remote = batcher.fetch_tree(bid, ChunkMode::Default)?;
        let reference = serial.synthesize(&batch_instances[k])?;
        assert_eq!(remote.name, format!("bat{k}"));
        assert_eq!(
            remote.tree, reference.tree,
            "{}: routed geometry drift",
            remote.name
        );
        assert_eq!(
            remote.source, reference.source,
            "{}: source drift",
            remote.name
        );
        assert_eq!(
            remote.level_stats, reference.level_stats,
            "{}: level stats drift",
            remote.name
        );
        assert_eq!(
            remote.tree.sinks_under(remote.source).len(),
            batch_instances[k].sinks().len()
        );
    }
    println!(
        "fetch_tree: routed geometry of {batch_n} trees bit-identical to in-process synthesis ✓"
    );

    // A fresh client reads the final metrics and shuts the server down
    // over the wire; the reply must account for every completed request.
    let mut admin = Client::connect(addr)?;
    let m = admin.metrics()?;
    assert_eq!(
        m.metrics.completed,
        (clients * per_client + 2 * batch_n) as u64
    );
    assert_eq!(m.metrics.submitted, m.metrics.completed);
    assert_eq!(m.metrics.queue_depth, 0);
    println!(
        "metrics: {} completed over {} workers, {:.2} s synth / {:.2} s verify cumulative",
        m.metrics.completed, m.workers, m.metrics.synth_seconds, m.metrics.verify_seconds
    );
    admin.shutdown()?;
    running.join().expect("server thread")?;
    println!("server drained and stopped ✓");
    Ok(())
}

/// Recovers (client, request) indices from a `c<i>r<k>` request name.
fn parse_name(name: &str) -> (usize, usize) {
    let rest = name.strip_prefix('c').expect("request name");
    let (c, k) = rest.split_once('r').expect("request name");
    (
        c.parse().expect("client index"),
        k.parse().expect("request index"),
    )
}
