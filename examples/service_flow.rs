//! Service flow: the `SynthesisService` walkthrough — N concurrent clients
//! share one long-running process and one characterized library, submitting
//! prioritized requests against a bounded queue and streaming results back
//! per request.
//!
//! This is also the end-to-end smoke test CI runs on every push (small
//! instances; the point is exercising the service path, not benchmark
//! scale).
//!
//! ```sh
//! cargo run --release --example service_flow            # 3 clients × 2 requests
//! cargo run --release --example service_flow -- 4 3     # clients, requests each
//! ```

use cts::benchmarks::generate_custom;
use cts::spice::units::{NS, PS};
use cts::{
    Admission, BatchSummary, CtsOptions, ServiceOptions, SubmitError, SynthesisRequest,
    SynthesisResult, SynthesisService, Synthesizer, Technology,
};
use std::sync::{Arc, Mutex};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let clients: usize = args.next().map(|a| a.parse()).transpose()?.unwrap_or(3);
    let per_client: usize = args.next().map(|a| a.parse()).transpose()?.unwrap_or(2);

    let tech = Technology::nominal_45nm();
    let library = cts::timing::fast_library();

    // Service workers are the parallel axis, so synthesis stays serial.
    // A deliberately tight queue so the run exercises back-pressure: when
    // the worker set falls behind, a non-blocking admit reports WouldBlock
    // and the client falls back to the blocking path.
    let options = CtsOptions::builder().threads(1).build()?;
    let mut svc_options = ServiceOptions::default();
    svc_options.workers = 0; // every core
    svc_options.queue_capacity = 2;
    let service = SynthesisService::new(
        Arc::new(library.clone()),
        Arc::new(tech.clone()),
        options.clone(),
        svc_options,
    );
    println!(
        "service up: {} workers, queue capacity 2, {} clients x {} requests\n",
        service.workers(),
        clients,
        per_client
    );

    // Every client runs on its own thread: submit with a client-specific
    // priority, then wait each ticket — submit/wait from many threads
    // concurrently is the entire point of the service seam.
    let results: Mutex<Vec<(usize, SynthesisResult)>> = Mutex::new(Vec::new());
    let would_blocks = Mutex::new(0usize);
    std::thread::scope(|scope| {
        for client in 0..clients {
            let service = &service;
            let results = &results;
            let would_blocks = &would_blocks;
            scope.spawn(move || {
                let tickets: Vec<_> = (0..per_client)
                    .map(|k| {
                        let instance = generate_custom(
                            &format!("c{client}r{k}"),
                            7 + (client + k) % 5,
                            2400.0,
                            0x5e47 + (client * 31 + k) as u64,
                        );
                        let request = SynthesisRequest::new(instance).with_priority(client as i32);
                        // Non-blocking first; on back-pressure, block.
                        match service.admit(vec![request], Admission::NonBlocking) {
                            Ok(mut tickets) => tickets.pop().expect("one ticket per request"),
                            Err(SubmitError::WouldBlock(mut r)) => {
                                *would_blocks.lock().unwrap() += 1;
                                let r = r.pop().expect("the request is handed back");
                                service.submit(r).expect("service accepts while running")
                            }
                            Err(e) => unreachable!("running service rejected a request: {e}"),
                        }
                    })
                    .collect();
                for ticket in tickets {
                    let done = ticket.wait().expect("synthesis succeeds");
                    results.lock().unwrap().push((client, done));
                }
            });
        }
    });

    // Graceful shutdown: drains nothing here (clients waited their
    // tickets), then joins the workers; afterwards the process would
    // reject new submissions.
    service.shutdown();

    // The ledger accounts for every admission exactly once: each request
    // resolved one way, and each left the queue (one queue-wait sample).
    let m = service.metrics();
    assert_eq!(
        m.completed + m.cancelled + m.expired + m.failed,
        m.submitted,
        "every admitted request resolved exactly once: {m}"
    );
    let waits: u64 = service
        .stats()
        .queue_wait_by_priority
        .iter()
        .map(|(_, h)| h.count())
        .sum();
    assert_eq!(waits, m.submitted, "one queue-wait sample per request");

    let mut results = results.into_inner().unwrap();
    results.sort_by_key(|(_, r)| r.id);
    println!(
        "{:<8} {:>4} {:>9} {:>7} {:>12} {:>10} {:>13}",
        "request", "prio", "dispatch", "#sinks", "worst slew", "skew", "max latency"
    );
    for (_, done) in &results {
        println!(
            "{:<8} {:>4} {:>9} {:>7} {:>9.1} ps {:>7.1} ps {:>10.2} ns",
            done.item.name,
            done.priority,
            done.dispatch_order,
            done.item.sinks,
            done.item.worst_slew() / PS,
            done.item.skew() / PS,
            done.item.max_latency() / NS,
        );
    }

    // The per-request rows are batch rows, so the batch aggregation folds
    // a service session's stream the same way it folds a suite.
    let items: Vec<_> = results.iter().map(|(_, r)| r.item.clone()).collect();
    let s = BatchSummary::fold(&items);
    println!(
        "\nsession: {} requests, {} sinks, {} buffers, worst slew {:.1} ps, \
         worst skew {:.1} ps ({} submissions hit back-pressure)",
        s.instances,
        s.sinks,
        s.buffers,
        s.worst_slew / PS,
        s.worst_skew / PS,
        would_blocks.into_inner().unwrap(),
    );

    // The service contract: every streamed result is byte-identical to a
    // direct serial synthesize + verify of the same instance.
    let serial = Synthesizer::new(library, options);
    for (_, done) in &results {
        // Regenerate the instance from its deterministic seed.
        let (client, k) = parse_name(&done.item.name);
        let instance = generate_custom(
            &done.item.name,
            7 + (client + k) % 5,
            2400.0,
            0x5e47 + (client * 31 + k) as u64,
        );
        let reference = serial.synthesize(&instance)?;
        assert_eq!(
            done.item.result.tree, reference.tree,
            "{}: tree drift",
            done.item.name
        );
        assert_eq!(done.item.result.report, reference.report);
    }
    println!("determinism: service results identical to the serial loop ✓");
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
