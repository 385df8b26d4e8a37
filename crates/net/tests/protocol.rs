//! Protocol-level integration tests: a real server on an ephemeral port,
//! driven by the [`Client`] and by raw frames, with the failure paths the
//! wire spec promises — malformed frames answered without killing the
//! connection, disconnects cancelling in-flight work, deadlines expiring
//! queued work before it ever dispatches.

use cts_core::{
    CtsOptions, Instance, NodeKind, RequestStatus, ServiceOptions, Sink, SynthesisService,
    Synthesizer, TreeNode,
};
use cts_geom::Point;
use cts_net::frame::{read_frame, write_frame};
use cts_net::proto::{
    encode_event, encode_response, Event, Response, TreeChunkEvent, TreeDoneEvent, TreeEvent,
    TreeInfo,
};
use cts_net::{
    ChunkMode, Client, ErrorCode, Json, NetError, OptionsPatch, Outcome, Server, ServerHandle,
    SubmitSpec, SweepRange,
};
use cts_spice::Technology;
use cts_timing::fast_library;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Polls `poll` until it yields, parking `interval` between attempts, for
/// at most `deadline`. Returns `None` when the deadline passes first.
fn wait_with_deadline<T>(
    deadline: Duration,
    interval: Duration,
    mut poll: impl FnMut() -> Option<T>,
) -> Option<T> {
    let until = Instant::now() + deadline;
    loop {
        if let Some(out) = poll() {
            return Some(out);
        }
        let now = Instant::now();
        if now >= until {
            return None;
        }
        std::thread::sleep(interval.min(until - now));
    }
}

struct TestServer {
    addr: SocketAddr,
    service: Arc<SynthesisService>,
    handle: ServerHandle,
    running: Option<JoinHandle<std::io::Result<()>>>,
}

impl TestServer {
    /// One worker, no SPICE verification (speed), optionally paused so
    /// queued-state scenarios are deterministic.
    fn start(paused: bool) -> TestServer {
        TestServer::start_with(paused, ServiceOptions::default().queue_capacity)
    }

    /// [`TestServer::start`] with an explicit queue capacity, for batch
    /// all-or-nothing scenarios.
    fn start_with(paused: bool, capacity: usize) -> TestServer {
        let cts = CtsOptions::builder().threads(1).build().unwrap();
        let mut svc = ServiceOptions::default();
        svc.workers = 1;
        svc.verify = false;
        svc.queue_capacity = capacity;
        let service = Arc::new(SynthesisService::new(
            Arc::new(fast_library().clone()),
            Arc::new(Technology::nominal_45nm()),
            cts,
            svc,
        ));
        if paused {
            service.pause();
        }
        let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("ephemeral bind");
        let addr = server.local_addr();
        let handle = server.handle();
        let running = std::thread::spawn(move || server.run());
        TestServer {
            addr,
            service,
            handle,
            running: Some(running),
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

fn tiny(name: &str, n: usize) -> Instance {
    let sinks = (0..n)
        .map(|i| {
            Sink::new(
                format!("s{i}"),
                Point::new(
                    650.0 * ((i * 7 + 3) % n) as f64,
                    420.0 * ((i * 5 + 1) % n) as f64,
                ),
                22e-15,
            )
        })
        .collect();
    Instance::new(name, sinks)
}

#[test]
fn happy_path_submit_wait_status_metrics() {
    let ts = TestServer::start(false);
    let mut client = Client::connect_as(ts.addr, Some("it-tests")).unwrap();
    assert_eq!(client.server().version, cts_net::PROTOCOL_VERSION);
    assert_eq!(client.server().workers, 1);

    let id = client
        .submit_spec(SubmitSpec::new(tiny("happy", 4)))
        .unwrap();
    match client.wait_result(id).unwrap() {
        Outcome::Completed(result) => {
            assert_eq!(result.id, id);
            assert_eq!(result.name, "happy");
            assert_eq!(result.sinks, 4);
            assert_eq!(result.client_id.as_deref(), Some("it-tests"));
            assert!(result.estimate.latency > 0.0);
            assert!(result.verified.is_none(), "verification is off");
        }
        other => panic!("expected completion, got {other:?}"),
    }
    assert_eq!(client.status(id).unwrap(), RequestStatus::Done);
    let m = client.metrics().unwrap();
    assert_eq!(m.metrics.completed, 1);
    assert_eq!(m.metrics.submitted, 1);
    assert!(m.metrics.synth_seconds > 0.0);
    ts.stop();
}

#[test]
fn malformed_frame_gets_error_reply_without_killing_the_connection() {
    let ts = TestServer::start(false);
    let stream = TcpStream::connect(ts.addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // Garbage line: a structured bad_json error with a null seq.
    writer.write_all(b"this is not json {{{\n").unwrap();
    writer.flush().unwrap();
    let reply = read_frame(&mut reader).unwrap().unwrap().unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert!(reply.get("seq").unwrap().is_null());
    assert_eq!(
        reply
            .get("error")
            .unwrap()
            .get("code")
            .and_then(Json::as_str),
        Some("bad_json")
    );

    // Valid JSON that is not a valid request: bad_request, seq echoed.
    write_frame(
        &mut writer,
        &Json::obj(vec![
            ("op", Json::str("frobnicate")),
            ("seq", Json::num(7.0)),
        ]),
    )
    .unwrap();
    writer.flush().unwrap();
    let reply = read_frame(&mut reader).unwrap().unwrap().unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(reply.get("seq").and_then(Json::as_u64), Some(7));
    assert_eq!(
        reply
            .get("error")
            .unwrap()
            .get("code")
            .and_then(Json::as_str),
        Some("bad_request")
    );

    // The connection survived both: a metrics op still answers.
    write_frame(
        &mut writer,
        &Json::obj(vec![("op", Json::str("metrics")), ("seq", Json::num(8.0))]),
    )
    .unwrap();
    writer.flush().unwrap();
    let reply = read_frame(&mut reader).unwrap().unwrap().unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(reply.get("seq").and_then(Json::as_u64), Some(8));
    ts.stop();
}

#[test]
fn unknown_option_keys_are_bad_request_naming_the_key_at_every_op() {
    // Every options-bearing op must reject a patch with an unknown key
    // as a structured bad_request whose message names the offending key
    // — a typo fails loudly instead of silently synthesizing defaults.
    let ts = TestServer::start(true);
    let stream = TcpStream::connect(ts.addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    let instance = cts_net::proto::instance_to_json(&tiny("typo", 4));
    let bad_patch = || Json::obj(vec![("slew_limit", Json::num(100.0))]);
    let frames: Vec<(Json, &str)> = vec![
        (
            Json::obj(vec![
                ("op", Json::str("submit")),
                ("seq", Json::num(1.0)),
                ("instance", instance.clone()),
                ("options", bad_patch()),
            ]),
            "slew_limit",
        ),
        (
            Json::obj(vec![
                ("op", Json::str("submit_batch")),
                ("seq", Json::num(2.0)),
                (
                    "entries",
                    Json::arr(vec![Json::obj(vec![("instance", instance.clone())])]),
                ),
                ("options", bad_patch()),
            ]),
            "slew_limit",
        ),
        (
            Json::obj(vec![
                ("op", Json::str("submit_sweep")),
                ("seq", Json::num(3.0)),
                ("instance", instance.clone()),
                ("base", bad_patch()),
                (
                    "axes",
                    Json::obj(vec![("slew_target_ps", Json::arr(vec![Json::num(80.0)]))]),
                ),
            ]),
            "slew_limit",
        ),
        (
            Json::obj(vec![
                ("op", Json::str("submit_sweep")),
                ("seq", Json::num(4.0)),
                ("instance", instance.clone()),
                (
                    "axes",
                    Json::obj(vec![("grid_resolutions", Json::arr(vec![Json::num(8.0)]))]),
                ),
            ]),
            "grid_resolutions",
        ),
        (
            Json::obj(vec![
                ("op", Json::str("submit_sweep")),
                ("seq", Json::num(5.0)),
                ("instance", instance.clone()),
                (
                    "points",
                    Json::arr(vec![Json::obj(vec![("cost_alpha", Json::num(0.5))])]),
                ),
            ]),
            "cost_alpha",
        ),
    ];
    for (seq, (frame, key)) in frames.into_iter().enumerate() {
        write_frame(&mut writer, &frame).unwrap();
        writer.flush().unwrap();
        let reply = read_frame(&mut reader).unwrap().unwrap().unwrap();
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            reply.get("seq").and_then(Json::as_u64),
            Some(seq as u64 + 1)
        );
        let error = reply.get("error").unwrap();
        assert_eq!(
            error.get("code").and_then(Json::as_str),
            Some("bad_request")
        );
        let message = error.get("message").and_then(Json::as_str).unwrap();
        assert!(
            message.contains(key),
            "reply {seq} must name the offending key '{key}': {message}"
        );
    }
    // Nothing was admitted by any of the rejected frames.
    assert_eq!(ts.service.metrics().submitted, 0);
    ts.stop();
}

#[test]
fn hello_with_wrong_version_is_rejected() {
    let ts = TestServer::start(false);
    let stream = TcpStream::connect(ts.addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    write_frame(
        &mut writer,
        &Json::obj(vec![
            ("op", Json::str("hello")),
            ("seq", Json::num(0.0)),
            ("version", Json::num(99.0)),
        ]),
    )
    .unwrap();
    writer.flush().unwrap();
    let reply = read_frame(&mut reader).unwrap().unwrap().unwrap();
    assert_eq!(
        reply
            .get("error")
            .unwrap()
            .get("code")
            .and_then(Json::as_str),
        Some("unsupported_version")
    );
    ts.stop();
}

#[test]
fn status_and_cancel_of_unknown_ids_are_structured_errors() {
    let ts = TestServer::start(false);
    let mut client = Client::connect(ts.addr).unwrap();
    match client.status(12345) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::UnknownId),
        other => panic!("expected unknown_id, got {other:?}"),
    }
    match client.cancel(12345) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::UnknownId),
        other => panic!("expected unknown_id, got {other:?}"),
    }
    ts.stop();
}

#[test]
fn cancel_over_the_wire_resolves_cancelled() {
    // Paused service: the request is still queued when the cancel lands,
    // so the outcome is deterministic.
    let ts = TestServer::start(true);
    let mut client = Client::connect(ts.addr).unwrap();
    let id = client.submit_spec(SubmitSpec::new(tiny("cut", 4))).unwrap();
    assert_eq!(client.status(id).unwrap(), RequestStatus::Queued);
    client.cancel(id).unwrap();
    assert!(matches!(
        client.wait_result(id).unwrap(),
        Outcome::Cancelled
    ));
    let m = client.metrics().unwrap();
    assert_eq!(m.metrics.cancelled, 1);
    assert_eq!(m.metrics.completed, 0);
    ts.stop();
}

#[test]
fn client_disconnect_mid_request_cancels_the_ticket() {
    // Paused service: the submitted request cannot start, so the
    // disconnect happens strictly "mid-request".
    let ts = TestServer::start(true);
    {
        let mut client = Client::connect(ts.addr).unwrap();
        let _id = client
            .submit_spec(SubmitSpec::new(tiny("orphan", 4)))
            .unwrap();
        assert_eq!(ts.service.metrics().submitted, 1);
        // Drop the connection with the request still queued.
    }
    // The connection teardown cancels the orphaned ticket; the queued
    // request resolves cancelled (even though the service stays paused)
    // and frees its slot.
    let cancelled = wait_with_deadline(Duration::from_secs(10), Duration::from_millis(5), || {
        (ts.service.metrics().cancelled == 1).then_some(())
    });
    assert!(cancelled.is_some(), "orphaned request was not cancelled");
    assert_eq!(ts.service.pending(), 0);
    assert_eq!(ts.service.metrics().completed, 0, "it never ran");
    ts.stop();
}

#[test]
fn deadline_expired_queued_request_never_dispatches() {
    // Paused service + 1 ms deadline: the deadline passes while queued;
    // the request must resolve `expired` without ever synthesizing.
    let ts = TestServer::start(true);
    let mut client = Client::connect(ts.addr).unwrap();
    let id = client
        .submit_spec(SubmitSpec::new(tiny("doomed", 4)).with_deadline_ms(1))
        .unwrap();
    assert!(matches!(client.wait_result(id).unwrap(), Outcome::Expired));
    let m = client.metrics().unwrap();
    assert_eq!(m.metrics.expired, 1);
    assert_eq!(m.metrics.completed, 0);
    assert_eq!(m.metrics.queue_depth, 0);
    assert_eq!(
        m.metrics.synth_seconds, 0.0,
        "no synthesis stage ever ran for the expired request"
    );
    ts.stop();
}

#[test]
fn submit_batch_admits_all_entries_and_streams_each_result() {
    let ts = TestServer::start(false);
    let mut client = Client::connect_as(ts.addr, Some("batcher")).unwrap();
    let specs: Vec<SubmitSpec> = (0..3)
        .map(|k| SubmitSpec::new(tiny(&format!("batch{k}"), 4 + k)))
        .collect();
    let ids = client.submit_specs(specs).unwrap();
    assert_eq!(ids.len(), 3);
    assert!(
        ids.windows(2).all(|w| w[1] == w[0] + 1),
        "atomic admission hands out consecutive ids: {ids:?}"
    );
    // Wait out of order: the stash covers any interleaving.
    for (k, &id) in ids.iter().enumerate().rev() {
        match client.wait_result(id).unwrap() {
            Outcome::Completed(result) => {
                assert_eq!(result.name, format!("batch{k}"));
                assert_eq!(result.sinks as usize, 4 + k);
                assert_eq!(result.client_id.as_deref(), Some("batcher"));
            }
            other => panic!("batch entry {k} did not complete: {other:?}"),
        }
    }
    let m = client.metrics().unwrap();
    assert_eq!(m.metrics.submitted, 3);
    assert_eq!(m.metrics.completed, 3);
    ts.stop();
}

#[test]
fn oversized_batch_is_rejected_whole() {
    // Capacity 2: a 3-entry batch can never be admitted atomically.
    let ts = TestServer::start_with(true, 2);
    let mut client = Client::connect(ts.addr).unwrap();
    let specs: Vec<SubmitSpec> = (0..3)
        .map(|k| SubmitSpec::new(tiny(&format!("big{k}"), 4)))
        .collect();
    match client.submit_specs(specs) {
        Err(NetError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("batch of 3"), "{message}");
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    // A sweep expanding past the capacity is rejected the same way.
    let range = SweepRange::Points(vec![OptionsPatch::default(); 3]);
    match client.submit_sweep(SubmitSpec::new(tiny("wide", 4)), range) {
        Err(NetError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(
                message.contains("batch of 3 exceeds the queue capacity"),
                "{message}"
            );
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    // Nothing was admitted — all-or-nothing.
    assert_eq!(ts.service.metrics().submitted, 0);
    assert_eq!(ts.service.metrics().sweeps_submitted, 0);
    assert_eq!(ts.service.pending(), 0);
    // A batch that fits still goes through on the same connection.
    let ids = client
        .submit_specs(vec![SubmitSpec::new(tiny("fits", 4))])
        .unwrap();
    assert_eq!(ids.len(), 1);
    ts.stop();
}

#[test]
fn oversized_sweep_axes_are_bad_request_without_expanding() {
    // Four 1,000-entry axes: a ~20 KB frame whose cartesian product is
    // 10^12 points. The server must bound the product before allocating
    // any of it, answer bad_request, and keep the connection serving.
    let ts = TestServer::start(false);
    let stream = TcpStream::connect(ts.addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let axis = |v: Json| Json::arr(vec![v; 1000]);
    let frame = Json::obj(vec![
        ("op", Json::str("submit_sweep")),
        ("seq", Json::num(1.0)),
        (
            "instance",
            Json::obj(vec![
                ("name", Json::str("huge")),
                (
                    "sinks",
                    Json::arr(vec![Json::obj(vec![
                        ("name", Json::str("s0")),
                        ("x", Json::num(0.0)),
                        ("y", Json::num(0.0)),
                        ("cap_f", Json::num(2.5e-14)),
                    ])]),
                ),
            ]),
        ),
        (
            "axes",
            Json::obj(vec![
                ("slew_target_ps", axis(Json::num(80.0))),
                ("library_subset", axis(Json::num(0.0))),
                ("h_correction", axis(Json::str("off"))),
                ("buffering", axis(Json::str("greedy"))),
            ]),
        ),
    ]);
    write_frame(&mut writer, &frame).unwrap();
    writer.flush().unwrap();
    let reply = read_frame(&mut reader).unwrap().unwrap().unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(reply.get("seq").and_then(Json::as_u64), Some(1));
    let error = reply.get("error").unwrap();
    assert_eq!(
        error.get("code").and_then(Json::as_str),
        Some("bad_request")
    );
    let message = error.get("message").and_then(Json::as_str).unwrap();
    assert!(
        message.contains("1000000000000 points, more than the maximum of 4096"),
        "{message}"
    );

    // The connection survived: a metrics op still answers.
    write_frame(
        &mut writer,
        &Json::obj(vec![("op", Json::str("metrics")), ("seq", Json::num(2.0))]),
    )
    .unwrap();
    writer.flush().unwrap();
    let reply = read_frame(&mut reader).unwrap().unwrap().unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(reply.get("seq").and_then(Json::as_u64), Some(2));
    assert_eq!(ts.service.metrics().submitted, 0);
    ts.stop();
}

#[test]
fn every_submit_op_answers_shutting_down_once_the_service_drains() {
    let ts = TestServer::start(false);
    let mut client = Client::connect(ts.addr).unwrap();
    // Drain the service behind the still-running server: admission is
    // closed, so each submit op must answer a structured shutting_down.
    ts.service.shutdown();
    let expect_draining = |op: &str, outcome: Result<(), NetError>| match outcome {
        Err(NetError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::ShuttingDown, "{op}");
            assert_eq!(message, "service is draining; no new work admitted", "{op}");
        }
        other => panic!("{op}: expected shutting_down, got {other:?}"),
    };
    expect_draining(
        "submit",
        client
            .submit_spec(SubmitSpec::new(tiny("late", 4)))
            .map(drop),
    );
    expect_draining(
        "submit_batch",
        client
            .submit_specs(vec![
                SubmitSpec::new(tiny("late0", 4)),
                SubmitSpec::new(tiny("late1", 4)),
            ])
            .map(drop),
    );
    expect_draining(
        "submit_sweep",
        client
            .submit_sweep(
                SubmitSpec::new(tiny("late", 4)),
                SweepRange::Points(vec![OptionsPatch::default(); 2]),
            )
            .map(drop),
    );
    assert_eq!(ts.service.metrics().submitted, 0);
    ts.stop();
}

#[test]
fn result_events_racing_the_next_reply_are_stashed_by_id() {
    // Regression: a pushed result event can hit the socket before the
    // client has read the reply that would have told it the id exists
    // (a batch reply racing its first event, or — as forced here — the
    // events all arriving while an unrelated `metrics` call is in
    // flight). The client must stash by id unconditionally.
    let ts = TestServer::start(false);
    let mut client = Client::connect(ts.addr).unwrap();
    let specs: Vec<SubmitSpec> = (0..3)
        .map(|k| SubmitSpec::new(tiny(&format!("race{k}"), 4)))
        .collect();
    let ids = client.submit_specs(specs).unwrap();
    // Let every result event reach the socket before the client reads
    // another frame.
    let done = wait_with_deadline(Duration::from_secs(60), Duration::from_millis(5), || {
        (ts.service.metrics().completed == 3).then_some(())
    });
    assert!(done.is_some(), "batch never completed server-side");
    // This call must read (and stash) the three events before its reply.
    let m = client.metrics().unwrap();
    assert_eq!(m.metrics.completed, 3);
    for &id in &ids {
        match client.wait_result(id) {
            Ok(Outcome::Completed(_)) => {}
            other => panic!("event for {id} was dropped instead of stashed: {other:?}"),
        }
    }
    ts.stop();
}

#[test]
fn fetch_tree_roundtrips_the_routed_geometry_bit_for_bit() {
    let ts = TestServer::start(false);
    let mut client = Client::connect(ts.addr).unwrap();
    let inst = tiny("geom", 7);
    let id = client.submit_spec(SubmitSpec::new(inst.clone())).unwrap();
    assert!(matches!(
        client.wait_result(id).unwrap(),
        Outcome::Completed(_)
    ));

    let remote = client.fetch_tree(id, ChunkMode::Default).unwrap();
    // The reference: the same instance through the same code path the
    // server ran (identical options), entirely in process.
    let options = CtsOptions::builder().threads(1).build().unwrap();
    let reference = Synthesizer::new(fast_library(), options)
        .synthesize(&inst)
        .unwrap();
    assert_eq!(remote.name, "geom");
    assert_eq!(
        remote.tree, reference.tree,
        "wire geometry must be bit-identical to the in-process tree"
    );
    assert_eq!(remote.source, reference.source);
    assert_eq!(remote.level_stats, reference.level_stats);

    // A forced tiny chunk size exercises the multi-chunk path and must
    // rebuild the identical tree.
    let chunked = client.fetch_tree(id, ChunkMode::Nodes(3)).unwrap();
    assert_eq!(chunked, remote);

    // An absurd chunk request is clamped server-side (a frame larger
    // than the 8 MiB cap would be a fatal transport error for *us*) —
    // the stream still arrives and rebuilds identically. (Exactly
    // representable as a JSON number, unlike u64::MAX.)
    let clamped = client.fetch_tree(id, ChunkMode::Nodes(1_000_000)).unwrap();
    assert_eq!(clamped, remote);

    // Level-aligned streaming of a *completed* tree rebuilds the very
    // same geometry — chunk boundaries are presentation, not data.
    let levels = client.fetch_tree(id, ChunkMode::Levels).unwrap();
    assert_eq!(levels, remote);
    ts.stop();
}

#[test]
fn fetch_tree_of_unresolved_or_unknown_ids_is_unknown_id() {
    let ts = TestServer::start(true);
    let mut client = Client::connect(ts.addr).unwrap();
    // Never submitted.
    match client.fetch_tree(777, ChunkMode::Default) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::UnknownId),
        other => panic!("expected unknown_id, got {other:?}"),
    }
    // Submitted but still queued (paused server): no tree to stream yet.
    let id = client
        .submit_spec(SubmitSpec::new(tiny("pending", 4)))
        .unwrap();
    match client.fetch_tree(id, ChunkMode::Default) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::UnknownId),
        other => panic!("expected unknown_id, got {other:?}"),
    }
    // In *levels* mode the same queued request is not an error: the
    // partial stream is simply empty (nothing published yet).
    let progress = client.fetch_tree_progress(id).unwrap();
    assert!(progress.partial);
    assert_eq!(progress.levels_done, 0);
    assert!(progress.nodes.is_empty());
    assert!(progress.source.is_none());
    ts.stop();
}

#[test]
fn hello_v1_is_rejected_with_unsupported_version_not_a_hang() {
    // The v2 compatibility guarantee: a v1 client learns it is obsolete
    // from a structured error at handshake — it is never left waiting on
    // frames it cannot route.
    let ts = TestServer::start(false);
    let stream = TcpStream::connect(ts.addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    write_frame(
        &mut writer,
        &Json::obj(vec![
            ("op", Json::str("hello")),
            ("seq", Json::num(0.0)),
            ("version", Json::num(1.0)),
        ]),
    )
    .unwrap();
    writer.flush().unwrap();
    let reply = read_frame(&mut reader).unwrap().unwrap().unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(reply.get("seq").and_then(Json::as_u64), Some(0));
    assert_eq!(
        reply
            .get("error")
            .unwrap()
            .get("code")
            .and_then(Json::as_str),
        Some("unsupported_version")
    );
    ts.stop();
}

/// A hand-rolled fake server: answers the handshake, then replies to the
/// first `fetch_tree` with `header` followed by `events`, and hangs up.
fn fake_tree_server(header: TreeInfo, events: Vec<TreeEvent>) -> (SocketAddr, JoinHandle<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // hello
        let hello = read_frame(&mut reader).unwrap().unwrap().unwrap();
        let seq = hello.get("seq").and_then(Json::as_u64);
        let reply = encode_response(
            seq,
            &Response::Hello {
                version: cts_net::PROTOCOL_VERSION,
                server: "fake/0".into(),
                workers: 1,
            },
        );
        write_frame(&mut writer, &reply).unwrap();
        writer.flush().unwrap();
        let fetch = read_frame(&mut reader).unwrap().unwrap().unwrap();
        let seq = fetch.get("seq").and_then(Json::as_u64);
        write_frame(
            &mut writer,
            &encode_response(seq, &Response::TreeHeader(header)),
        )
        .unwrap();
        for event in events {
            write_frame(&mut writer, &encode_event(&Event::Tree(event))).unwrap();
        }
        writer.flush().unwrap();
        // Drop both halves: the connection ends after the last event.
    });
    (addr, fake)
}

fn joint(x: f64) -> TreeNode {
    TreeNode {
        kind: NodeKind::Joint,
        location: Point::new(x, 0.0),
        parent: None,
        wire_to_parent_um: 0.0,
        children: Vec::new(),
    }
}

#[test]
fn truncated_tree_stream_is_a_transport_error_not_a_partial_tree() {
    // A header promising 4 nodes in 2 chunks, one chunk, then the
    // connection drops mid-stream.
    let (addr, fake) = fake_tree_server(
        TreeInfo::complete(0, "cut".into(), 4, 2, 3),
        vec![TreeEvent::Chunk(TreeChunkEvent {
            id: 0,
            chunk: 0,
            nodes: vec![joint(0.0), joint(1.0)],
        })],
    );
    let mut client = Client::connect(addr).unwrap();
    match client.fetch_tree(0, ChunkMode::Default) {
        Err(NetError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        other => panic!("expected a transport error, got {other:?}"),
    }
    fake.join().unwrap();
}

#[test]
fn tree_progress_rejects_a_source_outside_the_arena() {
    // A complete, well-formed stream whose header names source == nodes:
    // the server-supplied id must not reach `TreeProgress::source`.
    let (addr, fake) = fake_tree_server(
        TreeInfo::complete(0, "bad_source".into(), 2, 1, 2),
        vec![
            TreeEvent::Chunk(TreeChunkEvent {
                id: 0,
                chunk: 0,
                nodes: vec![joint(0.0), joint(1.0)],
            }),
            TreeEvent::Done(TreeDoneEvent {
                id: 0,
                level_stats: Vec::new(),
            }),
        ],
    );
    let mut client = Client::connect(addr).unwrap();
    match client.fetch_tree_progress(0) {
        Err(NetError::Protocol(msg)) => assert!(msg.contains("outside"), "{msg}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }
    fake.join().unwrap();
}

#[test]
fn shutdown_op_drains_and_stops_the_server() {
    let ts = TestServer::start(false);
    let mut client = Client::connect(ts.addr).unwrap();
    let id = client
        .submit_spec(SubmitSpec::new(tiny("draining", 4)))
        .unwrap();
    // Shutdown without waiting the result first: the drain resolves the
    // request, its event is stashed, and the confirmation arrives after.
    client.shutdown().unwrap();
    assert!(matches!(
        client.wait_result(id).unwrap(),
        Outcome::Completed(_)
    ));
    // The server's run() loop exits on its own now.
    let mut ts = ts;
    ts.running
        .take()
        .unwrap()
        .join()
        .expect("server thread")
        .expect("server run");
    // New connections are refused (accept loop gone).
    assert!(
        Client::connect(ts.addr).is_err(),
        "server kept accepting after shutdown"
    );
}
