//! A traced server keeps the end of its trace. Its recorder retains the
//! newest 262,144 span events and evicts the oldest, so once a long run
//! has filled it, the latest requests are still in the trace — with no
//! client ever asking for `stats`.
//!
//! Its own test binary: the recorder is process-global, and the other
//! protocol tests expect a server without tracing.

use cts_core::{CtsOptions, ServiceOptions, SynthesisService};
use cts_net::{Client, Server};
use cts_obs::{Name, Recorder};
use cts_spice::Technology;
use cts_timing::fast_library;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The recorder's retention cap.
const RETAINED: u64 = 262_144;

static FILLER: Name = Name::new("test.filler");

#[test]
fn a_full_trace_still_ends_at_the_last_request() {
    let recorder = Recorder::install();
    // The spans of a long-running server, enough to fill the trace.
    for i in 0..RETAINED {
        cts_obs::record(&FILLER, 0, i, i + 1, i);
    }

    let mut svc = ServiceOptions::default();
    svc.workers = 1;
    svc.verify = false;
    let service = Arc::new(SynthesisService::new(
        Arc::new(fast_library().clone()),
        Arc::new(Technology::nominal_45nm()),
        CtsOptions::builder().threads(1).build().unwrap(),
        svc,
    ));
    let server = Server::bind("127.0.0.1:0", service).expect("ephemeral bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let running = std::thread::spawn(move || server.run());

    // `hello` plus five `metrics`: six request frames, no `stats`.
    let mut client = Client::connect(addr).expect("connect");
    for _ in 0..5 {
        client.metrics().expect("metrics");
    }
    // A frame's span ends just after its reply is queued, so the last
    // one may land a moment after the client has read the reply.
    let until = Instant::now() + Duration::from_secs(10);
    while frames(&recorder.events()) < 6 && Instant::now() < until {
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(client);
    handle.shutdown();
    running.join().expect("server thread").expect("server run");

    let events = recorder.events();
    let dropped = recorder.dropped();
    Recorder::uninstall();
    assert_eq!(events.len() as u64, RETAINED);
    assert_eq!(frames(&events), 6, "every request frame is in the trace");
    assert_eq!(dropped, 6, "one filler evicted per frame");
    let oldest = events
        .iter()
        .filter(|e| e.name == "test.filler")
        .map(|e| e.attr)
        .min();
    assert_eq!(
        oldest,
        Some(6),
        "the oldest fillers went, not the newest frames"
    );
}

fn frames(events: &[cts_obs::SpanEvent]) -> usize {
    events
        .iter()
        .filter(|e| e.name == "net.handle_frame")
        .count()
}
