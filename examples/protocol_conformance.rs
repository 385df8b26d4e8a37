//! Protocol conformance: replays the canned transcript from
//! `docs/PROTOCOL.md` (the **Conformance transcript** section) against a
//! live `cts-net` server and diffs every frame **byte-for-byte** — so
//! the documented wire bytes can never drift from what the
//! implementation actually speaks. CI runs this as its
//! protocol-conformance step.
//!
//! Script convention (inside the section's ```text blocks):
//!
//! * `C: <frame>` — sent to the server verbatim (plus the newline).
//! * `S: <frame>` — the next non-event frame must equal this byte-for-byte.
//! * `E: <frame>` — a pushed event that must arrive, byte-for-byte, at
//!   any point from here to the end of the session (events are
//!   asynchronous; replies are ordered).
//!
//! The server is pinned to the configuration the doc section names
//! (1 worker, queue capacity 4, verification off, dispatch paused) so
//! every reply byte is deterministic.
//!
//! ```sh
//! cargo run --release --example protocol_conformance
//! cargo run --release --example protocol_conformance -- path/to/PROTOCOL.md
//! ```

use cts::net::{Json, Server};
use cts::{CtsOptions, ServiceOptions, SynthesisService, Technology};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

#[derive(Debug)]
enum Step {
    /// A `C:` line — raw bytes to send.
    Send(String),
    /// An `S:` line — the next ordered (non-event) frame, byte-for-byte.
    Expect(String),
    /// An `E:` line — an event frame that must arrive before the session
    /// ends, byte-for-byte.
    ExpectEvent(String),
}

/// Extracts the replay script from the doc's Conformance transcript
/// section: every `C:`/`S:`/`E:` line of every ```text block before the
/// next `## ` heading.
fn extract_script(doc: &str) -> Result<Vec<Step>, String> {
    let mut in_section = false;
    let mut in_block = false;
    let mut script = Vec::new();
    for line in doc.lines() {
        if line.starts_with("## ") {
            if in_section {
                break;
            }
            in_section = line.trim_end() == "## Conformance transcript";
            continue;
        }
        if !in_section {
            continue;
        }
        if line.trim_end().starts_with("```") {
            in_block = !in_block;
            continue;
        }
        if !in_block {
            continue;
        }
        if let Some(frame) = line.strip_prefix("C: ") {
            script.push(Step::Send(frame.to_string()));
        } else if let Some(frame) = line.strip_prefix("S: ") {
            script.push(Step::Expect(frame.to_string()));
        } else if let Some(frame) = line.strip_prefix("E: ") {
            script.push(Step::ExpectEvent(frame.to_string()));
        }
    }
    if script.is_empty() {
        return Err("no Conformance transcript section (or it is empty)".into());
    }
    Ok(script)
}

/// Reads one frame line (without its newline); EOF is an error.
fn read_line(reader: &mut BufReader<TcpStream>) -> Result<String, String> {
    let mut line = String::new();
    let n = reader
        .read_line(&mut line)
        .map_err(|e| format!("transport error mid-transcript: {e}"))?;
    if n == 0 {
        return Err("server closed the connection mid-transcript".into());
    }
    if line.ends_with('\n') {
        line.pop();
    }
    Ok(line)
}

fn is_event_line(line: &str) -> bool {
    Json::parse(line)
        .ok()
        .is_some_and(|j| j.get("event").and_then(Json::as_bool) == Some(true))
}

/// Consumes one event frame: it must match an outstanding `E:`
/// expectation byte-for-byte (arrival order among events is not pinned —
/// they are asynchronous pushes).
fn match_event(pending: &mut Vec<String>, got: &str) -> Result<(), String> {
    match pending.iter().position(|e| e == got) {
        Some(i) => {
            pending.remove(i);
            Ok(())
        }
        None => Err(format!(
            "unexpected event frame (no matching E: line)\n  got:      {got}\n  awaiting: {pending:?}"
        )),
    }
}

fn run_script(addr: std::net::SocketAddr, script: &[Step]) -> Result<usize, String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    // Every E: expectation is registered up front: events are pushed
    // asynchronously, so one may hit the wire before the reply of the
    // very request that triggered it (the cancel reply and the writer's
    // poll of the cancelled ticket race). Wherever an
    // event lands in the byte stream, it must match one E: line exactly.
    let mut pending_events: Vec<String> = script
        .iter()
        .filter_map(|s| match s {
            Step::ExpectEvent(frame) => Some(frame.clone()),
            _ => None,
        })
        .collect();
    let mut checked = 0usize;
    for (i, step) in script.iter().enumerate() {
        match step {
            Step::Send(frame) => {
                writer
                    .write_all(frame.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
                    .and_then(|()| writer.flush())
                    .map_err(|e| format!("step {i}: send failed: {e}"))?;
            }
            Step::ExpectEvent(_) => {} // registered up front
            Step::Expect(want) => loop {
                let got = read_line(&mut reader).map_err(|e| format!("step {i}: {e}"))?;
                if is_event_line(&got) {
                    match_event(&mut pending_events, &got).map_err(|e| format!("step {i}: {e}"))?;
                    checked += 1;
                    continue;
                }
                if &got != want {
                    return Err(format!(
                        "step {i}: frame drifted from docs/PROTOCOL.md\n  doc:    {want}\n  server: {got}"
                    ));
                }
                checked += 1;
                break;
            },
        }
    }
    // Events are asynchronous: whatever is still outstanding must arrive
    // before the server winds the connection down.
    while !pending_events.is_empty() {
        let got = read_line(&mut reader)
            .map_err(|e| format!("awaiting {} events: {e}", pending_events.len()))?;
        if !is_event_line(&got) {
            return Err(format!("expected an event frame, got: {got}"));
        }
        match_event(&mut pending_events, &got)?;
        checked += 1;
    }
    Ok(checked)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let doc_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| format!("{}/docs/PROTOCOL.md", env!("CARGO_MANIFEST_DIR")));
    let doc = std::fs::read_to_string(&doc_path)?;
    let script = extract_script(&doc)?;

    // The pinned configuration the doc section documents: every reply
    // byte below is deterministic under it.
    let tech = Technology::nominal_45nm();
    let library = cts::timing::fast_library();
    let options = CtsOptions::builder()
        .threads(1)
        .build()
        .expect("valid options");
    let mut svc = ServiceOptions::default();
    svc.workers = 1;
    svc.queue_capacity = 4;
    svc.verify = false;
    let service = Arc::new(SynthesisService::new(
        Arc::new(library.clone()),
        Arc::new(tech),
        options,
        svc,
    ));
    // Paused before the first admission, so every request the script
    // submits stays queued until its closing `shutdown` drains them.
    service.pause();
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service))?;
    let addr = server.local_addr();
    let running = std::thread::spawn(move || server.run());

    let checked = run_script(addr, &script)?;
    // The script ends with the shutdown op, so the server stops by itself.
    running.join().expect("server thread")?;
    println!("conformance: {checked} server frames matched docs/PROTOCOL.md byte-for-byte ✓");
    Ok(())
}
