//! The threaded TCP server: one [`SynthesisService`] behind the wire
//! protocol.
//!
//! Thread shape, per connection:
//!
//! * a **reader** (the connection thread itself) — decodes request
//!   frames, performs the op against the shared service, and queues the
//!   reply. A malformed frame gets a structured error reply and the
//!   connection keeps going; only transport failures (I/O error,
//!   oversized frame) end it.
//! * a **writer** — owns the socket's write half and serializes frames
//!   from an mpsc channel, so replies (reader) and result events (pump)
//!   interleave without tearing.
//! * a **completion pump** — owns the connection's outstanding
//!   [`Ticket`]s in a [`cts_util::CompletionPump`], sweeps them between
//!   control messages, and pushes a result event as each resolves. When
//!   the reader goes away (client disconnect), the pump flushes what
//!   already resolved and **cancels every still-pending ticket** — a
//!   dead client's queued work never occupies the service.
//!
//! Server lifecycle: [`Server::run`] accepts until a `shutdown` op (or
//! [`ServerHandle::shutdown`]) arrives, then drains the service
//! ([`SynthesisService::shutdown`] — every admitted request resolves and
//! streams its event), replies to the shutdown op, closes the listener
//! and every connection, joins the threads, and returns.

use crate::frame::{read_frame, write_frame};
use crate::json::Json;
use crate::proto::{
    decode_request, encode_event, encode_response, DecodeError, ErrorCode, Event, MetricsReply,
    Outcome, ParetoEvent, ParetoWirePoint, Request, Response, ResultEvent, Scheduling, SpanStat,
    StatsReply, SweepProgressEvent, TreeChunkEvent, TreeDoneEvent, TreeEvent, TreeInfo,
    DEFAULT_TREE_CHUNK, MAX_TREE_CHUNK, PROTOCOL_VERSION,
};
use cts_core::{
    pareto_point, Admission, CtsOptions, Instance, LevelStats, ParetoFront, ParetoPoint,
    RequestHandle, ServiceError, SubmitError, SweepSubmitError, SynthesisRequest, SynthesisResult,
    SynthesisService, Ticket, TreeNode,
};
use cts_util::{CompletionPump, PollPending};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The server identification string sent in `hello` replies.
fn server_ident() -> String {
    format!("cts-serve/{}", env!("CARGO_PKG_VERSION"))
}

// Span: one decoded request frame, op → reply queued (attr = seq).
static SPAN_HANDLE_FRAME: cts_obs::Name = cts_obs::Name::new("net.handle_frame");

/// Shared server state: the service plus what shutdown needs to reach.
struct ServerCtx {
    service: Arc<SynthesisService>,
    addr: SocketAddr,
    shutting_down: AtomicBool,
    /// Write halves of live connections, for forced teardown at
    /// shutdown; keyed by connection ordinal.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

impl ServerCtx {
    /// Drains the service (blocking until every admitted request has
    /// resolved — their result events stream to clients meanwhile).
    /// Idempotent.
    fn drain(&self) {
        self.service.shutdown();
    }

    /// Stops the accept loop and winds down every live connection. Only
    /// the *read* halves are shut: each reader observes EOF and exits,
    /// while its connection teardown still flushes pending result events
    /// and replies over the intact write half before the socket drops —
    /// no frame queued before shutdown is ever lost. Safe to call more
    /// than once.
    fn stop(&self) {
        {
            // The flag flips under the registry lock, and the accept loop
            // registers + re-checks under the same lock — so every
            // connection is wound down by exactly one side: either it is
            // in the registry when this loop runs, or its registration
            // observes the flag and shuts itself. Without this pairing, a
            // connection accepted concurrently with stop() could miss
            // both and leave run() joining a reader that never wakes.
            let conns = self.conns.lock().expect("connection registry poisoned");
            self.shutting_down.store(true, Ordering::Release);
            for stream in conns.values() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A shutdown control detached from the blocked [`Server::run`] call —
/// for embedding the server in-process (tests, `examples/remote_flow`).
/// The wire protocol's `shutdown` op does the same thing.
#[derive(Clone)]
pub struct ServerHandle {
    ctx: Arc<ServerCtx>,
}

impl ServerHandle {
    /// Drains the service, then stops the accept loop and closes every
    /// connection; [`Server::run`] returns once the teardown finishes.
    pub fn shutdown(&self) {
        self.ctx.drain();
        self.ctx.stop();
    }

    /// The address the server listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.ctx.addr
    }
}

/// The JSON-over-TCP front end around one shared [`SynthesisService`].
pub struct Server {
    listener: TcpListener,
    ctx: Arc<ServerCtx>,
}

impl Server {
    /// Wraps an already-bound listener around `service`. Binding
    /// externally is what lets callers use an ephemeral port
    /// (`127.0.0.1:0`) and read it back before the server runs.
    ///
    /// # Errors
    ///
    /// The listener must report its local address.
    pub fn new(service: Arc<SynthesisService>, listener: TcpListener) -> io::Result<Server> {
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            ctx: Arc::new(ServerCtx {
                service,
                addr,
                shutting_down: AtomicBool::new(false),
                conns: Mutex::new(HashMap::new()),
            }),
        })
    }

    /// Binds `addr` and wraps it; see [`Server::new`].
    ///
    /// # Errors
    ///
    /// The bind failure.
    pub fn bind(addr: impl ToSocketAddrs, service: Arc<SynthesisService>) -> io::Result<Server> {
        Server::new(service, TcpListener::bind(addr)?)
    }

    /// The address the server listens on (the resolved port when bound
    /// to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.ctx.addr
    }

    /// A detached shutdown control.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            ctx: Arc::clone(&self.ctx),
        }
    }

    /// Serves connections until shutdown (wire `shutdown` op or
    /// [`ServerHandle::shutdown`]), then joins every connection thread
    /// and returns. The service is drained by then: every admitted
    /// request resolved and streamed its event.
    ///
    /// # Errors
    ///
    /// A fatal `accept` failure (address-level, not per-connection).
    pub fn run(self) -> io::Result<()> {
        let mut workers = Vec::new();
        let mut conn_id: u64 = 0;
        loop {
            let (stream, _peer) = match self.listener.accept() {
                Ok(conn) => conn,
                Err(e) => {
                    if self.ctx.shutting_down.load(Ordering::Acquire) {
                        break;
                    }
                    return Err(e);
                }
            };
            let id = conn_id;
            conn_id += 1;
            {
                // Register, then re-check the flag under the same lock
                // stop() flips it under: a racing stop() either sees this
                // entry in the registry or the re-check sees its flag and
                // winds the connection down here. See ServerCtx::stop.
                let mut conns = self.ctx.conns.lock().expect("connection registry poisoned");
                if self.ctx.shutting_down.load(Ordering::Acquire) {
                    // The wake-up connection (or a late client): refuse.
                    drop(conns);
                    drop(stream);
                    break;
                }
                if let Ok(clone) = stream.try_clone() {
                    conns.insert(id, clone);
                }
            }
            let ctx = Arc::clone(&self.ctx);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("cts-net-conn-{id}"))
                    .spawn(move || {
                        serve_connection(&ctx, stream);
                        ctx.conns
                            .lock()
                            .expect("connection registry poisoned")
                            .remove(&id);
                    })
                    .expect("spawning a connection thread"),
            );
        }
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }
}

/// A ticket adapted to the completion pump.
struct PendingTicket(Ticket);

impl PollPending for PendingTicket {
    type Output = Result<SynthesisResult, ServiceError>;
    fn poll_pending(&mut self) -> Option<Self::Output> {
        self.0.try_wait()
    }
}

/// Messages from the reader to the connection's completion pump.
enum PumpMsg {
    /// Track a freshly submitted ticket.
    Track(u64, Ticket),
    /// Track a sweep's tickets: `(expansion ordinal, request id, ticket)`
    /// per point, under the connection's sweep ordinal. The pump pushes a
    /// `sweep_progress` event after each point's result event and the
    /// terminal `pareto` event once every point resolved.
    TrackSweep {
        /// The per-connection sweep ordinal from the `submit_sweep`
        /// reply.
        sweep: u64,
        /// One entry per expanded point, in expansion order.
        points: Vec<(u64, u64, Ticket)>,
    },
}

/// The pump's accumulator for one in-flight sweep.
struct SweepAgg {
    /// Points resolved so far (any outcome).
    done: u64,
    /// Total points.
    total: u64,
    /// Completed points' objective rows, `(request id, row)` — kept
    /// sorted by expansion ordinal at emission so the `pareto` frame is
    /// byte-identical for every worker count and completion order.
    rows: Vec<(u64, ParetoPoint)>,
}

/// One completion's sweep bookkeeping: the `sweep_progress` frame, plus
/// the terminal `pareto` frame when this point was the sweep's last.
fn sweep_frames(
    sweeps: &mut HashMap<u64, SweepAgg>,
    members: &HashMap<u64, (u64, u64)>,
    id: u64,
    outcome: &Result<SynthesisResult, ServiceError>,
) -> Vec<Json> {
    let Some(&(sweep, ordinal)) = members.get(&id) else {
        return Vec::new();
    };
    let Some(agg) = sweeps.get_mut(&sweep) else {
        return Vec::new();
    };
    agg.done += 1;
    if let Ok(result) = outcome {
        agg.rows
            .push((id, pareto_point(ordinal as usize, &result.item.result)));
    }
    let mut frames = vec![encode_event(&Event::SweepProgress(SweepProgressEvent {
        sweep,
        done: agg.done,
        total: agg.total,
        id,
        outcome: Outcome::from_service(outcome).label(),
    }))];
    if agg.done == agg.total {
        let mut agg = sweeps.remove(&sweep).expect("sweep aggregate vanished");
        // Expansion-ordinal order, not completion order: the frame's
        // bytes must not depend on worker scheduling.
        agg.rows.sort_by_key(|(_, row)| row.ordinal);
        let front = ParetoFront::from_points(agg.rows.iter().map(|&(_, row)| row));
        frames.push(encode_event(&Event::Pareto(ParetoEvent {
            sweep,
            total: agg.total,
            completed: agg.rows.len() as u64,
            points: agg
                .rows
                .iter()
                .map(|&(id, row)| ParetoWirePoint {
                    ordinal: row.ordinal as u64,
                    id,
                    skew: row.skew,
                    buffer_cap_f: row.buffer_cap,
                    latency: row.latency,
                })
                .collect(),
            front: front.front_ordinals().iter().map(|&o| o as u64).collect(),
        })));
    }
    frames
}

/// How often the pump sweeps its pending set when no control message
/// arrives. Bounds result-event latency; sweeps are cheap `try_recv`s.
const PUMP_SWEEP: Duration = Duration::from_millis(2);

/// How many completed results a connection retains for `fetch_tree`.
/// Bounded FIFO: once full, streaming the geometry of the oldest
/// completion stops being possible (`unknown_id`), which the protocol
/// documents — a client wanting the tree fetches it promptly.
const TREE_CACHE_CAP: usize = 64;

/// Companion bound in *nodes* across all retained trees, because entry
/// count alone is no memory bound at ISPD scale (~10⁵ nodes/tree). At
/// ~150 bytes a node this caps a connection's retained geometry around
/// 80 MB even if every completion is huge; eviction stays oldest-first.
const TREE_CACHE_NODE_CAP: usize = 512 * 1024;

/// Exactly what `fetch_tree` serves and nothing more — the result's
/// stats were already streamed in its event and are not retained, so a
/// connection pays for precisely the geometry it could still ask for.
#[derive(Clone)]
struct RetainedTree {
    name: String,
    tree: cts_core::ClockTree,
    source: cts_core::TreeNodeId,
    level_stats: Vec<cts_core::LevelStats>,
}

/// Completed results retained per connection so a later `fetch_tree` can
/// stream the routed geometry. The pump inserts as requests complete;
/// the reader looks up on `fetch_tree`. Bounded by [`TREE_CACHE_CAP`]
/// (oldest evicted first).
#[derive(Default)]
struct TreeCache {
    map: HashMap<u64, RetainedTree>,
    order: VecDeque<u64>,
    /// Node total across every retained tree, against
    /// [`TREE_CACHE_NODE_CAP`].
    nodes: usize,
}

impl TreeCache {
    fn insert(&mut self, id: u64, retained: RetainedTree) {
        let incoming = retained.tree.len();
        while self.map.len() >= TREE_CACHE_CAP
            || (self.nodes + incoming > TREE_CACHE_NODE_CAP && !self.map.is_empty())
        {
            match self.order.pop_front() {
                Some(old) => {
                    if let Some(evicted) = self.map.remove(&old) {
                        self.nodes -= evicted.tree.len();
                    }
                }
                None => break,
            }
        }
        if let Some(previous) = self.map.insert(id, retained) {
            // Request ids are unique per service, so a same-id overwrite
            // cannot happen; keep the accounting correct regardless.
            self.nodes -= previous.tree.len();
        } else {
            self.order.push_back(id);
        }
        self.nodes += incoming;
    }

    fn get(&self, id: u64) -> Option<&RetainedTree> {
        self.map.get(&id)
    }
}

/// Encodes one resolution: parks a completed result's geometry in the
/// tree cache (for later `fetch_tree` streaming), then returns its
/// result event.
fn resolve_event(
    trees: &Mutex<TreeCache>,
    id: u64,
    outcome: Result<SynthesisResult, ServiceError>,
) -> Json {
    let frame = encode_event(&Event::Result(ResultEvent {
        id,
        outcome: Outcome::from_service(&outcome),
    }));
    if let Ok(result) = outcome {
        let retained = RetainedTree {
            name: result.item.name,
            tree: result.item.result.tree,
            source: result.item.result.source,
            level_stats: result.item.result.level_stats,
        };
        trees
            .lock()
            .expect("tree cache poisoned")
            .insert(id, retained);
    }
    frame
}

fn pump_loop(rx: Receiver<PumpMsg>, wtx: Sender<Json>, trees: Arc<Mutex<TreeCache>>) {
    let mut pump: CompletionPump<u64, PendingTicket> = CompletionPump::new();
    // Sweep bookkeeping: request id → (sweep ordinal, expansion ordinal),
    // and each sweep's accumulator. Completion order is the pump's
    // push-order poll, so `done` counters are deterministic per schedule.
    let mut members: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut sweeps: HashMap<u64, SweepAgg> = HashMap::new();
    loop {
        match rx.recv_timeout(PUMP_SWEEP) {
            Ok(PumpMsg::Track(id, ticket)) => pump.push(id, PendingTicket(ticket)),
            Ok(PumpMsg::TrackSweep { sweep, points }) => {
                sweeps.insert(
                    sweep,
                    SweepAgg {
                        done: 0,
                        total: points.len() as u64,
                        rows: Vec::new(),
                    },
                );
                for (ordinal, id, ticket) in points {
                    members.insert(id, (sweep, ordinal));
                    pump.push(id, PendingTicket(ticket));
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        for (id, outcome) in pump.poll_completed() {
            // The point's sweep frames ride right behind its result
            // event, so a client that saw `done == total` (or `pareto`)
            // has every payload already.
            let extra = sweep_frames(&mut sweeps, &members, id, &outcome);
            if wtx.send(resolve_event(&trees, id, outcome)).is_err() {
                // Writer gone: nothing can reach the client anymore.
                break;
            }
            if extra.into_iter().any(|f| wtx.send(f).is_err()) {
                break;
            }
        }
    }
    // Reader gone (disconnect or shutdown). Flush what has already
    // resolved — the writer may still drain it — then cancel the rest:
    // a disconnected client's pending work must not keep burning the
    // service ("client disconnect mid-request → ticket cancelled").
    for (id, outcome) in pump.poll_completed() {
        let extra = sweep_frames(&mut sweeps, &members, id, &outcome);
        let _ = wtx.send(resolve_event(&trees, id, outcome));
        for f in extra {
            let _ = wtx.send(f);
        }
    }
    for (_, PendingTicket(ticket)) in pump.drain_pending() {
        ticket.cancel();
    }
}

fn writer_loop(stream: TcpStream, rx: Receiver<Json>) {
    let mut w = BufWriter::new(stream);
    while let Ok(frame) = rx.recv() {
        if write_frame(&mut w, &frame)
            .and_then(|()| w.flush())
            .is_err()
        {
            // Connection dead; drain silently so senders never block.
            for _ in rx.iter() {}
            return;
        }
    }
}

/// Handle-map size that triggers a prune of resolved entries, so a
/// long-lived connection streaming unbounded submissions does not grow
/// the reader's memory without bound.
const HANDLE_PRUNE_THRESHOLD: usize = 1024;

/// Per-connection request state the reader keeps.
struct ConnState {
    /// Handles of this connection's requests, for `status`/`cancel` (the
    /// tickets themselves live in the pump). Pruned of resolved entries
    /// once it grows past [`HANDLE_PRUNE_THRESHOLD`]: the protocol lets
    /// the server forget an id after its result event, so `status`/
    /// `cancel` on a long-resolved id may answer `unknown_id`.
    handles: HashMap<u64, RequestHandle>,
    /// Default client id from `hello`, used when a submit has none.
    client_id: Option<String>,
    /// Completed results retained for `fetch_tree` (shared with the
    /// pump, which fills it).
    trees: Arc<Mutex<TreeCache>>,
    /// Next sweep ordinal for `submit_sweep` replies; per-connection,
    /// starting at 1 so `0` never aliases a real sweep in client code.
    next_sweep: u64,
}

impl ConnState {
    fn remember(&mut self, id: u64, handle: RequestHandle) {
        if self.handles.len() >= HANDLE_PRUNE_THRESHOLD {
            self.handles
                .retain(|_, h| h.status() != cts_core::RequestStatus::Done);
        }
        self.handles.insert(id, handle);
    }
}

fn serve_connection(ctx: &ServerCtx, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (wtx, wrx) = channel::<Json>();
    let writer = std::thread::Builder::new()
        .name("cts-net-writer".into())
        .spawn(move || writer_loop(write_half, wrx))
        .expect("spawning a writer thread");
    let (ptx, prx) = channel::<PumpMsg>();
    let pump_wtx = wtx.clone();
    let trees = Arc::new(Mutex::new(TreeCache::default()));
    let pump_trees = Arc::clone(&trees);
    let pump = std::thread::Builder::new()
        .name("cts-net-pump".into())
        .spawn(move || pump_loop(prx, pump_wtx, pump_trees))
        .expect("spawning a pump thread");

    let mut state = ConnState {
        handles: HashMap::new(),
        client_id: None,
        trees,
        next_sweep: 1,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match read_frame(&mut reader) {
            Err(_) | Ok(None) => break, // transport over
            Ok(Some(Err(json_err))) => {
                // Malformed JSON on an intact line: structured error
                // reply, connection survives.
                let reply = error_reply(ErrorCode::BadJson, json_err.to_string());
                if wtx.send(encode_response(None, &reply)).is_err() {
                    break;
                }
            }
            Ok(Some(Ok(frame))) => {
                let stop = handle_frame(ctx, &mut state, &frame, &wtx, &ptx);
                if stop {
                    break;
                }
            }
        }
    }
    // Teardown: dropping the pump sender makes the pump flush resolved
    // results and cancel pending ones; dropping the writer sender (after
    // the pump's) lets the writer drain every queued frame first.
    drop(ptx);
    let _ = pump.join();
    drop(wtx);
    let _ = writer.join();
}

/// A wire submission's request: the instance, its (already patched)
/// options override, and the frame's scheduling fields; a submission
/// without a client id inherits the connection's `hello` id.
fn build_request(
    state: &ConnState,
    instance: Instance,
    options: Option<CtsOptions>,
    scheduling: Scheduling,
) -> SynthesisRequest {
    SynthesisRequest {
        instance,
        priority: scheduling.priority,
        deadline: scheduling.deadline_ms.map(Duration::from_millis),
        options,
        client_id: scheduling.client_id.or_else(|| state.client_id.clone()),
        publish_levels: scheduling.publish_levels,
    }
}

/// Which submit op an admission answers; decides the reply shape.
enum SubmitOp {
    Submit,
    Batch,
    Sweep,
}

/// Turns an admission outcome into the op's reply — the one place
/// admission errors map to wire errors. Admitted tickets are remembered
/// for `status`/`cancel` and handed to the completion pump (a sweep's
/// under a fresh per-connection sweep ordinal).
fn track_admitted(
    state: &mut ConnState,
    ptx: &Sender<PumpMsg>,
    admitted: Result<Vec<Ticket>, SubmitError>,
    op: SubmitOp,
) -> Response {
    let tickets = match admitted {
        Ok(tickets) => tickets,
        Err(e @ SubmitError::TooLarge(_)) => {
            return error_reply(ErrorCode::BadRequest, e.to_string())
        }
        Err(SubmitError::ShuttingDown(_)) => {
            return error_reply(
                ErrorCode::ShuttingDown,
                "service is draining; no new work admitted",
            )
        }
        Err(e @ SubmitError::WouldBlock(_)) => {
            unreachable!("blocking admission cannot report back-pressure: {e}")
        }
    };
    let ids: Vec<u64> = tickets.iter().map(|t| t.id().0).collect();
    for ticket in &tickets {
        state.remember(ticket.id().0, ticket.handle());
    }
    // The pump cannot be gone while the reader lives.
    if let SubmitOp::Sweep = op {
        let sweep = state.next_sweep;
        state.next_sweep += 1;
        let points = tickets
            .into_iter()
            .enumerate()
            .map(|(ordinal, ticket)| (ordinal as u64, ticket.id().0, ticket))
            .collect();
        let _ = ptx.send(PumpMsg::TrackSweep { sweep, points });
        return Response::SweepSubmitted { sweep, ids };
    }
    for ticket in tickets {
        let _ = ptx.send(PumpMsg::Track(ticket.id().0, ticket));
    }
    match op {
        SubmitOp::Submit => Response::Submitted { id: ids[0] },
        _ => Response::BatchSubmitted { ids },
    }
}

/// Handles one decoded frame; returns `true` when the connection should
/// close (after a `shutdown` op).
fn handle_frame(
    ctx: &ServerCtx,
    state: &mut ConnState,
    frame: &Json,
    wtx: &Sender<Json>,
    ptx: &Sender<PumpMsg>,
) -> bool {
    // `seq` is extracted even when decoding fails, so error replies
    // correlate whenever the client gave us anything to correlate with.
    let seq = frame.get("seq").and_then(Json::as_u64);
    let (seq, request) = match decode_request(frame) {
        Ok(decoded) => decoded,
        Err(DecodeError { code, message }) => {
            let _ = wtx.send(encode_response(seq, &Response::Error { code, message }));
            return false;
        }
    };
    let _span = cts_obs::span_with(&SPAN_HANDLE_FRAME, seq);
    let reply = match request {
        Request::Hello { version, client_id } => {
            if version != PROTOCOL_VERSION {
                error_reply(
                    ErrorCode::UnsupportedVersion,
                    format!("server speaks version {PROTOCOL_VERSION}, client asked for {version}"),
                )
            } else {
                state.client_id = client_id;
                Response::Hello {
                    version: PROTOCOL_VERSION,
                    server: server_ident(),
                    workers: ctx.service.workers() as u64,
                }
            }
        }
        // All three submit ops become a request list through one builder
        // and take the service's one blocking, atomic admission path: a
        // full queue back-pressures this connection's reader (the client
        // sees its next reply delayed — flow control, not failure).
        Request::Submit {
            instance,
            options,
            scheduling,
        } => {
            let options = (!options.is_empty()).then(|| options.apply(ctx.service.options()));
            let request = build_request(state, instance, options, scheduling);
            let admitted = ctx.service.admit(vec![request], Admission::Blocking);
            track_admitted(state, ptx, admitted, SubmitOp::Submit)
        }
        Request::SubmitBatch { entries, options } => {
            // The shared patch is applied once; every entry runs the same
            // patched options (per-entry scheduling stays individual).
            let patched = (!options.is_empty()).then(|| options.apply(ctx.service.options()));
            let requests = entries
                .into_iter()
                .map(|entry| {
                    build_request(state, entry.instance, patched.clone(), entry.scheduling)
                })
                .collect();
            let admitted = ctx.service.admit(requests, Admission::Blocking);
            track_admitted(state, ptx, admitted, SubmitOp::Batch)
        }
        Request::SubmitSweep {
            instance,
            base,
            range,
            scheduling,
        } => {
            // The base patch applies over the server defaults exactly as
            // a `submit` patch would, and each point patch applies over
            // that base through the same `OptionsPatch::apply` — so a
            // swept point's tree is byte-identical to the same patch
            // submitted alone.
            let base_options = base.apply(ctx.service.options());
            let template = build_request(state, instance, None, scheduling);
            let submitted = range
                .points()
                .map_err(SweepSubmitError::Spec)
                .and_then(|points| {
                    let points = points.iter().map(|p| p.apply(&base_options)).collect();
                    ctx.service.submit_sweep(template, points)
                });
            match submitted {
                Err(e @ SweepSubmitError::Spec(_)) => {
                    error_reply(ErrorCode::BadRequest, e.to_string())
                }
                Err(SweepSubmitError::Batch(e)) => {
                    track_admitted(state, ptx, Err(e), SubmitOp::Sweep)
                }
                Ok(tickets) => track_admitted(state, ptx, Ok(tickets), SubmitOp::Sweep),
            }
        }
        Request::FetchTree { id, chunk, levels } => {
            // Snapshot the tree under the cache lock (held only for the
            // clone, so the pump — which inserts completions under the
            // same lock — is never stalled behind a large serialization),
            // then encode and send the stream frame by frame: header
            // reply, chunk events, terminal event. Only one chunk's JSON
            // is in flight at a time on this side of the writer queue.
            let retained = state
                .trees
                .lock()
                .expect("tree cache poisoned")
                .get(id)
                .cloned();
            // Clamp: decode already rejects 0, and anything above
            // MAX_TREE_CHUNK could serialize past the reader-side
            // 8 MiB frame cap — a fatal transport error for the
            // requesting client, which a size request must never
            // cause.
            let chunk_size = chunk
                .map_or(DEFAULT_TREE_CHUNK, |c| c as usize)
                .min(MAX_TREE_CHUNK);
            if let Some(RetainedTree {
                name,
                tree,
                source,
                level_stats,
            }) = retained
            {
                let nodes = tree.nodes();
                // Level mode aligns chunk boundaries with the
                // completed-level watermarks recorded per level, so a
                // consumer can hand each level off (e.g. to a
                // verifier) as its last chunk arrives.
                let watermarks: Vec<usize> = if levels {
                    level_stats.iter().map(|s| s.nodes_total).collect()
                } else {
                    Vec::new()
                };
                let runs = level_chunk_runs(nodes.len(), &watermarks, chunk_size);
                let (total, chunks) = (nodes.len() as u64, runs.len() as u64);
                let header = TreeInfo::complete(id, name, total, chunks, source.index() as u64);
                send_tree_stream(wtx, seq, header, nodes, &runs, level_stats);
                return false;
            }
            match state.handles.get(&id) {
                // Level mode on a request still in flight streams the
                // latest level-complete snapshot as a *partial* header —
                // a watcher polls this while the tree grows. A request
                // that published nothing yet (or does not publish)
                // streams an empty partial, never an error.
                Some(handle) if levels && handle.status() != cts_core::RequestStatus::Done => {
                    let snap = handle.level_snapshot();
                    let (nodes, levels_done) = match &snap {
                        Some(s) => (s.nodes.as_slice(), s.levels_done as u64),
                        None => (&[][..], 0),
                    };
                    let runs = level_chunk_runs(nodes.len(), &[], chunk_size);
                    let header = TreeInfo {
                        id,
                        name: String::new(),
                        nodes: nodes.len() as u64,
                        chunks: runs.len() as u64,
                        source: 0,
                        partial: true,
                        levels_done,
                    };
                    send_tree_stream(wtx, seq, header, nodes, &runs, Vec::new());
                    return false;
                }
                _ => error_reply(
                    ErrorCode::UnknownId,
                    format!("no completed result retained for request {id} on this connection"),
                ),
            }
        }
        Request::Status { id } => match state.handles.get(&id) {
            Some(handle) => Response::Status {
                id,
                state: handle.status(),
            },
            None => unknown_id(id),
        },
        Request::Cancel { id } => match state.handles.get(&id) {
            Some(handle) => {
                handle.cancel();
                Response::Cancelled { id }
            }
            None => unknown_id(id),
        },
        Request::Metrics => Response::Metrics(MetricsReply {
            metrics: ctx.service.metrics(),
            workers: ctx.service.workers() as u64,
        }),
        Request::Stats => {
            let latencies = ctx.service.stats();
            // Span summaries come from the process-global recorder; a
            // server running without tracing answers with an empty list
            // (and `dropped: 0`), keeping the frame deterministic.
            let (spans, dropped) = match cts_obs::Recorder::global() {
                Some(recorder) => {
                    recorder.collect();
                    let spans = recorder
                        .summaries()
                        .into_iter()
                        .map(|s| SpanStat {
                            name: s.name.to_string(),
                            durations: s.durations,
                        })
                        .collect();
                    (spans, recorder.dropped())
                }
                None => (Vec::new(), 0),
            };
            Response::Stats(Box::new(StatsReply {
                workers: ctx.service.workers() as u64,
                metrics: ctx.service.metrics(),
                queue_wait: latencies.queue_wait_by_priority,
                synth_latency: latencies.synth_latency,
                verify_latency: latencies.verify_latency,
                spans,
                dropped,
            }))
        }
        Request::Shutdown => {
            // Drain first: every admitted request (this connection's and
            // everyone else's) resolves and streams its event before the
            // shutdown reply confirms completion.
            ctx.drain();
            let _ = wtx.send(encode_response(Some(seq), &Response::ShuttingDown));
            ctx.stop();
            return true;
        }
    };
    let _ = wtx.send(encode_response(Some(seq), &reply));
    false
}

/// Sends a `fetch_tree` stream: the header reply, one `tree` chunk event
/// per `(start, end)` run of `nodes`, and the terminal event. Stops early
/// once the writer is gone.
fn send_tree_stream(
    wtx: &Sender<Json>,
    seq: u64,
    header: TreeInfo,
    nodes: &[TreeNode],
    runs: &[(usize, usize)],
    level_stats: Vec<LevelStats>,
) {
    let id = header.id;
    let chunks = runs.iter().enumerate().map(|(k, &(start, end))| {
        let nodes = nodes[start..end].to_vec();
        TreeEvent::Chunk(TreeChunkEvent {
            id,
            chunk: k as u64,
            nodes,
        })
    });
    let done = TreeEvent::Done(TreeDoneEvent { id, level_stats });
    let events = chunks.chain(std::iter::once(done));
    let header = encode_response(Some(seq), &Response::TreeHeader(header));
    let mut frames = std::iter::once(header).chain(events.map(|e| encode_event(&Event::Tree(e))));
    // Stops at the first frame the writer can no longer take.
    let _ = frames.try_for_each(|frame| wtx.send(frame));
}

/// Splits `total` nodes into `(start, end)` chunk runs. `watermarks` are
/// hard boundaries no run may straddle (the per-level arena lengths in
/// level mode; empty for plain node mode); runs longer than `cap` are
/// sub-split. With no watermarks this degenerates to the classic uniform
/// `total.div_ceil(cap)` split, so node-mode streams are byte-identical
/// to the pre-level-mode wire format.
fn level_chunk_runs(total: usize, watermarks: &[usize], cap: usize) -> Vec<(usize, usize)> {
    let mut cuts: Vec<usize> = watermarks
        .iter()
        .copied()
        .filter(|&w| w > 0 && w < total)
        .collect();
    cuts.push(total);
    cuts.sort_unstable();
    cuts.dedup();
    let mut runs = Vec::new();
    let mut start = 0usize;
    for cut in cuts {
        while start < cut {
            let end = (start + cap).min(cut);
            runs.push((start, end));
            start = end;
        }
    }
    runs
}

fn unknown_id(id: u64) -> Response {
    error_reply(
        ErrorCode::UnknownId,
        format!("request {id} was not submitted on this connection"),
    )
}

fn error_reply(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
    }
}
