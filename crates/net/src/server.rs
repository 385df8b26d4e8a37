//! The threaded TCP server: one [`SynthesisService`] behind the wire
//! protocol.
//!
//! Thread shape, per connection:
//!
//! * a **reader** (the connection thread itself) — decodes request
//!   frames and answers what it can at once: `hello`, admission, and
//!   `status`/`cancel` from its map of request handles. Everything else
//!   goes to the writer, in request order, over one channel. A malformed
//!   frame gets a structured error reply and the connection keeps going;
//!   only transport failures (I/O error, oversized frame) end it.
//! * a **writer** — owns the socket's write half and every request after
//!   admission: it writes each submit reply, then polls the admitted
//!   [`Ticket`]s and pushes a result event (plus a sweep's progress and
//!   `pareto` frames) as each resolves, files completed trees, and
//!   streams `fetch_tree` from them. When the reader goes away (client
//!   disconnect), the writer flushes what already resolved and **cancels
//!   every still-pending ticket** — a dead client's queued work never
//!   occupies the service.
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
        let ctx = &*self.ctx;
        // Connection threads are scoped: the scope joins each as it ends,
        // so nothing here holds a handle per connection ever accepted.
        std::thread::scope(|scope| {
            for id in 0u64.. {
                let stream = match self.listener.accept() {
                    Ok((stream, _peer)) => stream,
                    Err(_) if ctx.shutting_down.load(Ordering::Acquire) => break,
                    Err(e) => {
                        // Wind the live connections down, or the scope
                        // would wait on their readers forever.
                        ctx.stop();
                        return Err(e);
                    }
                };
                {
                    // Register, then re-check the flag under the same lock
                    // stop() flips it under: a racing stop() either sees
                    // this entry in the registry or the re-check sees its
                    // flag and winds the connection down here. See
                    // ServerCtx::stop.
                    let mut conns = ctx.conns.lock().expect("connection registry poisoned");
                    if ctx.shutting_down.load(Ordering::Acquire) {
                        // The wake-up connection (or a late client): refuse.
                        break;
                    }
                    if let Ok(clone) = stream.try_clone() {
                        conns.insert(id, clone);
                    }
                }
                std::thread::Builder::new()
                    .name(format!("cts-net-conn-{id}"))
                    .spawn_scoped(scope, move || {
                        serve_connection(ctx, stream);
                        ctx.conns
                            .lock()
                            .expect("connection registry poisoned")
                            .remove(&id);
                    })
                    .expect("spawning a connection thread");
            }
            Ok(())
        })
    }
}

/// What the reader hands the connection's writer. One channel carries
/// every kind, so the writer sees them in request order and replies
/// leave in request order.
enum Out {
    /// A finished frame (a reply or an error reply), written as is.
    Frame(Json),
    /// An admitted submission: its reply, which the writer writes before
    /// it first polls the tickets, so no result event can precede it. A
    /// sweep's tickets come under their per-connection sweep ordinal and
    /// in expansion order.
    Admitted {
        reply: Json,
        tickets: Vec<Ticket>,
        sweep: Option<u64>,
    },
    /// A `fetch_tree`, answered from the writer's own state.
    FetchTree {
        seq: u64,
        id: u64,
        /// Nodes per chunk, already clamped.
        chunk: usize,
        levels: bool,
    },
}

/// The writer's accumulator for one in-flight sweep.
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

/// A sweep point's place: `(sweep ordinal, expansion ordinal)`.
type SweepSlot = (u64, u64);

/// One sweep point's completion: the `sweep_progress` frame, plus the
/// terminal `pareto` frame when this point was the sweep's last.
fn sweep_frames(
    sweeps: &mut HashMap<u64, SweepAgg>,
    (sweep, ordinal): SweepSlot,
    id: u64,
    outcome: &Result<SynthesisResult, ServiceError>,
) -> Vec<Json> {
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

/// How often the writer polls its pending tickets while any is pending;
/// with none pending it blocks on its channel instead. Bounds
/// result-event latency; polls are cheap `try_recv`s.
const POLL: Duration = Duration::from_millis(2);

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
struct RetainedTree {
    name: String,
    tree: cts_core::ClockTree,
    source: cts_core::TreeNodeId,
    level_stats: Vec<LevelStats>,
}

/// Completed results retained per connection so a later `fetch_tree` can
/// stream the routed geometry. Owned by the writer, which inserts as
/// requests complete and streams from it. Bounded by [`TREE_CACHE_CAP`]
/// and [`TREE_CACHE_NODE_CAP`] (oldest evicted first).
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

/// The socket's write half. Each frame is written and flushed on its
/// own; once a write fails the connection is dead and later frames are
/// dropped.
struct FrameOut {
    w: BufWriter<TcpStream>,
    dead: bool,
}

impl FrameOut {
    fn send(&mut self, frame: &Json) {
        if !self.dead
            && write_frame(&mut self.w, frame)
                .and_then(|()| self.w.flush())
                .is_err()
        {
            self.dead = true;
        }
    }
}

/// A connection's writer thread: the one owner of every request after
/// admission. See the module docs.
struct Writer {
    out: FrameOut,
    /// Admitted tickets not yet resolved, in admission order, each with
    /// its slot when it is a sweep point.
    pending: Vec<(u64, Ticket, Option<SweepSlot>)>,
    /// Accumulators of the sweeps with points still pending.
    sweeps: HashMap<u64, SweepAgg>,
    /// Completed results retained for `fetch_tree`.
    trees: TreeCache,
}

impl Writer {
    fn run(mut self, rx: Receiver<Out>) {
        loop {
            let msg = if self.pending.is_empty() {
                rx.recv().map_err(|_| RecvTimeoutError::Disconnected)
            } else {
                rx.recv_timeout(POLL)
            };
            // Resolve before acting on the message: a `fetch_tree` then
            // finds every tree that has completed by now, and the
            // shutdown reply follows the events its drain resolved.
            self.resolve();
            match msg {
                Ok(Out::Frame(frame)) => self.out.send(&frame),
                Ok(Out::Admitted {
                    reply,
                    tickets,
                    sweep,
                }) => {
                    self.out.send(&reply);
                    if let Some(sweep) = sweep {
                        let agg = SweepAgg {
                            done: 0,
                            total: tickets.len() as u64,
                            rows: Vec::new(),
                        };
                        self.sweeps.insert(sweep, agg);
                    }
                    for (ordinal, ticket) in tickets.into_iter().enumerate() {
                        let member = sweep.map(|sweep| (sweep, ordinal as u64));
                        self.pending.push((ticket.id().0, ticket, member));
                    }
                }
                Ok(Out::FetchTree {
                    seq,
                    id,
                    chunk,
                    levels,
                }) => self.fetch_tree(seq, id, chunk, levels),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        // Reader gone (disconnect or shutdown); what had resolved was
        // flushed just above. Cancel the rest: a disconnected client's
        // pending work must not keep burning the service ("client
        // disconnect mid-request → ticket cancelled").
        for (_, ticket, _) in self.pending {
            ticket.cancel();
        }
    }

    /// Polls every pending ticket once, in admission order. Each resolved
    /// one writes its result event, then its sweep frames right behind it
    /// (so a client that saw `done == total`, or `pareto`, has every
    /// payload already), and files a completed tree for `fetch_tree`.
    fn resolve(&mut self) {
        let mut i = 0;
        while i < self.pending.len() {
            let Some(outcome) = self.pending[i].1.try_wait() else {
                i += 1;
                continue;
            };
            let (id, _, member) = self.pending.remove(i);
            self.out.send(&encode_event(&Event::Result(ResultEvent {
                id,
                outcome: Outcome::from_service(&outcome),
            })));
            if let Some(member) = member {
                for frame in sweep_frames(&mut self.sweeps, member, id, &outcome) {
                    self.out.send(&frame);
                }
            }
            if let Ok(result) = outcome {
                let retained = RetainedTree {
                    name: result.item.name,
                    tree: result.item.result.tree,
                    source: result.item.result.source,
                    level_stats: result.item.result.level_stats,
                };
                self.trees.insert(id, retained);
            }
        }
    }

    /// Streams `fetch_tree`: a retained tree in full; in level mode, a
    /// request still pending here as its latest level-complete snapshot
    /// (a *partial* header — a watcher polls this while the tree grows;
    /// one that published nothing yet streams an empty partial, never an
    /// error); anything else answers `unknown_id`.
    fn fetch_tree(&mut self, seq: u64, id: u64, chunk: usize, levels: bool) {
        if let Some(retained) = self.trees.get(id) {
            let nodes = retained.tree.nodes();
            // Level mode aligns chunk boundaries with the completed-level
            // watermarks recorded per level, so a consumer can hand each
            // level off (e.g. to a verifier) as its last chunk arrives.
            let watermarks: Vec<usize> = if levels {
                retained.level_stats.iter().map(|s| s.nodes_total).collect()
            } else {
                Vec::new()
            };
            let runs = level_chunk_runs(nodes.len(), &watermarks, chunk);
            let (total, chunks) = (nodes.len() as u64, runs.len() as u64);
            let name = retained.name.clone();
            let source = retained.source.index() as u64;
            let header = TreeInfo::complete(id, name, total, chunks, source);
            let level_stats = retained.level_stats.clone();
            send_tree_stream(&mut self.out, seq, header, nodes, &runs, level_stats);
            return;
        }
        let pending = self.pending.iter().find(|(pending, ..)| *pending == id);
        if let Some((_, ticket, _)) = pending.filter(|_| levels) {
            let snap = ticket.level_snapshot();
            let (nodes, levels_done) = match &snap {
                Some(s) => (s.nodes.as_slice(), s.levels_done as u64),
                None => (&[][..], 0),
            };
            let runs = level_chunk_runs(nodes.len(), &[], chunk);
            let header = TreeInfo {
                id,
                name: String::new(),
                nodes: nodes.len() as u64,
                chunks: runs.len() as u64,
                source: 0,
                partial: true,
                levels_done,
            };
            send_tree_stream(&mut self.out, seq, header, nodes, &runs, Vec::new());
            return;
        }
        let reply = error_reply(
            ErrorCode::UnknownId,
            format!("no completed result retained for request {id} on this connection"),
        );
        self.out.send(&encode_response(Some(seq), &reply));
    }
}

/// Handle-map size that triggers a prune of resolved entries, so a
/// long-lived connection streaming unbounded submissions does not grow
/// the reader's memory without bound.
const HANDLE_PRUNE_THRESHOLD: usize = 1024;

/// Per-connection request state the reader keeps.
struct ConnState {
    /// Handles of this connection's requests, for `status`/`cancel` (the
    /// tickets themselves live in the writer). Pruned of resolved entries
    /// once it grows past [`HANDLE_PRUNE_THRESHOLD`]: the protocol lets
    /// the server forget an id after its result event, so `status`/
    /// `cancel` on a long-resolved id may answer `unknown_id`.
    handles: HashMap<u64, RequestHandle>,
    /// Default client id from `hello`, used when a submit has none.
    client_id: Option<String>,
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
    let (tx, rx) = channel::<Out>();
    let writer = Writer {
        out: FrameOut {
            w: BufWriter::new(write_half),
            dead: false,
        },
        pending: Vec::new(),
        sweeps: HashMap::new(),
        trees: TreeCache::default(),
    };
    std::thread::scope(|scope| {
        let writer = std::thread::Builder::new()
            .name("cts-net-writer".into())
            .spawn_scoped(scope, move || writer.run(rx))
            .expect("spawning a writer thread");
        let mut state = ConnState {
            handles: HashMap::new(),
            client_id: None,
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
                    if tx.send(Out::Frame(encode_response(None, &reply))).is_err() {
                        break;
                    }
                }
                Ok(Some(Ok(frame))) => {
                    if handle_frame(ctx, &mut state, &frame, &tx) {
                        break;
                    }
                }
            }
        }
        // Teardown: dropping the sender lets the writer flush what has
        // resolved, cancel what is still pending, and exit. Joined here,
        // so a writer panic stays within this connection instead of
        // propagating out of `Server::run`.
        drop(tx);
        let _ = writer.join();
    });
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

/// Turns an admission outcome into what the writer gets — the one place
/// admission errors map to wire errors. Admitted tickets are remembered
/// for `status`/`cancel` and travel to the writer behind their reply (a
/// sweep's under a fresh per-connection sweep ordinal).
fn track_admitted(
    state: &mut ConnState,
    seq: u64,
    admitted: Result<Vec<Ticket>, SubmitError>,
    op: SubmitOp,
) -> Out {
    let tickets = match admitted {
        Ok(tickets) => tickets,
        Err(e @ SubmitError::TooLarge(_)) => {
            let reply = error_reply(ErrorCode::BadRequest, e.to_string());
            return Out::Frame(encode_response(Some(seq), &reply));
        }
        Err(SubmitError::ShuttingDown(_)) => {
            let reply = error_reply(
                ErrorCode::ShuttingDown,
                "service is draining; no new work admitted",
            );
            return Out::Frame(encode_response(Some(seq), &reply));
        }
        Err(e @ SubmitError::WouldBlock(_)) => {
            unreachable!("blocking admission cannot report back-pressure: {e}")
        }
    };
    let ids: Vec<u64> = tickets.iter().map(|t| t.id().0).collect();
    for ticket in &tickets {
        state.remember(ticket.id().0, ticket.handle());
    }
    let (reply, sweep) = match op {
        SubmitOp::Submit => (Response::Submitted { id: ids[0] }, None),
        SubmitOp::Batch => (Response::BatchSubmitted { ids }, None),
        SubmitOp::Sweep => {
            let sweep = state.next_sweep;
            state.next_sweep += 1;
            (Response::SweepSubmitted { sweep, ids }, Some(sweep))
        }
    };
    Out::Admitted {
        reply: encode_response(Some(seq), &reply),
        tickets,
        sweep,
    }
}

/// Handles one decoded frame; returns `true` when the connection should
/// close (after a `shutdown` op).
fn handle_frame(ctx: &ServerCtx, state: &mut ConnState, frame: &Json, tx: &Sender<Out>) -> bool {
    // `seq` is extracted even when decoding fails, so error replies
    // correlate whenever the client gave us anything to correlate with.
    let seq = frame.get("seq").and_then(Json::as_u64);
    let (seq, request) = match decode_request(frame) {
        Ok(decoded) => decoded,
        Err(DecodeError { code, message }) => {
            let reply = Response::Error { code, message };
            let _ = tx.send(Out::Frame(encode_response(seq, &reply)));
            return false;
        }
    };
    let _span = cts_obs::span_with(&SPAN_HANDLE_FRAME, seq);
    let reply = |reply: Response| Out::Frame(encode_response(Some(seq), &reply));
    let out = match request {
        Request::Hello { version, client_id } => reply(if version != PROTOCOL_VERSION {
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
        }),
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
            track_admitted(state, seq, admitted, SubmitOp::Submit)
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
            track_admitted(state, seq, admitted, SubmitOp::Batch)
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
                    reply(error_reply(ErrorCode::BadRequest, e.to_string()))
                }
                Err(SweepSubmitError::Batch(e)) => {
                    track_admitted(state, seq, Err(e), SubmitOp::Sweep)
                }
                Ok(tickets) => track_admitted(state, seq, Ok(tickets), SubmitOp::Sweep),
            }
        }
        // Clamp: decode already rejects 0, and anything above
        // MAX_TREE_CHUNK could serialize past the reader-side 8 MiB frame
        // cap — a fatal transport error for the requesting client, which
        // a size request must never cause.
        Request::FetchTree { id, chunk, levels } => Out::FetchTree {
            seq,
            id,
            chunk: chunk
                .map_or(DEFAULT_TREE_CHUNK, |c| c as usize)
                .min(MAX_TREE_CHUNK),
            levels,
        },
        Request::Status { id } => reply(match state.handles.get(&id) {
            Some(handle) => Response::Status {
                id,
                state: handle.status(),
            },
            None => unknown_id(id),
        }),
        Request::Cancel { id } => reply(match state.handles.get(&id) {
            Some(handle) => {
                handle.cancel();
                Response::Cancelled { id }
            }
            None => unknown_id(id),
        }),
        Request::Metrics => reply(Response::Metrics(MetricsReply {
            metrics: ctx.service.metrics(),
            workers: ctx.service.workers() as u64,
        })),
        Request::Stats => {
            let latencies = ctx.service.stats();
            // Span summaries come from the process-global recorder; a
            // server running without tracing answers with an empty list
            // (and `dropped: 0`), keeping the frame deterministic.
            let (spans, dropped) = match cts_obs::Recorder::global() {
                Some(recorder) => {
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
            reply(Response::Stats(Box::new(StatsReply {
                workers: ctx.service.workers() as u64,
                metrics: ctx.service.metrics(),
                queue_wait: latencies.queue_wait_by_priority,
                synth_latency: latencies.synth_latency,
                verify_latency: latencies.verify_latency,
                spans,
                dropped,
            })))
        }
        Request::Shutdown => {
            // Drain first: every admitted request (this connection's and
            // everyone else's) resolves and streams its event before the
            // shutdown reply confirms completion.
            ctx.drain();
            let _ = tx.send(reply(Response::ShuttingDown));
            ctx.stop();
            return true;
        }
    };
    let _ = tx.send(out);
    false
}

/// Writes a `fetch_tree` stream: the header reply, one `tree` chunk event
/// per `(start, end)` run of `nodes`, and the terminal event — one frame
/// encoded at a time.
fn send_tree_stream(
    out: &mut FrameOut,
    seq: u64,
    header: TreeInfo,
    nodes: &[TreeNode],
    runs: &[(usize, usize)],
    level_stats: Vec<LevelStats>,
) {
    let id = header.id;
    out.send(&encode_response(Some(seq), &Response::TreeHeader(header)));
    for (k, &(start, end)) in runs.iter().enumerate() {
        let chunk = TreeEvent::Chunk(TreeChunkEvent {
            id,
            chunk: k as u64,
            nodes: nodes[start..end].to_vec(),
        });
        out.send(&encode_event(&Event::Tree(chunk)));
    }
    let done = TreeEvent::Done(TreeDoneEvent { id, level_stats });
    out.send(&encode_event(&Event::Tree(done)));
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

#[cfg(test)]
mod tests {
    use super::*;
    use cts_core::ClockTree;
    use cts_geom::Point;

    fn retained(nodes: usize) -> RetainedTree {
        let mut tree = ClockTree::new();
        for _ in 0..nodes {
            tree.add_joint(Point::new(0.0, 0.0));
        }
        RetainedTree {
            name: String::new(),
            tree,
            source: cts_core::TreeNodeId::from_index(0),
            level_stats: Vec::new(),
        }
    }

    /// Inserts `(id, nodes)` and checks the node total against the trees
    /// actually retained.
    fn insert(cache: &mut TreeCache, id: u64, nodes: usize) {
        cache.insert(id, retained(nodes));
        let held: usize = cache.map.values().map(|r| r.tree.len()).sum();
        assert_eq!(cache.nodes, held, "node total drifted after inserting {id}");
        assert_eq!(cache.order.len(), cache.map.len());
    }

    #[test]
    fn tree_cache_evicts_the_oldest_entry_past_its_entry_cap() {
        let mut cache = TreeCache::default();
        for id in 0..TREE_CACHE_CAP as u64 {
            insert(&mut cache, id, 3);
        }
        assert_eq!(cache.map.len(), TREE_CACHE_CAP);
        assert!(cache.get(0).is_some());
        // The 65th entry evicts the oldest, and only it.
        insert(&mut cache, 1000, 5);
        assert_eq!(cache.map.len(), TREE_CACHE_CAP);
        assert!(cache.get(0).is_none());
        assert!(cache.get(1).is_some() && cache.get(1000).is_some());
        assert_eq!(cache.nodes, 3 * (TREE_CACHE_CAP - 1) + 5);
    }

    #[test]
    fn tree_cache_evicts_oldest_first_past_its_node_cap() {
        let mut cache = TreeCache::default();
        let half = TREE_CACHE_NODE_CAP / 2;
        insert(&mut cache, 1, 10);
        insert(&mut cache, 2, half);
        insert(&mut cache, 3, 7);
        assert_eq!(cache.nodes, half + 17);
        // Pushing the total past the cap evicts from the front until the
        // newcomer fits: entry 1 first, then entry 2; entry 3 stays.
        insert(&mut cache, 4, half);
        assert!(cache.get(1).is_none() && cache.get(2).is_none());
        assert!(cache.get(3).is_some() && cache.get(4).is_some());
        assert_eq!(cache.nodes, half + 7);
    }
}
