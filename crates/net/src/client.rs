//! A blocking Rust client for the wire protocol.
//!
//! [`Client`] owns one connection: it performs the `hello` handshake at
//! connect, correlates replies by `seq`, and stashes result events that
//! arrive while it is waiting for something else — so any submit/wait
//! interleaving works, including submitting many requests before waiting
//! any ([`Client::wait_result`] returns them in whatever order the
//! server resolved them).
//!
//! The client is deliberately synchronous and single-threaded: one
//! conversation per connection. Concurrency comes from opening more
//! connections (see `examples/remote_flow.rs`, which runs several client
//! threads against one server).

use crate::frame::{read_frame, write_frame};
use crate::json::Json;
use crate::proto::{
    decode_event, decode_response, encode_request, is_event, BatchEntry, ErrorCode, Event,
    MetricsReply, OptionsPatch, Outcome, ParetoEvent, RemoteTree, Request, Response, Scheduling,
    StatsReply, SweepProgressEvent, SweepRange, TreeEvent, TreeInfo, PROTOCOL_VERSION,
};
use cts_core::{ClockTree, Instance, LevelStats, RequestStatus, TreeNode, TreeNodeId};
use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A client-side failure.
#[derive(Debug)]
pub enum NetError {
    /// The transport failed (connect, read, write, disconnect).
    Io(io::Error),
    /// The server sent something the protocol does not allow.
    Protocol(String),
    /// The server answered with a structured error reply.
    Remote {
        /// The machine-readable code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport error: {e}"),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            NetError::Remote { code, message } => write!(f, "server error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> NetError {
        NetError::Io(e)
    }
}

/// What the server said about itself in the `hello` reply.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServerInfo {
    /// Protocol version the server speaks.
    pub version: u64,
    /// Server software identifier.
    pub server: String,
    /// The service's worker count.
    pub workers: u64,
}

/// One typed submission: the instance plus every knob the wire carries.
/// This is the single entry shape behind [`Client::submit_spec`] (one),
/// [`Client::submit_specs`] (many), and [`Client::submit_sweep`] (a
/// swept template).
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitSpec {
    /// The instance to synthesize.
    pub instance: Instance,
    /// Per-request options overrides (for a sweep, the *base* the points
    /// perturb).
    pub options: OptionsPatch,
    /// Priority, deadline (ms from submission), client id (defaults to
    /// the connection's `hello` client id) and level publishing, which
    /// enables [`Client::fetch_tree_progress`] to watch the tree grow.
    pub scheduling: Scheduling,
}

impl SubmitSpec {
    /// A plain priority-0 submission of `instance` under server-default
    /// options.
    pub fn new(instance: Instance) -> SubmitSpec {
        SubmitSpec {
            instance,
            options: OptionsPatch::default(),
            scheduling: Scheduling::default(),
        }
    }

    /// Sets the dispatch priority.
    #[must_use]
    pub fn with_priority(mut self, priority: i32) -> SubmitSpec {
        self.scheduling.priority = priority;
        self
    }

    /// Sets a deadline in milliseconds from submission.
    #[must_use]
    pub fn with_deadline_ms(mut self, ms: u64) -> SubmitSpec {
        self.scheduling.deadline_ms = Some(ms);
        self
    }

    /// Sets the options patch.
    #[must_use]
    pub fn with_options(mut self, options: OptionsPatch) -> SubmitSpec {
        self.options = options;
        self
    }

    /// Sets the client id.
    #[must_use]
    pub fn with_client_id(mut self, client_id: impl Into<String>) -> SubmitSpec {
        self.scheduling.client_id = Some(client_id.into());
        self
    }

    /// Turns mid-synthesis level publication on or off.
    #[must_use]
    pub fn with_publish_levels(mut self, publish: bool) -> SubmitSpec {
        self.scheduling.publish_levels = publish;
        self
    }
}

/// How [`Client::fetch_tree`] asks the server to chunk the node stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChunkMode {
    /// Server-default chunk size, plain node-count boundaries.
    #[default]
    Default,
    /// Explicit nodes-per-chunk (the server clamps to its maximum).
    Nodes(u64),
    /// Level-granular: chunk boundaries align with completed topology
    /// levels, so each level can be handed off as its last chunk lands.
    Levels,
}

impl ChunkMode {
    fn wire(self) -> (Option<u64>, bool) {
        match self {
            ChunkMode::Default => (None, false),
            ChunkMode::Nodes(n) => (Some(n), false),
            ChunkMode::Levels => (None, true),
        }
    }
}

/// A sweep admitted by the server: the correlation ordinal for its
/// pushed events plus the per-point request ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSubmission {
    /// The per-connection sweep ordinal `sweep_progress`/`pareto` events
    /// carry.
    pub sweep: u64,
    /// One request id per expanded point, in expansion order.
    pub ids: Vec<u64>,
}

/// A level-granular look at a request's tree, possibly mid-synthesis —
/// what [`Client::fetch_tree_progress`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeProgress {
    /// The request id.
    pub id: u64,
    /// Instance name (empty on partial snapshots — the server does not
    /// retain it until completion).
    pub name: String,
    /// `true` while the request is still synthesizing: `nodes` is the
    /// latest level-complete snapshot (a rooted forest, no source yet).
    pub partial: bool,
    /// Topology levels fully grafted into `nodes` (0 on a completed
    /// tree, where `level_stats` carries the per-level story instead).
    pub levels_done: u64,
    /// The streamed nodes. For a completed request this is the full
    /// arena; rebuild with [`ClockTree::from_nodes`].
    pub nodes: Vec<TreeNode>,
    /// The source node, once synthesis completed.
    pub source: Option<TreeNodeId>,
    /// Per-level statistics (empty on partial snapshots).
    pub level_stats: Vec<LevelStats>,
}

/// Sends `$request` on `$client` and takes the reply its op expects
/// apart with `$reply => $value`; any other reply is a protocol error.
macro_rules! ask {
    ($client:expr, $request:expr, $reply:pat => $value:expr) => {{
        let request = $request;
        match $client.call(&request)? {
            $reply => Ok($value),
            other => Err(NetError::Protocol(format!(
                "unexpected {} reply: {other:?}",
                request.op()
            ))),
        }
    }};
}

/// One blocking protocol connection. See the module docs.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_seq: u64,
    /// Result events that arrived while waiting for something else.
    /// Stashed **by id unconditionally**: other requests' events
    /// interleave with any reply, whichever request this client is
    /// waiting on.
    stashed: HashMap<u64, Outcome>,
    /// `sweep_progress` events by sweep ordinal, in arrival order.
    sweep_progress: HashMap<u64, Vec<SweepProgressEvent>>,
    /// Terminal `pareto` events by sweep ordinal.
    paretos: HashMap<u64, ParetoEvent>,
    info: ServerInfo,
}

impl Client {
    /// Connects and performs the `hello` handshake.
    ///
    /// # Errors
    ///
    /// Transport failures, or the server rejecting the protocol version.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, NetError> {
        Client::connect_as(addr, None)
    }

    /// [`Client::connect`] with a client id, which the server attaches
    /// to this connection's submissions by default.
    ///
    /// # Errors
    ///
    /// Transport failures, or the server rejecting the protocol version.
    pub fn connect_as(
        addr: impl ToSocketAddrs,
        client_id: Option<&str>,
    ) -> Result<Client, NetError> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        let mut client = Client {
            writer: stream,
            reader,
            next_seq: 0,
            stashed: HashMap::new(),
            sweep_progress: HashMap::new(),
            paretos: HashMap::new(),
            info: ServerInfo::default(),
        };
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
            client_id: client_id.map(str::to_string),
        };
        client.info = ask!(client, hello, Response::Hello { version, server, workers } => {
            ServerInfo { version, server, workers }
        })?;
        Ok(client)
    }

    /// What the server reported at handshake.
    pub fn server(&self) -> &ServerInfo {
        &self.info
    }

    /// Submits one typed [`SubmitSpec`]; returns the service-assigned
    /// request id. The result arrives later — fetch it with
    /// [`Client::wait_result`].
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or a structured rejection (draining
    /// server, invalid spec).
    pub fn submit_spec(&mut self, spec: SubmitSpec) -> Result<u64, NetError> {
        let submit = Request::Submit {
            instance: spec.instance,
            options: spec.options,
            scheduling: spec.scheduling,
        };
        ask!(self, submit, Response::Submitted { id } => id)
    }

    /// Submits many typed [`SubmitSpec`]s. Returns the service-assigned
    /// request ids, one per spec in order; results arrive later, each as
    /// its own event.
    ///
    /// When every spec carries the **same options patch** (the common
    /// sweep shape), this sends one `submit_batch` frame and the specs
    /// are admitted **atomically** — all or nothing against queue
    /// capacity, with consecutive ids. Specs with differing options fall
    /// back to sequential `submit` frames: every spec is still admitted
    /// in order, but admission is no longer all-or-nothing (a mid-list
    /// rejection surfaces as the error after the earlier specs were
    /// already admitted). An empty list returns `Ok(vec![])` without
    /// touching the wire.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or a structured rejection: a batch
    /// larger than the server queue's total capacity is `bad_request`
    /// (nothing was admitted), a draining server is `shutting_down`.
    pub fn submit_specs(&mut self, specs: Vec<SubmitSpec>) -> Result<Vec<u64>, NetError> {
        if specs.is_empty() {
            return Ok(Vec::new());
        }
        let uniform = specs.windows(2).all(|w| w[0].options == w[1].options);
        if !uniform {
            return specs
                .into_iter()
                .map(|spec| self.submit_spec(spec))
                .collect();
        }
        let options = specs[0].options.clone();
        let entries = specs
            .into_iter()
            .map(|spec| BatchEntry {
                instance: spec.instance,
                scheduling: spec.scheduling,
            })
            .collect();
        let batch = Request::SubmitBatch { entries, options };
        ask!(self, batch, Response::BatchSubmitted { ids } => ids)
    }

    /// Submits a parameter sweep in **one frame**: the server expands
    /// `range` over the spec's options (the *base* patch) into
    /// deterministic per-point requests, admitted atomically like a
    /// batch. Each point streams its own result event; `sweep_progress`
    /// events arrive as points resolve, and the terminal `pareto` event
    /// ([`Client::wait_pareto`]) carries the folded front over (skew,
    /// buffer capacitance, latency).
    ///
    /// Every swept point synthesizes a tree **byte-identical** to the
    /// same options submitted individually — the sweep only saves round
    /// trips and folds the front server-side.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or a structured rejection: an empty
    /// or oversized expansion is `bad_request` (nothing was admitted), a
    /// draining server is `shutting_down`.
    pub fn submit_sweep(
        &mut self,
        spec: SubmitSpec,
        range: SweepRange,
    ) -> Result<SweepSubmission, NetError> {
        let sweep = Request::SubmitSweep {
            instance: spec.instance,
            base: spec.options,
            range,
            scheduling: spec.scheduling,
        };
        ask!(self, sweep, Response::SweepSubmitted { sweep, ids } => SweepSubmission { sweep, ids })
    }

    /// Blocks until sweep `sweep`'s terminal `pareto` event arrives and
    /// returns it. Result and progress events that arrive meanwhile are
    /// stashed for their own accessors.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures (a lost connection rejects every
    /// outstanding wait).
    pub fn wait_pareto(&mut self, sweep: u64) -> Result<ParetoEvent, NetError> {
        self.wait_event("a pareto event", |client| client.paretos.remove(&sweep))
    }

    /// Drains the `sweep_progress` events stashed so far for `sweep`, in
    /// arrival order (each point's progress frame follows its result
    /// event). Does not block; poll between waits or after
    /// [`Client::wait_pareto`].
    pub fn take_sweep_progress(&mut self, sweep: u64) -> Vec<SweepProgressEvent> {
        self.sweep_progress.remove(&sweep).unwrap_or_default()
    }

    /// Blocks until request `id` resolves and returns its outcome
    /// (completed stats, cancelled, expired, or failed). Events for
    /// *other* requests that arrive meanwhile are stashed for their own
    /// `wait_result` calls.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures (a lost connection rejects every
    /// outstanding wait).
    pub fn wait_result(&mut self, id: u64) -> Result<Outcome, NetError> {
        self.wait_event("a result event", |client| client.stashed.remove(&id))
    }

    /// Fetches the full routed tree geometry of a completed request:
    /// every node with exact-µm coordinates, buffer insertions with
    /// their library cell ids, the routed wire length of every segment,
    /// and the per-level synthesis statistics — rebuilt into a
    /// [`ClockTree`] **bit-identical** to the one the server synthesized
    /// in process. `mode` picks the chunking; every mode rebuilds the
    /// same tree ([`ChunkMode::Levels`] only aligns chunk boundaries
    /// with completed topology levels).
    ///
    /// # Errors
    ///
    /// Transport failures — including a stream truncated mid-geometry,
    /// which surfaces as an error rather than a silently partial tree —
    /// protocol violations (chunk gaps, short streams, structurally
    /// invalid nodes), `unknown_id` when the server no longer retains
    /// (or never completed) the request, or a *partial* header (the
    /// request is still synthesizing under [`ChunkMode::Levels`]) —
    /// watch those with [`Client::fetch_tree_progress`] instead.
    pub fn fetch_tree(&mut self, id: u64, mode: ChunkMode) -> Result<RemoteTree, NetError> {
        let (header, nodes, level_stats) = self.fetch_tree_stream(id, mode)?;
        if header.partial {
            return Err(NetError::Protocol(format!(
                "request {id} is still synthesizing ({} levels published); \
                 use fetch_tree_progress to watch a partial tree",
                header.levels_done
            )));
        }
        let tree = ClockTree::from_nodes(nodes).map_err(|e| NetError::Protocol(e.to_string()))?;
        Ok(RemoteTree {
            id: header.id,
            name: header.name,
            tree,
            source: TreeNodeId::from_index(header.source as usize),
            level_stats,
        })
    }

    /// Streams a level-granular look at request `id`'s tree, **including
    /// mid-synthesis**: a request submitted with `publish_levels` answers
    /// with its latest level-complete snapshot (a rooted forest — whole
    /// levels only, never a torn level) while it synthesizes, and with
    /// the full tree once done. A request that published nothing yet
    /// returns an empty partial (zero nodes, zero levels) rather than an
    /// error, so a watcher can poll from submission to completion.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or `unknown_id` for an id this
    /// connection never submitted (or whose geometry was evicted).
    pub fn fetch_tree_progress(&mut self, id: u64) -> Result<TreeProgress, NetError> {
        let (header, nodes, level_stats) = self.fetch_tree_stream(id, ChunkMode::Levels)?;
        Ok(TreeProgress {
            id: header.id,
            name: header.name,
            partial: header.partial,
            levels_done: header.levels_done,
            nodes,
            source: (!header.partial).then(|| TreeNodeId::from_index(header.source as usize)),
            level_stats,
        })
    }

    /// Sends a `fetch_tree`, validates the stream header, and consumes
    /// the chunked `tree` events that follow: returns the header, the
    /// streamed nodes, and the terminal frame's level stats. A completed
    /// header's `source` is checked against its node count here, once for
    /// both fetch methods. Result events that interleave are stashed;
    /// `tree` events for *other* ids cannot belong to a live stream (this
    /// synchronous client runs at most one at a time — they are stale
    /// leftovers of an earlier failed fetch) and are discarded, so a
    /// failed stream never poisons a later retry.
    fn fetch_tree_stream(
        &mut self,
        id: u64,
        mode: ChunkMode,
    ) -> Result<(TreeInfo, Vec<TreeNode>, Vec<LevelStats>), NetError> {
        let (chunk, levels) = mode.wire();
        let fetch = Request::FetchTree { id, chunk, levels };
        let header = ask!(self, fetch, Response::TreeHeader(header) => header)?;
        if header.id != id {
            return Err(NetError::Protocol(format!(
                "fetch_tree reply names id {}, asked for {id}",
                header.id
            )));
        }
        // `header.nodes` is server-supplied: cap the preallocation so a
        // buggy or hostile peer cannot panic/abort this process with an
        // absurd claim — the vector grows normally past the hint, and a
        // short stream is caught against the header before the rebuild.
        let mut nodes: Vec<TreeNode> =
            Vec::with_capacity(usize::try_from(header.nodes).unwrap_or(0).min(1 << 16));
        let mut next_chunk = 0u64;
        loop {
            // A truncated stream fails here with a transport error (EOF
            // mid-stream) — never a partial tree.
            let frame = self.read()?;
            if !is_event(&frame) {
                return Err(NetError::Protocol(
                    "unsolicited reply inside a tree stream".into(),
                ));
            }
            let event = match decode_event(&frame).map_err(NetError::Protocol)? {
                Event::Tree(event) => event,
                other => {
                    self.stash(other);
                    continue;
                }
            };
            if event.id() != header.id {
                continue; // stale frames of an earlier failed stream
            }
            match event {
                TreeEvent::Chunk(c) => {
                    if c.chunk != next_chunk || c.chunk >= header.chunks {
                        return Err(NetError::Protocol(format!(
                            "tree chunk {} arrived out of order (expected {next_chunk} of {})",
                            c.chunk, header.chunks
                        )));
                    }
                    // Enforce the header's budget per chunk, not just at
                    // the terminal frame — a server streaming more nodes
                    // than it announced must not grow this vector
                    // without bound.
                    if (nodes.len() + c.nodes.len()) as u64 > header.nodes {
                        return Err(NetError::Protocol(format!(
                            "tree stream overran its header: more than {} nodes",
                            header.nodes
                        )));
                    }
                    next_chunk += 1;
                    nodes.extend(c.nodes);
                }
                TreeEvent::Done(done) => {
                    if next_chunk != header.chunks || nodes.len() as u64 != header.nodes {
                        return Err(NetError::Protocol(format!(
                            "tree stream ended short: {} of {} nodes in {} of {} chunks",
                            nodes.len(),
                            header.nodes,
                            next_chunk,
                            header.chunks
                        )));
                    }
                    if !header.partial && header.source >= header.nodes {
                        return Err(NetError::Protocol(format!(
                            "tree source {} is outside the {}-node arena",
                            header.source, header.nodes
                        )));
                    }
                    return Ok((header, nodes, done.level_stats));
                }
            }
        }
    }

    /// Asks where request `id` currently is.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or `unknown_id`.
    pub fn status(&mut self, id: u64) -> Result<RequestStatus, NetError> {
        ask!(self, Request::Status { id }, Response::Status { state, .. } => state)
    }

    /// Requests cooperative cancellation of `id`. The terminal outcome
    /// (usually [`Outcome::Cancelled`], or the result if it won the
    /// race) still arrives as an event.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or `unknown_id`.
    pub fn cancel(&mut self, id: u64) -> Result<(), NetError> {
        ask!(self, Request::Cancel { id }, Response::Cancelled { .. } => ())
    }

    /// Snapshots the server's service metrics.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures.
    pub fn metrics(&mut self) -> Result<MetricsReply, NetError> {
        ask!(self, Request::Metrics, Response::Metrics(m) => m)
    }

    /// Snapshots the server's full observability state: the `metrics`
    /// counters plus latency histograms (queue wait per priority,
    /// synthesis, verification) and per-span duration summaries. The
    /// decode is lenient — fields a pre-`stats` server never sends
    /// default to empty — and the histograms are reconstructed from
    /// their exact wire parts, so percentiles recomputed client-side
    /// are bit-identical to the server's.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures; a server predating the `stats` op
    /// answers `bad_request` (surface as [`NetError::Remote`]) — fall
    /// back to [`Client::metrics`].
    pub fn stats(&mut self) -> Result<StatsReply, NetError> {
        ask!(self, Request::Stats, Response::Stats(s) => *s)
    }

    /// Asks the server to drain and stop. Blocks until the server
    /// confirms — by then every admitted request has resolved and
    /// streamed its event (wait your own results first, or they arrive
    /// interleaved before the confirmation and are stashed).
    ///
    /// # Errors
    ///
    /// Transport/protocol failures.
    pub fn shutdown(&mut self) -> Result<(), NetError> {
        ask!(self, Request::Shutdown, Response::ShuttingDown => ())
    }

    /// Reads and stashes events until `take` finds what the caller waits
    /// for in the stash. Every frame read here must be an event; a
    /// malformed one fails loudly.
    fn wait_event<T>(
        &mut self,
        waiting_for: &str,
        mut take: impl FnMut(&mut Client) -> Option<T>,
    ) -> Result<T, NetError> {
        loop {
            if let Some(found) = take(self) {
                return Ok(found);
            }
            let frame = self.read()?;
            if !is_event(&frame) {
                return Err(NetError::Protocol(format!(
                    "unsolicited reply while waiting for {waiting_for}"
                )));
            }
            self.stash(decode_event(&frame).map_err(NetError::Protocol)?);
        }
    }

    /// Routes one pushed event. Result events are stashed by id
    /// **unconditionally** — the id may belong to any request in flight
    /// on this connection; dropping such an event would lose the
    /// request's only terminal outcome. Sweep events stash by sweep
    /// ordinal the same way. `tree` events seen here are discarded: a
    /// live stream is consumed entirely inside `fetch_tree_stream`, so any
    /// tree frame reaching this point is a stale leftover of a fetch that
    /// already failed — retaining it would only poison a retry.
    fn stash(&mut self, event: Event) {
        match event {
            Event::Result(event) => {
                self.stashed.insert(event.id, event.outcome);
            }
            Event::Tree(_) => {}
            Event::SweepProgress(event) => self
                .sweep_progress
                .entry(event.sweep)
                .or_default()
                .push(event),
            Event::Pareto(event) => {
                self.paretos.insert(event.sweep, event);
            }
        }
    }

    /// Sends `request` and reads until its reply arrives, stashing any
    /// events that come first. A structured error reply becomes
    /// [`NetError::Remote`].
    fn call(&mut self, request: &Request) -> Result<Response, NetError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        write_frame(&mut self.writer, &encode_request(seq, request))?;
        self.writer.flush()?;
        loop {
            let frame = self.read()?;
            if is_event(&frame) {
                self.stash(decode_event(&frame).map_err(NetError::Protocol)?);
                continue;
            }
            let (reply_seq, response) = decode_response(&frame).map_err(NetError::Protocol)?;
            if reply_seq != Some(seq) {
                return Err(NetError::Protocol(format!(
                    "reply seq {reply_seq:?} does not match request seq {seq}"
                )));
            }
            return match response {
                Response::Error { code, message } => Err(NetError::Remote { code, message }),
                ok => Ok(ok),
            };
        }
    }

    /// Reads one well-formed frame; EOF and malformed server output are
    /// both errors here (the client has no error-reply channel).
    fn read(&mut self) -> Result<Json, NetError> {
        match read_frame(&mut self.reader)? {
            None => Err(NetError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
            Some(Ok(frame)) => Ok(frame),
            Some(Err(e)) => Err(NetError::Protocol(format!("unparseable server frame: {e}"))),
        }
    }
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client")
            .field("server", &self.info.server)
            .field("next_seq", &self.next_seq)
            .field("stashed_results", &self.stashed.len())
            .finish()
    }
}
