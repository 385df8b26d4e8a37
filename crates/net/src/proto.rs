//! The versioned request/response protocol spoken over the framing.
//!
//! Message taxonomy (see `docs/PROTOCOL.md` for the wire-level spec and
//! transcripts):
//!
//! * **Requests** ([`Request`]) — client → server, each carrying a
//!   client-chosen `seq` echoed on its reply: `hello`, `submit`,
//!   `status`, `cancel`, `metrics`, `stats`, `shutdown`.
//! * **Replies** ([`Response`]) — server → client, exactly one per
//!   request, `"seq"`-correlated; errors are structured
//!   ([`Response::Error`] with an [`ErrorCode`]) and never kill the
//!   connection unless the transport itself is broken.
//! * **Events** ([`Event`]) — server → client, pushed (not replied):
//!   request results, tree-stream frames, sweep progress and sweep
//!   fronts. Marked `"event":true` and routed by op, not `seq`.
//!
//! Every fixed-shape object is a `wire_struct!` (or `wire_variants!`)
//! table: one row per field, giving its key, type and presence rule, from
//! which its encode, decode and defaults are generated.
//!
//! Everything here is plain data + conversions to/from [`Json`]; no I/O.

use crate::json::Json;
use crate::wire::{
    or_default, parse, push_omit, required, spelled, wire_struct, wire_variants, Fields, Spelled,
    WireTable, WireValue,
};
use cts_core::sweep::{self, SweepError};
use cts_core::{
    Buffering, ClockTree, CtsOptions, DistStats, HCorrection, Instance, LevelStats, NodeKind,
    ParetoFront, ParetoPoint, RequestStatus, ServiceError, ServiceMetrics, Sink, SynthesisResult,
    TreeNode, TreeNodeId, VariationMode, VariationSummary,
};
use cts_geom::{Point, Rect};
use cts_obs::Histogram;
use cts_timing::BufferId;
use std::fmt;

/// The protocol version this crate speaks. A server rejects a `hello`
/// carrying a different version with [`ErrorCode::UnsupportedVersion`];
/// see `docs/PROTOCOL.md` for the compatibility rules.
///
/// Version **2** added batch-frame submission (`submit_batch`) and
/// routed-geometry streaming (`fetch_tree` + chunked `tree` events) —
/// a shape change to the event taxonomy (events are no longer all
/// `result` frames), so v1 clients are rejected at `hello` rather than
/// left hanging on frames they cannot route.
pub const PROTOCOL_VERSION: u64 = 2;

/// Default node count per `tree` chunk event when `fetch_tree` does not
/// set one. At ~120 bytes a node this keeps chunk frames around 60 KiB —
/// far under the 8 MiB frame cap, large enough that even ISPD-scale
/// trees stream in a few dozen frames.
pub const DEFAULT_TREE_CHUNK: usize = 512;

/// Upper bound the server clamps a requested `fetch_tree` chunk size
/// to. 8192 nodes × ~150 bytes of JSON ≈ 1.2 MiB per frame — safely
/// under the 8 MiB frame cap that the *reader* side treats as a fatal
/// transport error, so no legal chunk request can produce a frame the
/// client must kill the connection over.
pub const MAX_TREE_CHUNK: usize = 8192;

/// Structured error codes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame was not valid JSON (reply to an undecodable frame;
    /// `seq` is null).
    BadJson,
    /// The frame was JSON but not a valid request (unknown op, missing
    /// or mistyped field, invalid instance spec).
    BadRequest,
    /// `hello` named a protocol version this server does not speak.
    UnsupportedVersion,
    /// `status`/`cancel` named a request id this connection never
    /// submitted.
    UnknownId,
    /// The service is draining; no new work is admitted.
    ShuttingDown,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        self.spelling()
    }

    /// Parses the wire spelling. (Named `from_wire`, not `from_str`, to
    /// avoid colliding with the `FromStr` trait method.)
    pub fn from_wire(s: &str) -> Option<ErrorCode> {
        ErrorCode::from_spelling(s)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A decode failure, mapped to the error reply the server should send.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeError {
    /// The structured code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl DecodeError {
    pub(crate) fn bad(message: impl Into<String>) -> DecodeError {
        DecodeError {
            code: ErrorCode::BadRequest,
            message: message.into(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------------
// Wire spellings

/// `fetch_tree`'s chunking mode, as spelled on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TreeMode {
    Nodes,
    Levels,
}

spelled! {
    HCorrection { Off => "off", ReEstimate => "re_estimate", Correct => "correct" }
    Buffering { Greedy => "greedy", VanGinneken => "van_ginneken" }
    VariationMode { Evaluate => "evaluate", Resynthesize => "resynthesize" }
    ErrorCode {
        BadJson => "bad_json", BadRequest => "bad_request",
        UnsupportedVersion => "unsupported_version", UnknownId => "unknown_id",
        ShuttingDown => "shutting_down"
    }
    RequestStatus { Queued => "queued", InFlight => "in_flight", Done => "done" }
    SweepPointOutcome {
        Completed => "completed", Cancelled => "cancelled", Expired => "expired",
        Failed => "failed"
    }
    TreeMode { Nodes => "nodes", Levels => "levels" }
}

// ---------------------------------------------------------------------------
// Instance spec

/// Serializes an instance as the protocol's instance spec:
/// `{"name", "die":[x0,y0,x1,y1], "sinks":[{"name","x","y","cap_f"},…]}`
/// with coordinates in µm and capacitance in **farads**. Unlike the
/// bookshelf dialect's fF column, the wire carries farads directly: a
/// unit conversion is two float roundings, and the protocol's contract
/// is that instances (and therefore results) cross the socket
/// byte-identically.
pub fn instance_to_json(instance: &Instance) -> Json {
    let (lo, hi) = (instance.die().lo(), instance.die().hi());
    let sink = |s: &Sink| {
        Json::obj(vec![
            ("name", s.name.to_wire()),
            ("x", s.location.x.to_wire()),
            ("y", s.location.y.to_wire()),
            ("cap_f", s.cap.to_wire()),
        ])
    };
    let sinks = instance.sinks().iter().map(sink).collect();
    Json::obj(vec![
        ("name", Json::str(instance.name())),
        ("die", vec![lo.x, lo.y, hi.x, hi.y].to_wire()),
        ("sinks", Json::arr(sinks)),
    ])
}

/// Parses an instance spec, validating everything `Instance`'s
/// constructors would otherwise panic on: at least one sink, finite
/// coordinates, non-negative finite capacitance, and (when a die is
/// given) every sink inside it. `die` is optional — absent, the die is
/// the sink bounding box.
///
/// # Errors
///
/// [`ErrorCode::BadRequest`] with a description of the first problem.
pub fn instance_from_json(j: &Json) -> Result<Instance, DecodeError> {
    let name: String = required(j, "instance", "name")?;
    let sinks_json = j
        .get("sinks")
        .and_then(Json::as_arr)
        .ok_or_else(|| DecodeError::bad("instance needs a 'sinks' array"))?;
    if sinks_json.is_empty() {
        return Err(DecodeError::bad("instance needs at least one sink"));
    }
    let mut sinks = Vec::with_capacity(sinks_json.len());
    for (i, s) in sinks_json.iter().enumerate() {
        let sink = format!("sink {i}");
        let sname: String = required(s, &sink, "name")?;
        let x: f64 = required(s, &sink, "x")?;
        let y: f64 = required(s, &sink, "y")?;
        let cap: f64 = required(s, &sink, "cap_f")?;
        if !(x.is_finite() && y.is_finite()) {
            return Err(DecodeError::bad(format!("sink {i} location is not finite")));
        }
        if !(cap >= 0.0 && cap.is_finite()) {
            return Err(DecodeError::bad(format!(
                "sink {i} capacitance {cap} F is invalid"
            )));
        }
        sinks.push(Sink::new(sname, Point::new(x, y), cap));
    }
    let Some(die) = j.get("die").filter(|die| !die.is_null()) else {
        return Ok(Instance::new(name, sinks));
    };
    let corners = Vec::<f64>::from_wire(die)?
        .filter(|c| c.len() == 4 && c.iter().all(|v| v.is_finite()))
        .ok_or_else(|| DecodeError::bad("'die' must be [x0, y0, x1, y1] with finite numbers"))?;
    let (lo, hi) = (
        Point::new(corners[0], corners[1]),
        Point::new(corners[2], corners[3]),
    );
    let rect = Rect::from_corners(lo, hi);
    if let Some(outside) = sinks.iter().find(|s| !rect.contains(s.location)) {
        let message = format!("sink {} lies outside the die", outside.name);
        return Err(DecodeError::bad(message));
    }
    Ok(Instance::with_die(name, sinks, rect))
}

/// An instance spec decodes by [`instance_from_json`], whose errors name
/// the offending part; `expected` completes "`<object>` needs an
/// 'instance'".
impl WireValue for Instance {
    fn expected() -> String {
        "an".into()
    }
    fn to_wire(&self) -> Json {
        instance_to_json(self)
    }
    fn from_wire(j: &Json) -> Result<Option<Instance>, DecodeError> {
        instance_from_json(j).map(Some)
    }
}

// ---------------------------------------------------------------------------
// Options patch

/// The one ps → s conversion every picosecond wire option applies.
fn ps_to_s(ps: f64) -> f64 {
    ps * 1e-12
}

/// One sweep axis, as the option table describes it.
struct Axis {
    /// Expansion rank: `0` is the outermost axis.
    rank: u8,
    /// The wire key, shared by the axis and the point codecs.
    key: &'static str,
    /// The number of values on the axis.
    len: fn(&SweepAxesSpec) -> usize,
    /// The axis values as a JSON array.
    to_json: fn(&SweepAxesSpec) -> Json,
    /// Parses the axis values into the spec.
    parse: fn(&mut SweepAxesSpec, &[Json]) -> Result<(), DecodeError>,
    /// Sets the axis's `i`-th value on a patch.
    set: fn(&SweepAxesSpec, usize, &mut OptionsPatch),
}

/// Generates everything keyed by a wire option name from one table row
/// per key: field doc, wire key (the field name), value type, optional
/// sweep axis (expansion rank and [`SweepAxesSpec`] field), and how the
/// value applies to [`CtsOptions`].
macro_rules! option_table {
    (@is_axis) => {
        false
    };
    (@is_axis $rank:literal) => {
        true
    };
    ($(
        $(#[$doc:meta])*
        $key:ident: $ty:ty $(, axis $rank:literal $axis:ident)? => $apply:expr;
    )*) => {
        /// The `submit` op's [`CtsOptions`] subset: every field optional,
        /// applied over the server's base options. Times travel in
        /// picoseconds on the wire, matching how the paper quotes them.
        /// An explicit `submit_sweep` point is a patch limited to the
        /// sweep-axis keys.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct OptionsPatch {
            $($(#[$doc])* pub $key: Option<$ty>,)*
        }

        /// Every wire option key in wire order, with whether it is a sweep
        /// axis (and so a legal sweep point key).
        const OPTION_KEYS: &[(&str, bool)] =
            &[$((stringify!($key), option_table!(@is_axis $($rank)?)),)*];

        impl OptionsPatch {
            /// The patched options: `base` with every set field replaced.
            pub fn apply(&self, base: &CtsOptions) -> CtsOptions {
                let mut options = base.clone();
                $(if let Some(value) = self.$key {
                    let apply: fn(&mut CtsOptions, $ty) = $apply;
                    apply(&mut options, value);
                })*
                options
            }

            /// Serializes only the set fields, in table order.
            pub fn to_json(&self) -> Json {
                let mut fields = Vec::new();
                $(push_omit(&mut fields, stringify!($key), &self.$key);)*
                Json::obj(fields)
            }

            /// Sets the field named `key` from its wire value; `Ok(false)`
            /// when no row has that key.
            fn set(&mut self, key: &str, value: &Json) -> Result<bool, DecodeError> {
                match key {
                    $(stringify!($key) => self.$key = Some(parse(key, value)?),)*
                    _ => return Ok(false),
                }
                Ok(true)
            }
        }

        /// The `submit_sweep` op's cartesian axes, in wire units (times in
        /// ps, like the options patch). An empty axis keeps the base value
        /// — it contributes one implicit point, not zero — so the
        /// expansion size is the product of `max(1, len)` over the axes.
        #[derive(Debug, Clone, PartialEq, Default)]
        pub struct SweepAxesSpec {
            $($(
                #[doc = concat!(
                    "Values of the `", stringify!($key),
                    "` axis (expansion rank ", stringify!($rank), ")."
                )]
                pub $axis: Vec<$ty>,
            )?)*
        }

        /// The sweep axes, outermost first.
        fn sweep_axes() -> Vec<Axis> {
            let mut axes = vec![$($(Axis {
                rank: $rank,
                key: stringify!($key),
                len: |a| a.$axis.len(),
                to_json: |a| a.$axis.to_wire(),
                parse: |a, values| {
                    a.$axis = values
                        .iter()
                        .map(|v| parse(stringify!($key), v))
                        .collect::<Result<_, _>>()?;
                    Ok(())
                },
                set: |a, i, patch| patch.$key = Some(a.$axis[i]),
            },)?)*];
            axes.sort_by_key(|axis| axis.rank);
            axes
        }
    };
}

option_table! {
    /// Overrides [`CtsOptions::slew_limit`] (ps).
    slew_limit_ps: f64 => |o, ps| o.slew_limit = ps_to_s(ps);
    /// Overrides [`CtsOptions::slew_target`] (ps).
    slew_target_ps: f64, axis 0 slew_targets_ps => |o, ps| o.slew_target = ps_to_s(ps);
    /// Overrides [`CtsOptions::grid_resolution`] (at most
    /// [`CtsOptions::MAX_GRID_RESOLUTION`]).
    grid_resolution: u32 => |o, r| o.grid_resolution = r;
    /// Overrides [`CtsOptions::h_correction`].
    h_correction: HCorrection, axis 2 h_corrections => |o, h| o.h_correction = h;
    /// Overrides [`CtsOptions::threads`] (per-request merge parallelism).
    threads: usize => |o, t| o.threads = t;
    /// Overrides [`CtsOptions::buffering`] (greedy vs van Ginneken).
    buffering: Buffering, axis 3 bufferings => |o, b| o.buffering = b;
    /// Overrides [`CtsOptions::library_subset`] (buffer-library prefix
    /// size; `0` = full library).
    library_subset: usize, axis 1 library_subsets => |o, k| o.library_subset = k;
    /// Overrides the variation corner count
    /// (`CtsOptions::variation.corners`); `0` turns the axis off.
    variation_corners: usize => |o, n| o.variation.corners = n;
    /// Overrides the variation stream seed (`variation.seed`).
    variation_seed: u64 => |o, s| o.variation.seed = s;
    /// Overrides `variation.sigma_buffer` (relative half-width).
    variation_sigma_buffer: f64 => |o, v| o.variation.sigma_buffer = v;
    /// Overrides `variation.sigma_wire`.
    variation_sigma_wire: f64 => |o, v| o.variation.sigma_wire = v;
    /// Overrides `variation.sigma_slew`.
    variation_sigma_slew: f64 => |o, v| o.variation.sigma_slew = v;
    /// Overrides `variation.mode` (evaluate vs resynthesize).
    variation_mode: VariationMode => |o, m| o.variation.mode = m;
}

impl OptionsPatch {
    /// Whether no field is set (the request runs on the server's base
    /// options, with no per-request override object allocated).
    pub fn is_empty(&self) -> bool {
        *self == OptionsPatch::default()
    }

    /// Parses a patch object; unknown keys are rejected so a typo fails
    /// loudly instead of silently running on defaults.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadRequest`] naming the offending key.
    pub fn from_json(j: &Json) -> Result<OptionsPatch, DecodeError> {
        OptionsPatch::decode(j, false)
    }

    /// Parses a patch object — with `point`, an explicit sweep point,
    /// which takes only the sweep-axis keys.
    fn decode(j: &Json, point: bool) -> Result<OptionsPatch, DecodeError> {
        let (what, noun) = if point {
            ("sweep point", "sweep point key")
        } else {
            ("'options'", "options key")
        };
        let fields = j
            .as_obj()
            .ok_or_else(|| DecodeError::bad(format!("{what} must be an object")))?;
        let mut patch = OptionsPatch::default();
        for (key, value) in fields {
            let allowed = !point || OPTION_KEYS.iter().any(|&(k, axis)| axis && k == key);
            if !(allowed && patch.set(key, value)?) {
                return Err(DecodeError::bad(format!("unknown {noun} '{key}'")));
            }
        }
        Ok(patch)
    }
}

impl WireValue for OptionsPatch {
    fn expected() -> String {
        "an object".into()
    }
    fn to_wire(&self) -> Json {
        self.to_json()
    }
    fn from_wire(j: &Json) -> Result<Option<OptionsPatch>, DecodeError> {
        OptionsPatch::from_json(j).map(Some)
    }
}

impl SweepAxesSpec {
    /// The sweep's points as patches over its base, row-major over the
    /// axes: slew target outermost, then library subset, H-correction,
    /// and buffering innermost. The expansion size is checked before any
    /// point is allocated.
    ///
    /// # Errors
    ///
    /// [`SweepError::TooManyPoints`] past
    /// [`cts_core::sweep::MAX_SWEEP_POINTS`].
    pub fn points(&self) -> Result<Vec<OptionsPatch>, SweepError> {
        let axes = sweep_axes();
        let count = axes
            .iter()
            .fold(1usize, |n, axis| n.saturating_mul((axis.len)(self).max(1)));
        sweep::check_size(count)?;
        Ok((0..count)
            .map(|ordinal| {
                let mut patch = OptionsPatch::default();
                let mut rest = ordinal;
                for axis in axes.iter().rev() {
                    let len = (axis.len)(self);
                    if len > 0 {
                        (axis.set)(self, rest % len, &mut patch);
                        rest /= len;
                    }
                }
                patch
            })
            .collect())
    }

    fn to_json(&self) -> Json {
        Json::obj(
            sweep_axes()
                .iter()
                .filter(|axis| (axis.len)(self) > 0)
                .map(|axis| (axis.key, (axis.to_json)(self)))
                .collect(),
        )
    }

    fn from_json(j: &Json) -> Result<SweepAxesSpec, DecodeError> {
        let fields = j
            .as_obj()
            .ok_or_else(|| DecodeError::bad("'axes' must be an object"))?;
        let axes = sweep_axes();
        let mut spec = SweepAxesSpec::default();
        for (key, value) in fields {
            let values = value
                .as_arr()
                .ok_or_else(|| DecodeError::bad(format!("axis '{key}' must be an array")))?;
            let axis = axes
                .iter()
                .find(|axis| axis.key == key)
                .ok_or_else(|| DecodeError::bad(format!("unknown sweep axis '{key}'")))?;
            (axis.parse)(&mut spec, values)?;
        }
        Ok(spec)
    }
}

/// How a `submit_sweep` frame enumerates its points: cartesian `axes`
/// or an explicit `points` list — exactly one of the two keys.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepRange {
    /// The cartesian product of the axes.
    Axes(SweepAxesSpec),
    /// An explicit point list, kept in order: each point is a patch over
    /// the sweep's base, limited to the sweep-axis keys.
    Points(Vec<OptionsPatch>),
}

impl SweepRange {
    /// The sweep's points as patches over its base, in expansion order,
    /// size-checked against [`cts_core::sweep::MAX_SWEEP_POINTS`].
    ///
    /// # Errors
    ///
    /// [`SweepError::Empty`] or [`SweepError::TooManyPoints`].
    pub fn points(self) -> Result<Vec<OptionsPatch>, SweepError> {
        match self {
            SweepRange::Axes(axes) => axes.points(),
            SweepRange::Points(points) => sweep::check_size(points.len()).map(|()| points),
        }
    }
}

/// Exactly one of the `axes` and `points` keys.
impl WireTable for SweepRange {
    fn push_fields(&self, fields: &mut Fields) {
        match self {
            SweepRange::Axes(axes) => fields.push(("axes", axes.to_json())),
            SweepRange::Points(points) => fields.push(("points", points.to_wire())),
        }
    }
    fn from_fields(j: &Json, object: &str) -> Result<SweepRange, DecodeError> {
        match (j.get("axes"), j.get("points")) {
            (Some(axes), None) => SweepAxesSpec::from_json(axes).map(SweepRange::Axes),
            (None, Some(points)) => {
                let points = points
                    .as_arr()
                    .ok_or_else(|| DecodeError::bad("'points' must be an array"))?;
                if points.is_empty() {
                    return Err(DecodeError::bad(format!(
                        "{object} needs at least one point"
                    )));
                }
                let points = points.iter().map(|point| OptionsPatch::decode(point, true));
                points.collect::<Result<_, _>>().map(SweepRange::Points)
            }
            (Some(_), Some(_)) => Err(DecodeError::bad(format!(
                "{object} takes 'axes' or 'points', not both"
            ))),
            (None, None) => Err(DecodeError::bad(format!(
                "{object} needs 'axes' or 'points'"
            ))),
        }
    }
}

// ---------------------------------------------------------------------------
// Routed tree geometry

/// One tree node as its wire object, tagged by `kind`. The node's id is
/// its position in the streamed sequence (ids are dense arena indices),
/// so only the links are explicit: `parent` (omitted for roots) and the
/// `children` array, whose **order** is preserved — child order is part
/// of the arena's identity and byte-identical round-trips depend on it.
/// Link targets decode verbatim; structural validation happens once,
/// over the whole tree, in [`ClockTree::from_nodes`].
impl WireValue for TreeNode {
    fn expected() -> String {
        "an object".into()
    }
    fn to_wire(&self) -> Json {
        let link = |id: TreeNodeId| id.index().to_wire();
        let kind = |tag: &str| ("kind", Json::str(tag));
        let mut fields = match self.kind {
            NodeKind::Source { driver } => vec![kind("source"), ("driver", driver.0.to_wire())],
            NodeKind::Sink { index, cap } => {
                vec![
                    kind("sink"),
                    ("index", index.to_wire()),
                    ("cap_f", cap.to_wire()),
                ]
            }
            NodeKind::Joint => vec![kind("joint")],
            NodeKind::Buffer { buffer } => vec![kind("buffer"), ("cell", buffer.0.to_wire())],
        };
        fields.push(("x", self.location.x.to_wire()));
        fields.push(("y", self.location.y.to_wire()));
        if let Some(p) = self.parent {
            fields.push(("parent", link(p)));
            fields.push(("wire_um", self.wire_to_parent_um.to_wire()));
        }
        let children = self.children.iter().map(|&c| link(c)).collect();
        fields.push(("children", Json::arr(children)));
        Json::obj(fields)
    }
    fn from_wire(j: &Json) -> Result<Option<TreeNode>, DecodeError> {
        fn field<T: WireValue>(j: &Json, key: &str) -> Result<T, DecodeError> {
            required(j, "tree node", key)
        }
        let kind = match j.get("kind").and_then(Json::as_str) {
            Some("source") => NodeKind::Source {
                driver: BufferId(field(j, "driver")?),
            },
            Some("sink") => NodeKind::Sink {
                index: field(j, "index")?,
                cap: field(j, "cap_f")?,
            },
            Some("joint") => NodeKind::Joint,
            Some("buffer") => NodeKind::Buffer {
                buffer: BufferId(field(j, "cell")?),
            },
            _ => return Err(DecodeError::bad("tree node needs a valid 'kind'")),
        };
        let parent: Option<usize> = or_default(j, "parent", None)?;
        let children: Vec<usize> = field(j, "children")?;
        Ok(Some(TreeNode {
            kind,
            location: Point::new(field(j, "x")?, field(j, "y")?),
            parent: parent.map(TreeNodeId::from_index),
            wire_to_parent_um: if parent.is_some() {
                field(j, "wire_um")?
            } else {
                0.0
            },
            children: children.into_iter().map(TreeNodeId::from_index).collect(),
        }))
    }
}

wire_struct! {
    impl LevelStats as "level stats" {
        level: usize;
        pairs: usize;
        seed_promoted: bool;
        flippings: usize;
        buffers_inserted: usize;
        worst_skew_estimate: f64;
        max_latency_estimate: f64;
        nodes_total: usize, additive;
    }
}

/// The `fetch_tree` reply payload: what is about to be streamed.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeInfo {
    /// The request whose tree follows.
    pub id: u64,
    /// Instance name, echoed.
    pub name: String,
    /// Total node count about to stream.
    pub nodes: u64,
    /// Number of `tree` chunk events that will carry them.
    pub chunks: u64,
    /// Arena index of the source (root) node. Meaningless (`0`) on a
    /// partial stream, which has no source yet.
    pub source: u64,
    /// Whether this is a **mid-synthesis** level snapshot: only the
    /// level-complete prefix streams (a forest — no source node, no
    /// refinement pass applied). `false` for completed trees, and the
    /// key is absent on the wire then, keeping those headers
    /// byte-identical to pre-streaming servers.
    pub partial: bool,
    /// Topology levels fully merged into the streamed prefix. On a
    /// partial stream this is the watermark the snapshot was taken at;
    /// `0` on completed-tree headers (the terminal event carries the
    /// full per-level stats instead).
    pub levels_done: u64,
}

impl TreeInfo {
    /// A completed-tree header (not partial).
    pub fn complete(id: u64, name: String, nodes: u64, chunks: u64, source: u64) -> TreeInfo {
        TreeInfo {
            id,
            name,
            nodes,
            chunks,
            source,
            partial: false,
            levels_done: 0,
        }
    }
}

/// A partial header carries `partial` and `levels_done` where a complete
/// one carries `source`: a rooted forest mid-synthesis has no source yet.
impl WireTable for TreeInfo {
    fn push_fields(&self, fields: &mut Fields) {
        fields.push(("id", self.id.to_wire()));
        fields.push(("name", self.name.to_wire()));
        fields.push(("nodes", self.nodes.to_wire()));
        fields.push(("chunks", self.chunks.to_wire()));
        if self.partial {
            fields.push(("partial", Json::Bool(true)));
            fields.push(("levels_done", self.levels_done.to_wire()));
        } else {
            fields.push(("source", self.source.to_wire()));
        }
    }
    fn from_fields(j: &Json, object: &str) -> Result<TreeInfo, DecodeError> {
        let partial = or_default(j, "partial", None)?;
        let int = |key| required::<u64>(j, object, key);
        Ok(TreeInfo {
            id: int("id")?,
            name: required(j, object, "name")?,
            nodes: int("nodes")?,
            chunks: int("chunks")?,
            source: if partial { 0 } else { int("source")? },
            partial,
            levels_done: if partial { int("levels_done")? } else { 0 },
        })
    }
}

wire_struct! {
    /// One `tree` chunk event: a consecutive run of arena nodes. Chunk `k`
    /// carries nodes `[k*chunk_size, ...)` in arena order; the client
    /// concatenates chunks in sequence.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TreeChunkEvent as "tree chunk" {
        /// The request id the stream answers.
        id: u64;
        /// Zero-based chunk ordinal (consecutive; a gap is a protocol error).
        chunk: u64;
        /// This chunk's nodes, in arena order.
        nodes: Vec<TreeNode>;
    }
}

/// The terminal `tree` event: closes the stream and carries the
/// per-level statistics of the synthesis that built the tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeDoneEvent {
    /// The request id the stream answers.
    pub id: u64,
    /// Per-level pipeline statistics, in level order.
    pub level_stats: Vec<LevelStats>,
}

/// A decoded `tree` event frame.
#[derive(Debug, Clone, PartialEq)]
pub enum TreeEvent {
    /// A chunk of nodes.
    Chunk(TreeChunkEvent),
    /// The terminal frame.
    Done(TreeDoneEvent),
}

impl TreeEvent {
    /// The request id the event belongs to.
    pub fn id(&self) -> u64 {
        match self {
            TreeEvent::Chunk(c) => c.id,
            TreeEvent::Done(d) => d.id,
        }
    }
}

/// A chunk is a [`TreeChunkEvent`] table; the terminal frame is marked
/// `"done":true` between its id and its `levels`.
impl WireTable for TreeEvent {
    fn push_fields(&self, fields: &mut Fields) {
        match self {
            TreeEvent::Chunk(chunk) => chunk.push_fields(fields),
            TreeEvent::Done(done) => {
                fields.push(("id", done.id.to_wire()));
                fields.push(("done", Json::Bool(true)));
                fields.push(("levels", done.level_stats.to_wire()));
            }
        }
    }
    fn from_fields(j: &Json, object: &str) -> Result<TreeEvent, DecodeError> {
        if !or_default::<bool>(j, "done", None)? {
            return TreeChunkEvent::from_fields(j, object).map(TreeEvent::Chunk);
        }
        Ok(TreeEvent::Done(TreeDoneEvent {
            id: required(j, object, "id")?,
            level_stats: required(j, object, "levels")?,
        }))
    }
}

/// A routed tree fetched over the wire, rebuilt into the same in-process
/// representation the synthesizer produced. The protocol contract is
/// that this is **bit-identical** to the server-side
/// [`cts_core::CtsResult`] fields it mirrors: every node coordinate,
/// buffer cell id, wire segment length, and level statistic survives the
/// shortest-roundtrip JSON unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteTree {
    /// The request the tree answers.
    pub id: u64,
    /// Instance name, echoed.
    pub name: String,
    /// The rebuilt routed tree.
    pub tree: ClockTree,
    /// The source (root) node.
    pub source: TreeNodeId,
    /// Per-level pipeline statistics.
    pub level_stats: Vec<LevelStats>,
}

// ---------------------------------------------------------------------------
// Requests

wire_struct! {
    /// The scheduling fields every submit op carries — `priority`,
    /// `deadline_ms`, `client_id` and `publish_levels` — with their one wire
    /// encoding. Each key is omitted on the wire at its default, so a default
    /// [`Scheduling`] adds nothing to a frame.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct Scheduling as "scheduling" {
        /// Dispatch priority (higher first; ties in admission order).
        priority: i32, omit;
        /// Deadline in milliseconds from submission; absent = none.
        deadline_ms: Option<u64>, omit, "a non-negative integer";
        /// Client id echoed on the result event (defaults to the
        /// connection's `hello` client id).
        client_id: Option<String>, omit;
        /// Whether the server should publish level-complete snapshots
        /// mid-synthesis, for `fetch_tree` in `"levels"` mode. Off by default
        /// (each level snapshot copies the arena).
        publish_levels: bool, omit;
    }
}

wire_struct! {
    /// One entry of a `submit_batch` frame: an instance plus its per-entry
    /// scheduling (the [`OptionsPatch`] is shared batch-wide).
    #[derive(Debug, Clone, PartialEq)]
    pub struct BatchEntry as "batch entry" {
        /// The instance spec.
        instance: Instance;
        /// Per-entry priority, deadline, client id and level publishing.
        scheduling: Scheduling, flatten;
    }
}

impl BatchEntry {
    /// A default-priority, no-deadline entry for `instance`.
    pub fn new(instance: Instance) -> BatchEntry {
        BatchEntry {
            instance,
            scheduling: Scheduling::default(),
        }
    }
}

wire_variants! {
    /// A client request (the `seq` correlation id travels alongside, not
    /// inside, so the enum stays pure payload).
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request {
        /// Version handshake; servers reject unknown versions.
        Hello "hello" as "hello" {
            /// The protocol version the client speaks.
            version: u64;
            /// Optional client identifier (diagnostics; also the default
            /// `client_id` for this connection's submissions).
            client_id: Option<String>, omit;
        },
        /// Submit one instance for synthesis.
        Submit "submit" as "submit" {
            /// The instance spec.
            instance: Instance;
            /// Per-request options overrides (empty = server defaults).
            options: OptionsPatch, omit;
            /// Priority, deadline, client id and level publishing.
            scheduling: Scheduling, flatten;
        },
        /// Submit many instances in one frame, admitted atomically into the
        /// service (all-or-nothing against queue capacity): one round trip
        /// for a whole sweep.
        SubmitBatch "submit_batch" by_hand {
            /// The batch entries, in submission order.
            entries: Vec<BatchEntry>;
            /// Options overrides shared by every entry (empty = server
            /// defaults).
            options: OptionsPatch;
        },
        /// Submit a parameter sweep in one frame: the server expands the
        /// range over the base options into deterministic per-point
        /// requests (admitted atomically, like `submit_batch`), then folds
        /// the completed points into a Pareto front it pushes as a `pareto`
        /// event. Additive — no version bump.
        SubmitSweep "submit_sweep" as "submit_sweep" {
            /// The instance spec every point synthesizes.
            instance: Instance;
            /// Base options overrides the sweep points perturb (empty =
            /// server defaults).
            base: OptionsPatch, omit;
            /// The points: cartesian axes or an explicit list.
            range: SweepRange, flatten;
            /// Scheduling shared by every point.
            scheduling: Scheduling, flatten;
        },
        /// Stream the routed tree geometry of a completed request as chunked
        /// `tree` events plus a terminal frame.
        FetchTree "fetch_tree" by_hand {
            /// A request id this connection submitted, already resolved
            /// `completed`.
            id: u64;
            /// Maximum nodes per chunk event; `None` uses
            /// [`DEFAULT_TREE_CHUNK`].
            chunk: Option<u64>;
            /// Level-granular mode (`"mode":"levels"` on the wire): chunk
            /// boundaries align with completed topology levels, and a
            /// request still in flight answers with a *partial* header over
            /// its latest level-complete snapshot instead of `unknown_id`.
            levels: bool;
        },
        /// Where is request `id` (queued / in_flight / done)?
        Status "status" as "op" {
            /// A request id this connection submitted.
            id: u64;
        },
        /// Cooperatively cancel request `id`.
        Cancel "cancel" as "op" {
            /// A request id this connection submitted.
            id: u64;
        },
        /// Snapshot the service counters.
        Metrics "metrics" as "metrics",
        /// Snapshot the full observability state: the same counters as
        /// `metrics` plus latency histograms (queue wait per priority,
        /// synthesis, verification) and per-span-name duration summaries.
        /// Additive — no version bump; old servers answer `bad_request` and
        /// clients fall back to `metrics`.
        Stats "stats" as "stats",
        /// Drain the service and stop the server.
        Shutdown "shutdown" as "shutdown",
    }
}

/// Serializes a request frame: the op payload plus its `seq`.
pub fn encode_request(seq: u64, request: &Request) -> Json {
    let mut fields = vec![("op", Json::str(request.op())), ("seq", seq.to_wire())];
    match request {
        Request::SubmitBatch { entries, options } => {
            fields.push(("entries", entries.to_wire()));
            push_omit(&mut fields, "options", options);
        }
        Request::FetchTree { id, chunk, levels } => {
            fields.push(("id", id.to_wire()));
            push_omit(&mut fields, "chunk", chunk);
            push_omit(&mut fields, "mode", &levels.then_some(TreeMode::Levels));
        }
        table => table.push_table_fields(&mut fields),
    }
    Json::obj(fields)
}

/// Decodes a request frame into `(seq, request)`.
///
/// # Errors
///
/// [`ErrorCode::BadRequest`] for a missing/unknown op, missing `seq`, or
/// any malformed field.
pub fn decode_request(j: &Json) -> Result<(u64, Request), DecodeError> {
    let op: String = required(j, "frame", "op")?;
    let seq = required(j, "frame", "seq")?;
    let request = match op.as_str() {
        "submit_batch" => {
            let entries = j
                .get("entries")
                .and_then(Json::as_arr)
                .ok_or_else(|| DecodeError::bad("submit_batch needs an 'entries' array"))?;
            if entries.is_empty() {
                return Err(DecodeError::bad("submit_batch needs at least one entry"));
            }
            Request::SubmitBatch {
                entries: entries
                    .iter()
                    .map(|entry| BatchEntry::from_fields(entry, "batch entry"))
                    .collect::<Result<_, _>>()?,
                options: or_default(j, "options", None)?,
            }
        }
        "fetch_tree" => {
            let chunk = match j.get("chunk") {
                None | Some(Json::Null) => None,
                Some(c) => Some(
                    c.as_u64()
                        .filter(|&c| c >= 1)
                        .ok_or_else(|| DecodeError::bad("'chunk' must be a positive integer"))?,
                ),
            };
            let mode: Option<TreeMode> = or_default(j, "mode", None)?;
            Request::FetchTree {
                id: required(j, "op", "id")?,
                chunk,
                levels: mode == Some(TreeMode::Levels),
            }
        }
        op => Request::decode_table(op, j)
            .unwrap_or_else(|| Err(DecodeError::bad(format!("unknown op '{op}'"))))?,
    };
    Ok((seq, request))
}

// ---------------------------------------------------------------------------
// Replies

wire_struct! {
    /// The `metrics` reply payload.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct MetricsReply as "metrics reply" {
        /// The service's worker count.
        workers: u64;
        /// The service counter snapshot.
        metrics: ServiceMetrics;
    }
}

wire_struct! {
    /// One span family's duration summary on the wire: every completed span
    /// with this name, folded into a single histogram.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SpanStat as "span entry" {
        /// The span name (e.g. `"pipeline.merge_level"`).
        name: String;
        /// Span durations in nanoseconds.
        durations as "latency": Histogram;
    }
}

wire_struct! {
    /// The `stats` reply payload: the `metrics` counters plus latency
    /// histograms and per-span summaries.
    ///
    /// Histograms travel as their exact wire parts (sparse buckets, count,
    /// total, max); percentile fields on the wire are *derived* from those
    /// parts at encode time, so a client that re-derives them from the
    /// decoded histogram gets bit-identical answers and a decode → re-encode
    /// round trip reproduces the frame byte for byte.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct StatsReply as "stats reply" {
        /// The service's worker count.
        workers: u64;
        /// The service counter snapshot (same shape as the `metrics` op).
        metrics: ServiceMetrics;
        /// Queue-wait histograms keyed by priority, ascending.
        queue_wait: Vec<(i32, Histogram)>;
        /// Synthesis-stage latency across all completed requests.
        synth_latency: Histogram;
        /// Verification-stage latency across all verified requests.
        verify_latency: Histogram;
        /// Per-name span duration summaries from the server's recorder,
        /// sorted by name; empty when the server runs without tracing.
        spans: Vec<SpanStat>;
        /// Span events missing from the server recorder's retained trace:
        /// the oldest, evicted past its retention cap (still counted in
        /// `spans`); `0` when tracing is off.
        dropped: u64, additive;
    }
}

wire_variants! {
    /// A server reply — exactly one per request, correlated by `seq`.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response {
        /// Reply to `hello`.
        Hello "hello" as "hello reply" {
            /// The protocol version the server speaks.
            version: u64;
            /// Server software identifier (e.g. `cts-serve/0.1.0`).
            server: String;
            /// The service's worker count.
            workers: u64;
        },
        /// Reply to `submit`: the request was admitted under this id.
        Submitted "submit" as "submit reply" {
            /// The service-assigned request id.
            id: u64;
        },
        /// Reply to `submit_batch`: every entry was admitted atomically; the
        /// ids map entry order to service-assigned request ids.
        BatchSubmitted "submit_batch" as "submit_batch reply" {
            /// One id per batch entry, in entry order.
            ids: Vec<u64>;
        },
        /// Reply to `submit_sweep`: every expanded point was admitted
        /// atomically. `sweep_progress` events follow as points resolve and
        /// a terminal `pareto` event carries the folded front.
        SweepSubmitted "submit_sweep" as "submit_sweep reply" {
            /// The per-connection sweep ordinal correlating this sweep's
            /// `sweep_progress`/`pareto` events.
            sweep: u64;
            /// One request id per expanded point, in expansion order (the
            /// point ordinal the `pareto` event refers to).
            ids: Vec<u64>;
        },
        /// Reply to `fetch_tree`: the stream header. The chunked `tree`
        /// events (and their terminal frame) follow.
        TreeHeader "fetch_tree" (TreeInfo),
        /// Reply to `status`.
        Status "status" as "status reply" {
            /// The queried id.
            id: u64;
            /// Where the request is.
            state: RequestStatus;
        },
        /// Reply to `cancel` (cancellation is cooperative: the terminal
        /// outcome still arrives as a result event).
        Cancelled "cancel" as "cancel reply" {
            /// The cancelled id.
            id: u64;
        },
        /// Reply to `metrics`.
        Metrics "metrics" (MetricsReply),
        /// Reply to `stats`.
        Stats "stats" (Box<StatsReply>),
        /// Reply to `shutdown`, sent after the service has drained.
        ShuttingDown "shutdown" as "shutdown reply",
        /// Structured failure of the correlated request. Its frame carries
        /// `"ok":false` and no op; `error` is only its name here.
        Error "error" by_hand {
            /// The machine-readable code.
            code: ErrorCode;
            /// Human-readable detail.
            message: String;
        },
    }
}

// The counters object shared by the `metrics` and `stats` replies. New
// counters append at the end as additive keys.
wire_struct! {
    impl ServiceMetrics as "metrics" {
        submitted: u64;
        completed: u64;
        cancelled: u64;
        expired: u64;
        failed: u64;
        queue_depth: usize;
        synth_seconds: f64;
        verify_seconds: f64;
        stages_simulated: u64, additive;
        stages_reused: u64, additive;
        symbolic_hits: u64, additive;
        symbolic_misses: u64, additive;
        topology_seconds: f64, additive;
        merge_seconds: f64, additive;
        sinks_synthesized: u64, additive;
        sinks_verified: u64, additive;
        corners_evaluated: u64, additive;
        corner_lib_hits: u64, additive;
        corner_lib_misses: u64, additive;
        queue_depth_high_water: u64, additive;
        sweeps_submitted: u64, additive;
    }
}

/// A histogram as its exact wire parts plus *derived* percentiles. The
/// buckets/count/total/max quadruple is the source of truth — decode
/// rebuilds the histogram from it and drops the percentile fields, so
/// re-encoding re-derives them bit-identically.
impl WireValue for Histogram {
    fn expected() -> String {
        "an object".into()
    }
    fn to_wire(&self) -> Json {
        let buckets = self
            .nonzero_buckets()
            .iter()
            .map(|&(i, c)| Json::arr(vec![Json::num(f64::from(i)), c.to_wire()]))
            .collect();
        Json::obj(vec![
            ("count", self.count().to_wire()),
            ("total_ns", self.total().to_wire()),
            ("max_ns", self.max().to_wire()),
            ("p50_ns", self.percentile(50.0).to_wire()),
            ("p90_ns", self.percentile(90.0).to_wire()),
            ("p99_ns", self.percentile(99.0).to_wire()),
            ("buckets", Json::arr(buckets)),
        ])
    }
    fn from_wire(j: &Json) -> Result<Option<Histogram>, DecodeError> {
        let int = |key| required::<u64>(j, "histogram", key);
        let pairs: Vec<Vec<u64>> = required(j, "histogram", "buckets")?;
        let mut buckets = Vec::with_capacity(pairs.len());
        for pair in pairs {
            let [index, count] = pair[..] else {
                return Err(DecodeError::bad(
                    "histogram 'buckets' must be [index, count] pairs",
                ));
            };
            // Indices past u8 can't be valid; 255 is equally out-of-range,
            // and `from_parts` ignores it (lenient).
            buckets.push((u8::try_from(index).unwrap_or(u8::MAX), count));
        }
        let (count, total, max) = (int("count")?, int("total_ns")?, int("max_ns")?);
        Ok(Some(Histogram::from_parts(&buckets, count, total, max)))
    }
}

/// A `queue_wait` entry: one priority's queue-wait histogram.
impl WireValue for (i32, Histogram) {
    fn expected() -> String {
        "an object".into()
    }
    fn to_wire(&self) -> Json {
        Json::obj(vec![
            ("priority", self.0.to_wire()),
            ("latency", self.1.to_wire()),
        ])
    }
    fn from_wire(j: &Json) -> Result<Option<Self>, DecodeError> {
        let object = "queue_wait entry";
        Ok(Some((
            required(j, object, "priority")?,
            required(j, object, "latency")?,
        )))
    }
}

/// Serializes a reply frame. `seq` is `None` only for errors answering a
/// frame whose `seq` could not be decoded (serialized as `"seq":null`).
pub fn encode_response(seq: Option<u64>, response: &Response) -> Json {
    let ok = !matches!(response, Response::Error { .. });
    let mut fields = vec![("ok", Json::Bool(ok)), ("seq", seq.to_wire())];
    if let Response::Error { code, message } = response {
        let error = vec![("code", code.to_wire()), ("message", message.to_wire())];
        fields.push(("error", Json::obj(error)));
        return Json::obj(fields);
    }
    fields.push(("op", Json::str(response.op())));
    response.push_table_fields(&mut fields);
    Json::obj(fields)
}

/// Decodes a reply frame into `(seq, response)` — the client side.
///
/// # Errors
///
/// A description of the malformation (client-side this is a protocol
/// error; there is no one to send a structured reply to).
pub fn decode_response(j: &Json) -> Result<(Option<u64>, Response), String> {
    decode_reply(j).map_err(|e| e.message)
}

/// [`decode_response`] with the decode's own error.
fn decode_reply(j: &Json) -> Result<(Option<u64>, Response), DecodeError> {
    let seq = or_default(j, "seq", None)?;
    if !required::<bool>(j, "reply", "ok")? {
        let error = j.get("error").unwrap_or(&Json::Null);
        let response = Response::Error {
            code: required(error, "error", "code")?,
            message: or_default(error, "message", None)?,
        };
        return Ok((seq, response));
    }
    let op: String = required(j, "reply", "op")?;
    let response = Response::decode_table(&op, j)
        .unwrap_or_else(|| Err(DecodeError::bad(format!("unknown reply op '{op}'"))))?;
    Ok((seq, response))
}

// ---------------------------------------------------------------------------
// Result events

wire_struct! {
    /// SPICE-or-estimate timing numbers of one result (s).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct TimingStats as "timing stats" {
        /// Worst 10–90 % slew (s).
        worst_slew: f64;
        /// Skew: max − min sink arrival (s).
        skew: f64;
        /// Max source-to-sink latency (s).
        latency: f64;
    }
}

wire_struct! {
    impl DistStats as "distribution stats" {
        min: f64;
        median: f64;
        p95: f64;
        max: f64;
    }
}

wire_struct! {
    /// Per-corner distribution stats of one Monte Carlo variation run, as
    /// carried by a result event. Only the folded distributions travel —
    /// per-corner rows stay on the server (clients consume yield numbers,
    /// and a 100k-corner row table has no business on a result frame).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct VariationStats as "variation stats" {
        /// Corners evaluated.
        corners: u64;
        /// Skew distribution across corners (s).
        skew: DistStats;
        /// Worst-slew distribution across corners (s).
        worst_slew: DistStats;
        /// Max-latency distribution across corners (s).
        latency: DistStats;
    }
}

impl VariationStats {
    /// Projects a service-side summary onto the wire shape.
    pub fn from_summary(v: &VariationSummary) -> VariationStats {
        VariationStats {
            corners: v.corners as u64,
            skew: v.skew,
            worst_slew: v.worst_slew,
            latency: v.latency,
        }
    }
}

wire_struct! {
    /// The stats a completed request streams back — the full
    /// [`SynthesisResult`] summary minus the tree geometry (trees stay on
    /// the server; clients consume numbers).
    #[derive(Debug, Clone, PartialEq)]
    pub struct RemoteResult as "result" {
        /// The service-assigned request id (carried by the event, not the
        /// result object).
        id: u64, skip;
        /// Instance name, echoed.
        name: String;
        /// Client id echoed from the submission.
        client_id: Option<String>, omit;
        /// Priority the request ran at.
        priority: i32;
        /// Dispatch ordinal across the service lifetime.
        dispatch_order: u64;
        /// Sink count.
        sinks: u64;
        /// Topology levels built.
        levels: u64;
        /// Buffers inserted.
        buffers: u64;
        /// Total inserted buffer input capacitance (F) — the sweep Pareto
        /// front's cost axis. `0.0` from servers that predate sweeps.
        buffer_cap_f: f64, additive;
        /// Routed wirelength (µm).
        wirelength_um: f64;
        /// Wall time of the synthesis stage (s).
        synth_seconds: f64;
        /// Wall time of the verification stage (s); 0 when skipped.
        verify_seconds: f64;
        /// Engine-estimated timing.
        estimate: TimingStats;
        /// SPICE-verified timing, when the server verifies.
        verified: Option<TimingStats>, null;
        /// Monte Carlo corner distributions, when the variation axis ran.
        /// Absent otherwise, keeping axis-off frames byte-identical to
        /// pre-variation servers.
        variation: Option<VariationStats>, omit;
    }
}

impl RemoteResult {
    /// Builds the wire stats from a service result.
    pub fn from_service(r: &SynthesisResult) -> RemoteResult {
        RemoteResult {
            id: r.id.0,
            name: r.item.name.clone(),
            priority: r.priority,
            dispatch_order: r.dispatch_order,
            client_id: r.client_id.clone(),
            sinks: r.item.sinks as u64,
            levels: r.item.result.levels as u64,
            buffers: r.item.result.buffers as u64,
            buffer_cap_f: r.item.result.buffer_cap_f,
            wirelength_um: r.item.result.wirelength_um,
            synth_seconds: r.item.synth_seconds,
            verify_seconds: r.item.verify_seconds,
            estimate: TimingStats {
                worst_slew: r.item.result.report.worst_slew,
                skew: r.item.result.report.skew(),
                latency: r.item.result.report.latency,
            },
            verified: r.item.verified.as_ref().map(|v| TimingStats {
                worst_slew: v.worst_slew,
                skew: v.skew,
                latency: v.max_latency,
            }),
            variation: r.item.variation.as_ref().map(VariationStats::from_summary),
        }
    }
}

/// How a request resolved, as carried by a result event.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Synthesis (and verification, when enabled) finished.
    Completed(Box<RemoteResult>),
    /// The request was cancelled.
    Cancelled,
    /// The request's deadline passed first.
    Expired,
    /// Synthesis or verification failed.
    Failed {
        /// The failure description.
        error: String,
    },
}

impl Outcome {
    /// Maps a service-side outcome onto the wire taxonomy.
    pub fn from_service(outcome: &Result<SynthesisResult, ServiceError>) -> Outcome {
        match outcome {
            Ok(r) => Outcome::Completed(Box::new(RemoteResult::from_service(r))),
            Err(ServiceError::Cancelled) => Outcome::Cancelled,
            Err(ServiceError::Expired) => Outcome::Expired,
            Err(e) => Outcome::Failed {
                error: e.to_string(),
            },
        }
    }

    /// The outcome's wire label (shared with `sweep_progress` frames).
    pub(crate) fn label(&self) -> SweepPointOutcome {
        match self {
            Outcome::Completed(_) => SweepPointOutcome::Completed,
            Outcome::Cancelled => SweepPointOutcome::Cancelled,
            Outcome::Expired => SweepPointOutcome::Expired,
            Outcome::Failed { .. } => SweepPointOutcome::Failed,
        }
    }
}

/// A pushed (unsolicited) server → client message: request `id` resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultEvent {
    /// The resolved request id.
    pub id: u64,
    /// How it resolved.
    pub outcome: Outcome,
}

/// The id, the `outcome` label, then a completed request's `result`
/// object or a failed one's `error`.
impl WireTable for ResultEvent {
    fn push_fields(&self, fields: &mut Fields) {
        fields.push(("id", self.id.to_wire()));
        fields.push(("outcome", self.outcome.label().to_wire()));
        match &self.outcome {
            Outcome::Completed(r) => fields.push(("result", r.to_wire())),
            Outcome::Failed { error } => fields.push(("error", error.to_wire())),
            Outcome::Cancelled | Outcome::Expired => {}
        }
    }
    fn from_fields(j: &Json, object: &str) -> Result<ResultEvent, DecodeError> {
        let id = required(j, object, "id")?;
        let outcome = match required(j, object, "outcome")? {
            SweepPointOutcome::Completed => Outcome::Completed(Box::new(RemoteResult {
                id,
                ..required(j, object, "result")?
            })),
            SweepPointOutcome::Cancelled => Outcome::Cancelled,
            SweepPointOutcome::Expired => Outcome::Expired,
            SweepPointOutcome::Failed => Outcome::Failed {
                error: or_default(j, "error", None)?,
            },
        };
        Ok(ResultEvent { id, outcome })
    }
}

// ---------------------------------------------------------------------------
// Sweep events

/// How one sweep point resolved, as labelled on `sweep_progress` frames
/// (the full payload travels on the point's own `result` event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepPointOutcome {
    /// The point synthesized (its row joins the Pareto fold).
    Completed,
    /// The point was cancelled.
    Cancelled,
    /// The point's deadline passed first.
    Expired,
    /// The point failed.
    Failed,
}

impl SweepPointOutcome {
    /// The wire label.
    pub fn as_str(self) -> &'static str {
        self.spelling()
    }
}

wire_struct! {
    /// A pushed `sweep_progress` event: one of a sweep's points resolved.
    /// The server emits it right after the point's `result` event, so a
    /// client that saw `done == total` has already seen every payload.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SweepProgressEvent as "sweep_progress" {
        /// The sweep ordinal from the `submit_sweep` reply.
        sweep: u64;
        /// Points resolved so far, including this one.
        done: u64;
        /// Total points in the sweep.
        total: u64;
        /// The resolved point's request id.
        id: u64;
        /// How the point resolved.
        outcome: SweepPointOutcome;
    }
}

wire_struct! {
    /// One completed sweep point's objective row on a `pareto` event, tying
    /// the point's expansion ordinal and request id to its three objectives.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct ParetoWirePoint as "pareto point" {
        /// The point's ordinal in the sweep expansion (index into the
        /// `submit_sweep` reply's `ids`).
        ordinal: u64;
        /// The point's request id.
        id: u64;
        /// Global skew (s).
        skew: f64;
        /// Total inserted buffer input capacitance (F).
        buffer_cap_f: f64;
        /// Max source-to-sink latency (s).
        latency: f64;
    }
}

wire_struct! {
    /// The terminal `pareto` event of a sweep: every completed point's
    /// objective row plus the dominance front, exactly as the server's
    /// grouping-independent [`ParetoFront`] fold produced them.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ParetoEvent as "pareto" {
        /// The sweep ordinal from the `submit_sweep` reply.
        sweep: u64;
        /// Total points in the sweep.
        total: u64;
        /// Points that completed (rows in `points`); cancelled / expired /
        /// failed points contribute nothing.
        completed: u64;
        /// One row per completed point, in expansion-ordinal order.
        points: Vec<ParetoWirePoint>;
        /// Ordinals of the non-dominated points, ascending.
        front: Vec<u64>;
    }
}

impl ParetoEvent {
    /// Rebuilds the server's fold client-side: a [`ParetoFront`] over
    /// the carried rows. Its `front_ordinals()` must equal [`front`]
    /// (`ParetoFront::from_points` is the fold's fixpoint) — the
    /// conformance suite pins that.
    ///
    /// [`front`]: ParetoEvent::front
    pub fn to_front(&self) -> ParetoFront {
        ParetoFront::from_points(self.points.iter().map(|p| ParetoPoint {
            ordinal: p.ordinal as usize,
            skew: p.skew,
            buffer_cap: p.buffer_cap_f,
            latency: p.latency,
        }))
    }
}

// ---------------------------------------------------------------------------
// The event envelope

wire_variants! {
    /// A pushed (unsolicited) server → client frame. Every event shares one
    /// envelope, `{"ok":true,"op":…,"event":true, …}`, and is routed by its
    /// op rather than correlated by `seq`.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Event {
        /// `result`: a submitted request resolved.
        Result "result" (ResultEvent),
        /// `tree`: one frame of a `fetch_tree` geometry stream.
        Tree "tree" (TreeEvent),
        /// `sweep_progress`: one of a sweep's points resolved (sent right
        /// after that point's `result` event).
        SweepProgress "sweep_progress" (SweepProgressEvent),
        /// `pareto`: a sweep finished; its folded front.
        Pareto "pareto" (ParetoEvent),
    }
}

/// Whether a decoded frame is an event (vs a reply). Clients route on
/// this before seq-matching.
pub fn is_event(j: &Json) -> bool {
    j.get("event").and_then(Json::as_bool) == Some(true)
}

/// Serializes an event frame.
pub fn encode_event(event: &Event) -> Json {
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("op", Json::str(event.op())),
        ("event", Json::Bool(true)),
    ];
    event.push_table_fields(&mut fields);
    Json::obj(fields)
}

/// Decodes an event frame.
///
/// # Errors
///
/// A description of the malformation.
pub fn decode_event(j: &Json) -> Result<Event, String> {
    if !is_event(j) || j.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err("not an event frame".into());
    }
    let op = j.get("op").and_then(Json::as_str).unwrap_or_default();
    let event = Event::decode_table(op, j).ok_or("event needs a valid 'op'")?;
    event.map_err(|e| e.message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_geom::Point;

    fn spec_instance() -> Instance {
        Instance::with_die(
            "t",
            vec![
                Sink::new("a", Point::new(10.0, 20.0), 25e-15),
                Sink::new("b", Point::new(90.5, 40.0), 30e-15),
            ],
            Rect::from_corners(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
        )
    }

    fn sample_histogram(samples: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &s in samples {
            h.record(s);
        }
        h
    }

    #[test]
    fn instance_spec_roundtrips_exactly() {
        let inst = spec_instance();
        let back = instance_from_json(&instance_to_json(&inst)).unwrap();
        assert_eq!(back, inst);
    }

    #[test]
    fn instance_spec_without_die_uses_bounding_box() {
        let j = Json::parse(
            r#"{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":10e-15},
                                     {"name":"t","x":5,"y":9,"cap_f":12e-15}]}"#,
        )
        .unwrap();
        let inst = instance_from_json(&j).unwrap();
        assert_eq!(inst.die().width(), 4.0);
        assert_eq!(inst.die().height(), 7.0);
    }

    #[test]
    fn instance_spec_rejects_bad_input() {
        for bad in [
            r#"{"sinks":[{"name":"s","x":1,"y":2,"cap_f":10e-15}]}"#, // no name
            r#"{"name":"x","sinks":[]}"#,                             // no sinks
            r#"{"name":"x"}"#,                                        // missing sinks
            r#"{"name":"x","sinks":[{"name":"s","x":1,"y":2}]}"#,     // no cap
            r#"{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":-3e-15}]}"#,
            r#"{"name":"x","die":[0,0,1],"sinks":[{"name":"s","x":0,"y":0,"cap_f":1e-15}]}"#,
            r#"{"name":"x","die":[0,0,1,1],"sinks":[{"name":"s","x":5,"y":0,"cap_f":1e-15}]}"#,
        ] {
            let j = Json::parse(bad).unwrap();
            let err = instance_from_json(&j).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{bad}");
        }
    }

    #[test]
    fn options_patch_roundtrips_and_applies() {
        let patch = OptionsPatch {
            slew_limit_ps: Some(120.0),
            slew_target_ps: Some(90.0),
            grid_resolution: Some(31),
            h_correction: Some(HCorrection::Correct),
            threads: Some(2),
            library_subset: Some(3),
            buffering: Some(Buffering::VanGinneken),
            variation_corners: Some(48),
            variation_seed: Some(2010),
            variation_sigma_buffer: Some(0.08),
            variation_sigma_wire: Some(0.04),
            variation_sigma_slew: Some(0.02),
            variation_mode: Some(VariationMode::Resynthesize),
        };
        let back = OptionsPatch::from_json(&patch.to_json()).unwrap();
        assert_eq!(back, patch);
        // The all-keys bytes are pinned: key names, key order, number
        // and enum spellings.
        assert_eq!(
            patch.to_json().to_string(),
            concat!(
                r#"{"slew_limit_ps":120,"slew_target_ps":90,"grid_resolution":31,"#,
                r#""h_correction":"correct","threads":2,"buffering":"van_ginneken","#,
                r#""library_subset":3,"variation_corners":48,"variation_seed":2010,"#,
                r#""variation_sigma_buffer":0.08,"variation_sigma_wire":0.04,"#,
                r#""variation_sigma_slew":0.02,"variation_mode":"resynthesize"}"#
            )
        );

        let base = CtsOptions::default();
        let applied = patch.apply(&base);
        assert!((applied.slew_limit - 120e-12).abs() < 1e-18);
        assert!((applied.slew_target - 90e-12).abs() < 1e-18);
        assert_eq!(applied.grid_resolution, 31);
        assert_eq!(applied.h_correction, HCorrection::Correct);
        assert_eq!(applied.threads, 2);
        assert_eq!(applied.library_subset, 3);
        assert_eq!(applied.buffering, Buffering::VanGinneken);
        assert_eq!(applied.variation.corners, 48);
        assert_eq!(applied.variation.seed, 2010);
        assert_eq!(applied.variation.sigma_buffer, 0.08);
        assert_eq!(applied.variation.sigma_wire, 0.04);
        assert_eq!(applied.variation.sigma_slew, 0.02);
        assert_eq!(applied.variation.mode, VariationMode::Resynthesize);
        // Unset fields stay at base values.
        assert_eq!(applied.cost_alpha, base.cost_alpha);

        assert!(OptionsPatch::default().is_empty());
        assert!(!patch.is_empty());
    }

    #[test]
    fn options_patch_rejects_unknown_keys() {
        let j = Json::parse(r#"{"slew_limit":100}"#).unwrap();
        let err = OptionsPatch::from_json(&j).unwrap_err();
        assert!(err.message.contains("slew_limit"), "{err}");
    }

    #[test]
    fn variation_patch_fields_roundtrip_byte_identically() {
        // Encode → decode → re-encode must reproduce the exact same bytes:
        // the determinism suite replays frames verbatim.
        let patch = OptionsPatch {
            variation_corners: Some(100),
            variation_seed: Some((1u64 << 53) - 1), // largest exactly-representable seed
            variation_sigma_buffer: Some(0.05),
            variation_sigma_wire: Some(0.03),
            variation_sigma_slew: Some(0.01),
            variation_mode: Some(VariationMode::Evaluate),
            ..OptionsPatch::default()
        };
        let first = patch.to_json().to_string();
        let back = OptionsPatch::from_json(&Json::parse(&first).unwrap()).unwrap();
        assert_eq!(back, patch);
        assert_eq!(back.to_json().to_string(), first);
        assert_eq!(back.variation_seed, Some((1u64 << 53) - 1));
    }

    #[test]
    fn variation_patch_rejects_malformed_values() {
        for (bad, needle) in [
            (r#"{"variation_corners":1.5}"#, "variation_corners"),
            (r#"{"variation_seed":-1}"#, "variation_seed"),
            (r#"{"variation_sigma_wire":"big"}"#, "variation_sigma_wire"),
            (r#"{"variation_mode":"typical"}"#, "variation_mode"),
        ] {
            let j = Json::parse(bad).unwrap();
            let err = OptionsPatch::from_json(&j).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{bad}");
            assert!(err.message.contains(needle), "{bad}: {err}");
        }
    }

    #[test]
    fn pre_variation_frames_still_decode() {
        // A metrics reply from an older server lacks the corner counters:
        // they default to zero rather than failing the decode.
        let old = Json::parse(concat!(
            r#"{"ok":true,"seq":4,"op":"metrics","workers":1,"metrics":{"#,
            r#""submitted":2,"completed":2,"cancelled":0,"expired":0,"failed":0,"#,
            r#""queue_depth":0,"synth_seconds":0.5,"verify_seconds":0.25}}"#
        ))
        .unwrap();
        let (_, resp) = decode_response(&old).unwrap();
        match resp {
            Response::Metrics(m) => {
                assert_eq!(m.metrics.corners_evaluated, 0);
                assert_eq!(m.metrics.corner_lib_hits, 0);
                assert_eq!(m.metrics.corner_lib_misses, 0);
            }
            other => panic!("expected metrics, got {other:?}"),
        }

        // A completed event without a "variation" key decodes to None, and
        // an axis-off result encodes without the key at all — old and new
        // frames are byte-compatible in both directions.
        let ev = ResultEvent {
            id: 9,
            outcome: Outcome::Completed(Box::new(RemoteResult {
                id: 9,
                name: "plain".into(),
                priority: 0,
                dispatch_order: 1,
                client_id: None,
                sinks: 4,
                levels: 2,
                buffers: 1,
                buffer_cap_f: 0.0,
                wirelength_um: 100.0,
                synth_seconds: 0.1,
                verify_seconds: 0.0,
                estimate: TimingStats {
                    worst_slew: 50e-12,
                    skew: 1e-12,
                    latency: 1e-9,
                },
                verified: None,
                variation: None,
            })),
        };
        let frame = encode_event(&Event::Result(ev.clone())).to_string();
        assert!(!frame.contains("variation"), "{frame}");
        let back = decode_event(&Json::parse(&frame).unwrap()).unwrap();
        assert_eq!(back, Event::Result(ev));
    }

    #[test]
    fn requests_roundtrip() {
        let requests = [
            Request::Hello {
                version: PROTOCOL_VERSION,
                client_id: Some("tester".into()),
            },
            Request::Submit {
                instance: spec_instance(),
                options: OptionsPatch {
                    grid_resolution: Some(21),
                    ..OptionsPatch::default()
                },
                scheduling: Scheduling {
                    priority: -4,
                    deadline_ms: Some(1500),
                    client_id: Some("c0".into()),
                    publish_levels: true,
                },
            },
            Request::Submit {
                instance: spec_instance(),
                options: OptionsPatch::default(),
                scheduling: Scheduling::default(),
            },
            Request::SubmitBatch {
                entries: vec![
                    BatchEntry {
                        instance: spec_instance(),
                        scheduling: Scheduling {
                            priority: 3,
                            deadline_ms: Some(750),
                            client_id: Some("sweep".into()),
                            publish_levels: true,
                        },
                    },
                    BatchEntry::new(spec_instance()),
                ],
                options: OptionsPatch {
                    h_correction: Some(HCorrection::ReEstimate),
                    ..OptionsPatch::default()
                },
            },
            Request::SubmitSweep {
                instance: spec_instance(),
                base: OptionsPatch {
                    slew_target_ps: Some(80.0),
                    ..OptionsPatch::default()
                },
                range: SweepRange::Axes(SweepAxesSpec {
                    slew_targets_ps: vec![60.0, 90.0],
                    library_subsets: vec![0, 2],
                    h_corrections: vec![HCorrection::Off, HCorrection::Correct],
                    bufferings: vec![Buffering::VanGinneken],
                }),
                scheduling: Scheduling {
                    priority: 2,
                    deadline_ms: Some(9000),
                    client_id: Some("sweeper".into()),
                    publish_levels: true,
                },
            },
            Request::SubmitSweep {
                instance: spec_instance(),
                base: OptionsPatch::default(),
                range: SweepRange::Points(vec![
                    OptionsPatch::default(),
                    OptionsPatch {
                        slew_target_ps: Some(75.0),
                        library_subset: Some(1),
                        h_correction: Some(HCorrection::ReEstimate),
                        buffering: Some(Buffering::Greedy),
                        ..OptionsPatch::default()
                    },
                ]),
                scheduling: Scheduling::default(),
            },
            Request::FetchTree {
                id: 12,
                chunk: Some(64),
                levels: false,
            },
            Request::FetchTree {
                id: 13,
                chunk: None,
                levels: true,
            },
            Request::Status { id: 7 },
            Request::Cancel { id: 9 },
            Request::Metrics,
            Request::Stats,
            Request::Shutdown,
        ];
        for (i, req) in requests.iter().enumerate() {
            let frame = encode_request(i as u64, req);
            // Through text, as on the wire.
            let reparsed = Json::parse(&frame.to_string()).unwrap();
            let (seq, back) = decode_request(&reparsed).unwrap();
            assert_eq!(seq, i as u64);
            assert_eq!(&back, req);
        }
    }

    #[test]
    fn metrics_reply_without_verify_counters_parses_as_zero() {
        // A pre-counter server omits the verify-cache fields; the client
        // must default them to 0, not reject the frame.
        let frame = r#"{"ok":true,"seq":4,"op":"metrics","workers":2,"metrics":{"submitted":10,"completed":7,"cancelled":1,"expired":1,"failed":1,"queue_depth":0,"synth_seconds":1.25,"verify_seconds":0.5}}"#;
        let j = Json::parse(frame).unwrap();
        let (seq, resp) = decode_response(&j).unwrap();
        assert_eq!(seq, Some(4));
        let Response::Metrics(reply) = resp else {
            panic!("expected a metrics reply, got {resp:?}");
        };
        assert_eq!(reply.metrics.submitted, 10);
        assert_eq!(reply.metrics.stages_simulated, 0);
        assert_eq!(reply.metrics.stages_reused, 0);
        assert_eq!(reply.metrics.symbolic_hits, 0);
        assert_eq!(reply.metrics.symbolic_misses, 0);
        // Same for the per-stage throughput fields (arrived even later).
        assert_eq!(reply.metrics.topology_seconds, 0.0);
        assert_eq!(reply.metrics.merge_seconds, 0.0);
        assert_eq!(reply.metrics.sinks_synthesized, 0);
        assert_eq!(reply.metrics.sinks_verified, 0);
    }

    #[test]
    fn options_patch_rejects_bad_buffering_value() {
        let j = Json::parse(r#"{"buffering":"lazy"}"#).unwrap();
        let err = OptionsPatch::from_json(&j).unwrap_err();
        assert!(err.message.contains("buffering"), "{err}");
    }

    #[test]
    fn responses_roundtrip() {
        let responses = vec![
            (
                Some(0),
                Response::Hello {
                    version: 1,
                    server: "cts-serve/0.1.0".into(),
                    workers: 4,
                },
            ),
            (Some(1), Response::Submitted { id: 3 }),
            (Some(6), Response::BatchSubmitted { ids: vec![4, 5, 6] }),
            (
                Some(9),
                Response::SweepSubmitted {
                    sweep: 1,
                    ids: vec![7, 8, 9, 10],
                },
            ),
            (
                Some(7),
                Response::TreeHeader(TreeInfo {
                    id: 4,
                    name: "blk".into(),
                    nodes: 57,
                    chunks: 2,
                    source: 56,
                    partial: false,
                    levels_done: 0,
                }),
            ),
            (
                Some(10),
                Response::TreeHeader(TreeInfo {
                    id: 5,
                    name: "blk".into(),
                    nodes: 24,
                    chunks: 1,
                    source: 0,
                    partial: true,
                    levels_done: 3,
                }),
            ),
            (
                Some(2),
                Response::Status {
                    id: 3,
                    state: RequestStatus::InFlight,
                },
            ),
            (Some(3), Response::Cancelled { id: 3 }),
            (
                Some(4),
                Response::Metrics(MetricsReply {
                    workers: 2,
                    metrics: ServiceMetrics {
                        submitted: 10,
                        completed: 7,
                        cancelled: 1,
                        expired: 1,
                        failed: 1,
                        queue_depth: 0,
                        synth_seconds: 1.25,
                        verify_seconds: 0.5,
                        stages_simulated: 42,
                        stages_reused: 18,
                        symbolic_hits: 40,
                        symbolic_misses: 2,
                        topology_seconds: 0.25,
                        merge_seconds: 0.75,
                        sinks_synthesized: 640,
                        sinks_verified: 512,
                        corners_evaluated: 96,
                        corner_lib_hits: 80,
                        corner_lib_misses: 16,
                        queue_depth_high_water: 4,
                        sweeps_submitted: 2,
                    },
                }),
            ),
            (
                Some(8),
                Response::Stats(Box::new(StatsReply {
                    workers: 2,
                    metrics: ServiceMetrics {
                        submitted: 3,
                        completed: 3,
                        queue_depth_high_water: 2,
                        ..ServiceMetrics::default()
                    },
                    queue_wait: vec![
                        (-1, sample_histogram(&[0, 90_000])),
                        (5, sample_histogram(&[12])),
                    ],
                    synth_latency: sample_histogram(&[1_000_000, 2_000_000, 3_500_000]),
                    verify_latency: Histogram::new(),
                    spans: vec![
                        SpanStat {
                            name: "pipeline.merge_level".into(),
                            durations: sample_histogram(&[250_000, 300_000]),
                        },
                        SpanStat {
                            name: "verify.tree".into(),
                            durations: sample_histogram(&[7]),
                        },
                    ],
                    dropped: 1,
                })),
            ),
            (Some(5), Response::ShuttingDown),
            (
                None,
                Response::Error {
                    code: ErrorCode::BadJson,
                    message: "unparseable".into(),
                },
            ),
        ];
        for (seq, resp) in &responses {
            let frame = encode_response(*seq, resp);
            let reparsed = Json::parse(&frame.to_string()).unwrap();
            assert!(!is_event(&reparsed));
            let (got_seq, back) = decode_response(&reparsed).unwrap();
            assert_eq!(&got_seq, seq);
            assert_eq!(&back, resp);
        }
    }

    #[test]
    fn stats_reply_reencodes_byte_identically() {
        // The histogram percentile fields are derived from the bucket
        // parts at encode time, so decode → re-encode must reproduce the
        // frame byte for byte — the property the determinism suite and
        // the conformance transcript rely on.
        let reply = Response::Stats(Box::new(StatsReply {
            workers: 1,
            metrics: ServiceMetrics {
                submitted: 2,
                completed: 2,
                synth_seconds: 0.125,
                queue_depth_high_water: 2,
                ..ServiceMetrics::default()
            },
            queue_wait: vec![(0, sample_histogram(&[1_500, 40_000]))],
            synth_latency: sample_histogram(&[2_000_000, 9_000_000]),
            verify_latency: sample_histogram(&[750_000]),
            spans: vec![SpanStat {
                name: "service.synth".into(),
                durations: sample_histogram(&[2_000_000, 9_000_000]),
            }],
            dropped: 0,
        }));
        let first = encode_response(Some(3), &reply).to_string();
        let (seq, back) = decode_response(&Json::parse(&first).unwrap()).unwrap();
        assert_eq!(seq, Some(3));
        assert_eq!(back, reply);
        assert_eq!(encode_response(Some(3), &back).to_string(), first);
        // The derived percentiles on the wire match what a client
        // recomputes from the decoded buckets.
        let Response::Stats(decoded) = back else {
            unreachable!()
        };
        let j = Json::parse(&first).unwrap();
        let wire_p99 = j
            .get("synth_latency")
            .and_then(|h| h.get("p99_ns"))
            .and_then(Json::as_u64)
            .unwrap();
        assert_eq!(decoded.synth_latency.percentile(99.0), wire_p99);
    }

    #[test]
    fn empty_stats_reply_pins_its_frame_bytes() {
        // A paused, fresh server with no recorder installed answers
        // `stats` with exactly this frame — the conformance transcript in
        // docs/PROTOCOL.md replays it verbatim.
        let reply = Response::Stats(Box::new(StatsReply {
            workers: 1,
            ..StatsReply::default()
        }));
        let frame = encode_response(Some(2), &reply).to_string();
        let expected = concat!(
            r#"{"ok":true,"seq":2,"op":"stats","workers":1,"metrics":{"#,
            r#""submitted":0,"completed":0,"cancelled":0,"expired":0,"failed":0,"#,
            r#""queue_depth":0,"synth_seconds":0,"verify_seconds":0,"#,
            r#""stages_simulated":0,"stages_reused":0,"symbolic_hits":0,"#,
            r#""symbolic_misses":0,"topology_seconds":0,"merge_seconds":0,"#,
            r#""sinks_synthesized":0,"sinks_verified":0,"corners_evaluated":0,"#,
            r#""corner_lib_hits":0,"corner_lib_misses":0,"queue_depth_high_water":0,"#,
            r#""sweeps_submitted":0},"#,
            r#""queue_wait":[],"#,
            r#""synth_latency":{"count":0,"total_ns":0,"max_ns":0,"p50_ns":0,"p90_ns":0,"p99_ns":0,"buckets":[]},"#,
            r#""verify_latency":{"count":0,"total_ns":0,"max_ns":0,"p50_ns":0,"p90_ns":0,"p99_ns":0,"buckets":[]},"#,
            r#""spans":[],"dropped":0}"#,
        );
        assert_eq!(frame, expected);
    }

    #[test]
    fn stats_reply_decode_is_lenient() {
        // 'dropped' is absent on servers that predate drop accounting;
        // out-of-range bucket indices are ignored, not fatal.
        let frame = concat!(
            r#"{"ok":true,"seq":1,"op":"stats","workers":1,"metrics":{"#,
            r#""submitted":0,"completed":0,"cancelled":0,"expired":0,"failed":0,"#,
            r#""queue_depth":0,"synth_seconds":0,"verify_seconds":0},"#,
            r#""queue_wait":[],"#,
            r#""synth_latency":{"count":2,"total_ns":30,"max_ns":20,"buckets":[[4,1],[5,1],[900,7]]},"#,
            r#""verify_latency":{"count":0,"total_ns":0,"max_ns":0,"buckets":[]},"#,
            r#""spans":[]}"#,
        );
        let (_, resp) = decode_response(&Json::parse(frame).unwrap()).unwrap();
        let Response::Stats(s) = resp else {
            panic!("expected a stats reply, got {resp:?}");
        };
        assert_eq!(s.dropped, 0);
        assert_eq!(s.metrics.queue_depth_high_water, 0);
        assert_eq!(s.synth_latency.count(), 2);
        assert_eq!(s.synth_latency.nonzero_buckets(), vec![(4, 1), (5, 1)]);
        // Percentiles were not on the wire at all — the client derives
        // them from the buckets.
        assert_eq!(s.synth_latency.percentile(100.0), 20);
    }

    #[test]
    fn events_roundtrip() {
        let events = vec![
            ResultEvent {
                id: 5,
                outcome: Outcome::Completed(Box::new(RemoteResult {
                    id: 5,
                    name: "r1".into(),
                    priority: 2,
                    dispatch_order: 11,
                    client_id: Some("tenant".into()),
                    sinks: 267,
                    levels: 9,
                    buffers: 120,
                    buffer_cap_f: 1.375e-13,
                    wirelength_um: 12_345.625,
                    synth_seconds: 2.5,
                    verify_seconds: 1.25,
                    estimate: TimingStats {
                        worst_slew: 81.5e-12,
                        skew: 3.25e-12,
                        latency: 1.75e-9,
                    },
                    verified: Some(TimingStats {
                        worst_slew: 83.0e-12,
                        skew: 4.0e-12,
                        latency: 1.8e-9,
                    }),
                    variation: Some(VariationStats {
                        corners: 64,
                        skew: DistStats {
                            min: 3.0e-12,
                            median: 3.5e-12,
                            p95: 4.25e-12,
                            max: 4.5e-12,
                        },
                        worst_slew: DistStats {
                            min: 80.0e-12,
                            median: 82.0e-12,
                            p95: 85.0e-12,
                            max: 86.5e-12,
                        },
                        latency: DistStats {
                            min: 1.7e-9,
                            median: 1.75e-9,
                            p95: 1.8e-9,
                            max: 1.8125e-9,
                        },
                    }),
                })),
            },
            ResultEvent {
                id: 6,
                outcome: Outcome::Cancelled,
            },
            ResultEvent {
                id: 7,
                outcome: Outcome::Expired,
            },
            ResultEvent {
                id: 8,
                outcome: Outcome::Failed {
                    error: "slew target unachievable".into(),
                },
            },
        ];
        for ev in &events {
            let ev = Event::Result(ev.clone());
            let frame = encode_event(&ev);
            let reparsed = Json::parse(&frame.to_string()).unwrap();
            assert!(is_event(&reparsed));
            let back = decode_event(&reparsed).unwrap();
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn tree_events_roundtrip_bit_for_bit() {
        // A small but kind-complete tree: sink, buffer, joint, source.
        let mut tree = ClockTree::new();
        let a = tree.add_sink(0, &Sink::new("a", Point::new(0.0, 0.0), 25e-15));
        let b = tree.add_sink(1, &Sink::new("b", Point::new(200.125, 0.0), 30e-15));
        let buf = tree.add_buffer(Point::new(50.5, 0.0), BufferId(1));
        tree.attach(buf, a, 50.5);
        let m = tree.add_joint(Point::new(100.0, 0.0));
        tree.attach(m, buf, 49.5);
        tree.attach(m, b, 101.0 + 2.0f64.powi(-40)); // exercise exact float carry
        let src = tree.add_source(m, BufferId(2));

        // Stream in 2-node chunks, rebuild, compare field for field.
        let nodes = tree.nodes();
        let mut rebuilt: Vec<TreeNode> = Vec::new();
        for (k, chunk) in nodes.chunks(2).enumerate() {
            let ev = TreeChunkEvent {
                id: 9,
                chunk: k as u64,
                nodes: chunk.to_vec(),
            };
            let frame = encode_event(&Event::Tree(TreeEvent::Chunk(ev.clone())));
            let frame = Json::parse(&frame.to_string()).unwrap();
            assert!(is_event(&frame));
            assert_eq!(frame.get("op").and_then(Json::as_str), Some("tree"));
            match decode_event(&frame).unwrap() {
                Event::Tree(TreeEvent::Chunk(back)) => {
                    assert_eq!(back, ev);
                    rebuilt.extend(back.nodes);
                }
                other => panic!("chunk decoded as {other:?}"),
            }
        }
        let back = ClockTree::from_nodes(rebuilt).expect("streamed tree is valid");
        assert_eq!(back, tree, "geometry must round-trip bit-for-bit");
        assert_eq!(back.node(src).kind, tree.node(src).kind);

        let done = TreeDoneEvent {
            id: 9,
            level_stats: vec![LevelStats {
                level: 1,
                pairs: 1,
                seed_promoted: false,
                flippings: 0,
                buffers_inserted: 1,
                worst_skew_estimate: 3.25e-12,
                max_latency_estimate: 1.75e-9,
                nodes_total: 5,
            }],
        };
        let frame = encode_event(&Event::Tree(TreeEvent::Done(done.clone())));
        let frame = Json::parse(&frame.to_string()).unwrap();
        match decode_event(&frame).unwrap() {
            Event::Tree(TreeEvent::Done(back)) => assert_eq!(back, done),
            other => panic!("terminal decoded as {other:?}"),
        }
    }

    #[test]
    fn sweep_requests_reject_bad_shapes() {
        let base = r#"{"op":"submit_sweep","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":10e-15},{"name":"t","x":5,"y":9,"cap_f":12e-15}]}"#;
        for (tail, needle) in [
            (r#"}"#, "'axes' or 'points'"),
            (r#","axes":{},"points":[{}]}"#, "not both"),
            (r#","points":[]}"#, "at least one point"),
            (
                r#","points":[{"grid_resolution":9}]}"#,
                "unknown sweep point key 'grid_resolution'",
            ),
            (
                r#","axes":{"slew_ps":[60]}}"#,
                "unknown sweep axis 'slew_ps'",
            ),
            (r#","axes":{"buffering":["lazy"]}}"#, "'buffering' must be"),
        ] {
            let j = Json::parse(&format!("{base}{tail}")).unwrap();
            let err = decode_request(&j).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest);
            assert!(err.message.contains(needle), "{}: {}", tail, err.message);
        }
        // Every non-axis table key is rejected both as a sweep point key
        // and as a sweep axis.
        let non_axis: Vec<&str> = OPTION_KEYS
            .iter()
            .filter(|&&(_, axis)| !axis)
            .map(|&(key, _)| key)
            .collect();
        assert_eq!(non_axis.len(), 9);
        for key in non_axis {
            for (tail, needle) in [
                (
                    format!(r#","points":[{{"{key}":1}}]}}"#),
                    format!("unknown sweep point key '{key}'"),
                ),
                (
                    format!(r#","axes":{{"{key}":[1]}}}}"#),
                    format!("unknown sweep axis '{key}'"),
                ),
            ] {
                let j = Json::parse(&format!("{base}{tail}")).unwrap();
                let err = decode_request(&j).unwrap_err();
                assert_eq!(err.code, ErrorCode::BadRequest);
                assert_eq!(err.message, needle, "{tail}");
            }
        }
    }

    #[test]
    fn sweep_axes_convert_like_individual_patches() {
        // A swept point is the very patch an individual submission sends,
        // so the ps → s conversion is one expression by construction.
        let axes = SweepAxesSpec {
            slew_targets_ps: vec![62.5, 90.0],
            ..SweepAxesSpec::default()
        };
        let points = axes.points().unwrap();
        for (ps, point) in axes.slew_targets_ps.iter().zip(&points) {
            let patched = OptionsPatch {
                slew_target_ps: Some(*ps),
                ..OptionsPatch::default()
            }
            .apply(&CtsOptions::default());
            let swept = point.apply(&CtsOptions::default());
            assert_eq!(patched.slew_target.to_bits(), swept.slew_target.to_bits());
        }
    }

    #[test]
    fn cartesian_expansion_is_row_major() {
        let axes = SweepAxesSpec {
            slew_targets_ps: vec![70.0, 80.0],
            library_subsets: vec![],
            h_corrections: vec![HCorrection::Off, HCorrection::ReEstimate],
            bufferings: vec![Buffering::Greedy],
        };
        let points = axes.points().unwrap();
        assert_eq!(points.len(), 4);
        // Buffering innermost, slew target outermost; the empty subset
        // axis contributes the base value (None).
        assert_eq!(points[0].slew_target_ps, Some(70.0));
        assert_eq!(points[0].h_correction, Some(HCorrection::Off));
        assert_eq!(points[1].h_correction, Some(HCorrection::ReEstimate));
        assert_eq!(points[2].slew_target_ps, Some(80.0));
        assert!(points.iter().all(|p| p.library_subset.is_none()));
        assert!(points
            .iter()
            .all(|p| p.buffering == Some(Buffering::Greedy)));

        let expanded: Vec<CtsOptions> = points
            .iter()
            .map(|p| p.apply(&CtsOptions::default()))
            .collect();
        assert_eq!(expanded[1].slew_target, 70e-12);
        assert_eq!(expanded[1].h_correction, HCorrection::ReEstimate);
        assert_eq!(expanded[2].slew_target, 80e-12);
        // Untouched fields carry the base value.
        assert_eq!(
            expanded[3].grid_resolution,
            CtsOptions::default().grid_resolution
        );

        // The library-subset axis nests between slew target and
        // H-correction, whatever the JSON key order of the frame.
        let j = Json::parse(
            r#"{"buffering":["greedy","van_ginneken"],"h_correction":["off","correct"],"library_subset":[0,2],"slew_target_ps":[60,90]}"#,
        )
        .unwrap();
        let axes = SweepAxesSpec::from_json(&j).unwrap();
        let points = axes.points().unwrap();
        assert_eq!(points.len(), 16);
        assert_eq!(points[4].library_subset, Some(2));
        assert_eq!(points[4].slew_target_ps, Some(60.0));
        assert_eq!(points[2].h_correction, Some(HCorrection::Correct));
        assert_eq!(points[1].buffering, Some(Buffering::VanGinneken));
        assert_eq!(points[8].slew_target_ps, Some(90.0));
        assert_eq!(
            axes.to_json().to_string(),
            r#"{"slew_target_ps":[60,90],"library_subset":[0,2],"h_correction":["off","correct"],"buffering":["greedy","van_ginneken"]}"#
        );
    }

    #[test]
    fn explicit_points_keep_order_and_base() {
        let range = SweepRange::Points(vec![
            OptionsPatch::default(),
            OptionsPatch {
                buffering: Some(Buffering::VanGinneken),
                ..OptionsPatch::default()
            },
        ]);
        let expanded: Vec<CtsOptions> = range
            .points()
            .unwrap()
            .iter()
            .map(|p| p.apply(&CtsOptions::default()))
            .collect();
        assert_eq!(expanded.len(), 2);
        assert_eq!(expanded[0], CtsOptions::default());
        assert_eq!(expanded[1].buffering, Buffering::VanGinneken);
    }

    #[test]
    fn oversized_axes_are_rejected_before_expansion() {
        // 1000^4 points: the product is checked, never allocated.
        let axes = SweepAxesSpec {
            slew_targets_ps: vec![80.0; 1000],
            library_subsets: vec![0; 1000],
            h_corrections: vec![HCorrection::Off; 1000],
            bufferings: vec![Buffering::Greedy; 1000],
        };
        assert_eq!(
            axes.points(),
            Err(SweepError::TooManyPoints {
                points: 1_000_000_000_000,
                max: sweep::MAX_SWEEP_POINTS
            })
        );
        let empty = SweepRange::Points(Vec::new());
        assert_eq!(empty.points(), Err(SweepError::Empty));
        let wide = SweepRange::Points(vec![OptionsPatch::default(); sweep::MAX_SWEEP_POINTS + 1]);
        assert!(matches!(
            wide.points(),
            Err(SweepError::TooManyPoints { .. })
        ));
    }

    #[test]
    fn sweep_events_roundtrip() {
        let progress = SweepProgressEvent {
            sweep: 2,
            done: 1,
            total: 3,
            id: 14,
            outcome: SweepPointOutcome::Completed,
        };
        let frame = encode_event(&Event::SweepProgress(progress));
        let frame = Json::parse(&frame.to_string()).unwrap();
        assert!(is_event(&frame));
        assert_eq!(
            frame.get("op").and_then(Json::as_str),
            Some("sweep_progress")
        );
        assert_eq!(
            decode_event(&frame).unwrap(),
            Event::SweepProgress(progress)
        );

        let pareto = ParetoEvent {
            sweep: 2,
            total: 3,
            completed: 2,
            points: vec![
                ParetoWirePoint {
                    ordinal: 0,
                    id: 14,
                    skew: 3.25e-12,
                    buffer_cap_f: 1.5e-13,
                    latency: 1.75e-9,
                },
                ParetoWirePoint {
                    ordinal: 2,
                    id: 16,
                    skew: 2.0e-12,
                    buffer_cap_f: 2.5e-13,
                    latency: 1.5e-9,
                },
            ],
            front: vec![0, 2],
        };
        let frame = encode_event(&Event::Pareto(pareto.clone()));
        let frame = Json::parse(&frame.to_string()).unwrap();
        assert!(is_event(&frame));
        assert_eq!(frame.get("op").and_then(Json::as_str), Some("pareto"));
        let Event::Pareto(back) = decode_event(&frame).unwrap() else {
            panic!("pareto frame decoded as another event");
        };
        assert_eq!(back, pareto);
        // The client-side refold reproduces the server's front.
        assert_eq!(
            back.to_front()
                .front_ordinals()
                .iter()
                .map(|&o| o as u64)
                .collect::<Vec<_>>(),
            back.front
        );
    }

    #[test]
    fn error_codes_roundtrip() {
        for code in [
            ErrorCode::BadJson,
            ErrorCode::BadRequest,
            ErrorCode::UnsupportedVersion,
            ErrorCode::UnknownId,
            ErrorCode::ShuttingDown,
        ] {
            assert_eq!(ErrorCode::from_wire(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::from_wire("nope"), None);
    }

    /// Any frame the protocol sends, for the byte pins.
    enum Pinned {
        Request(u64, Request),
        Response(Option<u64>, Response),
        Event(Event),
    }

    fn encode_pinned(frame: &Pinned) -> String {
        match frame {
            Pinned::Request(seq, r) => encode_request(*seq, r),
            Pinned::Response(seq, r) => encode_response(*seq, r),
            Pinned::Event(e) => encode_event(e),
        }
        .to_string()
    }

    /// Decodes `text` as the same kind of frame as `frame` and re-encodes
    /// it.
    fn reencode_pinned(frame: &Pinned, text: &str) -> String {
        let j = Json::parse(text).unwrap();
        match frame {
            Pinned::Request(..) => {
                let (seq, r) = decode_request(&j).unwrap();
                encode_request(seq, &r)
            }
            Pinned::Response(..) => {
                let (seq, r) = decode_response(&j).unwrap();
                encode_response(seq, &r)
            }
            Pinned::Event(_) => encode_event(&decode_event(&j).unwrap()),
        }
        .to_string()
    }

    fn pinned_result(id: u64, all_set: bool) -> ResultEvent {
        let timing = |s: f64| TimingStats {
            worst_slew: 81.5e-12 * s,
            skew: 3.25e-12 * s,
            latency: 1.75e-9 * s,
        };
        let dist = |base: f64| DistStats {
            min: base,
            median: base * 1.125,
            p95: base * 1.375,
            max: base * 1.5,
        };
        ResultEvent {
            id,
            outcome: Outcome::Completed(Box::new(RemoteResult {
                id,
                name: "r1".into(),
                priority: -2,
                dispatch_order: 11,
                client_id: all_set.then(|| "tenant".into()),
                sinks: 267,
                levels: 9,
                buffers: 120,
                buffer_cap_f: 1.375e-13,
                wirelength_um: 12_345.625,
                synth_seconds: 2.5,
                verify_seconds: 1.25,
                estimate: timing(1.0),
                verified: all_set.then(|| timing(1.0625)),
                variation: all_set.then(|| VariationStats {
                    corners: 64,
                    skew: dist(3.0e-12),
                    worst_slew: dist(80.0e-12),
                    latency: dist(1.7e-9),
                }),
            })),
        }
    }

    fn pinned_level(level: usize) -> LevelStats {
        LevelStats {
            level,
            pairs: 4 / level,
            seed_promoted: level == 2,
            flippings: level - 1,
            buffers_inserted: 3 * level,
            worst_skew_estimate: 1.5e-12 * level as f64,
            max_latency_estimate: 2.5e-10 * level as f64,
            nodes_total: 7 + 6 * level,
        }
    }

    fn pinned_metrics() -> ServiceMetrics {
        ServiceMetrics {
            submitted: 10,
            completed: 7,
            cancelled: 1,
            expired: 1,
            failed: 1,
            queue_depth: 3,
            synth_seconds: 1.25,
            verify_seconds: 0.5,
            stages_simulated: 42,
            stages_reused: 18,
            symbolic_hits: 40,
            symbolic_misses: 2,
            topology_seconds: 0.25,
            merge_seconds: 0.75,
            sinks_synthesized: 640,
            sinks_verified: 512,
            corners_evaluated: 96,
            corner_lib_hits: 80,
            corner_lib_misses: 16,
            queue_depth_high_water: 4,
            sweeps_submitted: 2,
        }
    }

    /// A kind-complete arena: two sinks, a buffer, a joint whose children
    /// are listed out of index order, and the parentless source root.
    fn pinned_nodes() -> Vec<TreeNode> {
        let mut tree = ClockTree::new();
        let a = tree.add_sink(0, &Sink::new("a", Point::new(0.0, 0.0), 25e-15));
        let b = tree.add_sink(1, &Sink::new("b", Point::new(200.125, 0.0), 30e-15));
        let m = tree.add_joint(Point::new(100.0, 0.5));
        tree.attach(m, b, 100.625);
        let buf = tree.add_buffer(Point::new(50.5, 0.0), BufferId(1));
        tree.attach(buf, a, 50.5);
        tree.attach(m, buf, 49.5);
        tree.add_source(m, BufferId(2));
        tree.nodes().to_vec()
    }

    fn pinned_scheduling() -> Scheduling {
        Scheduling {
            priority: -4,
            deadline_ms: Some(1500),
            client_id: Some("c0".into()),
            publish_levels: true,
        }
    }

    fn pinned_frames() -> Vec<(Pinned, &'static str)> {
        let tiny = || {
            Instance::with_die(
                "t",
                vec![Sink::new("a", Point::new(10.0, 20.0), 25e-15)],
                Rect::from_corners(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
            )
        };
        vec![
            (
                Pinned::Request(
                    0,
                    Request::Hello {
                        version: PROTOCOL_VERSION,
                        client_id: Some("pin".into()),
                    },
                ),
                r#"{"op":"hello","seq":0,"version":2,"client_id":"pin"}"#,
            ),
            (
                Pinned::Request(
                    1,
                    Request::Hello {
                        version: PROTOCOL_VERSION,
                        client_id: None,
                    },
                ),
                r#"{"op":"hello","seq":1,"version":2}"#,
            ),
            (
                Pinned::Request(
                    2,
                    Request::Submit {
                        instance: tiny(),
                        options: OptionsPatch {
                            slew_target_ps: Some(90.0),
                            buffering: Some(Buffering::VanGinneken),
                            ..OptionsPatch::default()
                        },
                        scheduling: pinned_scheduling(),
                    },
                ),
                r#"{"op":"submit","seq":2,"instance":{"name":"t","die":[0,0,100,100],"sinks":[{"name":"a","x":10,"y":20,"cap_f":0.000000000000025}]},"options":{"slew_target_ps":90,"buffering":"van_ginneken"},"priority":-4,"deadline_ms":1500,"client_id":"c0","publish_levels":true}"#,
            ),
            (
                Pinned::Request(
                    3,
                    Request::Submit {
                        instance: tiny(),
                        options: OptionsPatch::default(),
                        scheduling: Scheduling::default(),
                    },
                ),
                r#"{"op":"submit","seq":3,"instance":{"name":"t","die":[0,0,100,100],"sinks":[{"name":"a","x":10,"y":20,"cap_f":0.000000000000025}]}}"#,
            ),
            (
                Pinned::Request(
                    4,
                    Request::SubmitBatch {
                        entries: vec![
                            BatchEntry {
                                instance: tiny(),
                                scheduling: pinned_scheduling(),
                            },
                            BatchEntry::new(tiny()),
                        ],
                        options: OptionsPatch {
                            h_correction: Some(HCorrection::Correct),
                            ..OptionsPatch::default()
                        },
                    },
                ),
                r#"{"op":"submit_batch","seq":4,"entries":[{"instance":{"name":"t","die":[0,0,100,100],"sinks":[{"name":"a","x":10,"y":20,"cap_f":0.000000000000025}]},"priority":-4,"deadline_ms":1500,"client_id":"c0","publish_levels":true},{"instance":{"name":"t","die":[0,0,100,100],"sinks":[{"name":"a","x":10,"y":20,"cap_f":0.000000000000025}]}}],"options":{"h_correction":"correct"}}"#,
            ),
            (
                Pinned::Request(
                    5,
                    Request::SubmitSweep {
                        instance: tiny(),
                        base: OptionsPatch {
                            grid_resolution: Some(21),
                            ..OptionsPatch::default()
                        },
                        range: SweepRange::Axes(SweepAxesSpec {
                            slew_targets_ps: vec![60.0, 90.0],
                            library_subsets: vec![0, 2],
                            h_corrections: vec![HCorrection::Off],
                            bufferings: vec![Buffering::Greedy, Buffering::VanGinneken],
                        }),
                        scheduling: pinned_scheduling(),
                    },
                ),
                r#"{"op":"submit_sweep","seq":5,"instance":{"name":"t","die":[0,0,100,100],"sinks":[{"name":"a","x":10,"y":20,"cap_f":0.000000000000025}]},"base":{"grid_resolution":21},"axes":{"slew_target_ps":[60,90],"library_subset":[0,2],"h_correction":["off"],"buffering":["greedy","van_ginneken"]},"priority":-4,"deadline_ms":1500,"client_id":"c0","publish_levels":true}"#,
            ),
            (
                Pinned::Request(
                    6,
                    Request::SubmitSweep {
                        instance: tiny(),
                        base: OptionsPatch::default(),
                        range: SweepRange::Points(vec![
                            OptionsPatch::default(),
                            OptionsPatch {
                                slew_target_ps: Some(75.0),
                                library_subset: Some(1),
                                h_correction: Some(HCorrection::ReEstimate),
                                buffering: Some(Buffering::Greedy),
                                ..OptionsPatch::default()
                            },
                        ]),
                        scheduling: Scheduling::default(),
                    },
                ),
                r#"{"op":"submit_sweep","seq":6,"instance":{"name":"t","die":[0,0,100,100],"sinks":[{"name":"a","x":10,"y":20,"cap_f":0.000000000000025}]},"points":[{},{"slew_target_ps":75,"h_correction":"re_estimate","buffering":"greedy","library_subset":1}]}"#,
            ),
            (
                Pinned::Request(
                    7,
                    Request::FetchTree {
                        id: 12,
                        chunk: Some(64),
                        levels: true,
                    },
                ),
                r#"{"op":"fetch_tree","seq":7,"id":12,"chunk":64,"mode":"levels"}"#,
            ),
            (
                Pinned::Request(
                    8,
                    Request::FetchTree {
                        id: 13,
                        chunk: None,
                        levels: false,
                    },
                ),
                r#"{"op":"fetch_tree","seq":8,"id":13}"#,
            ),
            (
                Pinned::Request(9, Request::Status { id: 7 }),
                r#"{"op":"status","seq":9,"id":7}"#,
            ),
            (
                Pinned::Request(10, Request::Cancel { id: 9 }),
                r#"{"op":"cancel","seq":10,"id":9}"#,
            ),
            (
                Pinned::Request(11, Request::Metrics),
                r#"{"op":"metrics","seq":11}"#,
            ),
            (
                Pinned::Request(12, Request::Stats),
                r#"{"op":"stats","seq":12}"#,
            ),
            (
                Pinned::Request(13, Request::Shutdown),
                r#"{"op":"shutdown","seq":13}"#,
            ),
            (
                Pinned::Response(
                    Some(0),
                    Response::Hello {
                        version: PROTOCOL_VERSION,
                        server: "cts-serve/0.1.0".into(),
                        workers: 2,
                    },
                ),
                r#"{"ok":true,"seq":0,"op":"hello","version":2,"server":"cts-serve/0.1.0","workers":2}"#,
            ),
            (
                Pinned::Response(Some(1), Response::Submitted { id: 3 }),
                r#"{"ok":true,"seq":1,"op":"submit","id":3}"#,
            ),
            (
                Pinned::Response(Some(2), Response::BatchSubmitted { ids: vec![4, 5] }),
                r#"{"ok":true,"seq":2,"op":"submit_batch","ids":[4,5]}"#,
            ),
            (
                Pinned::Response(
                    Some(3),
                    Response::SweepSubmitted {
                        sweep: 1,
                        ids: vec![6, 7, 8],
                    },
                ),
                r#"{"ok":true,"seq":3,"op":"submit_sweep","sweep":1,"ids":[6,7,8]}"#,
            ),
            (
                Pinned::Response(
                    Some(4),
                    Response::TreeHeader(TreeInfo::complete(4, "blk".into(), 57, 2, 56)),
                ),
                r#"{"ok":true,"seq":4,"op":"fetch_tree","id":4,"name":"blk","nodes":57,"chunks":2,"source":56}"#,
            ),
            (
                Pinned::Response(
                    Some(5),
                    Response::TreeHeader(TreeInfo {
                        id: 5,
                        name: String::new(),
                        nodes: 24,
                        chunks: 1,
                        source: 0,
                        partial: true,
                        levels_done: 3,
                    }),
                ),
                r#"{"ok":true,"seq":5,"op":"fetch_tree","id":5,"name":"","nodes":24,"chunks":1,"partial":true,"levels_done":3}"#,
            ),
            (
                Pinned::Response(
                    Some(6),
                    Response::Status {
                        id: 3,
                        state: RequestStatus::InFlight,
                    },
                ),
                r#"{"ok":true,"seq":6,"op":"status","id":3,"state":"in_flight"}"#,
            ),
            (
                Pinned::Response(Some(7), Response::Cancelled { id: 3 }),
                r#"{"ok":true,"seq":7,"op":"cancel","id":3}"#,
            ),
            (
                Pinned::Response(
                    Some(8),
                    Response::Metrics(MetricsReply {
                        workers: 2,
                        metrics: pinned_metrics(),
                    }),
                ),
                r#"{"ok":true,"seq":8,"op":"metrics","workers":2,"metrics":{"submitted":10,"completed":7,"cancelled":1,"expired":1,"failed":1,"queue_depth":3,"synth_seconds":1.25,"verify_seconds":0.5,"stages_simulated":42,"stages_reused":18,"symbolic_hits":40,"symbolic_misses":2,"topology_seconds":0.25,"merge_seconds":0.75,"sinks_synthesized":640,"sinks_verified":512,"corners_evaluated":96,"corner_lib_hits":80,"corner_lib_misses":16,"queue_depth_high_water":4,"sweeps_submitted":2}}"#,
            ),
            (
                Pinned::Response(
                    Some(9),
                    Response::Stats(Box::new(StatsReply {
                        workers: 2,
                        metrics: pinned_metrics(),
                        queue_wait: vec![
                            (-1, sample_histogram(&[0, 90_000])),
                            (5, sample_histogram(&[12])),
                        ],
                        synth_latency: sample_histogram(&[1_000_000, 2_000_000, 3_500_000]),
                        verify_latency: Histogram::new(),
                        spans: vec![SpanStat {
                            name: "pipeline.merge_level".into(),
                            durations: sample_histogram(&[250_000, 300_000]),
                        }],
                        dropped: 1,
                    })),
                ),
                r#"{"ok":true,"seq":9,"op":"stats","workers":2,"metrics":{"submitted":10,"completed":7,"cancelled":1,"expired":1,"failed":1,"queue_depth":3,"synth_seconds":1.25,"verify_seconds":0.5,"stages_simulated":42,"stages_reused":18,"symbolic_hits":40,"symbolic_misses":2,"topology_seconds":0.25,"merge_seconds":0.75,"sinks_synthesized":640,"sinks_verified":512,"corners_evaluated":96,"corner_lib_hits":80,"corner_lib_misses":16,"queue_depth_high_water":4,"sweeps_submitted":2},"queue_wait":[{"priority":-1,"latency":{"count":2,"total_ns":90000,"max_ns":90000,"p50_ns":0,"p90_ns":90000,"p99_ns":90000,"buckets":[[0,1],[17,1]]}},{"priority":5,"latency":{"count":1,"total_ns":12,"max_ns":12,"p50_ns":12,"p90_ns":12,"p99_ns":12,"buckets":[[4,1]]}}],"synth_latency":{"count":3,"total_ns":6500000,"max_ns":3500000,"p50_ns":2097151,"p90_ns":3500000,"p99_ns":3500000,"buckets":[[20,1],[21,1],[22,1]]},"verify_latency":{"count":0,"total_ns":0,"max_ns":0,"p50_ns":0,"p90_ns":0,"p99_ns":0,"buckets":[]},"spans":[{"name":"pipeline.merge_level","latency":{"count":2,"total_ns":550000,"max_ns":300000,"p50_ns":262143,"p90_ns":300000,"p99_ns":300000,"buckets":[[18,1],[19,1]]}}],"dropped":1}"#,
            ),
            (
                Pinned::Response(Some(10), Response::ShuttingDown),
                r#"{"ok":true,"seq":10,"op":"shutdown"}"#,
            ),
            (
                Pinned::Response(
                    Some(11),
                    Response::Error {
                        code: ErrorCode::UnknownId,
                        message: "request 9 was not submitted on this connection".into(),
                    },
                ),
                r#"{"ok":false,"seq":11,"error":{"code":"unknown_id","message":"request 9 was not submitted on this connection"}}"#,
            ),
            (
                Pinned::Response(
                    None,
                    Response::Error {
                        code: ErrorCode::BadJson,
                        message: "unparseable".into(),
                    },
                ),
                r#"{"ok":false,"seq":null,"error":{"code":"bad_json","message":"unparseable"}}"#,
            ),
            (
                Pinned::Event(Event::Result(pinned_result(5, true))),
                r#"{"ok":true,"op":"result","event":true,"id":5,"outcome":"completed","result":{"name":"r1","client_id":"tenant","priority":-2,"dispatch_order":11,"sinks":267,"levels":9,"buffers":120,"buffer_cap_f":0.0000000000001375,"wirelength_um":12345.625,"synth_seconds":2.5,"verify_seconds":1.25,"estimate":{"worst_slew":0.0000000000815,"skew":0.00000000000325,"latency":0.00000000175},"verified":{"worst_slew":0.00000000008659375,"skew":0.000000000003453125,"latency":0.000000001859375},"variation":{"corners":64,"skew":{"min":0.000000000003,"median":0.000000000003375,"p95":0.000000000004125,"max":0.000000000004500000000000001},"worst_slew":{"min":0.00000000008,"median":0.00000000009,"p95":0.00000000011,"max":0.00000000012},"latency":{"min":0.0000000017,"median":0.0000000019124999999999998,"p95":0.0000000023375,"max":0.0000000025499999999999997}}}}"#,
            ),
            (
                Pinned::Event(Event::Result(pinned_result(6, false))),
                r#"{"ok":true,"op":"result","event":true,"id":6,"outcome":"completed","result":{"name":"r1","priority":-2,"dispatch_order":11,"sinks":267,"levels":9,"buffers":120,"buffer_cap_f":0.0000000000001375,"wirelength_um":12345.625,"synth_seconds":2.5,"verify_seconds":1.25,"estimate":{"worst_slew":0.0000000000815,"skew":0.00000000000325,"latency":0.00000000175},"verified":null}}"#,
            ),
            (
                Pinned::Event(Event::Result(ResultEvent {
                    id: 7,
                    outcome: Outcome::Cancelled,
                })),
                r#"{"ok":true,"op":"result","event":true,"id":7,"outcome":"cancelled"}"#,
            ),
            (
                Pinned::Event(Event::Result(ResultEvent {
                    id: 8,
                    outcome: Outcome::Expired,
                })),
                r#"{"ok":true,"op":"result","event":true,"id":8,"outcome":"expired"}"#,
            ),
            (
                Pinned::Event(Event::Result(ResultEvent {
                    id: 9,
                    outcome: Outcome::Failed {
                        error: "slew target unachievable".into(),
                    },
                })),
                r#"{"ok":true,"op":"result","event":true,"id":9,"outcome":"failed","error":"slew target unachievable"}"#,
            ),
            (
                Pinned::Event(Event::Tree(TreeEvent::Chunk(TreeChunkEvent {
                    id: 9,
                    chunk: 0,
                    nodes: pinned_nodes(),
                }))),
                r#"{"ok":true,"op":"tree","event":true,"id":9,"chunk":0,"nodes":[{"kind":"sink","index":0,"cap_f":0.000000000000025,"x":0,"y":0,"parent":3,"wire_um":50.5,"children":[]},{"kind":"sink","index":1,"cap_f":0.00000000000003,"x":200.125,"y":0,"parent":2,"wire_um":100.625,"children":[]},{"kind":"joint","x":100,"y":0.5,"parent":4,"wire_um":0,"children":[1,3]},{"kind":"buffer","cell":1,"x":50.5,"y":0,"parent":2,"wire_um":49.5,"children":[0]},{"kind":"source","driver":2,"x":100,"y":0.5,"children":[2]}]}"#,
            ),
            (
                Pinned::Event(Event::Tree(TreeEvent::Done(TreeDoneEvent {
                    id: 9,
                    level_stats: vec![pinned_level(1), pinned_level(2)],
                }))),
                r#"{"ok":true,"op":"tree","event":true,"id":9,"done":true,"levels":[{"level":1,"pairs":4,"seed_promoted":false,"flippings":0,"buffers_inserted":3,"worst_skew_estimate":0.0000000000015,"max_latency_estimate":0.00000000025,"nodes_total":13},{"level":2,"pairs":2,"seed_promoted":true,"flippings":1,"buffers_inserted":6,"worst_skew_estimate":0.000000000003,"max_latency_estimate":0.0000000005,"nodes_total":19}]}"#,
            ),
            (
                Pinned::Event(Event::SweepProgress(SweepProgressEvent {
                    sweep: 2,
                    done: 1,
                    total: 3,
                    id: 14,
                    outcome: SweepPointOutcome::Completed,
                })),
                r#"{"ok":true,"op":"sweep_progress","event":true,"sweep":2,"done":1,"total":3,"id":14,"outcome":"completed"}"#,
            ),
            (
                Pinned::Event(Event::Pareto(ParetoEvent {
                    sweep: 2,
                    total: 3,
                    completed: 2,
                    points: vec![
                        ParetoWirePoint {
                            ordinal: 0,
                            id: 14,
                            skew: 3.25e-12,
                            buffer_cap_f: 1.5e-13,
                            latency: 1.75e-9,
                        },
                        ParetoWirePoint {
                            ordinal: 2,
                            id: 16,
                            skew: 2.0e-12,
                            buffer_cap_f: 2.5e-13,
                            latency: 1.5e-9,
                        },
                    ],
                    front: vec![0, 2],
                })),
                r#"{"ok":true,"op":"pareto","event":true,"sweep":2,"total":3,"completed":2,"points":[{"ordinal":0,"id":14,"skew":0.00000000000325,"buffer_cap_f":0.00000000000015,"latency":0.00000000175},{"ordinal":2,"id":16,"skew":0.000000000002,"buffer_cap_f":0.00000000000025,"latency":0.0000000015}],"front":[0,2]}"#,
            ),
        ]
    }

    #[test]
    fn frame_bytes_are_pinned() {
        // Every frame kind outside the conformance transcript, with the
        // bytes the protocol has always sent. Each frame must also decode
        // and re-encode to the same bytes.
        for (i, (frame, expected)) in pinned_frames().iter().enumerate() {
            let text = encode_pinned(frame);
            assert_eq!(text, *expected, "frame {i}");
            assert_eq!(reencode_pinned(frame, &text), text, "frame {i}");
        }
    }

    #[test]
    fn decode_error_messages_are_pinned() {
        // The server sends these messages verbatim as `error.message`, so
        // they are wire bytes too.
        let cases: &[(&str, &str)] = &[
            (r#"{"seq":1}"#, "frame needs a string 'op'"),
            (r#"{"op":7,"seq":1}"#, "frame needs a string 'op'"),
            (r#"{"op":"status","id":1}"#, "frame needs an integer 'seq'"),
            (
                r#"{"op":"status","seq":-1,"id":1}"#,
                "frame needs an integer 'seq'",
            ),
            (r#"{"op":"launch","seq":1}"#, "unknown op 'launch'"),
            (
                r#"{"op":"hello","seq":1}"#,
                "hello needs an integer 'version'",
            ),
            (
                r#"{"op":"hello","seq":1,"version":"2"}"#,
                "hello needs an integer 'version'",
            ),
            (
                r#"{"op":"hello","seq":1,"version":2,"client_id":5}"#,
                "'client_id' must be a string",
            ),
            (r#"{"op":"submit","seq":1}"#, "submit needs an 'instance'"),
            (
                r#"{"op":"submit","seq":1,"instance":5}"#,
                "instance needs a string 'name'",
            ),
            (
                r#"{"op":"submit","seq":1,"instance":{"name":"x","sinks":[]}}"#,
                "instance needs at least one sink",
            ),
            (
                r#"{"op":"submit","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]},"options":5}"#,
                "'options' must be an object",
            ),
            (
                r#"{"op":"submit","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]},"options":{"slew":1}}"#,
                "unknown options key 'slew'",
            ),
            (
                r#"{"op":"submit","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]},"options":{"threads":-1}}"#,
                "'threads' must be an integer",
            ),
            (
                r#"{"op":"submit","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]},"priority":"high"}"#,
                "'priority' must be a 32-bit integer",
            ),
            (
                r#"{"op":"submit","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]},"priority":1.5}"#,
                "'priority' must be a 32-bit integer",
            ),
            (
                r#"{"op":"submit","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]},"priority":4294967297}"#,
                "'priority' must be a 32-bit integer",
            ),
            (
                r#"{"op":"submit","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]},"priority":-2147483649}"#,
                "'priority' must be a 32-bit integer",
            ),
            (
                r#"{"op":"submit","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]},"deadline_ms":-1}"#,
                "'deadline_ms' must be a non-negative integer",
            ),
            (
                r#"{"op":"submit","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]},"deadline_ms":"soon"}"#,
                "'deadline_ms' must be a non-negative integer",
            ),
            (
                r#"{"op":"submit","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]},"client_id":7}"#,
                "'client_id' must be a string",
            ),
            (
                r#"{"op":"submit","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]},"publish_levels":1}"#,
                "'publish_levels' must be a boolean",
            ),
            (
                r#"{"op":"submit_batch","seq":1}"#,
                "submit_batch needs an 'entries' array",
            ),
            (
                r#"{"op":"submit_batch","seq":1,"entries":{}}"#,
                "submit_batch needs an 'entries' array",
            ),
            (
                r#"{"op":"submit_batch","seq":1,"entries":[]}"#,
                "submit_batch needs at least one entry",
            ),
            (
                r#"{"op":"submit_batch","seq":1,"entries":[5]}"#,
                "batch entry needs an 'instance'",
            ),
            (
                r#"{"op":"submit_batch","seq":1,"entries":[{"priority":1}]}"#,
                "batch entry needs an 'instance'",
            ),
            (
                r#"{"op":"submit_batch","seq":1,"entries":[{"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]},"priority":"x"}]}"#,
                "'priority' must be a 32-bit integer",
            ),
            (
                r#"{"op":"submit_batch","seq":1,"entries":[{"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]},"deadline_ms":1.5}]}"#,
                "'deadline_ms' must be a non-negative integer",
            ),
            (
                r#"{"op":"submit_batch","seq":1,"entries":[{"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]}}],"options":[]}"#,
                "'options' must be an object",
            ),
            (
                r#"{"op":"submit_sweep","seq":1,"axes":{}}"#,
                "submit_sweep needs an 'instance'",
            ),
            (
                r#"{"op":"submit_sweep","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]}}"#,
                "submit_sweep needs 'axes' or 'points'",
            ),
            (
                r#"{"op":"submit_sweep","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]},"axes":{},"points":[{}]}"#,
                "submit_sweep takes 'axes' or 'points', not both",
            ),
            (
                r#"{"op":"submit_sweep","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]},"points":[]}"#,
                "submit_sweep needs at least one point",
            ),
            (
                r#"{"op":"submit_sweep","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]},"points":{}}"#,
                "'points' must be an array",
            ),
            (
                r#"{"op":"submit_sweep","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]},"points":[5]}"#,
                "sweep point must be an object",
            ),
            (
                r#"{"op":"submit_sweep","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]},"axes":[]}"#,
                "'axes' must be an object",
            ),
            (
                r#"{"op":"submit_sweep","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]},"axes":{"buffering":"greedy"}}"#,
                "axis 'buffering' must be an array",
            ),
            (
                r#"{"op":"submit_sweep","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]},"base":{"grid":1},"axes":{}}"#,
                "unknown options key 'grid'",
            ),
            (
                r#"{"op":"submit_sweep","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]},"axes":{},"publish_levels":"yes"}"#,
                "'publish_levels' must be a boolean",
            ),
            (r#"{"op":"fetch_tree","seq":1}"#, "op needs an integer 'id'"),
            (
                r#"{"op":"fetch_tree","seq":1,"id":3,"chunk":0}"#,
                "'chunk' must be a positive integer",
            ),
            (
                r#"{"op":"fetch_tree","seq":1,"id":3,"chunk":"big"}"#,
                "'chunk' must be a positive integer",
            ),
            (
                r#"{"op":"fetch_tree","seq":1,"id":3,"mode":"leaves"}"#,
                r#"'mode' must be "nodes" or "levels""#,
            ),
            (
                r#"{"op":"fetch_tree","seq":1,"id":3,"mode":2}"#,
                r#"'mode' must be "nodes" or "levels""#,
            ),
            (r#"{"op":"status","seq":1}"#, "op needs an integer 'id'"),
            (
                r#"{"op":"status","seq":1,"id":-3}"#,
                "op needs an integer 'id'",
            ),
            (
                r#"{"op":"cancel","seq":1,"id":"3"}"#,
                "op needs an integer 'id'",
            ),
            (
                r#"{"op":"hello","seq":1,"version":"2","client_id":5}"#,
                "hello needs an integer 'version'",
            ),
            (
                r#"{"op":"submit","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]},"options":5,"priority":"x"}"#,
                "'options' must be an object",
            ),
            (
                r#"{"op":"submit","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]},"priority":"x","deadline_ms":-1}"#,
                "'priority' must be a 32-bit integer",
            ),
            (
                r#"{"op":"submit","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]},"deadline_ms":-1,"client_id":7,"publish_levels":1}"#,
                "'deadline_ms' must be a non-negative integer",
            ),
            (
                r#"{"op":"submit_batch","seq":1,"entries":[{"priority":1}],"options":5}"#,
                "batch entry needs an 'instance'",
            ),
            (
                r#"{"op":"submit_sweep","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]},"base":5,"priority":"x"}"#,
                "'options' must be an object",
            ),
            (
                r#"{"op":"submit_sweep","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15}]},"points":[],"priority":"x"}"#,
                "submit_sweep needs at least one point",
            ),
            (
                r#"{"op":"fetch_tree","seq":1,"chunk":0,"mode":"leaves"}"#,
                "'chunk' must be a positive integer",
            ),
            (
                r#"{"op":"submit","seq":1,"instance":{"name":"x","sinks":5}}"#,
                "instance needs a 'sinks' array",
            ),
            (
                r#"{"op":"submit","seq":1,"instance":{"name":"x","sinks":[{"x":1,"y":2,"cap_f":1e-15}]}}"#,
                "sink 0 needs a string 'name'",
            ),
            (
                r#"{"op":"submit","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":"1","y":2,"cap_f":1e-15}]}}"#,
                "sink 0 needs a number 'x'",
            ),
            (
                r#"{"op":"submit","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2}]}}"#,
                "sink 0 needs a number 'cap_f'",
            ),
            (
                r#"{"op":"submit","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":-1e-15}]}}"#,
                "sink 0 capacitance -0.000000000000001 F is invalid",
            ),
            (
                r#"{"op":"submit","seq":1,"instance":{"name":"x","sinks":[{"name":"s","x":1,"y":2,"cap_f":1e-15},{"name":"t","x":1}]}}"#,
                "sink 1 needs a number 'y'",
            ),
            (
                r#"{"op":"submit","seq":1,"instance":{"name":"x","die":[0,0,1],"sinks":[{"name":"s","x":0,"y":0,"cap_f":1e-15}]}}"#,
                "'die' must be [x0, y0, x1, y1] with finite numbers",
            ),
            (
                r#"{"op":"submit","seq":1,"instance":{"name":"x","die":[0,0,1,"1"],"sinks":[{"name":"s","x":0,"y":0,"cap_f":1e-15}]}}"#,
                "'die' must be [x0, y0, x1, y1] with finite numbers",
            ),
            (
                r#"{"op":"submit","seq":1,"instance":{"name":"x","die":[0,0,1,1],"sinks":[{"name":"s","x":5,"y":0,"cap_f":1e-15}]}}"#,
                "sink s lies outside the die",
            ),
            (
                r#"{"op":"submit","seq":1,"instance":{"name":7,"sinks":[{"name":"s","x":0,"y":0,"cap_f":1e-15}]}}"#,
                "instance needs a string 'name'",
            ),
        ];
        for (frame, expected) in cases {
            let err = decode_request(&Json::parse(frame).unwrap()).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{frame}");
            assert_eq!(err.message, *expected, "{frame}");
        }
    }

    #[test]
    fn result_priority_out_of_i32_range_is_rejected() {
        // 2^32 + 1 must not wrap to priority 1.
        let frame = concat!(
            r#"{"ok":true,"op":"result","event":true,"id":3,"outcome":"completed","result":{"#,
            r#""name":"r","priority":4294967297,"dispatch_order":0,"sinks":1,"levels":0,"#,
            r#""buffers":0,"buffer_cap_f":0,"wirelength_um":0,"synth_seconds":0,"#,
            r#""verify_seconds":0,"estimate":{"worst_slew":0,"skew":0,"latency":0},"#,
            r#""verified":null}}"#
        );
        assert!(decode_event(&Json::parse(frame).unwrap()).is_err());
    }
}
