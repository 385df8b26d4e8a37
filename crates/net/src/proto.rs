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
//! * **Events** ([`ResultEvent`]) — server → client, pushed (not
//!   replied) when a submitted request resolves; marked
//!   `"event":true` and correlated by request id, not `seq`.
//!
//! Everything here is plain data + conversions to/from [`Json`]; no I/O.

use crate::json::Json;
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
        match self {
            ErrorCode::BadJson => "bad_json",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::UnknownId => "unknown_id",
            ErrorCode::ShuttingDown => "shutting_down",
        }
    }

    /// Parses the wire spelling. (Named `from_wire`, not `from_str`, to
    /// avoid colliding with the `FromStr` trait method.)
    pub fn from_wire(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "bad_json" => ErrorCode::BadJson,
            "bad_request" => ErrorCode::BadRequest,
            "unsupported_version" => ErrorCode::UnsupportedVersion,
            "unknown_id" => ErrorCode::UnknownId,
            "shutting_down" => ErrorCode::ShuttingDown,
            _ => return None,
        })
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
    fn bad(message: impl Into<String>) -> DecodeError {
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
// Instance spec

/// Serializes an instance as the protocol's instance spec:
/// `{"name", "die":[x0,y0,x1,y1], "sinks":[{"name","x","y","cap_f"},…]}`
/// with coordinates in µm and capacitance in **farads**. Unlike the
/// bookshelf dialect's fF column, the wire carries farads directly: a
/// unit conversion is two float roundings, and the protocol's contract
/// is that instances (and therefore results) cross the socket
/// byte-identically.
pub fn instance_to_json(instance: &Instance) -> Json {
    let die = instance.die();
    Json::obj(vec![
        ("name", Json::str(instance.name())),
        (
            "die",
            Json::arr(vec![
                Json::num(die.lo().x),
                Json::num(die.lo().y),
                Json::num(die.hi().x),
                Json::num(die.hi().y),
            ]),
        ),
        (
            "sinks",
            Json::arr(
                instance
                    .sinks()
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("name", Json::str(&s.name)),
                            ("x", Json::num(s.location.x)),
                            ("y", Json::num(s.location.y)),
                            ("cap_f", Json::num(s.cap)),
                        ])
                    })
                    .collect(),
            ),
        ),
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
    let name = j
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| DecodeError::bad("instance needs a string 'name'"))?;
    let sinks_json = j
        .get("sinks")
        .and_then(Json::as_arr)
        .ok_or_else(|| DecodeError::bad("instance needs a 'sinks' array"))?;
    if sinks_json.is_empty() {
        return Err(DecodeError::bad("instance needs at least one sink"));
    }
    let mut sinks = Vec::with_capacity(sinks_json.len());
    for (i, s) in sinks_json.iter().enumerate() {
        let field = |key: &str| {
            s.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| DecodeError::bad(format!("sink {i} needs a number '{key}'")))
        };
        let sname = s
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| DecodeError::bad(format!("sink {i} needs a string 'name'")))?;
        let (x, y, cap) = (field("x")?, field("y")?, field("cap_f")?);
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
    match j.get("die") {
        None | Some(Json::Null) => Ok(Instance::new(name, sinks)),
        Some(die) => {
            let corners = die
                .as_arr()
                .filter(|a| a.len() == 4)
                .and_then(|a| a.iter().map(Json::as_f64).collect::<Option<Vec<f64>>>())
                .filter(|c| c.iter().all(|v| v.is_finite()))
                .ok_or_else(|| {
                    DecodeError::bad("'die' must be [x0, y0, x1, y1] with finite numbers")
                })?;
            let rect = Rect::from_corners(
                Point::new(corners[0], corners[1]),
                Point::new(corners[2], corners[3]),
            );
            for s in &sinks {
                if !rect.contains(s.location) {
                    return Err(DecodeError::bad(format!(
                        "sink {} lies outside the die",
                        s.name
                    )));
                }
            }
            Ok(Instance::with_die(name, sinks, rect))
        }
    }
}

// ---------------------------------------------------------------------------
// Options patch

/// The one ps → s conversion every picosecond wire option applies.
fn ps_to_s(ps: f64) -> f64 {
    ps * 1e-12
}

/// A wire option's value type: its one JSON spelling.
trait WireValue: Copy {
    /// What a valid value looks like, for the `'key' must be …` error.
    fn expected() -> String;
    /// The JSON value.
    fn to_wire(self) -> Json;
    /// Parses the JSON value; `None` when it is not one.
    fn from_wire(j: &Json) -> Option<Self>;
}

impl WireValue for f64 {
    fn expected() -> String {
        "a number".into()
    }
    fn to_wire(self) -> Json {
        Json::num(self)
    }
    fn from_wire(j: &Json) -> Option<f64> {
        j.as_f64()
    }
}

/// Integers travel as JSON numbers, exact below 2^53 (which `as_u64`
/// enforces) and range-checked into the field type.
macro_rules! wire_integer {
    ($($t:ty => $expected:literal),*) => {$(
        impl WireValue for $t {
            fn expected() -> String {
                $expected.into()
            }
            fn to_wire(self) -> Json {
                Json::num(self as f64)
            }
            fn from_wire(j: &Json) -> Option<$t> {
                <$t>::try_from(j.as_u64()?).ok()
            }
        }
    )*};
}

wire_integer!(u32 => "a small integer", u64 => "an integer", usize => "an integer");

/// An option enum's wire spellings, each written once.
trait Spelled: Copy + PartialEq + 'static {
    /// Every variant with its wire spelling.
    const SPELLINGS: &'static [(Self, &'static str)];
}

macro_rules! spelled {
    ($($t:ident { $($variant:ident => $s:literal),* })*) => {$(
        impl Spelled for $t {
            const SPELLINGS: &'static [($t, &'static str)] = &[$(($t::$variant, $s)),*];
        }
    )*};
}

spelled! {
    HCorrection { Off => "off", ReEstimate => "re_estimate", Correct => "correct" }
    Buffering { Greedy => "greedy", VanGinneken => "van_ginneken" }
    VariationMode { Evaluate => "evaluate", Resynthesize => "resynthesize" }
}

impl<T: Spelled> WireValue for T {
    fn expected() -> String {
        let quoted: Vec<String> = T::SPELLINGS
            .iter()
            .map(|(_, s)| format!("\"{s}\""))
            .collect();
        let (last, init) = quoted.split_last().expect("an enum has variants");
        let comma = if init.len() > 1 { "," } else { "" };
        format!("{}{comma} or {last}", init.join(", "))
    }
    fn to_wire(self) -> Json {
        let (_, s) = T::SPELLINGS
            .iter()
            .find(|(v, _)| *v == self)
            .expect("every variant is spelled");
        Json::str(*s)
    }
    fn from_wire(j: &Json) -> Option<T> {
        let s = j.as_str()?;
        T::SPELLINGS.iter().find(|(_, w)| *w == s).map(|&(v, _)| v)
    }
}

/// Parses `value` as option `key`'s wire type.
fn parse<T: WireValue>(key: &str, value: &Json) -> Result<T, DecodeError> {
    T::from_wire(value)
        .ok_or_else(|| DecodeError::bad(format!("'{key}' must be {}", T::expected())))
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
                $(if let Some(value) = self.$key {
                    fields.push((stringify!($key), value.to_wire()));
                })*
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
                to_json: |a| Json::arr(a.$axis.iter().map(|v| v.to_wire()).collect()),
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

// ---------------------------------------------------------------------------
// Routed tree geometry

/// Serializes one tree node as its wire object. The node's id is its
/// position in the streamed sequence (ids are dense arena indices), so
/// only the links are explicit: `parent` (omitted for roots) and the
/// `children` array, whose **order** is preserved — child order is part
/// of the arena's identity and byte-identical round-trips depend on it.
fn tree_node_to_json(node: &TreeNode) -> Json {
    let mut fields = Vec::with_capacity(8);
    match node.kind {
        NodeKind::Source { driver } => {
            fields.push(("kind", Json::str("source")));
            fields.push(("driver", Json::num(driver.0 as f64)));
        }
        NodeKind::Sink { index, cap } => {
            fields.push(("kind", Json::str("sink")));
            fields.push(("index", Json::num(index as f64)));
            fields.push(("cap_f", Json::num(cap)));
        }
        NodeKind::Joint => fields.push(("kind", Json::str("joint"))),
        NodeKind::Buffer { buffer } => {
            fields.push(("kind", Json::str("buffer")));
            fields.push(("cell", Json::num(buffer.0 as f64)));
        }
    }
    fields.push(("x", Json::num(node.location.x)));
    fields.push(("y", Json::num(node.location.y)));
    if let Some(p) = node.parent {
        fields.push(("parent", Json::num(p.index() as f64)));
        fields.push(("wire_um", Json::num(node.wire_to_parent_um)));
    }
    fields.push((
        "children",
        Json::arr(
            node.children
                .iter()
                .map(|c| Json::num(c.index() as f64))
                .collect(),
        ),
    ));
    Json::obj(fields)
}

/// Parses one tree node. Link targets are taken verbatim (as indices
/// into the full streamed sequence); structural validation happens once,
/// over the whole tree, in [`ClockTree::from_nodes`].
fn tree_node_from_json(j: &Json) -> Result<TreeNode, String> {
    let idx = |key: &str| {
        j.get(key)
            .and_then(Json::as_u64)
            .map(|n| n as usize)
            .ok_or_else(|| format!("tree node needs an integer '{key}'"))
    };
    let num = |key: &str| {
        j.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("tree node needs a number '{key}'"))
    };
    let kind = match j.get("kind").and_then(Json::as_str) {
        Some("source") => NodeKind::Source {
            driver: BufferId(idx("driver")?),
        },
        Some("sink") => NodeKind::Sink {
            index: idx("index")?,
            cap: num("cap_f")?,
        },
        Some("joint") => NodeKind::Joint,
        Some("buffer") => NodeKind::Buffer {
            buffer: BufferId(idx("cell")?),
        },
        _ => return Err("tree node needs a valid 'kind'".into()),
    };
    let parent = match j.get("parent") {
        None | Some(Json::Null) => None,
        Some(p) => Some(TreeNodeId::from_index(
            p.as_u64().ok_or("'parent' must be an integer")? as usize,
        )),
    };
    let wire_to_parent_um = if parent.is_some() {
        num("wire_um")?
    } else {
        0.0
    };
    let children = j
        .get("children")
        .and_then(Json::as_arr)
        .ok_or("tree node needs a 'children' array")?
        .iter()
        .map(|c| c.as_u64().map(|n| TreeNodeId::from_index(n as usize)))
        .collect::<Option<Vec<_>>>()
        .ok_or("'children' must be integers")?;
    Ok(TreeNode {
        kind,
        location: Point::new(num("x")?, num("y")?),
        parent,
        wire_to_parent_um,
        children,
    })
}

fn level_stats_to_json(s: &LevelStats) -> Json {
    Json::obj(vec![
        ("level", Json::num(s.level as f64)),
        ("pairs", Json::num(s.pairs as f64)),
        ("seed_promoted", Json::Bool(s.seed_promoted)),
        ("flippings", Json::num(s.flippings as f64)),
        ("buffers_inserted", Json::num(s.buffers_inserted as f64)),
        ("worst_skew_estimate", Json::num(s.worst_skew_estimate)),
        ("max_latency_estimate", Json::num(s.max_latency_estimate)),
        ("nodes_total", Json::num(s.nodes_total as f64)),
    ])
}

fn level_stats_from_json(j: &Json) -> Result<LevelStats, String> {
    let int = |key: &str| {
        j.get(key)
            .and_then(Json::as_u64)
            .map(|n| n as usize)
            .ok_or_else(|| format!("level stats need an integer '{key}'"))
    };
    let num = |key: &str| {
        j.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("level stats need a number '{key}'"))
    };
    Ok(LevelStats {
        level: int("level")?,
        pairs: int("pairs")?,
        seed_promoted: j
            .get("seed_promoted")
            .and_then(Json::as_bool)
            .ok_or("level stats need a boolean 'seed_promoted'")?,
        flippings: int("flippings")?,
        buffers_inserted: int("buffers_inserted")?,
        worst_skew_estimate: num("worst_skew_estimate")?,
        max_latency_estimate: num("max_latency_estimate")?,
        // Additive key (level-granular streaming revision): absent on
        // older servers, defaulting to 0 rather than failing the decode.
        nodes_total: j.get("nodes_total").and_then(Json::as_u64).unwrap_or(0) as usize,
    })
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

/// One `tree` chunk event: a consecutive run of arena nodes. Chunk `k`
/// carries nodes `[k*chunk_size, ...)` in arena order; the client
/// concatenates chunks in sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeChunkEvent {
    /// The request id the stream answers.
    pub id: u64,
    /// Zero-based chunk ordinal (consecutive; a gap is a protocol error).
    pub chunk: u64,
    /// This chunk's nodes, in arena order.
    pub nodes: Vec<TreeNode>,
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

/// Serializes a `tree` chunk event frame.
pub fn encode_tree_chunk(event: &TreeChunkEvent) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("op", Json::str("tree")),
        ("event", Json::Bool(true)),
        ("id", Json::num(event.id as f64)),
        ("chunk", Json::num(event.chunk as f64)),
        (
            "nodes",
            Json::arr(event.nodes.iter().map(tree_node_to_json).collect()),
        ),
    ])
}

/// Serializes the terminal `tree` event frame.
pub fn encode_tree_done(event: &TreeDoneEvent) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("op", Json::str("tree")),
        ("event", Json::Bool(true)),
        ("id", Json::num(event.id as f64)),
        ("done", Json::Bool(true)),
        (
            "levels",
            Json::arr(event.level_stats.iter().map(level_stats_to_json).collect()),
        ),
    ])
}

/// Decodes a `tree` event frame (chunk or terminal).
///
/// # Errors
///
/// A description of the malformation.
pub fn decode_tree_event(j: &Json) -> Result<TreeEvent, String> {
    if !is_event(j) || event_op(j) != Some("tree") {
        return Err("not a tree event frame".into());
    }
    let id = j
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("tree event needs 'id'")?;
    if j.get("done").and_then(Json::as_bool) == Some(true) {
        let level_stats = j
            .get("levels")
            .and_then(Json::as_arr)
            .ok_or("terminal tree event needs 'levels'")?
            .iter()
            .map(level_stats_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(TreeEvent::Done(TreeDoneEvent { id, level_stats }));
    }
    let chunk = j
        .get("chunk")
        .and_then(Json::as_u64)
        .ok_or("tree chunk event needs 'chunk'")?;
    let nodes = j
        .get("nodes")
        .and_then(Json::as_arr)
        .ok_or("tree chunk event needs 'nodes'")?
        .iter()
        .map(tree_node_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(TreeEvent::Chunk(TreeChunkEvent { id, chunk, nodes }))
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

/// The scheduling fields every submit op carries — `priority`,
/// `deadline_ms`, `client_id` and `publish_levels` — with their one wire
/// encoding. Each key is omitted on the wire at its default, so a default
/// [`Scheduling`] adds nothing to a frame.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scheduling {
    /// Dispatch priority (higher first; ties in admission order).
    pub priority: i32,
    /// Deadline in milliseconds from submission; absent = none.
    pub deadline_ms: Option<u64>,
    /// Client id echoed on the result event (defaults to the
    /// connection's `hello` client id).
    pub client_id: Option<String>,
    /// Whether the server should publish level-complete snapshots
    /// mid-synthesis, for `fetch_tree` in `"levels"` mode. Off by default
    /// (each level snapshot copies the arena).
    pub publish_levels: bool,
}

impl Scheduling {
    /// Appends the non-default scheduling keys to a frame's fields, in
    /// their fixed wire order.
    fn push_json(&self, fields: &mut Vec<(&'static str, Json)>) {
        if self.priority != 0 {
            fields.push(("priority", Json::num(self.priority as f64)));
        }
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms", Json::num(ms as f64)));
        }
        if let Some(c) = &self.client_id {
            fields.push(("client_id", Json::str(c)));
        }
        if self.publish_levels {
            fields.push(("publish_levels", Json::Bool(true)));
        }
    }

    /// Decodes the scheduling keys of a submit frame (or batch entry);
    /// absent or `null` keys take their defaults.
    fn from_json(j: &Json) -> Result<Scheduling, DecodeError> {
        let priority = match j.get("priority") {
            None | Some(Json::Null) => 0,
            Some(p) => p
                .as_i64()
                .filter(|p| i32::try_from(*p).is_ok())
                .ok_or_else(|| DecodeError::bad("'priority' must be a 32-bit integer"))?
                as i32,
        };
        let deadline_ms =
            match j.get("deadline_ms") {
                None | Some(Json::Null) => None,
                Some(d) => Some(d.as_u64().ok_or_else(|| {
                    DecodeError::bad("'deadline_ms' must be a non-negative integer")
                })?),
            };
        let client_id = match j.get("client_id") {
            None | Some(Json::Null) => None,
            Some(c) => Some(
                c.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| DecodeError::bad("'client_id' must be a string"))?,
            ),
        };
        let publish_levels = match j.get("publish_levels") {
            None | Some(Json::Null) => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| DecodeError::bad("'publish_levels' must be a boolean"))?,
        };
        Ok(Scheduling {
            priority,
            deadline_ms,
            client_id,
            publish_levels,
        })
    }
}

/// One entry of a `submit_batch` frame: an instance plus its per-entry
/// scheduling (the [`OptionsPatch`] is shared batch-wide).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchEntry {
    /// The instance spec.
    pub instance: Instance,
    /// Per-entry priority, deadline, client id and level publishing.
    pub scheduling: Scheduling,
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

fn batch_entry_to_json(entry: &BatchEntry) -> Json {
    let mut fields = vec![("instance", instance_to_json(&entry.instance))];
    entry.scheduling.push_json(&mut fields);
    Json::obj(fields)
}

fn batch_entry_from_json(j: &Json) -> Result<BatchEntry, DecodeError> {
    let instance = instance_from_json(
        j.get("instance")
            .ok_or_else(|| DecodeError::bad("batch entry needs an 'instance'"))?,
    )?;
    Ok(BatchEntry {
        instance,
        scheduling: Scheduling::from_json(j)?,
    })
}

/// A client request (the `seq` correlation id travels alongside, not
/// inside, so the enum stays pure payload).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Version handshake; servers reject unknown versions.
    Hello {
        /// The protocol version the client speaks.
        version: u64,
        /// Optional client identifier (diagnostics; also the default
        /// `client_id` for this connection's submissions).
        client_id: Option<String>,
    },
    /// Submit one instance for synthesis.
    Submit {
        /// The instance spec.
        instance: Instance,
        /// Per-request options overrides (empty = server defaults).
        options: OptionsPatch,
        /// Priority, deadline, client id and level publishing.
        scheduling: Scheduling,
    },
    /// Submit many instances in one frame, admitted atomically into the
    /// service (all-or-nothing against queue capacity): one round trip
    /// for a whole sweep.
    SubmitBatch {
        /// The batch entries, in submission order.
        entries: Vec<BatchEntry>,
        /// Options overrides shared by every entry (empty = server
        /// defaults).
        options: OptionsPatch,
    },
    /// Submit a parameter sweep in one frame: the server expands the
    /// range over the base options into deterministic per-point
    /// requests (admitted atomically, like `submit_batch`), then folds
    /// the completed points into a Pareto front it pushes as a `pareto`
    /// event. Additive — no version bump.
    SubmitSweep {
        /// The instance spec every point synthesizes.
        instance: Instance,
        /// Base options overrides the sweep points perturb (empty =
        /// server defaults).
        base: OptionsPatch,
        /// The points: cartesian axes or an explicit list.
        range: SweepRange,
        /// Scheduling shared by every point.
        scheduling: Scheduling,
    },
    /// Stream the routed tree geometry of a completed request as chunked
    /// `tree` events plus a terminal frame.
    FetchTree {
        /// A request id this connection submitted, already resolved
        /// `completed`.
        id: u64,
        /// Maximum nodes per chunk event; `None` uses
        /// [`DEFAULT_TREE_CHUNK`].
        chunk: Option<u64>,
        /// Level-granular mode (`"mode":"levels"` on the wire): chunk
        /// boundaries align with completed topology levels, and a
        /// request still in flight answers with a *partial* header over
        /// its latest level-complete snapshot instead of `unknown_id`.
        levels: bool,
    },
    /// Where is request `id` (queued / in_flight / done)?
    Status {
        /// A request id this connection submitted.
        id: u64,
    },
    /// Cooperatively cancel request `id`.
    Cancel {
        /// A request id this connection submitted.
        id: u64,
    },
    /// Snapshot the service counters.
    Metrics,
    /// Snapshot the full observability state: the same counters as
    /// `metrics` plus latency histograms (queue wait per priority,
    /// synthesis, verification) and per-span-name duration summaries.
    /// Additive — no version bump; old servers answer `bad_request` and
    /// clients fall back to `metrics`.
    Stats,
    /// Drain the service and stop the server.
    Shutdown,
}

impl Request {
    /// The wire op name.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Hello { .. } => "hello",
            Request::Submit { .. } => "submit",
            Request::SubmitBatch { .. } => "submit_batch",
            Request::SubmitSweep { .. } => "submit_sweep",
            Request::FetchTree { .. } => "fetch_tree",
            Request::Status { .. } => "status",
            Request::Cancel { .. } => "cancel",
            Request::Metrics => "metrics",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
        }
    }
}

/// Serializes a request frame: the op payload plus its `seq`.
pub fn encode_request(seq: u64, request: &Request) -> Json {
    let mut fields = vec![
        ("op", Json::str(request.op())),
        ("seq", Json::num(seq as f64)),
    ];
    match request {
        Request::Hello { version, client_id } => {
            fields.push(("version", Json::num(*version as f64)));
            if let Some(c) = client_id {
                fields.push(("client_id", Json::str(c)));
            }
        }
        Request::Submit {
            instance,
            options,
            scheduling,
        } => {
            fields.push(("instance", instance_to_json(instance)));
            if !options.is_empty() {
                fields.push(("options", options.to_json()));
            }
            scheduling.push_json(&mut fields);
        }
        Request::SubmitBatch { entries, options } => {
            fields.push((
                "entries",
                Json::arr(entries.iter().map(batch_entry_to_json).collect()),
            ));
            if !options.is_empty() {
                fields.push(("options", options.to_json()));
            }
        }
        Request::SubmitSweep {
            instance,
            base,
            range,
            scheduling,
        } => {
            fields.push(("instance", instance_to_json(instance)));
            if !base.is_empty() {
                fields.push(("base", base.to_json()));
            }
            match range {
                SweepRange::Axes(axes) => fields.push(("axes", axes.to_json())),
                SweepRange::Points(points) => fields.push((
                    "points",
                    Json::arr(points.iter().map(OptionsPatch::to_json).collect()),
                )),
            }
            scheduling.push_json(&mut fields);
        }
        Request::FetchTree { id, chunk, levels } => {
            fields.push(("id", Json::num(*id as f64)));
            if let Some(c) = chunk {
                fields.push(("chunk", Json::num(*c as f64)));
            }
            if *levels {
                fields.push(("mode", Json::str("levels")));
            }
        }
        Request::Status { id } | Request::Cancel { id } => {
            fields.push(("id", Json::num(*id as f64)));
        }
        Request::Metrics | Request::Stats | Request::Shutdown => {}
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
    let op = j
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| DecodeError::bad("frame needs a string 'op'"))?;
    let seq = j
        .get("seq")
        .and_then(Json::as_u64)
        .ok_or_else(|| DecodeError::bad("frame needs an integer 'seq'"))?;
    let opt_str = |key: &str| -> Result<Option<String>, DecodeError> {
        match j.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v
                .as_str()
                .map(|s| Some(s.to_string()))
                .ok_or_else(|| DecodeError::bad(format!("'{key}' must be a string"))),
        }
    };
    let patch = |key: &str| match j.get(key) {
        None | Some(Json::Null) => Ok(OptionsPatch::default()),
        Some(o) => OptionsPatch::from_json(o),
    };
    let need_id = || {
        j.get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| DecodeError::bad("op needs an integer 'id'"))
    };
    let request = match op {
        "hello" => Request::Hello {
            version: j
                .get("version")
                .and_then(Json::as_u64)
                .ok_or_else(|| DecodeError::bad("hello needs an integer 'version'"))?,
            client_id: opt_str("client_id")?,
        },
        "submit" => {
            let instance = instance_from_json(
                j.get("instance")
                    .ok_or_else(|| DecodeError::bad("submit needs an 'instance'"))?,
            )?;
            Request::Submit {
                instance,
                options: patch("options")?,
                scheduling: Scheduling::from_json(j)?,
            }
        }
        "submit_batch" => {
            let entries_json = j
                .get("entries")
                .and_then(Json::as_arr)
                .ok_or_else(|| DecodeError::bad("submit_batch needs an 'entries' array"))?;
            if entries_json.is_empty() {
                return Err(DecodeError::bad("submit_batch needs at least one entry"));
            }
            let entries = entries_json
                .iter()
                .map(batch_entry_from_json)
                .collect::<Result<Vec<_>, _>>()?;
            Request::SubmitBatch {
                entries,
                options: patch("options")?,
            }
        }
        "submit_sweep" => {
            let instance = instance_from_json(
                j.get("instance")
                    .ok_or_else(|| DecodeError::bad("submit_sweep needs an 'instance'"))?,
            )?;
            let base = patch("base")?;
            let range = match (j.get("axes"), j.get("points")) {
                (Some(axes), None) => SweepRange::Axes(SweepAxesSpec::from_json(axes)?),
                (None, Some(points)) => {
                    let arr = points
                        .as_arr()
                        .ok_or_else(|| DecodeError::bad("'points' must be an array"))?;
                    if arr.is_empty() {
                        return Err(DecodeError::bad("submit_sweep needs at least one point"));
                    }
                    SweepRange::Points(
                        arr.iter()
                            .map(|point| OptionsPatch::decode(point, true))
                            .collect::<Result<Vec<_>, _>>()?,
                    )
                }
                (Some(_), Some(_)) => {
                    return Err(DecodeError::bad(
                        "submit_sweep takes 'axes' or 'points', not both",
                    ))
                }
                (None, None) => {
                    return Err(DecodeError::bad("submit_sweep needs 'axes' or 'points'"))
                }
            };
            Request::SubmitSweep {
                instance,
                base,
                range,
                scheduling: Scheduling::from_json(j)?,
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
            let levels = match j.get("mode") {
                None | Some(Json::Null) => false,
                Some(m) => match m.as_str() {
                    Some("nodes") => false,
                    Some("levels") => true,
                    _ => return Err(DecodeError::bad("'mode' must be \"nodes\" or \"levels\"")),
                },
            };
            Request::FetchTree {
                id: need_id()?,
                chunk,
                levels,
            }
        }
        "status" => Request::Status { id: need_id()? },
        "cancel" => Request::Cancel { id: need_id()? },
        "metrics" => Request::Metrics,
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        other => return Err(DecodeError::bad(format!("unknown op '{other}'"))),
    };
    Ok((seq, request))
}

// ---------------------------------------------------------------------------
// Replies

/// The `metrics` reply payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsReply {
    /// The service counter snapshot.
    pub metrics: ServiceMetrics,
    /// The service's worker count.
    pub workers: u64,
}

/// One span family's duration summary on the wire: every completed span
/// with this name, folded into a single histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// The span name (e.g. `"pipeline.merge_level"`).
    pub name: String,
    /// Span durations in nanoseconds.
    pub durations: Histogram,
}

/// The `stats` reply payload: the `metrics` counters plus latency
/// histograms and per-span summaries.
///
/// Histograms travel as their exact wire parts (sparse buckets, count,
/// total, max); percentile fields on the wire are *derived* from those
/// parts at encode time, so a client that re-derives them from the
/// decoded histogram gets bit-identical answers and a decode → re-encode
/// round trip reproduces the frame byte for byte.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsReply {
    /// The service's worker count.
    pub workers: u64,
    /// The service counter snapshot (same shape as the `metrics` op).
    pub metrics: ServiceMetrics,
    /// Queue-wait histograms keyed by priority, ascending.
    pub queue_wait: Vec<(i32, Histogram)>,
    /// Synthesis-stage latency across all completed requests.
    pub synth_latency: Histogram,
    /// Verification-stage latency across all verified requests.
    pub verify_latency: Histogram,
    /// Per-name span duration summaries from the server's recorder,
    /// sorted by name; empty when the server runs without tracing.
    pub spans: Vec<SpanStat>,
    /// Span events dropped by the server's recorder (ring overflow or
    /// retention eviction); `0` when tracing is off.
    pub dropped: u64,
}

/// A server reply — exactly one per request, correlated by `seq`.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to `hello`.
    Hello {
        /// The protocol version the server speaks.
        version: u64,
        /// Server software identifier (e.g. `cts-serve/0.1.0`).
        server: String,
        /// The service's worker count.
        workers: u64,
    },
    /// Reply to `submit`: the request was admitted under this id.
    Submitted {
        /// The service-assigned request id.
        id: u64,
    },
    /// Reply to `submit_batch`: every entry was admitted atomically; the
    /// ids map entry order to service-assigned request ids.
    BatchSubmitted {
        /// One id per batch entry, in entry order.
        ids: Vec<u64>,
    },
    /// Reply to `submit_sweep`: every expanded point was admitted
    /// atomically. `sweep_progress` events follow as points resolve and
    /// a terminal `pareto` event carries the folded front.
    SweepSubmitted {
        /// The per-connection sweep ordinal correlating this sweep's
        /// `sweep_progress`/`pareto` events.
        sweep: u64,
        /// One request id per expanded point, in expansion order (the
        /// point ordinal the `pareto` event refers to).
        ids: Vec<u64>,
    },
    /// Reply to `fetch_tree`: the stream header. The chunked `tree`
    /// events (and their terminal frame) follow.
    TreeHeader(TreeInfo),
    /// Reply to `status`.
    Status {
        /// The queried id.
        id: u64,
        /// Where the request is.
        state: RequestStatus,
    },
    /// Reply to `cancel` (cancellation is cooperative: the terminal
    /// outcome still arrives as a result event).
    Cancelled {
        /// The cancelled id.
        id: u64,
    },
    /// Reply to `metrics`.
    Metrics(MetricsReply),
    /// Reply to `stats`.
    Stats(Box<StatsReply>),
    /// Reply to `shutdown`, sent after the service has drained.
    ShuttingDown,
    /// Structured failure of the correlated request.
    Error {
        /// The machine-readable code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

fn status_str(s: RequestStatus) -> &'static str {
    match s {
        RequestStatus::Queued => "queued",
        RequestStatus::InFlight => "in_flight",
        RequestStatus::Done => "done",
    }
}

fn status_from_str(s: &str) -> Option<RequestStatus> {
    Some(match s {
        "queued" => RequestStatus::Queued,
        "in_flight" => RequestStatus::InFlight,
        "done" => RequestStatus::Done,
        _ => return None,
    })
}

/// The counters object shared by the `metrics` and `stats` replies. Key
/// order is part of the byte-level frame contract the conformance
/// transcripts pin; new counters append at the end.
fn service_metrics_to_json(s: &ServiceMetrics) -> Json {
    Json::obj(vec![
        ("submitted", Json::num(s.submitted as f64)),
        ("completed", Json::num(s.completed as f64)),
        ("cancelled", Json::num(s.cancelled as f64)),
        ("expired", Json::num(s.expired as f64)),
        ("failed", Json::num(s.failed as f64)),
        ("queue_depth", Json::num(s.queue_depth as f64)),
        ("synth_seconds", Json::num(s.synth_seconds)),
        ("verify_seconds", Json::num(s.verify_seconds)),
        ("stages_simulated", Json::num(s.stages_simulated as f64)),
        ("stages_reused", Json::num(s.stages_reused as f64)),
        ("symbolic_hits", Json::num(s.symbolic_hits as f64)),
        ("symbolic_misses", Json::num(s.symbolic_misses as f64)),
        ("topology_seconds", Json::num(s.topology_seconds)),
        ("merge_seconds", Json::num(s.merge_seconds)),
        ("sinks_synthesized", Json::num(s.sinks_synthesized as f64)),
        ("sinks_verified", Json::num(s.sinks_verified as f64)),
        ("corners_evaluated", Json::num(s.corners_evaluated as f64)),
        ("corner_lib_hits", Json::num(s.corner_lib_hits as f64)),
        ("corner_lib_misses", Json::num(s.corner_lib_misses as f64)),
        (
            "queue_depth_high_water",
            Json::num(s.queue_depth_high_water as f64),
        ),
        ("sweeps_submitted", Json::num(s.sweeps_submitted as f64)),
    ])
}

fn service_metrics_from_json(m: &Json) -> Result<ServiceMetrics, String> {
    let count = |key: &str| {
        m.get(key)
            .and_then(Json::as_u64)
            .ok_or("bad metrics counter")
    };
    let seconds = |key: &str| {
        m.get(key)
            .and_then(Json::as_f64)
            .ok_or("bad metrics seconds")
    };
    // Verify-cache and per-stage counters arrived after the v1
    // frames; default to zero when talking to an older server.
    let opt_count = |key: &str| m.get(key).and_then(Json::as_u64).unwrap_or(0);
    let opt_seconds = |key: &str| m.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    Ok(ServiceMetrics {
        submitted: count("submitted")?,
        completed: count("completed")?,
        cancelled: count("cancelled")?,
        expired: count("expired")?,
        failed: count("failed")?,
        queue_depth: count("queue_depth")? as usize,
        synth_seconds: seconds("synth_seconds")?,
        verify_seconds: seconds("verify_seconds")?,
        stages_simulated: opt_count("stages_simulated"),
        stages_reused: opt_count("stages_reused"),
        symbolic_hits: opt_count("symbolic_hits"),
        symbolic_misses: opt_count("symbolic_misses"),
        topology_seconds: opt_seconds("topology_seconds"),
        merge_seconds: opt_seconds("merge_seconds"),
        sinks_synthesized: opt_count("sinks_synthesized"),
        sinks_verified: opt_count("sinks_verified"),
        corners_evaluated: opt_count("corners_evaluated"),
        corner_lib_hits: opt_count("corner_lib_hits"),
        corner_lib_misses: opt_count("corner_lib_misses"),
        queue_depth_high_water: opt_count("queue_depth_high_water"),
        sweeps_submitted: opt_count("sweeps_submitted"),
    })
}

/// A histogram as its exact wire parts plus *derived* percentiles. The
/// buckets/count/total/max quadruple is the source of truth — decode
/// rebuilds the histogram from it and drops the percentile fields, so
/// re-encoding re-derives them bit-identically.
fn histogram_to_json(h: &Histogram) -> Json {
    Json::obj(vec![
        ("count", Json::num(h.count() as f64)),
        ("total_ns", Json::num(h.total() as f64)),
        ("max_ns", Json::num(h.max() as f64)),
        ("p50_ns", Json::num(h.percentile(50.0) as f64)),
        ("p90_ns", Json::num(h.percentile(90.0) as f64)),
        ("p99_ns", Json::num(h.percentile(99.0) as f64)),
        (
            "buckets",
            Json::arr(
                h.nonzero_buckets()
                    .iter()
                    .map(|&(i, c)| Json::arr(vec![Json::num(i as f64), Json::num(c as f64)]))
                    .collect(),
            ),
        ),
    ])
}

fn histogram_from_json(j: &Json) -> Result<Histogram, String> {
    let int = |key: &str| {
        j.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("histogram needs an integer '{key}'"))
    };
    let buckets = j
        .get("buckets")
        .and_then(Json::as_arr)
        .ok_or("histogram needs a 'buckets' array")?
        .iter()
        .map(|pair| {
            let p = pair.as_arr()?;
            if p.len() != 2 {
                return None;
            }
            // Indices past u8 can't be valid; 255 is equally
            // out-of-range, and `from_parts` ignores it (lenient).
            let index = u8::try_from(p[0].as_u64()?).unwrap_or(u8::MAX);
            Some((index, p[1].as_u64()?))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("histogram 'buckets' must be [index, count] integer pairs")?;
    Ok(Histogram::from_parts(
        &buckets,
        int("count")?,
        int("total_ns")?,
        int("max_ns")?,
    ))
}

/// Serializes a reply frame. `seq` is `None` only for errors answering a
/// frame whose `seq` could not be decoded (serialized as `"seq":null`).
pub fn encode_response(seq: Option<u64>, response: &Response) -> Json {
    let seq_json = match seq {
        Some(s) => Json::num(s as f64),
        None => Json::Null,
    };
    match response {
        Response::Error { code, message } => Json::obj(vec![
            ("ok", Json::Bool(false)),
            ("seq", seq_json),
            (
                "error",
                Json::obj(vec![
                    ("code", Json::str(code.as_str())),
                    ("message", Json::str(message.clone())),
                ]),
            ),
        ]),
        ok => {
            let mut fields = vec![("ok", Json::Bool(true)), ("seq", seq_json)];
            match ok {
                Response::Hello {
                    version,
                    server,
                    workers,
                } => {
                    fields.push(("op", Json::str("hello")));
                    fields.push(("version", Json::num(*version as f64)));
                    fields.push(("server", Json::str(server.clone())));
                    fields.push(("workers", Json::num(*workers as f64)));
                }
                Response::Submitted { id } => {
                    fields.push(("op", Json::str("submit")));
                    fields.push(("id", Json::num(*id as f64)));
                }
                Response::BatchSubmitted { ids } => {
                    fields.push(("op", Json::str("submit_batch")));
                    fields.push((
                        "ids",
                        Json::arr(ids.iter().map(|&id| Json::num(id as f64)).collect()),
                    ));
                }
                Response::SweepSubmitted { sweep, ids } => {
                    fields.push(("op", Json::str("submit_sweep")));
                    fields.push(("sweep", Json::num(*sweep as f64)));
                    fields.push((
                        "ids",
                        Json::arr(ids.iter().map(|&id| Json::num(id as f64)).collect()),
                    ));
                }
                Response::TreeHeader(info) => {
                    fields.push(("op", Json::str("fetch_tree")));
                    fields.push(("id", Json::num(info.id as f64)));
                    fields.push(("name", Json::str(&info.name)));
                    fields.push(("nodes", Json::num(info.nodes as f64)));
                    fields.push(("chunks", Json::num(info.chunks as f64)));
                    if info.partial {
                        fields.push(("partial", Json::Bool(true)));
                        fields.push(("levels_done", Json::num(info.levels_done as f64)));
                    } else {
                        fields.push(("source", Json::num(info.source as f64)));
                    }
                }
                Response::Status { id, state } => {
                    fields.push(("op", Json::str("status")));
                    fields.push(("id", Json::num(*id as f64)));
                    fields.push(("state", Json::str(status_str(*state))));
                }
                Response::Cancelled { id } => {
                    fields.push(("op", Json::str("cancel")));
                    fields.push(("id", Json::num(*id as f64)));
                }
                Response::Metrics(m) => {
                    fields.push(("op", Json::str("metrics")));
                    fields.push(("workers", Json::num(m.workers as f64)));
                    fields.push(("metrics", service_metrics_to_json(&m.metrics)));
                }
                Response::Stats(s) => {
                    fields.push(("op", Json::str("stats")));
                    fields.push(("workers", Json::num(s.workers as f64)));
                    fields.push(("metrics", service_metrics_to_json(&s.metrics)));
                    fields.push((
                        "queue_wait",
                        Json::arr(
                            s.queue_wait
                                .iter()
                                .map(|(priority, h)| {
                                    Json::obj(vec![
                                        ("priority", Json::num(*priority as f64)),
                                        ("latency", histogram_to_json(h)),
                                    ])
                                })
                                .collect(),
                        ),
                    ));
                    fields.push(("synth_latency", histogram_to_json(&s.synth_latency)));
                    fields.push(("verify_latency", histogram_to_json(&s.verify_latency)));
                    fields.push((
                        "spans",
                        Json::arr(
                            s.spans
                                .iter()
                                .map(|span| {
                                    Json::obj(vec![
                                        ("name", Json::str(&span.name)),
                                        ("latency", histogram_to_json(&span.durations)),
                                    ])
                                })
                                .collect(),
                        ),
                    ));
                    fields.push(("dropped", Json::num(s.dropped as f64)));
                }
                Response::ShuttingDown => {
                    fields.push(("op", Json::str("shutdown")));
                }
                Response::Error { .. } => unreachable!("handled above"),
            }
            Json::obj(fields)
        }
    }
}

/// Decodes a reply frame into `(seq, response)` — the client side.
///
/// # Errors
///
/// A description of the malformation (client-side this is a protocol
/// error; there is no one to send a structured reply to).
pub fn decode_response(j: &Json) -> Result<(Option<u64>, Response), String> {
    let seq = match j.get("seq") {
        Some(Json::Null) | None => None,
        Some(s) => Some(s.as_u64().ok_or("reply 'seq' must be an integer or null")?),
    };
    let ok = j
        .get("ok")
        .and_then(Json::as_bool)
        .ok_or("reply needs 'ok'")?;
    if !ok {
        let err = j.get("error").ok_or("error reply needs 'error'")?;
        let code_str = err
            .get("code")
            .and_then(Json::as_str)
            .ok_or("error needs a string 'code'")?;
        let code = ErrorCode::from_wire(code_str)
            .ok_or_else(|| format!("unknown error code '{code_str}'"))?;
        let message = err
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        return Ok((seq, Response::Error { code, message }));
    }
    let op = j
        .get("op")
        .and_then(Json::as_str)
        .ok_or("reply needs a string 'op'")?;
    let need_id = || j.get("id").and_then(Json::as_u64).ok_or("reply needs 'id'");
    let response = match op {
        "hello" => Response::Hello {
            version: j
                .get("version")
                .and_then(Json::as_u64)
                .ok_or("hello reply needs 'version'")?,
            server: j
                .get("server")
                .and_then(Json::as_str)
                .ok_or("hello reply needs 'server'")?
                .to_string(),
            workers: j
                .get("workers")
                .and_then(Json::as_u64)
                .ok_or("hello reply needs 'workers'")?,
        },
        "submit" => Response::Submitted { id: need_id()? },
        "submit_batch" => Response::BatchSubmitted {
            ids: j
                .get("ids")
                .and_then(Json::as_arr)
                .ok_or("submit_batch reply needs 'ids'")?
                .iter()
                .map(Json::as_u64)
                .collect::<Option<Vec<_>>>()
                .ok_or("submit_batch 'ids' must be integers")?,
        },
        "submit_sweep" => Response::SweepSubmitted {
            sweep: j
                .get("sweep")
                .and_then(Json::as_u64)
                .ok_or("submit_sweep reply needs 'sweep'")?,
            ids: j
                .get("ids")
                .and_then(Json::as_arr)
                .ok_or("submit_sweep reply needs 'ids'")?
                .iter()
                .map(Json::as_u64)
                .collect::<Option<Vec<_>>>()
                .ok_or("submit_sweep 'ids' must be integers")?,
        },
        "fetch_tree" => {
            let int = |key: &str| {
                j.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("fetch_tree reply needs '{key}'"))
            };
            let partial = j.get("partial").and_then(Json::as_bool).unwrap_or(false);
            Response::TreeHeader(TreeInfo {
                id: int("id")?,
                name: j
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("fetch_tree reply needs 'name'")?
                    .to_string(),
                nodes: int("nodes")?,
                chunks: int("chunks")?,
                // A partial header is a rooted forest mid-synthesis:
                // there is no source node yet, so the key is absent.
                source: if partial { 0 } else { int("source")? },
                partial,
                levels_done: if partial { int("levels_done")? } else { 0 },
            })
        }
        "status" => Response::Status {
            id: need_id()?,
            state: j
                .get("state")
                .and_then(Json::as_str)
                .and_then(status_from_str)
                .ok_or("status reply needs a valid 'state'")?,
        },
        "cancel" => Response::Cancelled { id: need_id()? },
        "metrics" => {
            let workers = j
                .get("workers")
                .and_then(Json::as_u64)
                .ok_or("metrics reply needs 'workers'")?;
            let m = j.get("metrics").ok_or("metrics reply needs 'metrics'")?;
            Response::Metrics(MetricsReply {
                workers,
                metrics: service_metrics_from_json(m)?,
            })
        }
        "stats" => {
            let workers = j
                .get("workers")
                .and_then(Json::as_u64)
                .ok_or("stats reply needs 'workers'")?;
            let metrics =
                service_metrics_from_json(j.get("metrics").ok_or("stats reply needs 'metrics'")?)?;
            let queue_wait = j
                .get("queue_wait")
                .and_then(Json::as_arr)
                .ok_or("stats reply needs a 'queue_wait' array")?
                .iter()
                .map(|entry| {
                    let priority = entry
                        .get("priority")
                        .and_then(Json::as_i64)
                        .filter(|p| i32::try_from(*p).is_ok())
                        .ok_or("queue_wait entry needs a 32-bit 'priority'")?
                        as i32;
                    let latency = histogram_from_json(
                        entry
                            .get("latency")
                            .ok_or("queue_wait entry needs 'latency'")?,
                    )?;
                    Ok((priority, latency))
                })
                .collect::<Result<Vec<_>, String>>()?;
            let hist = |key: &str| {
                histogram_from_json(
                    j.get(key)
                        .ok_or_else(|| format!("stats reply needs '{key}'"))?,
                )
            };
            let spans = j
                .get("spans")
                .and_then(Json::as_arr)
                .ok_or("stats reply needs a 'spans' array")?
                .iter()
                .map(|entry| {
                    Ok(SpanStat {
                        name: entry
                            .get("name")
                            .and_then(Json::as_str)
                            .ok_or("span entry needs a string 'name'")?
                            .to_string(),
                        durations: histogram_from_json(
                            entry.get("latency").ok_or("span entry needs 'latency'")?,
                        )?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Response::Stats(Box::new(StatsReply {
                workers,
                metrics,
                queue_wait,
                synth_latency: hist("synth_latency")?,
                verify_latency: hist("verify_latency")?,
                spans,
                // Absent on servers that predate drop accounting.
                dropped: j.get("dropped").and_then(Json::as_u64).unwrap_or(0),
            }))
        }
        "shutdown" => Response::ShuttingDown,
        other => return Err(format!("unknown reply op '{other}'")),
    };
    Ok((seq, response))
}

// ---------------------------------------------------------------------------
// Result events

/// SPICE-or-estimate timing numbers of one result (s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingStats {
    /// Worst 10–90 % slew (s).
    pub worst_slew: f64,
    /// Skew: max − min sink arrival (s).
    pub skew: f64,
    /// Max source-to-sink latency (s).
    pub latency: f64,
}

/// Per-corner distribution stats of one Monte Carlo variation run, as
/// carried by a result event. Only the folded distributions travel —
/// per-corner rows stay on the server (clients consume yield numbers,
/// and a 100k-corner row table has no business on a result frame).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationStats {
    /// Corners evaluated.
    pub corners: u64,
    /// Skew distribution across corners (s).
    pub skew: DistStats,
    /// Worst-slew distribution across corners (s).
    pub worst_slew: DistStats,
    /// Max-latency distribution across corners (s).
    pub latency: DistStats,
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

/// The stats a completed request streams back — the full
/// [`SynthesisResult`] summary minus the tree geometry (trees stay on
/// the server; clients consume numbers).
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteResult {
    /// The service-assigned request id.
    pub id: u64,
    /// Instance name, echoed.
    pub name: String,
    /// Priority the request ran at.
    pub priority: i32,
    /// Dispatch ordinal across the service lifetime.
    pub dispatch_order: u64,
    /// Client id echoed from the submission.
    pub client_id: Option<String>,
    /// Sink count.
    pub sinks: u64,
    /// Topology levels built.
    pub levels: u64,
    /// Buffers inserted.
    pub buffers: u64,
    /// Total inserted buffer input capacitance (F) — the sweep Pareto
    /// front's cost axis. `0.0` from servers that predate sweeps.
    pub buffer_cap_f: f64,
    /// Routed wirelength (µm).
    pub wirelength_um: f64,
    /// Wall time of the synthesis stage (s).
    pub synth_seconds: f64,
    /// Wall time of the verification stage (s); 0 when skipped.
    pub verify_seconds: f64,
    /// Engine-estimated timing.
    pub estimate: TimingStats,
    /// SPICE-verified timing, when the server verifies.
    pub verified: Option<TimingStats>,
    /// Monte Carlo corner distributions, when the variation axis ran.
    pub variation: Option<VariationStats>,
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
}

/// A pushed (unsolicited) server → client message: request `id` resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultEvent {
    /// The resolved request id.
    pub id: u64,
    /// How it resolved.
    pub outcome: Outcome,
}

/// Whether a decoded frame is an event (vs a reply). Clients route on
/// this before seq-matching.
pub fn is_event(j: &Json) -> bool {
    j.get("event").and_then(Json::as_bool) == Some(true)
}

/// The op of an event frame (`"result"` for terminal request outcomes,
/// `"tree"` for geometry stream frames, `"sweep_progress"` per resolved
/// sweep point, `"pareto"` for a finished sweep's folded front) — the
/// second routing key, after [`is_event`].
pub fn event_op(j: &Json) -> Option<&str> {
    j.get("op").and_then(Json::as_str)
}

fn timing_to_json(t: &TimingStats) -> Json {
    Json::obj(vec![
        ("worst_slew", Json::num(t.worst_slew)),
        ("skew", Json::num(t.skew)),
        ("latency", Json::num(t.latency)),
    ])
}

fn timing_from_json(j: &Json) -> Result<TimingStats, String> {
    let f = |key: &str| {
        j.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("timing stats need a number '{key}'"))
    };
    Ok(TimingStats {
        worst_slew: f("worst_slew")?,
        skew: f("skew")?,
        latency: f("latency")?,
    })
}

fn dist_to_json(d: &DistStats) -> Json {
    Json::obj(vec![
        ("min", Json::num(d.min)),
        ("median", Json::num(d.median)),
        ("p95", Json::num(d.p95)),
        ("max", Json::num(d.max)),
    ])
}

fn dist_from_json(j: &Json) -> Result<DistStats, String> {
    let f = |key: &str| {
        j.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("distribution stats need a number '{key}'"))
    };
    Ok(DistStats {
        min: f("min")?,
        median: f("median")?,
        p95: f("p95")?,
        max: f("max")?,
    })
}

fn variation_to_json(v: &VariationStats) -> Json {
    Json::obj(vec![
        ("corners", Json::num(v.corners as f64)),
        ("skew", dist_to_json(&v.skew)),
        ("worst_slew", dist_to_json(&v.worst_slew)),
        ("latency", dist_to_json(&v.latency)),
    ])
}

fn variation_from_json(j: &Json) -> Result<VariationStats, String> {
    let dist = |key: &str| {
        dist_from_json(
            j.get(key)
                .ok_or_else(|| format!("variation stats need '{key}'"))?,
        )
    };
    Ok(VariationStats {
        corners: j
            .get("corners")
            .and_then(Json::as_u64)
            .ok_or("variation stats need an integer 'corners'")?,
        skew: dist("skew")?,
        worst_slew: dist("worst_slew")?,
        latency: dist("latency")?,
    })
}

/// Serializes a result event frame.
pub fn encode_event(event: &ResultEvent) -> Json {
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("op", Json::str("result")),
        ("event", Json::Bool(true)),
        ("id", Json::num(event.id as f64)),
    ];
    match &event.outcome {
        Outcome::Completed(r) => {
            fields.push(("outcome", Json::str("completed")));
            let mut res = vec![
                ("name", Json::str(&r.name)),
                ("priority", Json::num(r.priority as f64)),
                ("dispatch_order", Json::num(r.dispatch_order as f64)),
                ("sinks", Json::num(r.sinks as f64)),
                ("levels", Json::num(r.levels as f64)),
                ("buffers", Json::num(r.buffers as f64)),
                ("buffer_cap_f", Json::num(r.buffer_cap_f)),
                ("wirelength_um", Json::num(r.wirelength_um)),
                ("synth_seconds", Json::num(r.synth_seconds)),
                ("verify_seconds", Json::num(r.verify_seconds)),
                ("estimate", timing_to_json(&r.estimate)),
                (
                    "verified",
                    r.verified.as_ref().map_or(Json::Null, timing_to_json),
                ),
            ];
            // Only present when the variation axis ran: absent keys keep
            // axis-off frames byte-identical to pre-variation servers, and
            // `decode_event` reads by key so old clients skip it unharmed.
            if let Some(v) = &r.variation {
                res.push(("variation", variation_to_json(v)));
            }
            if let Some(c) = &r.client_id {
                res.insert(1, ("client_id", Json::str(c)));
            }
            fields.push((
                "result",
                Json::Obj(res.into_iter().map(|(k, v)| (k.to_string(), v)).collect()),
            ));
        }
        Outcome::Cancelled => fields.push(("outcome", Json::str("cancelled"))),
        Outcome::Expired => fields.push(("outcome", Json::str("expired"))),
        Outcome::Failed { error } => {
            fields.push(("outcome", Json::str("failed")));
            fields.push(("error", Json::str(error)));
        }
    }
    Json::obj(fields)
}

/// Decodes a result event frame.
///
/// # Errors
///
/// A description of the malformation.
pub fn decode_event(j: &Json) -> Result<ResultEvent, String> {
    if !is_event(j) {
        return Err("not an event frame".into());
    }
    let id = j
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("event needs 'id'")?;
    let outcome = match j.get("outcome").and_then(Json::as_str) {
        Some("completed") => {
            let r = j.get("result").ok_or("completed event needs 'result'")?;
            let num = |key: &str| {
                r.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("result needs a number '{key}'"))
            };
            let int = |key: &str| {
                r.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("result needs an integer '{key}'"))
            };
            Outcome::Completed(Box::new(RemoteResult {
                id,
                name: r
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("result needs 'name'")?
                    .to_string(),
                priority: r
                    .get("priority")
                    .and_then(Json::as_i64)
                    .ok_or("result needs 'priority'")? as i32,
                dispatch_order: int("dispatch_order")?,
                client_id: r
                    .get("client_id")
                    .and_then(Json::as_str)
                    .map(str::to_string),
                sinks: int("sinks")?,
                levels: int("levels")?,
                buffers: int("buffers")?,
                // Additive key (sweep revision); zero from older servers.
                buffer_cap_f: r.get("buffer_cap_f").and_then(Json::as_f64).unwrap_or(0.0),
                wirelength_um: num("wirelength_um")?,
                synth_seconds: num("synth_seconds")?,
                verify_seconds: num("verify_seconds")?,
                estimate: timing_from_json(r.get("estimate").ok_or("result needs 'estimate'")?)?,
                verified: match r.get("verified") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(timing_from_json(v)?),
                },
                variation: match r.get("variation") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(variation_from_json(v)?),
                },
            }))
        }
        Some("cancelled") => Outcome::Cancelled,
        Some("expired") => Outcome::Expired,
        Some("failed") => Outcome::Failed {
            error: j
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
        },
        _ => return Err("event needs a valid 'outcome'".into()),
    };
    Ok(ResultEvent { id, outcome })
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
        match self {
            SweepPointOutcome::Completed => "completed",
            SweepPointOutcome::Cancelled => "cancelled",
            SweepPointOutcome::Expired => "expired",
            SweepPointOutcome::Failed => "failed",
        }
    }

    fn from_str(s: &str) -> Option<SweepPointOutcome> {
        Some(match s {
            "completed" => SweepPointOutcome::Completed,
            "cancelled" => SweepPointOutcome::Cancelled,
            "expired" => SweepPointOutcome::Expired,
            "failed" => SweepPointOutcome::Failed,
            _ => return None,
        })
    }
}

/// A pushed `sweep_progress` event: one of a sweep's points resolved.
/// The server emits it right after the point's `result` event, so a
/// client that saw `done == total` has already seen every payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepProgressEvent {
    /// The sweep ordinal from the `submit_sweep` reply.
    pub sweep: u64,
    /// Points resolved so far, including this one.
    pub done: u64,
    /// Total points in the sweep.
    pub total: u64,
    /// The resolved point's request id.
    pub id: u64,
    /// How the point resolved.
    pub outcome: SweepPointOutcome,
}

/// Serializes a `sweep_progress` event frame.
pub fn encode_sweep_progress(event: &SweepProgressEvent) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("op", Json::str("sweep_progress")),
        ("event", Json::Bool(true)),
        ("sweep", Json::num(event.sweep as f64)),
        ("done", Json::num(event.done as f64)),
        ("total", Json::num(event.total as f64)),
        ("id", Json::num(event.id as f64)),
        ("outcome", Json::str(event.outcome.as_str())),
    ])
}

/// Decodes a `sweep_progress` event frame.
///
/// # Errors
///
/// A description of the malformation.
pub fn decode_sweep_progress(j: &Json) -> Result<SweepProgressEvent, String> {
    if !is_event(j) {
        return Err("not an event frame".into());
    }
    let int = |key: &str| {
        j.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("sweep_progress needs an integer '{key}'"))
    };
    Ok(SweepProgressEvent {
        sweep: int("sweep")?,
        done: int("done")?,
        total: int("total")?,
        id: int("id")?,
        outcome: j
            .get("outcome")
            .and_then(Json::as_str)
            .and_then(SweepPointOutcome::from_str)
            .ok_or("sweep_progress needs a valid 'outcome'")?,
    })
}

/// One completed sweep point's objective row on a `pareto` event, tying
/// the point's expansion ordinal and request id to its three objectives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoWirePoint {
    /// The point's ordinal in the sweep expansion (index into the
    /// `submit_sweep` reply's `ids`).
    pub ordinal: u64,
    /// The point's request id.
    pub id: u64,
    /// Global skew (s).
    pub skew: f64,
    /// Total inserted buffer input capacitance (F).
    pub buffer_cap_f: f64,
    /// Max source-to-sink latency (s).
    pub latency: f64,
}

/// The terminal `pareto` event of a sweep: every completed point's
/// objective row plus the dominance front, exactly as the server's
/// grouping-independent [`ParetoFront`] fold produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoEvent {
    /// The sweep ordinal from the `submit_sweep` reply.
    pub sweep: u64,
    /// Total points in the sweep.
    pub total: u64,
    /// Points that completed (rows in `points`); cancelled / expired /
    /// failed points contribute nothing.
    pub completed: u64,
    /// One row per completed point, in expansion-ordinal order.
    pub points: Vec<ParetoWirePoint>,
    /// Ordinals of the non-dominated points, ascending.
    pub front: Vec<u64>,
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

/// Serializes a `pareto` event frame.
pub fn encode_pareto_event(event: &ParetoEvent) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("op", Json::str("pareto")),
        ("event", Json::Bool(true)),
        ("sweep", Json::num(event.sweep as f64)),
        ("total", Json::num(event.total as f64)),
        ("completed", Json::num(event.completed as f64)),
        (
            "points",
            Json::arr(
                event
                    .points
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("ordinal", Json::num(p.ordinal as f64)),
                            ("id", Json::num(p.id as f64)),
                            ("skew", Json::num(p.skew)),
                            ("buffer_cap_f", Json::num(p.buffer_cap_f)),
                            ("latency", Json::num(p.latency)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "front",
            Json::arr(event.front.iter().map(|&o| Json::num(o as f64)).collect()),
        ),
    ])
}

/// Decodes a `pareto` event frame.
///
/// # Errors
///
/// A description of the malformation.
pub fn decode_pareto_event(j: &Json) -> Result<ParetoEvent, String> {
    if !is_event(j) {
        return Err("not an event frame".into());
    }
    let int = |key: &str| {
        j.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("pareto needs an integer '{key}'"))
    };
    let points = j
        .get("points")
        .and_then(Json::as_arr)
        .ok_or("pareto needs a 'points' array")?
        .iter()
        .map(|p| {
            let pint = |key: &str| {
                p.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("pareto point needs an integer '{key}'"))
            };
            let pnum = |key: &str| {
                p.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("pareto point needs a number '{key}'"))
            };
            Ok(ParetoWirePoint {
                ordinal: pint("ordinal")?,
                id: pint("id")?,
                skew: pnum("skew")?,
                buffer_cap_f: pnum("buffer_cap_f")?,
                latency: pnum("latency")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let front = j
        .get("front")
        .and_then(Json::as_arr)
        .ok_or("pareto needs a 'front' array")?
        .iter()
        .map(Json::as_u64)
        .collect::<Option<Vec<_>>>()
        .ok_or("pareto 'front' must be integers")?;
    Ok(ParetoEvent {
        sweep: int("sweep")?,
        total: int("total")?,
        completed: int("completed")?,
        points,
        front,
    })
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
        let frame = encode_event(&ev).to_string();
        assert!(!frame.contains("variation"), "{frame}");
        let back = decode_event(&Json::parse(&frame).unwrap()).unwrap();
        assert_eq!(back, ev);
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
            let frame = encode_event(ev);
            let reparsed = Json::parse(&frame.to_string()).unwrap();
            assert!(is_event(&reparsed));
            let back = decode_event(&reparsed).unwrap();
            assert_eq!(&back, ev);
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
            let frame = Json::parse(&encode_tree_chunk(&ev).to_string()).unwrap();
            assert!(is_event(&frame));
            assert_eq!(event_op(&frame), Some("tree"));
            match decode_tree_event(&frame).unwrap() {
                TreeEvent::Chunk(back) => {
                    assert_eq!(back, ev);
                    rebuilt.extend(back.nodes);
                }
                TreeEvent::Done(_) => panic!("chunk decoded as terminal"),
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
        let frame = Json::parse(&encode_tree_done(&done).to_string()).unwrap();
        match decode_tree_event(&frame).unwrap() {
            TreeEvent::Done(back) => assert_eq!(back, done),
            TreeEvent::Chunk(_) => panic!("terminal decoded as chunk"),
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
        let frame = Json::parse(&encode_sweep_progress(&progress).to_string()).unwrap();
        assert!(is_event(&frame));
        assert_eq!(event_op(&frame), Some("sweep_progress"));
        assert_eq!(decode_sweep_progress(&frame).unwrap(), progress);

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
        let frame = Json::parse(&encode_pareto_event(&pareto).to_string()).unwrap();
        assert!(is_event(&frame));
        assert_eq!(event_op(&frame), Some("pareto"));
        let back = decode_pareto_event(&frame).unwrap();
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
}
