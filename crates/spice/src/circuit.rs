//! Netlist construction: nodes, resistors, capacitors, inverters, buffers,
//! distributed wires and ideal voltage sources.

use crate::device::{BufferType, Technology};
use crate::waveform::Waveform;
use cts_util::Fnv1a;
use std::fmt;

/// Identifier of a circuit node. Ground is implicit (not a node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Index into per-node arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Per-unit-length wire parasitics.
///
/// The GSRC bookshelf benchmarks specify 0.003 Ω/µm and 0.02 fF/µm; the
/// paper multiplies both by 10 "to mimic bigger chips that incur stringent
/// slew constraints" (§5.1). Both presets are provided.
///
/// ```
/// use cts_spice::WireParams;
/// let w = WireParams::gsrc_10x();
/// assert_eq!(w.r_per_um(), 10.0 * WireParams::gsrc_base().r_per_um());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireParams {
    r_per_um: f64,
    c_per_um: f64,
}

impl WireParams {
    /// Custom parasitics: resistance in Ω/µm, capacitance in F/µm.
    ///
    /// # Panics
    ///
    /// Panics if either value is non-positive or non-finite.
    pub fn new(r_per_um: f64, c_per_um: f64) -> WireParams {
        assert!(
            r_per_um > 0.0 && c_per_um > 0.0 && r_per_um.is_finite() && c_per_um.is_finite(),
            "wire parasitics must be positive and finite"
        );
        WireParams { r_per_um, c_per_um }
    }

    /// The GSRC bookshelf base parasitics: 0.003 Ω/µm, 0.02 fF/µm.
    pub fn gsrc_base() -> WireParams {
        WireParams::new(0.003, 0.02e-15)
    }

    /// The paper's experimental parasitics: 10× the GSRC base
    /// (0.03 Ω/µm, 0.2 fF/µm).
    pub fn gsrc_10x() -> WireParams {
        WireParams::new(0.03, 0.2e-15)
    }

    /// Wire resistance per µm (Ω/µm).
    pub fn r_per_um(&self) -> f64 {
        self.r_per_um
    }

    /// Wire capacitance per µm (F/µm).
    pub fn c_per_um(&self) -> f64 {
        self.c_per_um
    }

    /// Total resistance of a wire of `length_um` micrometers (Ω).
    pub fn resistance(&self, length_um: f64) -> f64 {
        self.r_per_um * length_um
    }

    /// Total capacitance of a wire of `length_um` micrometers (F).
    pub fn capacitance(&self, length_um: f64) -> f64 {
        self.c_per_um * length_um
    }
}

/// Target π-segment length for distributed wires (µm). Shorter wires use a
/// single segment; longer wires are discretized to at most
/// [`MAX_WIRE_SEGMENTS`] segments.
pub(crate) const WIRE_SEGMENT_UM: f64 = 25.0;
/// Upper bound on the number of π segments per wire.
pub(crate) const MAX_WIRE_SEGMENTS: usize = 64;
/// Floor on any single resistor value (Ω) so degenerate wires do not create
/// near-singular systems.
pub(crate) const MIN_RESISTANCE_OHM: f64 = 1e-3;

#[derive(Debug, Clone)]
pub(crate) struct Resistor {
    pub a: NodeId,
    pub b: NodeId,
    pub ohms: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct Inverter {
    pub input: NodeId,
    pub output: NodeId,
    pub size: f64,
}

/// A circuit under construction.
///
/// Build netlists with the `add_*` methods, attach input waveforms with
/// [`Circuit::drive`], then hand the circuit to [`crate::simulate`]. See the
/// crate-level example.
#[derive(Debug, Clone)]
pub struct Circuit {
    tech: Technology,
    node_names: Vec<String>,
    pub(crate) resistors: Vec<Resistor>,
    /// Grounded capacitance per node (F), accumulated.
    pub(crate) node_cap: Vec<f64>,
    pub(crate) inverters: Vec<Inverter>,
    pub(crate) sources: Vec<(NodeId, Waveform)>,
}

impl Circuit {
    /// Creates an empty circuit in the given technology.
    pub fn new(tech: &Technology) -> Circuit {
        Circuit {
            tech: tech.clone(),
            node_names: Vec::new(),
            resistors: Vec::new(),
            node_cap: Vec::new(),
            inverters: Vec::new(),
            sources: Vec::new(),
        }
    }

    /// The technology the circuit was built in.
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// Adds a node and returns its id. Names are for diagnostics only and
    /// need not be unique.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.node_names.len() as u32);
        self.node_names.push(name.into());
        self.node_cap.push(0.0);
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Diagnostic name of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.node_names[node.index()]
    }

    fn check_node(&self, node: NodeId) {
        assert!(
            node.index() < self.node_names.len(),
            "node {node} does not belong to this circuit"
        );
    }

    /// Adds a resistor between two distinct nodes.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range nodes, `a == b`, or a non-positive/non-finite
    /// resistance.
    pub fn add_resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) {
        self.check_node(a);
        self.check_node(b);
        assert!(a != b, "resistor endpoints must differ");
        assert!(
            ohms > 0.0 && ohms.is_finite(),
            "resistance must be positive and finite, got {ohms}"
        );
        self.resistors.push(Resistor {
            a,
            b,
            ohms: ohms.max(MIN_RESISTANCE_OHM),
        });
    }

    /// Adds grounded capacitance at a node (accumulates with any existing
    /// capacitance there).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range nodes or negative/non-finite capacitance.
    pub fn add_cap(&mut self, node: NodeId, farads: f64) {
        self.check_node(node);
        assert!(
            farads >= 0.0 && farads.is_finite(),
            "capacitance must be non-negative and finite, got {farads}"
        );
        self.node_cap[node.index()] += farads;
    }

    /// Adds a square-law CMOS inverter of the given size between two nodes.
    ///
    /// The inverter contributes its gate capacitance at `input`, its drain
    /// capacitance at `output`, and a nonlinear pull-up/pull-down current at
    /// `output` controlled by `input`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range nodes, `input == output`, or `size < 1`.
    pub fn add_inverter(&mut self, input: NodeId, output: NodeId, size: f64) {
        self.check_node(input);
        self.check_node(output);
        assert!(input != output, "inverter input and output must differ");
        assert!(size >= 1.0, "inverter size must be >= 1x, got {size}");
        self.node_cap[input.index()] += self.tech.cg_1x() * size;
        self.node_cap[output.index()] += self.tech.cd_1x() * size;
        self.inverters.push(Inverter {
            input,
            output,
            size,
        });
    }

    /// Adds a two-stage buffer (the paper's cascaded inverter pair) between
    /// two nodes and returns the internal node.
    pub fn add_buffer(&mut self, input: NodeId, output: NodeId, buf: &BufferType) -> NodeId {
        let internal = self.add_node(format!("{}_mid", buf.name()));
        self.add_inverter(input, internal, buf.stage1_size());
        self.add_inverter(internal, output, buf.stage2_size());
        internal
    }

    /// Adds a distributed RC wire of `length_um` micrometers between two
    /// nodes as a ladder of π segments, and returns the internal nodes
    /// created (possibly empty for short wires).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range nodes, `a == b`, or a non-positive length.
    pub fn add_wire(
        &mut self,
        a: NodeId,
        b: NodeId,
        length_um: f64,
        wire: WireParams,
    ) -> Vec<NodeId> {
        self.check_node(a);
        self.check_node(b);
        assert!(a != b, "wire endpoints must differ");
        assert!(
            length_um > 0.0 && length_um.is_finite(),
            "wire length must be positive, got {length_um}"
        );
        let nseg = ((length_um / WIRE_SEGMENT_UM).ceil() as usize).clamp(1, MAX_WIRE_SEGMENTS);
        let lseg = length_um / nseg as f64;
        let rseg = wire.resistance(lseg).max(MIN_RESISTANCE_OHM);
        let cseg = wire.capacitance(lseg);

        let mut internals = Vec::with_capacity(nseg.saturating_sub(1));
        let mut prev = a;
        for i in 0..nseg {
            let next = if i + 1 == nseg {
                b
            } else {
                let n = self.add_node(format!("w{}", self.node_names.len()));
                internals.push(n);
                n
            };
            // π segment: half the segment cap at each end.
            self.add_cap(prev, cseg / 2.0);
            self.add_cap(next, cseg / 2.0);
            self.add_resistor(prev, next, rseg);
            prev = next;
        }
        internals
    }

    /// Forces the voltage of a node to follow a waveform (an ideal voltage
    /// source).
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range or already driven.
    pub fn drive(&mut self, node: NodeId, waveform: Waveform) {
        self.check_node(node);
        assert!(
            self.sources.iter().all(|(n, _)| *n != node),
            "node {node} is already driven by a source"
        );
        self.sources.push((node, waveform));
    }

    /// The waveform driving `node`, if a source drives it. A
    /// [`crate::Transient`] may have its sources extended through this
    /// between advances.
    pub fn source_mut(&mut self, node: NodeId) -> Option<&mut Waveform> {
        self.sources
            .iter_mut()
            .find(|(n, _)| *n == node)
            .map(|(_, w)| w)
    }

    /// Total grounded capacitance at a node (wire + device + explicit), in
    /// farads.
    pub fn capacitance_at(&self, node: NodeId) -> f64 {
        self.check_node(node);
        self.node_cap[node.index()]
    }

    /// A 128-bit fingerprint of the circuit *topology*: node count,
    /// resistor endpoints, inverter pins and source nodes — in insertion
    /// order, ignoring all element values (resistances, capacitances,
    /// device sizes, waveforms) and node names.
    ///
    /// Two circuits with equal fingerprints admit the same solve plan
    /// (component partition and elimination order);
    /// [`crate::SolverContext`] uses this as its cache key.
    pub fn topology_fingerprint(&self) -> u128 {
        let mut h = Fnv1a::default();
        h.word(self.node_names.len() as u64);
        h.word(self.resistors.len() as u64);
        for r in &self.resistors {
            h.word(((r.a.0 as u64) << 32) | r.b.0 as u64);
        }
        h.word(self.inverters.len() as u64);
        for inv in &self.inverters {
            h.word(((inv.input.0 as u64) << 32) | inv.output.0 as u64);
        }
        h.word(self.sources.len() as u64);
        for (node, _) in &self.sources {
            h.word(node.0 as u64);
        }
        h.finish128()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "circuit[{} nodes, {} R, {} inverters, {} sources]",
            self.node_count(),
            self.resistors.len(),
            self.inverters.len(),
            self.sources.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::*;

    fn tech() -> Technology {
        Technology::nominal_45nm()
    }

    #[test]
    fn wire_discretization_conserves_totals() {
        let t = tech();
        let mut c = Circuit::new(&t);
        let a = c.add_node("a");
        let b = c.add_node("b");
        let w = WireParams::gsrc_10x();
        c.add_wire(a, b, 1000.0, w);

        let total_r: f64 = c.resistors.iter().map(|r| r.ohms).sum();
        let total_c: f64 = c.node_cap.iter().sum();
        assert!((total_r - 30.0).abs() < 1e-9, "R = {total_r}");
        assert!((total_c - 200.0 * FF).abs() < 1e-21, "C = {total_c}");
    }

    #[test]
    fn short_wire_is_single_segment() {
        let t = tech();
        let mut c = Circuit::new(&t);
        let a = c.add_node("a");
        let b = c.add_node("b");
        let internals = c.add_wire(a, b, 10.0, WireParams::gsrc_10x());
        assert!(internals.is_empty());
        assert_eq!(c.resistors.len(), 1);
    }

    #[test]
    fn long_wire_hits_segment_cap() {
        let t = tech();
        let mut c = Circuit::new(&t);
        let a = c.add_node("a");
        let b = c.add_node("b");
        c.add_wire(a, b, 100_000.0, WireParams::gsrc_10x());
        assert_eq!(c.resistors.len(), MAX_WIRE_SEGMENTS);
    }

    #[test]
    fn buffer_adds_internal_node_and_caps() {
        let t = tech();
        let mut c = Circuit::new(&t);
        let a = c.add_node("a");
        let b = c.add_node("b");
        let buf = &t.buffer_library()[0];
        let mid = c.add_buffer(a, b, buf);
        assert_eq!(c.node_count(), 3);
        assert!(c.capacitance_at(a) > 0.0, "gate cap at input");
        assert!(c.capacitance_at(mid) > 0.0, "drain+gate cap at internal");
        assert!(c.capacitance_at(b) > 0.0, "drain cap at output");
        assert!((c.capacitance_at(a) - buf.input_cap(&t)).abs() < 1e-21);
    }

    #[test]
    #[should_panic(expected = "already driven")]
    fn double_drive_rejected() {
        let t = tech();
        let mut c = Circuit::new(&t);
        let a = c.add_node("a");
        c.drive(a, Waveform::constant(0.0));
        c.drive(a, Waveform::constant(1.0));
    }

    #[test]
    #[should_panic(expected = "endpoints must differ")]
    fn self_loop_resistor_rejected() {
        let t = tech();
        let mut c = Circuit::new(&t);
        let a = c.add_node("a");
        c.add_resistor(a, a, 10.0);
    }

    #[test]
    fn wire_params_presets() {
        let base = WireParams::gsrc_base();
        let ten = WireParams::gsrc_10x();
        assert!((ten.r_per_um() / base.r_per_um() - 10.0).abs() < 1e-12);
        assert!((ten.c_per_um() / base.c_per_um() - 10.0).abs() < 1e-12);
        assert!((ten.resistance(100.0) - 3.0).abs() < 1e-12);
    }
}
