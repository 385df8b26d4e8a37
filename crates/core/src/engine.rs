//! Library-based timing analysis over clock trees.
//!
//! The engine propagates arrival time and slew top-down from a driver,
//! cutting the tree into buffered stages exactly as the delay library was
//! characterized (paper §3.2): a stage is a driving buffer plus the wire
//! tree to the next buffer inputs / sinks. One recursive walk (`Walk`)
//! makes that cut, times every stage, and — for
//! [`TimingEngine::evaluate_annotated`] — records the input slew of every
//! stage load as it goes. It decides four stage shapes:
//!
//! * a **single wire** from the driver to one load uses the single-wire
//!   fit;
//! * a **fork at the driver** uses the branch fit as characterized;
//! * a **fork behind a stem** of length `s` blends two estimates 0.6/0.4:
//!   the stem folded into both arms of the branch fit
//!   (`(s+l_left, s+l_right)`), and the stem as a single-wire stage
//!   followed by a fresh branch at the degraded slew;
//! * a **nested fork** inside the same stage is a wire-only branch
//!   evaluation whose input slew is the slew propagated to it, with the
//!   driving buffer's intrinsic delay counted only once.
//!
//! The last two are approximations, absorbed by the final SPICE
//! verification, which reports honest numbers.
//!
//! Whatever a wire runs into presents one load, decided by
//! [`TimingEngine::load_at`]: a buffer's input, a sink's pin, or — at a
//! joint — the capacitance shielded under it
//! ([`ClockTree::shielded_cap_under`]), as a sink of that capacitance.

use crate::tree::{ClockTree, NodeKind, TreeNodeId};
use cts_timing::{BranchTiming, BufferId, DelaySlewLibrary, Load};
use std::collections::HashMap;

/// Result of a timing evaluation: arrivals are measured from the driving
/// point's input edge (seconds).
///
/// A report is also the reusable output buffer of
/// [`TimingEngine::evaluate_subtree_into`]: hot loops (the merge binary
/// search) keep one around and let it be refilled, so the per-call
/// `sink_arrivals` allocation disappears.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimingReport {
    /// Arrival time at each sink under the evaluated root.
    pub sink_arrivals: Vec<(TreeNodeId, f64)>,
    /// Worst (largest) 10–90 % slew recorded at any stage load or fork (s).
    pub worst_slew: f64,
    /// Maximum sink arrival (s) — the latency when evaluated from the
    /// source.
    pub latency: f64,
    /// Minimum sink arrival (s).
    pub min_arrival: f64,
}

impl TimingReport {
    /// Clock skew: max − min sink arrival (s).
    pub fn skew(&self) -> f64 {
        if self.sink_arrivals.is_empty() {
            0.0
        } else {
            self.latency - self.min_arrival
        }
    }

    /// Per-sink arrival map.
    pub fn arrival_map(&self) -> HashMap<TreeNodeId, f64> {
        self.sink_arrivals.iter().copied().collect()
    }

    /// Latest arrival among the sinks of each side, where `sides` are two
    /// disjoint, sorted sink-id lists (−∞ for a side with no arrival).
    ///
    /// The balancing bisections call this on every step: it reads the
    /// arrival list in place instead of building an [`arrival_map`]. A
    /// max fold does not depend on visiting order, so the result is the
    /// same as folding over either map.
    ///
    /// [`arrival_map`]: TimingReport::arrival_map
    pub(crate) fn side_max_arrivals(&self, sides: [&[TreeNodeId]; 2]) -> [f64; 2] {
        let mut side_max = [f64::NEG_INFINITY; 2];
        for &(id, t) in &self.sink_arrivals {
            if sides[0].binary_search(&id).is_ok() {
                side_max[0] = side_max[0].max(t);
            } else if sides[1].binary_search(&id).is_ok() {
                side_max[1] = side_max[1].max(t);
            }
        }
        side_max
    }
}

/// Timing engine bound to a delay/slew library.
#[derive(Debug, Clone, Copy)]
pub struct TimingEngine<'a> {
    lib: &'a DelaySlewLibrary,
}

/// What a walk down a stage's wire ran into, after `len` µm of wire.
#[derive(Clone, Copy)]
enum Event {
    /// A buffer input or sink.
    LoadAt { len: f64, node: TreeNodeId },
    /// A two-child joint.
    ForkAt { len: f64, node: TreeNodeId },
    /// A joint with no children — tolerated as a zero-cap stub end.
    Dangling { len: f64, node: TreeNodeId },
}

impl Event {
    /// Walks down from `node` (its own wire included) through unary
    /// joints, accumulating wire length, until a load, a fork, or a
    /// dangling end.
    fn reach(tree: &ClockTree, mut node: TreeNodeId) -> Event {
        let mut len = tree.node(node).wire_to_parent_um;
        loop {
            match tree.node(node).kind {
                NodeKind::Sink { .. } | NodeKind::Buffer { .. } => {
                    return Event::LoadAt { len, node }
                }
                NodeKind::Source { .. } => unreachable!("source below a driver"),
                NodeKind::Joint => match tree.node(node).children[..] {
                    [] => return Event::Dangling { len, node },
                    [c] => {
                        node = c;
                        len += tree.node(c).wire_to_parent_um;
                    }
                    _ => return Event::ForkAt { len, node },
                },
            }
        }
    }
}

impl<'a> TimingEngine<'a> {
    /// Creates an engine over a library.
    pub fn new(lib: &'a DelaySlewLibrary) -> TimingEngine<'a> {
        TimingEngine { lib }
    }

    /// The library this engine reads.
    pub fn library(&self) -> &'a DelaySlewLibrary {
        self.lib
    }

    /// The load a wire into `node` sees: a buffer's input, a sink's pin,
    /// or — at a joint or the source — the capacitance shielded under it
    /// ([`ClockTree::shielded_cap_under`]), as a sink of that capacitance.
    pub fn load_at(&self, tree: &ClockTree, node: TreeNodeId) -> Load {
        match tree.node(node).kind {
            NodeKind::Buffer { buffer } => Load::Buffer(buffer),
            NodeKind::Sink { cap, .. } => Load::Sink { cap },
            NodeKind::Joint | NodeKind::Source { .. } => Load::Sink {
                cap: tree.shielded_cap_under(node, self.lib),
            },
        }
    }

    /// Evaluates a finished tree from its source node.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a [`NodeKind::Source`] node.
    pub fn evaluate(&self, tree: &ClockTree, source: TreeNodeId, input_slew: f64) -> TimingReport {
        self.evaluate_subtree(tree, source, source_driver(tree, source), input_slew)
    }

    /// Like [`TimingEngine::evaluate`], but additionally returns the input
    /// slew seen at every stage load (buffer or sink) and at the source —
    /// the annotation the global refinement needs to re-evaluate stages in
    /// their true context. The same walk produces both.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a [`NodeKind::Source`] node.
    pub fn evaluate_annotated(
        &self,
        tree: &ClockTree,
        source: TreeNodeId,
        input_slew: f64,
    ) -> (TimingReport, HashMap<TreeNodeId, f64>) {
        let mut report = TimingReport::default();
        let mut slews = HashMap::from([(source, input_slew)]);
        let driver = source_driver(tree, source);
        self.run(
            tree,
            source,
            driver,
            input_slew,
            &mut report,
            Some(&mut slews),
        );
        (report, slews)
    }

    /// Evaluates the sub-tree rooted at `root` as if a driver of type
    /// `virtual_driver` sat at the root with the given input slew — the
    /// bottom-up flow's working assumption (paper §4.2.2: "assume the
    /// driving buffer input slew to be equal to the slew limit").
    pub fn evaluate_subtree(
        &self,
        tree: &ClockTree,
        root: TreeNodeId,
        virtual_driver: BufferId,
        input_slew: f64,
    ) -> TimingReport {
        let mut report = TimingReport::default();
        self.run(tree, root, virtual_driver, input_slew, &mut report, None);
        report
    }

    /// [`TimingEngine::evaluate_subtree`] into a caller-owned report,
    /// reusing its allocations. The previous contents are discarded.
    pub fn evaluate_subtree_into(
        &self,
        tree: &ClockTree,
        root: TreeNodeId,
        virtual_driver: BufferId,
        input_slew: f64,
        report: &mut TimingReport,
    ) {
        self.run(tree, root, virtual_driver, input_slew, report, None);
    }

    /// Refills `report` with the evaluation of the sub-tree under `root`
    /// (driven by the root itself when it is a buffer or the source, by
    /// `virtual_driver` when it is a joint), recording load slews into
    /// `slews` when given.
    fn run(
        &self,
        tree: &ClockTree,
        root: TreeNodeId,
        virtual_driver: BufferId,
        input_slew: f64,
        report: &mut TimingReport,
        slews: Option<&mut HashMap<TreeNodeId, f64>>,
    ) {
        report.sink_arrivals.clear();
        report.worst_slew = 0.0;
        let driver = match tree.node(root).kind {
            NodeKind::Sink { .. } => {
                report.sink_arrivals.push((root, 0.0));
                report.worst_slew = input_slew;
                None
            }
            NodeKind::Buffer { buffer } => Some(buffer),
            NodeKind::Source { driver } => Some(driver),
            // Virtual driver feeding the joint's wire tree directly.
            NodeKind::Joint => Some(virtual_driver),
        };
        if let Some(driver) = driver {
            let mut walk = Walk {
                engine: *self,
                tree,
                report: &mut *report,
                slews,
            };
            walk.stage(root, driver, input_slew, 0.0);
        }
        let arrivals = || report.sink_arrivals.iter().map(|&(_, t)| t);
        if report.sink_arrivals.is_empty() {
            report.latency = 0.0;
            report.min_arrival = 0.0;
        } else {
            report.latency = arrivals().fold(f64::NEG_INFINITY, f64::max);
            report.min_arrival = arrivals().fold(f64::INFINITY, f64::min);
        }
    }
}

/// The driver type of the source node `source`.
fn source_driver(tree: &ClockTree, source: TreeNodeId) -> BufferId {
    match tree.node(source).kind {
        NodeKind::Source { driver } => driver,
        ref k => panic!("evaluate() needs a source node, got {k:?}"),
    }
}

/// One evaluation: the stage walk that fills `report` and, when `slews`
/// is given, records the input slew of every stage load it reaches.
struct Walk<'w, 'a> {
    engine: TimingEngine<'a>,
    tree: &'w ClockTree,
    report: &'w mut TimingReport,
    slews: Option<&'w mut HashMap<TreeNodeId, f64>>,
}

impl Walk<'_, '_> {
    /// Times the stage whose driver sits at `at` (a buffer/source node, or
    /// a joint root under a virtual driver), arriving at the driver input
    /// at time `t_in` with slew `slew_in`.
    fn stage(&mut self, at: TreeNodeId, driver: BufferId, slew_in: f64, t_in: f64) {
        // The wire tree hangs off `at`'s children; a joint root may itself
        // be the fork.
        let tree = self.tree;
        match tree.node(at).children[..] {
            [] => {}
            [child] => match Event::reach(tree, child) {
                Event::LoadAt { len, node } => {
                    let load = self.engine.load_at(tree, node);
                    let timing = self
                        .engine
                        .lib
                        .single_wire(driver, load, slew_in, len.max(1.0));
                    self.note_slew(timing.output_slew);
                    let t = t_in + timing.buffer_delay + timing.wire_delay;
                    self.continue_at(node, timing.output_slew, t);
                }
                // Intrinsic counted here; nested forks are wire-only.
                Event::ForkAt { len, node } => self.fork(node, driver, slew_in, t_in, len, true),
                Event::Dangling { .. } => {}
            },
            // `at` is itself the fork (stem length 0).
            [_, _] => self.fork(at, driver, slew_in, t_in, 0.0, true),
            ref n => unreachable!("tree nodes have at most 2 children, got {}", n.len()),
        }
    }

    /// Times a fork at `fork` with a stem of `stem_len` µm between the
    /// driver (input slew `slew_in`, arrival `t_in` at driver input) and
    /// the fork, then continues past each arm. `with_intrinsic` adds the
    /// driving buffer's intrinsic delay (true only for the first structure
    /// of a stage).
    fn fork(
        &mut self,
        fork: TreeNodeId,
        driver: BufferId,
        slew_in: f64,
        t_in: f64,
        stem_len: f64,
        with_intrinsic: bool,
    ) {
        let tree = self.tree;
        let children = &tree.node(fork).children;
        debug_assert_eq!(children.len(), 2);
        let arms = [
            Event::reach(tree, children[0]),
            Event::reach(tree, children[1]),
        ];
        let timing = self.fork_timing(fork, driver, slew_in, stem_len, arms);
        let t0 = t_in
            + if with_intrinsic {
                timing.buffer_delay
            } else {
                0.0
            };

        for (ev, delay, slew) in [
            (arms[0], timing.left_delay, timing.left_slew),
            (arms[1], timing.right_delay, timing.right_slew),
        ] {
            self.note_slew(slew);
            match ev {
                Event::LoadAt { node, .. } => self.continue_at(node, slew, t0 + delay),
                // Nested fork: wire-only continuation with the propagated
                // slew; same driver, no further intrinsic delay.
                Event::ForkAt { node, .. } => {
                    self.fork(node, driver, slew, t0 + delay, 0.0, false);
                }
                Event::Dangling { .. } => {}
            }
        }
    }

    /// Branch timing of a (stem +) fork under `driver`, whose two `arms`
    /// the caller has already walked.
    ///
    /// A fork directly at the driver uses the branch fit as characterized.
    /// A fork behind a stem blends two estimates: *folded* (stem counted
    /// inside both arms — overestimates by double-counting the stem's
    /// resistance) and *composed* (stem as a single-wire stage, then a
    /// fresh branch at the degraded slew — underestimates by ignoring the
    /// driver's weakening). The 0.6/0.4 blend sits within a few percent of
    /// direct simulation across stem/arm mixes.
    fn fork_timing(
        &self,
        fork: TreeNodeId,
        driver: BufferId,
        slew_in: f64,
        stem_len: f64,
        arms: [Event; 2],
    ) -> BranchTiming {
        let (lib, tree) = (self.engine.lib, self.tree);
        let [(len_l, load_l), (len_r, load_r)] = arms.map(|ev| {
            let (Event::LoadAt { len, node }
            | Event::ForkAt { len, node }
            | Event::Dangling { len, node }) = ev;
            (len, self.engine.load_at(tree, node))
        });

        let folded = lib.branch(
            driver,
            (load_l, load_r),
            slew_in,
            ((stem_len + len_l).max(1.0), (stem_len + len_r).max(1.0)),
        );
        if stem_len <= 50.0 {
            return folded;
        }
        let fork_load = self.engine.load_at(tree, fork);
        let stem_t = lib.single_wire(driver, fork_load, slew_in, stem_len);
        let comp = lib.branch(
            driver,
            (load_l, load_r),
            stem_t.output_slew,
            (len_l.max(1.0), len_r.max(1.0)),
        );
        let blend = |a: f64, b: f64| 0.6 * a + 0.4 * b;
        BranchTiming {
            buffer_delay: blend(folded.buffer_delay, stem_t.buffer_delay),
            left_delay: blend(folded.left_delay, stem_t.wire_delay + comp.left_delay),
            left_slew: blend(folded.left_slew, comp.left_slew),
            right_delay: blend(folded.right_delay, stem_t.wire_delay + comp.right_delay),
            right_slew: blend(folded.right_slew, comp.right_slew),
        }
    }

    /// Continues past a stage load reached with `slew` at time `t`: record
    /// a sink arrival, or time the buffer's own stage.
    fn continue_at(&mut self, node: TreeNodeId, slew: f64, t: f64) {
        if let Some(slews) = self.slews.as_deref_mut() {
            slews.insert(node, slew);
        }
        match self.tree.node(node).kind {
            NodeKind::Sink { .. } => self.report.sink_arrivals.push((node, t)),
            NodeKind::Buffer { buffer } => self.stage(node, buffer, slew, t),
            ref k => unreachable!("loads are buffers or sinks, got {k:?}"),
        }
    }

    fn note_slew(&mut self, slew: f64) {
        if slew > self.report.worst_slew {
            self.report.worst_slew = slew;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Sink;
    use cts_geom::Point;
    use cts_spice::units::PS;
    use cts_timing::fast_library;

    fn sink(name: &str, x: f64, y: f64) -> Sink {
        Sink::new(name, Point::new(x, y), 20e-15)
    }

    #[test]
    fn single_sink_behind_buffer() {
        let lib = fast_library();
        let engine = TimingEngine::new(lib);
        let mut t = ClockTree::new();
        let s = t.add_sink(0, &sink("a", 500.0, 0.0));
        let b = t.add_buffer(Point::new(0.0, 0.0), BufferId(1));
        t.attach(b, s, 500.0);
        let r = engine.evaluate_subtree(&t, b, BufferId(1), 60.0 * PS);
        assert_eq!(r.sink_arrivals.len(), 1);
        assert!(
            r.latency > 0.0 && r.latency < 500.0 * PS,
            "latency {}",
            r.latency / PS
        );
        assert!(r.worst_slew > 0.0);
        assert_eq!(r.skew(), 0.0);
    }

    #[test]
    fn balanced_fork_has_small_skew() {
        let lib = fast_library();
        let engine = TimingEngine::new(lib);
        let mut t = ClockTree::new();
        let a = t.add_sink(0, &sink("a", 0.0, 0.0));
        let b = t.add_sink(1, &sink("b", 800.0, 0.0));
        let m = t.add_joint(Point::new(400.0, 0.0));
        t.attach(m, a, 400.0);
        t.attach(m, b, 400.0);
        let r = engine.evaluate_subtree(&t, m, BufferId(1), 60.0 * PS);
        assert_eq!(r.sink_arrivals.len(), 2);
        assert!(r.skew() < 1.0 * PS, "skew {}", r.skew() / PS);
    }

    #[test]
    fn unbalanced_fork_has_skew_toward_longer_arm() {
        let lib = fast_library();
        let engine = TimingEngine::new(lib);
        let mut t = ClockTree::new();
        let a = t.add_sink(0, &sink("a", 0.0, 0.0));
        let b = t.add_sink(1, &sink("b", 1400.0, 0.0));
        let m = t.add_joint(Point::new(200.0, 0.0));
        t.attach(m, a, 200.0);
        t.attach(m, b, 1200.0);
        let r = engine.evaluate_subtree(&t, m, BufferId(1), 60.0 * PS);
        let arrivals = r.arrival_map();
        assert!(arrivals[&b] > arrivals[&a]);
        assert!(r.skew() > 1.0 * PS);
    }

    #[test]
    fn buffers_reset_slew_along_long_paths() {
        let lib = fast_library();
        let engine = TimingEngine::new(lib);
        // 2.4 mm path: unbuffered vs buffered at 800 µm intervals.
        let mut unbuf = ClockTree::new();
        let s1 = unbuf.add_sink(0, &sink("a", 2400.0, 0.0));
        let d1 = unbuf.add_buffer(Point::new(0.0, 0.0), BufferId(2));
        unbuf.attach(d1, s1, 2400.0);
        let r_unbuf = engine.evaluate_subtree(&unbuf, d1, BufferId(2), 80.0 * PS);

        let mut buf = ClockTree::new();
        let s2 = buf.add_sink(0, &sink("a", 2400.0, 0.0));
        let b2 = buf.add_buffer(Point::new(1600.0, 0.0), BufferId(2));
        buf.attach(b2, s2, 800.0);
        let b1 = buf.add_buffer(Point::new(800.0, 0.0), BufferId(2));
        buf.attach(b1, b2, 800.0);
        let d2 = buf.add_buffer(Point::new(0.0, 0.0), BufferId(2));
        buf.attach(d2, b1, 800.0);
        let r_buf = engine.evaluate_subtree(&buf, d2, BufferId(2), 80.0 * PS);

        assert!(
            r_buf.worst_slew < r_unbuf.worst_slew,
            "buffered {} ps vs unbuffered {} ps",
            r_buf.worst_slew / PS,
            r_unbuf.worst_slew / PS
        );
    }

    #[test]
    fn nested_forks_are_evaluated() {
        let lib = fast_library();
        let engine = TimingEngine::new(lib);
        // Two-level H: m2 -> (m1a -> (a, b), m1b -> (c, d)), no buffers.
        let mut t = ClockTree::new();
        let a = t.add_sink(0, &sink("a", 0.0, 0.0));
        let b = t.add_sink(1, &sink("b", 200.0, 0.0));
        let c = t.add_sink(2, &sink("c", 0.0, 200.0));
        let d = t.add_sink(3, &sink("d", 200.0, 200.0));
        let m1a = t.add_joint(Point::new(100.0, 0.0));
        t.attach(m1a, a, 100.0);
        t.attach(m1a, b, 100.0);
        let m1b = t.add_joint(Point::new(100.0, 200.0));
        t.attach(m1b, c, 100.0);
        t.attach(m1b, d, 100.0);
        let m2 = t.add_joint(Point::new(100.0, 100.0));
        t.attach(m2, m1a, 100.0);
        t.attach(m2, m1b, 100.0);
        let r = engine.evaluate_subtree(&t, m2, BufferId(1), 60.0 * PS);
        assert_eq!(r.sink_arrivals.len(), 4);
        // Symmetric structure: near-zero skew.
        assert!(r.skew() < 2.0 * PS, "skew {}", r.skew() / PS);
    }

    #[test]
    fn evaluate_subtree_into_matches_evaluate_and_reuses_buffers() {
        let lib = fast_library();
        let engine = TimingEngine::new(lib);
        let mut t = ClockTree::new();
        let a = t.add_sink(0, &sink("a", 0.0, 0.0));
        let b = t.add_sink(1, &sink("b", 900.0, 0.0));
        let m = t.add_joint(Point::new(500.0, 0.0));
        t.attach(m, a, 500.0);
        t.attach(m, b, 400.0);

        let fresh = engine.evaluate_subtree(&t, m, BufferId(1), 60.0 * PS);
        // Pre-dirty the reused report so the reset is exercised.
        let mut reused = TimingReport {
            sink_arrivals: vec![(a, 99.0)],
            worst_slew: 42.0,
            latency: 7.0,
            min_arrival: -7.0,
        };
        for _ in 0..3 {
            engine.evaluate_subtree_into(&t, m, BufferId(1), 60.0 * PS, &mut reused);
            assert_eq!(fresh, reused);
        }

        let src = t.add_source(m, BufferId(2));
        let from_source = engine.evaluate(&t, src, 80.0 * PS);
        // A source root is driven by its own type.
        engine.evaluate_subtree_into(&t, src, BufferId(2), 80.0 * PS, &mut reused);
        assert_eq!(from_source, reused);
    }

    #[test]
    fn source_evaluation_requires_source() {
        let lib = fast_library();
        let engine = TimingEngine::new(lib);
        let mut t = ClockTree::new();
        let s = t.add_sink(0, &sink("a", 100.0, 0.0));
        let b = t.add_buffer(Point::new(0.0, 0.0), BufferId(0));
        t.attach(b, s, 100.0);
        let src = t.add_source(b, BufferId(2));
        let r = engine.evaluate(&t, src, 80.0 * PS);
        assert_eq!(r.sink_arrivals.len(), 1);
        assert!(r.latency > 0.0);
    }

    #[test]
    fn longer_wire_means_later_arrival_and_worse_slew() {
        let lib = fast_library();
        let engine = TimingEngine::new(lib);
        let mut arr = Vec::new();
        for &len in &[300.0, 900.0, 1700.0] {
            let mut t = ClockTree::new();
            let s = t.add_sink(0, &sink("a", len, 0.0));
            let b = t.add_buffer(Point::new(0.0, 0.0), BufferId(1));
            t.attach(b, s, len);
            let r = engine.evaluate_subtree(&t, b, BufferId(1), 60.0 * PS);
            arr.push((r.latency, r.worst_slew));
        }
        assert!(arr[0].0 < arr[1].0 && arr[1].0 < arr[2].0);
        assert!(arr[0].1 < arr[1].1 && arr[1].1 < arr[2].1);
    }
}
