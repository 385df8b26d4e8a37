//! Library-based timing analysis over clock trees.
//!
//! The engine propagates arrival time and slew top-down from a driver,
//! cutting the tree into buffered stages exactly as the delay library was
//! characterized (paper §3.2): a stage is a driving buffer plus the wire
//! tree to the next buffer inputs / sinks. Straight stages use the
//! single-wire fits; forked stages use the branch fits.
//!
//! Two documented approximations (both absorbed by the final SPICE
//! verification, which reports honest numbers):
//!
//! * a fork preceded by a stem of length `s` is evaluated by folding the
//!   stem into both arms of the branch fit (`(s+l_left, s+l_right)`);
//! * a second fork inside the same stage starts a nested wire-only
//!   evaluation whose input slew is the slew propagated to that fork, with
//!   the driving buffer's intrinsic delay counted only once.

use crate::tree::{ClockTree, NodeKind, TreeNodeId};
use cts_timing::{BufferId, DelaySlewLibrary, Load};
use std::collections::HashMap;

/// Result of a timing evaluation: arrivals are measured from the driving
/// point's input edge (seconds).
///
/// A report is also the reusable output buffer of the `*_into` evaluation
/// variants: hot loops (the merge binary search) keep one around and let
/// [`TimingEngine::evaluate_subtree_into`] refill it, so the per-call
/// `sink_arrivals` allocation disappears.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimingReport {
    /// Arrival time at each sink under the evaluated root.
    pub sink_arrivals: Vec<(TreeNodeId, f64)>,
    /// Worst (largest) 10–90 % slew recorded at any stage load or fork (s).
    pub worst_slew: f64,
    /// Where the worst slew was recorded (a stage load or fork node).
    pub worst_slew_at: Option<TreeNodeId>,
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

/// What a downstream walk ran into.
enum Event {
    /// A buffer input or sink, after `len` µm of wire.
    LoadAt { len: f64, node: TreeNodeId },
    /// A two-child joint, after `len` µm of wire.
    ForkAt { len: f64, node: TreeNodeId },
    /// Dangling joint (no children) — tolerated as a zero-cap stub end.
    Dangling { len: f64 },
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

    /// Evaluates a finished tree from its source node.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a [`NodeKind::Source`] node.
    pub fn evaluate(
        &self,
        tree: &ClockTree,
        source: TreeNodeId,
        source_input_slew: f64,
    ) -> TimingReport {
        let mut report = TimingReport::default();
        self.evaluate_into(tree, source, source_input_slew, &mut report);
        report
    }

    /// [`TimingEngine::evaluate`] into a caller-owned report, reusing its
    /// allocations. The previous contents are discarded.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a [`NodeKind::Source`] node.
    pub fn evaluate_into(
        &self,
        tree: &ClockTree,
        source: TreeNodeId,
        source_input_slew: f64,
        report: &mut TimingReport,
    ) {
        let driver = match tree.node(source).kind {
            NodeKind::Source { driver } => driver,
            ref k => panic!("evaluate() needs a source node, got {k:?}"),
        };
        self.evaluate_subtree_into(tree, source, driver, source_input_slew, report);
    }

    /// Like [`TimingEngine::evaluate`], but additionally returns the input
    /// slew seen at every stage driver (buffer or source) — the annotation
    /// the global refinement needs to re-evaluate stages in their true
    /// context.
    pub fn evaluate_annotated(
        &self,
        tree: &ClockTree,
        source: TreeNodeId,
        source_input_slew: f64,
    ) -> (TimingReport, HashMap<TreeNodeId, f64>) {
        let report = self.evaluate(tree, source, source_input_slew);
        // Re-walk recording slews: continue_at already visits every driver
        // with its input slew; rather than thread a collector through the
        // hot path, rebuild the map from a dedicated pass.
        let mut slews = HashMap::new();
        slews.insert(source, source_input_slew);
        self.collect_driver_slews(tree, source, source_input_slew, &mut slews);
        (report, slews)
    }

    fn collect_driver_slews(
        &self,
        tree: &ClockTree,
        at: TreeNodeId,
        slew_in: f64,
        slews: &mut HashMap<TreeNodeId, f64>,
    ) {
        let driver = match tree.node(at).kind {
            NodeKind::Buffer { buffer } => buffer,
            NodeKind::Source { driver } => driver,
            _ => return,
        };
        let mut loads: Vec<(TreeNodeId, f64)> = Vec::new();
        self.stage_loads(tree, at, driver, slew_in, &mut loads);
        for (node, slew) in loads {
            slews.insert(node, slew);
            self.collect_driver_slews(tree, node, slew, slews);
        }
    }

    /// Computes the loads of one stage and the slew each receives (no
    /// recursion into further stages).
    fn stage_loads(
        &self,
        tree: &ClockTree,
        at: TreeNodeId,
        driver: BufferId,
        slew_in: f64,
        out: &mut Vec<(TreeNodeId, f64)>,
    ) {
        let children = &tree.node(at).children;
        match children.len() {
            0 => {}
            1 => {
                let child = children[0];
                let len0 = tree.node(child).wire_to_parent_um;
                match self.walk(tree, child, len0) {
                    Event::LoadAt { len, node } => {
                        let slew = self.lib.single_wire_slew(
                            driver,
                            self.load_of(tree, node),
                            slew_in,
                            len.max(1.0),
                        );
                        out.push((node, slew));
                    }
                    Event::ForkAt { len, node } => {
                        self.fork_loads(tree, node, driver, slew_in, len, out);
                    }
                    Event::Dangling { .. } => {}
                }
            }
            2 => self.fork_loads(tree, at, driver, slew_in, 0.0, out),
            n => unreachable!("tree nodes have at most 2 children, got {n}"),
        }
    }

    /// Timing of a (stem +) fork structure under `driver`.
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
        tree: &ClockTree,
        fork: TreeNodeId,
        driver: BufferId,
        slew_in: f64,
        stem_len: f64,
    ) -> cts_timing::BranchTiming {
        let children = &tree.node(fork).children;
        debug_assert_eq!(children.len(), 2);
        let arm = |child: TreeNodeId| -> (f64, Load) {
            let ev = self.walk(tree, child, tree.node(child).wire_to_parent_um);
            let load = match &ev {
                Event::LoadAt { node, .. } => self.load_of(tree, *node),
                Event::ForkAt { node, .. } => Load::Sink {
                    cap: tree.shielded_cap_under(*node, self.lib.wire().c_per_um(), &|b| {
                        self.lib.buffer(b).stage1_size() * 1.2e-15
                    }),
                },
                Event::Dangling { .. } => Load::Sink { cap: 0.0 },
            };
            (event_len(&ev), load)
        };
        let (len_l, load_l) = arm(children[0]);
        let (len_r, load_r) = arm(children[1]);

        let folded = self.lib.branch(
            driver,
            (load_l, load_r),
            slew_in,
            ((stem_len + len_l).max(1.0), (stem_len + len_r).max(1.0)),
        );
        if stem_len <= 50.0 {
            return folded;
        }
        let fork_cap = tree.shielded_cap_under(fork, self.lib.wire().c_per_um(), &|b| {
            self.lib.buffer(b).stage1_size() * 1.2e-15
        });
        let stem_t = self
            .lib
            .single_wire(driver, Load::Sink { cap: fork_cap }, slew_in, stem_len);
        let comp = self.lib.branch(
            driver,
            (load_l, load_r),
            stem_t.output_slew,
            (len_l.max(1.0), len_r.max(1.0)),
        );
        let blend = |a: f64, b: f64| 0.6 * a + 0.4 * b;
        cts_timing::BranchTiming {
            buffer_delay: blend(folded.buffer_delay, stem_t.buffer_delay),
            left_delay: blend(folded.left_delay, stem_t.wire_delay + comp.left_delay),
            left_slew: blend(folded.left_slew, comp.left_slew),
            right_delay: blend(folded.right_delay, stem_t.wire_delay + comp.right_delay),
            right_slew: blend(folded.right_slew, comp.right_slew),
        }
    }

    /// Fork variant of [`TimingEngine::stage_loads`].
    fn fork_loads(
        &self,
        tree: &ClockTree,
        fork: TreeNodeId,
        driver: BufferId,
        slew_in: f64,
        stem_len: f64,
        out: &mut Vec<(TreeNodeId, f64)>,
    ) {
        let children = &tree.node(fork).children;
        let timing = self.fork_timing(tree, fork, driver, slew_in, stem_len);
        for (idx, &child) in children.iter().enumerate() {
            let ev = self.walk(tree, child, tree.node(child).wire_to_parent_um);
            let slew = if idx == 0 {
                timing.left_slew
            } else {
                timing.right_slew
            };
            match ev {
                Event::LoadAt { node, .. } => out.push((node, slew)),
                Event::ForkAt { node, .. } => {
                    self.fork_loads(tree, node, driver, slew, 0.0, out);
                }
                Event::Dangling { .. } => {}
            }
        }
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
        self.evaluate_subtree_into(tree, root, virtual_driver, input_slew, &mut report);
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
        report.sink_arrivals.clear();
        report.worst_slew = 0.0;
        report.worst_slew_at = None;
        report.latency = 0.0;
        report.min_arrival = 0.0;
        match tree.node(root).kind {
            NodeKind::Sink { .. } => {
                report.sink_arrivals.push((root, 0.0));
                report.worst_slew = input_slew;
            }
            NodeKind::Buffer { buffer } => {
                // Root *is* the driver.
                self.eval_stage(tree, root, buffer, input_slew, 0.0, report);
            }
            NodeKind::Source { driver } => {
                self.eval_stage(tree, root, driver, input_slew, 0.0, report);
            }
            NodeKind::Joint => {
                // Virtual driver feeding the joint's wire tree directly.
                self.eval_stage(tree, root, virtual_driver, input_slew, 0.0, report);
            }
        }
        report.latency = report
            .sink_arrivals
            .iter()
            .map(|&(_, t)| t)
            .fold(f64::NEG_INFINITY, f64::max);
        report.min_arrival = report
            .sink_arrivals
            .iter()
            .map(|&(_, t)| t)
            .fold(f64::INFINITY, f64::min);
        if report.sink_arrivals.is_empty() {
            report.latency = 0.0;
            report.min_arrival = 0.0;
        }
    }

    /// Evaluates the stage whose driver sits at `at` (a buffer/source node,
    /// or a joint root under a virtual driver), arriving at the driver input
    /// at time `t_in` with slew `slew_in`.
    fn eval_stage(
        &self,
        tree: &ClockTree,
        at: TreeNodeId,
        driver: BufferId,
        slew_in: f64,
        t_in: f64,
        report: &mut TimingReport,
    ) {
        // The wire tree hangs off `at`'s children; a joint root may itself
        // be the fork.
        let children = &tree.node(at).children;
        match children.len() {
            0 => {}
            1 => {
                let child = children[0];
                let len0 = tree.node(child).wire_to_parent_um;
                match self.walk(tree, child, len0) {
                    Event::LoadAt { len, node } => {
                        let timing = self.lib.single_wire(
                            driver,
                            self.load_of(tree, node),
                            slew_in,
                            len.max(1.0),
                        );
                        let t = t_in + timing.buffer_delay + timing.wire_delay;
                        if timing.output_slew > report.worst_slew {
                            report.worst_slew = timing.output_slew;
                            report.worst_slew_at = Some(node);
                        }
                        self.continue_at(tree, node, timing.output_slew, t, report);
                    }
                    Event::ForkAt { len, node } => {
                        // Intrinsic counted here; nested forks are wire-only.
                        self.eval_fork(tree, node, driver, slew_in, t_in, len, true, report);
                    }
                    Event::Dangling { .. } => {}
                }
            }
            2 => {
                // `at` is itself the fork (stem length 0).
                self.eval_fork(tree, at, driver, slew_in, t_in, 0.0, true, report);
            }
            n => unreachable!("tree nodes have at most 2 children, got {n}"),
        }
    }

    /// Evaluates a fork at `fork` with a stem of `stem_len` µm between the
    /// driver (input slew `slew_in`, arrival `t_in` at driver input) and the
    /// fork. `with_intrinsic` adds the driving buffer's intrinsic delay
    /// (true only for the first structure of a stage).
    #[allow(clippy::too_many_arguments)]
    fn eval_fork(
        &self,
        tree: &ClockTree,
        fork: TreeNodeId,
        driver: BufferId,
        slew_in: f64,
        t_in: f64,
        stem_len: f64,
        with_intrinsic: bool,
        report: &mut TimingReport,
    ) {
        let children = &tree.node(fork).children;
        debug_assert_eq!(children.len(), 2);
        // The arm loads are resolved inside `fork_timing`; here only the
        // events are needed, to continue past each arm.
        let arm = |child: TreeNodeId| self.walk(tree, child, tree.node(child).wire_to_parent_um);
        let (ev_l, ev_r) = (arm(children[0]), arm(children[1]));

        let timing = self.fork_timing(tree, fork, driver, slew_in, stem_len);
        let t0 = t_in
            + if with_intrinsic {
                timing.buffer_delay
            } else {
                0.0
            };

        for (ev, delay, slew) in [
            (ev_l, timing.left_delay, timing.left_slew),
            (ev_r, timing.right_delay, timing.right_slew),
        ] {
            if slew > report.worst_slew {
                report.worst_slew = slew;
                report.worst_slew_at = Some(fork);
            }
            match ev {
                Event::LoadAt { node, .. } => {
                    self.continue_at(tree, node, slew, t0 + delay, report);
                }
                Event::ForkAt { node, .. } => {
                    // Nested fork: wire-only continuation with the propagated
                    // slew; same driver, no further intrinsic delay.
                    self.eval_fork(tree, node, driver, slew, t0 + delay, 0.0, false, report);
                }
                Event::Dangling { .. } => {}
            }
        }
    }

    /// Continues evaluation past a stage load: recurse into a buffer's next
    /// stage, or record a sink arrival.
    fn continue_at(
        &self,
        tree: &ClockTree,
        node: TreeNodeId,
        slew: f64,
        t: f64,
        report: &mut TimingReport,
    ) {
        match tree.node(node).kind {
            NodeKind::Sink { .. } => report.sink_arrivals.push((node, t)),
            NodeKind::Buffer { buffer } => {
                self.eval_stage(tree, node, buffer, slew, t, report);
            }
            ref k => unreachable!("loads are buffers or sinks, got {k:?}"),
        }
    }

    /// Walks down from `node` through unary joints, accumulating wire
    /// length, until a load, a fork, or a dangling end.
    fn walk(&self, tree: &ClockTree, node: TreeNodeId, len: f64) -> Event {
        match &tree.node(node).kind {
            NodeKind::Sink { .. } | NodeKind::Buffer { .. } => Event::LoadAt { len, node },
            NodeKind::Source { .. } => unreachable!("source below a driver"),
            NodeKind::Joint => {
                let children = &tree.node(node).children;
                match children.len() {
                    0 => Event::Dangling { len },
                    1 => {
                        let c = children[0];
                        self.walk(tree, c, len + tree.node(c).wire_to_parent_um)
                    }
                    _ => Event::ForkAt { len, node },
                }
            }
        }
    }

    fn load_of(&self, tree: &ClockTree, node: TreeNodeId) -> Load {
        match tree.node(node).kind {
            NodeKind::Buffer { buffer } => Load::Buffer(buffer),
            NodeKind::Sink { cap, .. } => Load::Sink { cap },
            ref k => unreachable!("loads are buffers or sinks, got {k:?}"),
        }
    }
}

fn event_len(ev: &Event) -> f64 {
    match ev {
        Event::LoadAt { len, .. } | Event::ForkAt { len, .. } | Event::Dangling { len } => *len,
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
    fn evaluate_into_matches_evaluate_and_reuses_buffers() {
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
            worst_slew_at: Some(b),
            latency: 7.0,
            min_arrival: -7.0,
        };
        for _ in 0..3 {
            engine.evaluate_subtree_into(&t, m, BufferId(1), 60.0 * PS, &mut reused);
            assert_eq!(fresh, reused);
        }

        let src = t.add_source(m, BufferId(2));
        let from_source = engine.evaluate(&t, src, 80.0 * PS);
        engine.evaluate_into(&t, src, 80.0 * PS, &mut reused);
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
