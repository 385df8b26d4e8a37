//! Merge-routing: the paper's three-stage merge of two sub-trees
//! (§4.2) — balance, bi-directional maze routing, and binary search.
//!
//! The balancing kernels are written here once each, and the merge, its
//! re-trim and the global refinement all call them: `StageAt` says where
//! a trial is timed, `Arms` re-balances a joint's two-arm wire split
//! (§4.2.3), and `MergeRouting::best_retype` runs the buffer re-typing
//! trial under the slew gate.

use crate::balance::Balancer;
use crate::engine::{TimingEngine, TimingReport};
use crate::maze::{MazeRouter, MazeScratch, MergeSide};
use crate::options::{CtsError, CtsOptions};
use crate::tree::{ClockTree, NodeKind, TreeNodeId};
use cts_timing::{BufferId, DelaySlewLibrary};

/// Reusable per-worker buffers for [`MergeRouting::merge_pair_with`]: the
/// maze router's scratch and a timing report the binary-search/sizing
/// inner loops evaluate into.
///
/// A scratch holds allocations only; everything derived from the
/// (library, options) pair lives in [`MergeRouting`]. One scratch is
/// therefore valid under any context — a service worker's job stream, a
/// sweep, or a run of corner libraries.
#[derive(Debug, Default, Clone)]
pub struct MergeScratch {
    pub(crate) maze: MazeScratch,
    pub(crate) report: TimingReport,
}

impl MergeScratch {
    /// Fresh scratch.
    pub fn new() -> MergeScratch {
        MergeScratch::default()
    }
}

/// Effective pending depth (relative to the single-wire segment budget) at
/// which a fresh merge gets crowned with a buffer.
const MERGE_CAP_FRACTION: f64 = 0.4;

/// A buffer re-typing trial is rejected when its worst slew exceeds this
/// multiple of the slew target: the stage assumptions need every input
/// slew at or under the target, and spending the target-to-limit margin
/// here compounds through the downstream stages.
const RETYPE_SLEW_GATE: f64 = 1.01;

/// Outcome of merging two sub-trees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeOutcome {
    /// The new merge node (root of the combined sub-tree).
    pub merge_node: TreeNodeId,
    /// Whether H-correction flipped the original pairing (the paper's
    /// "# of flippings" column); a plain merge never flips.
    pub flipped: bool,
    /// Engine-estimated skew of the combined sub-tree (s), measured at its
    /// final root — the merge joint or the buffer crowning it — after
    /// sizing.
    pub skew_estimate: f64,
    /// Engine-estimated latency of the combined sub-tree (s).
    pub latency_estimate: f64,
}

/// Where a trial is timed: the sub-tree under `root`, driven by a
/// `driver` buffer (the engine reads it only when `root` is a joint)
/// whose input slew is `slew`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageAt {
    root: TreeNodeId,
    driver: BufferId,
    slew: f64,
}

impl StageAt {
    /// The bottom-up flow's working assumption (§4.2.2): the configured
    /// virtual driver at `root`, its input slew at the slew target.
    pub(crate) fn bottom_up(root: TreeNodeId, options: &CtsOptions) -> StageAt {
        StageAt {
            root,
            driver: options.virtual_driver,
            slew: options.slew_target,
        }
    }

    /// The stage driver `node` (a buffer or the source) in its true
    /// context: its own type, at the input slew `slew` it really sees.
    pub(crate) fn at_driver(tree: &ClockTree, node: TreeNodeId, slew: f64) -> StageAt {
        let driver = match tree.node(node).kind {
            NodeKind::Buffer { buffer } => buffer,
            NodeKind::Source { driver } => driver,
            ref k => panic!("stage drivers are buffers or the source, got {k:?}"),
        };
        StageAt {
            root: node,
            driver,
            slew,
        }
    }

    /// Times the stage into `report`, reusing its allocations.
    pub(crate) fn eval(
        self,
        engine: &TimingEngine<'_>,
        tree: &ClockTree,
        report: &mut TimingReport,
    ) {
        engine.evaluate_subtree_into(tree, self.root, self.driver, self.slew, report);
    }

    /// Times the stage into a fresh report.
    pub(crate) fn report(self, engine: &TimingEngine<'_>, tree: &ClockTree) -> TimingReport {
        engine.evaluate_subtree(tree, self.root, self.driver, self.slew)
    }
}

/// How a re-balance bisects the split ratio once the window's edges
/// bracket the balance point.
pub(crate) struct Bisect {
    /// Bracket halvings.
    iters: usize,
    /// Stop once a probe's |diff| is at most this (s).
    tol: f64,
    /// Settle on the final bracket's midpoint instead of the best probe.
    midpoint: bool,
}

impl Bisect {
    /// The merge's search (§4.2.3): 24 halvings, stops within 0.05 ps,
    /// keeps the best probe.
    pub(crate) const MERGE: Bisect = Bisect {
        iters: 24,
        tol: 0.05e-12,
        midpoint: false,
    };
    /// The global refinement's: 20 halvings, never stops early, settles on
    /// the final bracket's midpoint.
    pub(crate) const REFINE: Bisect = Bisect {
        iters: 20,
        tol: f64::NEG_INFINITY,
        midpoint: true,
    };

    /// Bisects `[lo, hi]` for the zero of the increasing `diff_at`.
    fn run(&self, (mut lo, mut hi): (f64, f64), mut diff_at: impl FnMut(f64) -> f64) -> f64 {
        let mut best = (f64::INFINITY, 0.5);
        for _ in 0..self.iters {
            let mid = 0.5 * (lo + hi);
            let d = diff_at(mid);
            if d.abs() < best.0 {
                best = (d.abs(), mid);
            }
            if d.abs() <= self.tol {
                break;
            }
            if d < 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        if self.midpoint {
            0.5 * (lo + hi)
        } else {
            best.1
        }
    }
}

/// The two arms of a joint, whose top wires a re-balance redistributes
/// (Fig. 4.5): at ratio `r`, side 1 carries `r × total` µm and side 2 the
/// rest. Build one per re-balance — the total is read off the wires, and
/// a redistribution need not preserve it to the last bit.
pub(crate) struct Arms {
    kids: [TreeNodeId; 2],
    /// Both arms' top wire together (µm).
    pub(crate) total: f64,
    /// Each side's sinks, sorted, so every probe reads its side maxima
    /// straight off the report's arrival list.
    sinks: [Vec<TreeNodeId>; 2],
}

impl Arms {
    /// The arms of the joint above `kids`.
    pub(crate) fn new(tree: &ClockTree, kids: [TreeNodeId; 2]) -> Arms {
        Arms {
            kids,
            total: tree.node(kids[0]).wire_to_parent_um + tree.node(kids[1]).wire_to_parent_um,
            sinks: kids.map(|k| {
                let mut sinks = tree.sinks_under(k);
                sinks.sort_unstable();
                sinks
            }),
        }
    }

    /// The ratio window in which side `i` carries at most `caps[i]` µm, or
    /// `None` without wire or when the caps leave no room.
    pub(crate) fn window(&self, caps: [f64; 2]) -> Option<(f64, f64)> {
        if self.total <= 1e-9 {
            return None;
        }
        let lo = ((self.total - caps[1]) / self.total).clamp(0.0, 1.0);
        let hi = (caps[0] / self.total).clamp(0.0, 1.0);
        (lo <= hi).then_some((lo, hi))
    }

    /// Splits the wire at ratio `r`.
    pub(crate) fn set(&self, tree: &mut ClockTree, r: f64) {
        tree.set_wire_to_parent(self.kids[0], r * self.total);
        tree.set_wire_to_parent(self.kids[1], (1.0 - r) * self.total);
    }

    /// Splits the wire at `r` and returns side 1's latest arrival minus
    /// side 2's, timed at `at`. Grows with `r`.
    pub(crate) fn diff_at(
        &self,
        engine: &TimingEngine<'_>,
        tree: &mut ClockTree,
        at: StageAt,
        report: &mut TimingReport,
        r: f64,
    ) -> f64 {
        self.set(tree, r);
        at.eval(engine, tree, report);
        let side_max = report.side_max_arrivals([&self.sinks[0], &self.sinks[1]]);
        side_max[0] - side_max[1]
    }

    /// Re-balances the split inside `window`: an edge whose diff already
    /// has the right sign (side 1 slower even with the least wire, or
    /// faster with the most) is kept, otherwise `bisect` searches between
    /// them. Leaves the wires split at the returned ratio `r` and returns
    /// `(r, |diff(r)|)`.
    pub(crate) fn rebalance(
        &self,
        engine: &TimingEngine<'_>,
        tree: &mut ClockTree,
        at: StageAt,
        (lo, hi): (f64, f64),
        bisect: &Bisect,
        report: &mut TimingReport,
    ) -> (f64, f64) {
        let d_lo = self.diff_at(engine, tree, at, report, lo);
        let d_hi = self.diff_at(engine, tree, at, report, hi);
        let r = if d_lo >= 0.0 {
            lo
        } else if d_hi <= 0.0 {
            hi
        } else {
            bisect.run((lo, hi), |r| self.diff_at(engine, tree, at, report, r))
        };
        (r, self.diff_at(engine, tree, at, report, r).abs())
    }
}

/// The merge-routing engine: the library and options plus everything
/// derived from them alone — the maze router (with its segment limits),
/// the balancer, the symmetric arm budget, and the strongest buffer id.
/// Build it once per synthesis and share it by `&` across merges.
#[derive(Debug, Clone)]
pub struct MergeRouting<'a> {
    pub(crate) lib: &'a DelaySlewLibrary,
    pub(crate) options: &'a CtsOptions,
    pub(crate) router: MazeRouter<'a>,
    balancer: Balancer<'a>,
    arm_budget_um: f64,
    pub(crate) strongest: BufferId,
}

impl<'a> MergeRouting<'a> {
    /// Creates a merge-routing engine, deriving its library- and
    /// slew-target-dependent values.
    pub fn new(lib: &'a DelaySlewLibrary, options: &'a CtsOptions) -> MergeRouting<'a> {
        MergeRouting {
            lib,
            options,
            router: MazeRouter::new(lib, options),
            balancer: Balancer::new(lib, options),
            arm_budget_um: symmetric_arm_budget_um(lib, options.slew_target),
            strongest: crate::pipeline::strongest_buffer(lib),
        }
    }

    /// Sub-tree delay (max root-to-sink) under the bottom-up assumption.
    pub fn subtree_delay(&self, tree: &ClockTree, root: TreeNodeId) -> f64 {
        StageAt::bottom_up(root, self.options)
            .report(&TimingEngine::new(self.lib), tree)
            .latency
    }

    /// Effective unbuffered pending below `node`, in wire-equivalent µm
    /// ([`Balancer::effective_pending_um`]).
    pub fn effective_pending_um(&self, tree: &ClockTree, node: TreeNodeId) -> f64 {
        self.balancer.effective_pending_um(tree, node)
    }

    /// Per-arm wire caps (µm) of the joint above `kids`: what the
    /// symmetric arm budget leaves above each arm's unbuffered pending,
    /// and at least 1 µm. They keep a re-balance from piling the whole top
    /// wire onto one arm, which would break that arm's slew.
    pub(crate) fn arm_caps(&self, tree: &ClockTree, kids: [TreeNodeId; 2]) -> [f64; 2] {
        kids.map(|k| (self.arm_budget_um - self.effective_pending_um(tree, k)).max(1.0))
    }

    /// Tries every other library type on the buffer `cand`, timing each
    /// trial at `at`, and returns the best trial's skew and type; a trial
    /// counts only if it beats `baseline`, and every trial accepted before
    /// it, by more than `margin`, and stays under [`RETYPE_SLEW_GATE`].
    /// Leaves `cand`'s type as it found it.
    pub(crate) fn best_retype(
        &self,
        tree: &mut ClockTree,
        cand: TreeNodeId,
        at: StageAt,
        baseline: f64,
        margin: f64,
        report: &mut TimingReport,
    ) -> Option<(f64, BufferId)> {
        let NodeKind::Buffer { buffer: original } = tree.node(cand).kind else {
            unreachable!("re-typing candidates are buffers")
        };
        let engine = TimingEngine::new(self.lib);
        let mut best = None;
        for alt in self.lib.buffer_ids().filter(|&alt| alt != original) {
            tree.set_buffer_type(cand, alt);
            at.eval(&engine, tree, report);
            if report.worst_slew <= self.options.slew_target * RETYPE_SLEW_GATE
                && report.skew() + margin < best.map_or(baseline, |(skew, _)| skew)
            {
                best = Some((report.skew(), alt));
            }
        }
        tree.set_buffer_type(cand, original);
        best
    }

    /// Merges the sub-trees rooted at `r1` and `r2` through reusable
    /// `scratch`; returns the new merge node and quality estimates.
    ///
    /// # Errors
    ///
    /// [`CtsError::SlewUnachievable`] if buffer insertion cannot satisfy
    /// the slew target anywhere along the route.
    pub fn merge_pair_with(
        &self,
        scratch: &mut MergeScratch,
        tree: &mut ClockTree,
        r1: TreeNodeId,
        r2: TreeNodeId,
    ) -> Result<MergeOutcome, CtsError> {
        let engine = TimingEngine::new(self.lib);
        // Buffers created during this merge (snaking, paths, splits, caps)
        // are the candidates for the sizing refinement below.
        let first_new_node = tree.len();

        let mut roots = [r1, r2];
        let mut delays = [self.subtree_delay(tree, r1), self.subtree_delay(tree, r2)];

        // --- balance stage (§4.2.1) -------------------------------------
        // The binary-search stage can only swing the arrival difference by
        // redistributing the top wires, worth roughly the wire delay over
        // the two arm budgets. Anything beyond that must be snaked onto the
        // faster side up front (buffered stages for the bulk, a plain
        // detour wire for the residue).
        let arm_budget = self.arm_budget_um;
        let wire_swing = {
            let load = self.balancer.load_of(tree, roots[0]);
            let at = StageAt::bottom_up(roots[0], self.options);
            2.0 * self
                .lib
                .single_wire_delay(at.driver, load, at.slew, arm_budget)
        };
        for round in 0..3 {
            let diff = (delays[0] - delays[1]).abs();
            if diff <= (0.5 * wire_swing).max(2.0e-12) {
                break;
            }
            let fast = if delays[0] < delays[1] { 0 } else { 1 };
            let need = diff - 0.25 * wire_swing;
            let fine_cap = (arm_budget - self.effective_pending_um(tree, roots[fast])).max(0.0);
            // First round may overshoot into the buffered-stage dead zone;
            // later rounds fine-wire the (now) faster sibling to absorb it.
            let out = self.balancer.add_delay(
                tree,
                roots[fast],
                need,
                fine_cap,
                round == 0,
                &mut scratch.report,
            )?;
            roots[fast] = out.root;
            delays[fast] = self.subtree_delay(tree, roots[fast]);
            if out.added_delay <= 0.0 {
                break;
            }
        }

        // --- routing stage (§4.2.2) --------------------------------------
        let sides = [
            MergeSide {
                root_point: tree.node(roots[0]).location,
                root_load: self.balancer.load_of(tree, roots[0]),
                subtree_delay: delays[0],
                unbuffered_depth_um: self.effective_pending_um(tree, roots[0]),
            },
            MergeSide {
                root_point: tree.node(roots[1]).location,
                root_load: self.balancer.load_of(tree, roots[1]),
                subtree_delay: delays[1],
                unbuffered_depth_um: self.effective_pending_um(tree, roots[1]),
            },
        ];
        let plan = self
            .router
            .route_with(&mut scratch.maze, &sides[0], &sides[1])?;

        // Materialize the two paths in the arena.
        let mut tops = [roots[0], roots[1]];
        for (i, side_plan) in plan.sides.iter().enumerate() {
            let mut current = roots[i];
            for site in &side_plan.buffers {
                let b = tree.add_buffer(site.position, site.buffer);
                tree.attach(b, current, site.wire_below_um);
                current = b;
            }
            tops[i] = current;
        }
        let merge = tree.add_joint(plan.merge_point);
        tree.attach(merge, tops[0], plan.sides[0].top_wire_um);
        tree.attach(merge, tops[1], plan.sides[1].top_wire_um);

        // --- arm budgeting ------------------------------------------------
        // Each arm of the merge must leave room for its sibling and the
        // next level's stem in one driver's slew budget; overweight top
        // wires get a buffer spliced in (before binary search so the search
        // operates on the final structure).
        let budget_len = self
            .router
            .limits()?
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let strongest = self.strongest;
        for top in &mut tops {
            let w = tree.node(*top).wire_to_parent_um;
            let below = self.effective_pending_um(tree, *top);
            let arm = w + below;
            if arm > arm_budget && w > 2.0 {
                // Keep at most `arm_budget` above the new buffer.
                let keep_above = arm_budget.min(w - 1.0).max(1.0);
                let w_below = w - keep_above;
                let pos = tree
                    .node(*top)
                    .location
                    .lerp(plan.merge_point, (w_below / w).clamp(0.0, 1.0));
                tree.detach(*top);
                let b = tree.add_buffer(pos, strongest);
                tree.attach(b, *top, w_below);
                tree.attach(merge, b, keep_above);
                *top = b;
            }
        }

        // --- binary search stage (§4.2.3) ---------------------------------
        // Slides the joint along v1→v2 by the re-balanced ratio. The caps
        // are taken once, here: the re-trims after sizing reuse them. An
        // infeasible window (degenerate splits) falls back to an even
        // division, which at least splits the overload.
        let caps = self.arm_caps(tree, tops);
        let (v1, v2) = (tree.node(tops[0]).location, tree.node(tops[1]).location);
        let trim = |tree: &mut ClockTree, report: &mut TimingReport| {
            let arms = Arms::new(tree, tops);
            let window = arms.window(caps).unwrap_or((0.5, 0.5));
            let at = StageAt::bottom_up(merge, self.options);
            let (r, _) = arms.rebalance(&engine, tree, at, window, &Bisect::MERGE, report);
            tree.set_location(merge, v1.lerp(v2, r));
        };
        trim(tree, &mut scratch.report);

        // --- merge-region capping ------------------------------------------
        // Unbuffered regions accumulate across levels (pending wires join at
        // merges and keep growing upward). When the merged region's
        // effective pending approaches the slew-legal budget, crown the
        // merge with a buffer so the next level starts fresh. This is still
        // "aggressive" insertion — most buffers live mid-wire, and small
        // merges stay unbuffered.
        let mut root = merge;
        if self.effective_pending_um(tree, merge) > MERGE_CAP_FRACTION * budget_len {
            let b = tree.add_buffer(plan.merge_point, strongest);
            tree.attach(b, merge, 0.0);
            root = b;
        }

        // --- sizing refinement ---------------------------------------------
        // The binary search trims wire (a few ps of swing); buffer *type*
        // swaps on the freshly created stages move delays in ~10–30 ps
        // steps. Greedy swaps, re-trimming wire after each improvement,
        // close most of the residual ("buffer sizing is also guided by its
        // performance" — here for delay balance under the slew target).
        let candidates: Vec<TreeNodeId> = tree
            .ids()
            .skip(first_new_node)
            .filter(|&id| matches!(tree.node(id).kind, NodeKind::Buffer { .. }))
            .collect();
        let at = StageAt::bottom_up(root, self.options);
        at.eval(&engine, tree, &mut scratch.report);
        let mut skew_total = scratch.report.skew();
        for _pass in 0..3 {
            let mut improved = false;
            for &cand in &candidates {
                let retype =
                    self.best_retype(tree, cand, at, skew_total, 0.2e-12, &mut scratch.report);
                if let Some((skew, alt)) = retype {
                    tree.set_buffer_type(cand, alt);
                    skew_total = skew;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
            // Re-trim the top wires around the (re-typed) stages.
            trim(tree, &mut scratch.report);
            at.eval(&engine, tree, &mut scratch.report);
            skew_total = scratch.report.skew();
        }

        at.eval(&engine, tree, &mut scratch.report);
        Ok(MergeOutcome {
            merge_node: root,
            flipped: false,
            skew_estimate: scratch.report.skew(),
            latency_estimate: scratch.report.latency,
        })
    }
}

/// The symmetric arm budget of `lib` at the slew `target` (µm): the
/// largest `L` with branch far-end slew ≤ target for two `L` µm arms into
/// the heaviest loads, for the best library driver. This is the true
/// budget for the two wires that join at a merge point — substantially
/// shorter than the single-wire budget, since the driver faces both arms.
fn symmetric_arm_budget_um(lib: &DelaySlewLibrary, target: f64) -> f64 {
    let heavy = cts_timing::Load::Buffer(
        lib.buffer_ids()
            .max_by(|&a, &b| lib.input_cap(a).total_cmp(&lib.input_cap(b)))
            .expect("non-empty library"),
    );
    let slew_at = |l: f64| -> f64 {
        lib.buffer_ids()
            .map(|d| {
                let t = lib.branch(d, (heavy, heavy), target, (l, l));
                t.left_slew.max(t.right_slew)
            })
            .fold(f64::INFINITY, f64::min)
    };
    // Bisect within the characterized branch domain (the fits clamp
    // beyond it, which would fool the bisection).
    let (mut lo, mut hi) = (1.0f64, lib.branch_length_domain().1);
    if slew_at(lo) > target {
        return lo;
    }
    if slew_at(hi) <= target {
        return hi;
    }
    for _ in 0..50 {
        let mid = 0.5 * (lo + hi);
        if slew_at(mid) <= target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Sink;
    use cts_geom::Point;
    use cts_spice::units::PS;
    use cts_timing::{fast_library, BufferId};

    fn sink_tree(points: &[(f64, f64)]) -> (ClockTree, Vec<TreeNodeId>) {
        let mut t = ClockTree::new();
        let ids = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| {
                t.add_sink(i, &Sink::new(format!("s{i}"), Point::new(x, y), 20e-15))
            })
            .collect();
        (t, ids)
    }

    #[test]
    fn merge_two_nearby_sinks() {
        let lib = fast_library();
        let opts = CtsOptions::default();
        let mr = MergeRouting::new(lib, &opts);
        let (mut t, ids) = sink_tree(&[(0.0, 0.0), (600.0, 0.0)]);
        let out = mr
            .merge_pair_with(&mut MergeScratch::new(), &mut t, ids[0], ids[1])
            .unwrap();
        assert_eq!(t.roots(), vec![out.merge_node]);
        assert!(
            out.skew_estimate < 2.0 * PS,
            "skew {} ps",
            out.skew_estimate / PS
        );
        t.validate_under(out.merge_node);
    }

    #[test]
    fn merge_far_apart_inserts_buffers_and_stays_balanced() {
        let lib = fast_library();
        let opts = CtsOptions::default();
        let mr = MergeRouting::new(lib, &opts);
        let (mut t, ids) = sink_tree(&[(0.0, 0.0), (5000.0, 400.0)]);
        let out = mr
            .merge_pair_with(&mut MergeScratch::new(), &mut t, ids[0], ids[1])
            .unwrap();
        let buffers = t.buffer_count_under(out.merge_node);
        assert!(buffers >= 2, "got {buffers}");
        assert!(
            out.skew_estimate < 5.0 * PS,
            "skew {} ps",
            out.skew_estimate / PS
        );
        t.validate_under(out.merge_node);
    }

    #[test]
    fn merge_with_unbalanced_subtrees_snakes_or_shifts() {
        let lib = fast_library();
        let opts = CtsOptions::default();
        let mr = MergeRouting::new(lib, &opts);
        // Build an asymmetric starting forest: one sink, and one deep
        // buffered chain (simulating a slow sub-tree).
        let (mut t, ids) = sink_tree(&[(0.0, 0.0), (900.0, 0.0)]);
        // Make sink 1's side slower by hanging it below a buffer chain.
        let b1 = t.add_buffer(Point::new(900.0, 0.0), BufferId(0));
        t.attach(b1, ids[1], 400.0);
        let b2 = t.add_buffer(Point::new(900.0, 0.0), BufferId(0));
        t.attach(b2, b1, 400.0);

        let d_slow = mr.subtree_delay(&t, b2);
        let d_fast = mr.subtree_delay(&t, ids[0]);
        assert!(d_slow > d_fast + 10.0 * PS, "setup should be unbalanced");

        let out = mr
            .merge_pair_with(&mut MergeScratch::new(), &mut t, ids[0], b2)
            .unwrap();
        assert!(
            out.skew_estimate < 30.0 * PS,
            "skew {} ps",
            out.skew_estimate / PS
        );
        t.validate_under(out.merge_node);
    }

    #[test]
    fn merged_subtree_respects_slew_target() {
        let lib = fast_library();
        let opts = CtsOptions::default();
        let mr = MergeRouting::new(lib, &opts);
        let engine = TimingEngine::new(lib);
        let (mut t, ids) = sink_tree(&[(0.0, 0.0), (4000.0, 0.0)]);
        let out = mr
            .merge_pair_with(&mut MergeScratch::new(), &mut t, ids[0], ids[1])
            .unwrap();
        let rep = StageAt::bottom_up(out.merge_node, &opts).report(&engine, &t);
        assert!(
            rep.worst_slew <= opts.slew_limit * 1.05,
            "worst slew {} ps exceeds limit",
            rep.worst_slew / PS
        );
    }

    /// A joint over `kids` (wires `w` µm) at the origin.
    fn joint_over(t: &mut ClockTree, kids: [TreeNodeId; 2], w: [f64; 2]) -> TreeNodeId {
        let j = t.add_joint(Point::new(0.0, 0.0));
        t.attach(j, kids[0], w[0]);
        t.attach(j, kids[1], w[1]);
        j
    }

    #[test]
    fn rebalance_keeps_a_window_edge_that_already_has_the_right_sign() {
        let lib = fast_library();
        let opts = CtsOptions::default();
        let engine = TimingEngine::new(lib);
        // Side 1 hangs below two buffered stages: it stays slower even
        // with no top wire at all, so the low edge is the answer.
        let (mut t, ids) = sink_tree(&[(0.0, 0.0), (300.0, 0.0)]);
        let b1 = t.add_buffer(Point::new(0.0, 0.0), BufferId(0));
        t.attach(b1, ids[0], 400.0);
        let b2 = t.add_buffer(Point::new(0.0, 0.0), BufferId(0));
        t.attach(b2, b1, 400.0);
        let kids = [b2, ids[1]];
        let j = joint_over(&mut t, kids, [150.0, 150.0]);
        let at = StageAt::bottom_up(j, &opts);
        let arms = Arms::new(&t, kids);
        let window = arms.window([300.0, 250.0]).unwrap();
        assert!(window.0 > 0.0 && window.0 < window.1, "window {window:?}");
        let mut report = TimingReport::default();
        let d_lo = arms.diff_at(&engine, &mut t, at, &mut report, window.0);
        assert!(d_lo > 0.0, "setup: side 1 must be slower at the low edge");

        let (r, residual) =
            arms.rebalance(&engine, &mut t, at, window, &Bisect::MERGE, &mut report);
        assert_eq!(r, window.0);
        assert_eq!(residual, d_lo.abs());
        let sum = t.node(kids[0]).wire_to_parent_um + t.node(kids[1]).wire_to_parent_um;
        assert!((sum - arms.total).abs() <= 1e-9, "wires sum to {sum}");
    }

    #[test]
    fn rebalance_inside_the_window_meets_the_tolerance_or_the_best_probe() {
        let lib = fast_library();
        let opts = CtsOptions::default();
        let engine = TimingEngine::new(lib);
        let (mut t, ids) = sink_tree(&[(0.0, 0.0), (800.0, 0.0)]);
        let kids = [ids[0], ids[1]];
        let j = joint_over(&mut t, kids, [300.0, 500.0]);
        let at = StageAt::bottom_up(j, &opts);
        let arms = Arms::new(&t, kids);
        let window = arms.window([800.0, 800.0]).unwrap();
        let mut report = TimingReport::default();
        // The edges bracket the balance point: an interior search.
        assert!(arms.diff_at(&engine, &mut t, at, &mut report, window.0) < 0.0);
        assert!(arms.diff_at(&engine, &mut t, at, &mut report, window.1) > 0.0);

        let mut probes = Vec::new();
        let mut probe_tree = t.clone();
        Bisect::MERGE.run(window, |r| {
            let d = arms.diff_at(&engine, &mut probe_tree, at, &mut report, r);
            probes.push(d.abs());
            d
        });
        let smallest = probes.iter().cloned().fold(f64::INFINITY, f64::min);
        let (r, residual) =
            arms.rebalance(&engine, &mut t, at, window, &Bisect::MERGE, &mut report);
        assert!(window.0 < r && r < window.1, "r {r} outside {window:?}");
        assert!(
            residual <= 0.05 * PS || residual == smallest,
            "residual {} ps, best probe {} ps",
            residual / PS,
            smallest / PS
        );
    }

    /// A buffer driving a joint over two sinks on unequal wires: the
    /// skew and the worst slew both depend on the buffer's type.
    fn retype_tree(len: f64) -> (ClockTree, TreeNodeId) {
        let (mut t, ids) = sink_tree(&[(0.0, 0.0), (len, 0.0)]);
        let j = joint_over(&mut t, [ids[0], ids[1]], [0.1 * len, len]);
        let b = t.add_buffer(Point::new(0.0, 0.0), BufferId(0));
        t.attach(b, j, 1.0);
        (t, b)
    }

    #[test]
    fn best_retype_restores_the_candidate_type() {
        let lib = fast_library();
        let opts = CtsOptions::default();
        let mr = MergeRouting::new(lib, &opts);
        let (mut t, b) = retype_tree(600.0);
        let before = t.clone();
        let at = StageAt::bottom_up(b, &opts);
        let best = mr.best_retype(
            &mut t,
            b,
            at,
            f64::INFINITY,
            0.0,
            &mut TimingReport::default(),
        );
        assert!(
            best.is_some(),
            "an unbeatable baseline accepts any legal type"
        );
        assert_eq!(t, before);
    }

    #[test]
    fn best_retype_never_returns_a_type_over_the_slew_gate() {
        let lib = fast_library();
        let opts = CtsOptions::default();
        let mr = MergeRouting::new(lib, &opts);
        let engine = TimingEngine::new(lib);
        let gate = opts.slew_target * RETYPE_SLEW_GATE;
        let mut gated = 0;
        for len in [200.0, 600.0, 1000.0, 1400.0] {
            let (mut t, b) = retype_tree(len);
            let at = StageAt::bottom_up(b, &opts);
            let mut report = TimingReport::default();
            let best = mr.best_retype(&mut t, b, at, f64::INFINITY, 0.0, &mut report);
            // The expected answer: the lowest skew among the other types
            // that stay under the gate.
            let mut expect: Option<(f64, BufferId)> = None;
            for alt in lib.buffer_ids().filter(|&alt| alt != BufferId(0)) {
                let mut trial = t.clone();
                trial.set_buffer_type(b, alt);
                let rep = at.report(&engine, &trial);
                if rep.worst_slew > gate {
                    gated += 1;
                } else if expect.is_none_or(|(s, _)| rep.skew() < s) {
                    expect = Some((rep.skew(), alt));
                }
            }
            assert_eq!(best, expect, "len {len}");
            if let Some((_, alt)) = best {
                t.set_buffer_type(b, alt);
                assert!(at.report(&engine, &t).worst_slew <= gate);
            }
        }
        assert!(
            gated > 0,
            "no trial reached the gate; the test checks nothing"
        );
    }
}
