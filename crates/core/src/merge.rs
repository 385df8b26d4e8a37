//! Merge-routing: the paper's three-stage merge of two sub-trees
//! (§4.2) — balance, bi-directional maze routing, and binary search.

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
    report: TimingReport,
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

/// Outcome of merging two sub-trees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeOutcome {
    /// The new merge node (root of the combined sub-tree).
    pub merge_node: TreeNodeId,
    /// Engine-estimated skew of the combined sub-tree after binary search
    /// (s).
    pub skew_estimate: f64,
    /// Engine-estimated latency of the combined sub-tree (s).
    pub latency_estimate: f64,
    /// Buffers inserted along the two routed paths.
    pub buffers_inserted: usize,
    /// Wire-snaking stages inserted by the balance stage.
    pub snake_stages: usize,
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
        TimingEngine::new(self.lib)
            .evaluate_subtree(
                tree,
                root,
                self.options.virtual_driver,
                self.options.slew_target,
            )
            .latency
    }

    /// Longest *symmetric branch arm* (µm) any library buffer can drive at
    /// the slew target: the largest `L` with branch far-end slew ≤ target
    /// for two `L` µm arms into the heaviest loads. Derived once in
    /// [`MergeRouting::new`].
    pub fn arm_budget_um(&self) -> f64 {
        self.arm_budget_um
    }

    /// Effective unbuffered pending below `node`, in wire-equivalent µm
    /// ([`Balancer::effective_pending_um`]).
    pub fn effective_pending_um(&self, tree: &ClockTree, node: TreeNodeId) -> f64 {
        self.balancer.effective_pending_um(tree, node)
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
            2.0 * self.lib.single_wire_delay(
                self.options.virtual_driver,
                load,
                self.options.slew_target,
                arm_budget,
            )
        };
        let mut snake_stages = 0;
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
            let out = if round == 0 {
                self.balancer
                    .add_delay_overshooting(tree, roots[fast], need, fine_cap)?
            } else {
                self.balancer.add_delay(tree, roots[fast], need, fine_cap)?
            };
            roots[fast] = out.root;
            delays[fast] = self.subtree_delay(tree, roots[fast]);
            snake_stages += out.stages;
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
        let mut buffers_inserted = 0;
        for (i, side_plan) in plan.sides.iter().enumerate() {
            let mut current = roots[i];
            for site in &side_plan.buffers {
                let b = tree.add_buffer(site.position, site.buffer);
                tree.attach(b, current, site.wire_below_um);
                current = b;
                buffers_inserted += 1;
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
                buffers_inserted += 1;
                *top = b;
            }
        }

        // --- binary search stage (§4.2.3) ---------------------------------
        // Per-side wire caps keep the search from piling the whole top
        // budget onto one arm (which would break that arm's slew).
        let arm_caps = [
            (arm_budget - self.effective_pending_um(tree, tops[0])).max(1.0),
            (arm_budget - self.effective_pending_um(tree, tops[1])).max(1.0),
        ];
        let skew = self.binary_search(tree, merge, tops, arm_caps, &engine, &mut scratch.report);

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
            buffers_inserted += 1;
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
        let _ = skew; // the refinement below re-measures on the final root
        let subtree_skew = |tree: &ClockTree, report: &mut TimingReport| {
            engine.evaluate_subtree_into(
                tree,
                root,
                self.options.virtual_driver,
                self.options.slew_target,
                report,
            );
            report.skew()
        };
        let mut skew_total = subtree_skew(tree, &mut scratch.report);
        for _pass in 0..3 {
            let mut improved = false;
            for &cand in &candidates {
                let original = match tree.node(cand).kind {
                    NodeKind::Buffer { buffer } => buffer,
                    _ => unreachable!("candidates are buffers"),
                };
                let mut best = (skew_total, original);
                for alt in self.lib.buffer_ids() {
                    if alt == original {
                        continue;
                    }
                    tree.set_buffer_type(cand, alt);
                    engine.evaluate_subtree_into(
                        tree,
                        root,
                        self.options.virtual_driver,
                        self.options.slew_target,
                        &mut scratch.report,
                    );
                    let rep = &scratch.report;
                    // Swaps must preserve the bottom-up invariant that
                    // every stage input slew stays at or under the target —
                    // spending the target-to-limit margin here compounds
                    // through downstream stages.
                    let slew_gate = self.options.slew_target * 1.01;
                    if rep.worst_slew <= slew_gate && rep.skew() + 0.2e-12 < best.0 {
                        best = (rep.skew(), alt);
                    }
                }
                tree.set_buffer_type(cand, best.1);
                if best.1 != original {
                    skew_total = best.0;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
            // Re-trim the top wires around the (re-typed) stages.
            let _ = self.binary_search(tree, merge, tops, arm_caps, &engine, &mut scratch.report);
            skew_total = subtree_skew(tree, &mut scratch.report);
        }

        engine.evaluate_subtree_into(
            tree,
            root,
            self.options.virtual_driver,
            self.options.slew_target,
            &mut scratch.report,
        );
        Ok(MergeOutcome {
            merge_node: root,
            skew_estimate: scratch.report.skew(),
            latency_estimate: scratch.report.latency,
            buffers_inserted,
            snake_stages,
        })
    }

    /// Moves the merge joint along the segment between the two last fixed
    /// nodes (`v1`, `v2`), redistributing the top wirelength by a ratio `r`
    /// found by bisection on the measured delay difference (Fig. 4.5).
    ///
    /// Returns the final engine-estimated skew between the two sides.
    fn binary_search(
        &self,
        tree: &mut ClockTree,
        merge: TreeNodeId,
        tops: [TreeNodeId; 2],
        arm_caps: [f64; 2],
        engine: &TimingEngine<'_>,
        report: &mut TimingReport,
    ) -> f64 {
        let total = tree.node(tops[0]).wire_to_parent_um + tree.node(tops[1]).wire_to_parent_um;
        let v1 = tree.node(tops[0]).location;
        let v2 = tree.node(tops[1]).location;

        // Sorted id lists: the per-iteration side maxima then come straight
        // off the report's arrival list — no arrival map allocation inside
        // the bisection loop.
        let mut side_sinks = [tree.sinks_under(tops[0]), tree.sinks_under(tops[1])];
        side_sinks[0].sort_unstable();
        side_sinks[1].sort_unstable();
        let diff_at = |tree: &mut ClockTree, report: &mut TimingReport, r: f64| -> f64 {
            tree.set_wire_to_parent(tops[0], r * total);
            tree.set_wire_to_parent(tops[1], (1.0 - r) * total);
            tree.set_location(merge, v1.lerp(v2, r));
            engine.evaluate_subtree_into(
                tree,
                merge,
                self.options.virtual_driver,
                self.options.slew_target,
                report,
            );
            let side_max = report.side_max_arrivals([&side_sinks[0], &side_sinks[1]]);
            side_max[0] - side_max[1]
        };

        // diff(r) grows with r (more wire on side 1). Establish a bracket
        // inside the slew-feasible ratio window: side 1 may carry at most
        // arm_caps[0] µm and side 2 at most arm_caps[1] µm.
        let (r_lo, r_hi) = if total <= 1e-9 {
            (0.5, 0.5)
        } else {
            let lo = ((total - arm_caps[1]) / total).clamp(0.0, 1.0);
            let hi = (arm_caps[0] / total).clamp(0.0, 1.0);
            if lo <= hi {
                (lo, hi)
            } else {
                // Infeasible caps (degenerate splits): fall back to an even
                // division, which at least splits the overload.
                (0.5, 0.5)
            }
        };
        let (mut lo, mut hi) = (r_lo, r_hi);
        let d_lo = diff_at(tree, report, lo);
        let d_hi = diff_at(tree, report, hi);
        if d_lo >= 0.0 {
            // Side 1 slower even with all wire on side 2: stay at lo.
            let _ = diff_at(tree, report, lo);
            return d_lo.abs();
        }
        if d_hi <= 0.0 {
            let _ = diff_at(tree, report, hi);
            return d_hi.abs();
        }
        let mut best_r = 0.5;
        let mut best_diff = f64::INFINITY;
        for _ in 0..self.options.binary_search_iters {
            let mid = 0.5 * (lo + hi);
            let d = diff_at(tree, report, mid);
            if d.abs() < best_diff {
                best_diff = d.abs();
                best_r = mid;
            }
            if d.abs() <= self.options.binary_search_tol {
                break;
            }
            if d < 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let final_diff = diff_at(tree, report, best_r);
        final_diff.abs()
    }
}

/// [`MergeRouting::arm_budget_um`] of `lib` at the slew `target`. This is
/// the true budget for the two wires that join at a merge point —
/// substantially shorter than the single-wire budget, since the driver
/// faces both arms.
fn symmetric_arm_budget_um(lib: &DelaySlewLibrary, target: f64) -> f64 {
    let heavy = cts_timing::Load::Buffer(
        lib.buffer_ids()
            .max_by(|&a, &b| {
                lib.buffer(a)
                    .stage1_size()
                    .partial_cmp(&lib.buffer(b).stage1_size())
                    .unwrap()
            })
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
    use cts_timing::fast_library;

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
        assert!(out.buffers_inserted >= 2, "got {}", out.buffers_inserted);
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
        let b1 = t.add_buffer(Point::new(900.0, 0.0), cts_timing::BufferId(0));
        t.attach(b1, ids[1], 400.0);
        let b2 = t.add_buffer(Point::new(900.0, 0.0), cts_timing::BufferId(0));
        t.attach(b2, b1, 400.0);

        let d_slow = mr.subtree_delay(&t, b2);
        let d_fast = mr.subtree_delay(&t, ids[0]);
        assert!(d_slow > d_fast + 10.0 * PS, "setup should be unbalanced");

        let out = mr
            .merge_pair_with(&mut MergeScratch::new(), &mut t, ids[0], b2)
            .unwrap();
        assert!(
            out.skew_estimate < 30.0 * PS,
            "skew {} ps (snakes: {})",
            out.skew_estimate / PS,
            out.snake_stages
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
        let rep =
            engine.evaluate_subtree(&t, out.merge_node, opts.virtual_driver, opts.slew_target);
        assert!(
            rep.worst_slew <= opts.slew_limit * 1.05,
            "worst slew {} ps exceeds limit",
            rep.worst_slew / PS
        );
    }
}
