//! The balance stage: progressive wire snaking under the slew constraint
//! (paper §4.2.1).
//!
//! When the delay difference between two sub-trees exceeds what moving the
//! merge point can compensate, extra delay must be *manufactured* on the
//! faster side. Unbuffered snaking would violate the slew limit, so the
//! paper inserts wire and buffers alternately: each snaking stage is a
//! driving buffer plus as much wire as the slew target allows (or as much
//! as still needed), repeated until the target delay is reached. The last
//! inserted buffer becomes the new sub-tree root.

use crate::engine::{TimingEngine, TimingReport};
use crate::merge::StageAt;
use crate::options::{CtsError, CtsOptions};
use crate::tree::{ClockTree, NodeKind, TreeNodeId};
use cts_timing::{BufferId, DelaySlewLibrary, Load};

/// Wire-snaking balancer.
#[derive(Debug, Clone, Copy)]
pub struct Balancer<'a> {
    lib: &'a DelaySlewLibrary,
    options: &'a CtsOptions,
}

/// Result of a balancing pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceOutcome {
    /// The (possibly new) root of the balanced sub-tree.
    pub root: TreeNodeId,
    /// Estimated delay added (s).
    pub added_delay: f64,
    /// Snaking stages inserted.
    pub stages: usize,
}

impl<'a> Balancer<'a> {
    /// Creates a balancer.
    pub fn new(lib: &'a DelaySlewLibrary, options: &'a CtsOptions) -> Balancer<'a> {
        Balancer { lib, options }
    }

    /// The load a routing/balancing wire sees when it reaches `root`
    /// ([`TimingEngine::load_at`]).
    pub fn load_of(&self, tree: &ClockTree, root: TreeNodeId) -> Load {
        TimingEngine::new(self.lib).load_at(tree, root)
    }

    /// Effective unbuffered pending below `root` in wire-equivalent µm —
    /// the budget a snaking stage's (or routed path's) driver must
    /// additionally cover. The larger of raw unbuffered depth and shielded
    /// capacitance as length. The capacitance term matters for wide
    /// (forked) regions whose total load far exceeds what their depth
    /// alone suggests — the failure mode of mapping big regions to "the
    /// nearest buffer by cap".
    pub fn effective_pending_um(&self, tree: &ClockTree, root: TreeNodeId) -> f64 {
        match tree.node(root).kind {
            // A buffer or sink is a pure gate/pin load; the wire above it
            // starts a fresh budget.
            NodeKind::Buffer { .. } | NodeKind::Sink { .. } => 0.0,
            _ => {
                let c_per_um = self.lib.wire().c_per_um();
                let depth = tree.unbuffered_depth_um(root);
                let cap = tree.shielded_cap_under(root, self.lib);
                // Near-end capacitance degrades slew less than far-end
                // wire, hence the mild discount.
                depth.max(0.8 * cap / c_per_um)
            }
        }
    }

    /// Delay of one snaking stage: buffer `drive` plus `len` µm of wire
    /// into `load`, under the slew-target input assumption.
    fn stage_delay(&self, drive: BufferId, load: Load, len: f64) -> f64 {
        self.lib
            .single_wire_total_delay(drive, load, self.options.slew_target, len.max(1.0))
    }

    /// Smallest achievable single-stage delay onto `load` (strongest buffer,
    /// minimal wire).
    fn min_stage_delay(&self, load: Load) -> f64 {
        self.lib
            .buffer_ids()
            .map(|b| self.stage_delay(b, load, 1.0))
            .fold(f64::INFINITY, f64::min)
    }

    /// Adds approximately `delay_needed` seconds of snaking delay above
    /// `root`: buffered stages for the bulk (each a driving buffer plus a
    /// slew-legal wire), then — where a whole stage would overshoot — a
    /// plain snaked wire of up to `fine_wire_cap_um` µm, bisected against
    /// the timing engine into the caller's `report`, for the residue.
    ///
    /// `allow_overshoot` is an escape hatch for a residue in the dead zone
    /// between the largest plain-wire gain and the smallest buffered
    /// stage: it inserts one minimum stage anyway, and the caller then
    /// compensates on the *other* side, whose plain wire can absorb the
    /// (smaller) overshoot.
    ///
    /// Returns the new root. Stages are inserted at the root's location —
    /// snaking is a physical detour loop whose geometry the flow abstracts;
    /// the wirelength (and therefore the delay and capacitance) is real.
    ///
    /// # Errors
    ///
    /// [`CtsError::SlewUnachievable`] if no buffer can drive any wire at
    /// the slew target.
    pub fn add_delay(
        &self,
        tree: &mut ClockTree,
        root: TreeNodeId,
        delay_needed: f64,
        fine_wire_cap_um: f64,
        allow_overshoot: bool,
        report: &mut TimingReport,
    ) -> Result<BalanceOutcome, CtsError> {
        let mut current = root;
        let mut remaining = delay_needed;
        let mut added = 0.0;
        let mut stages = 0;
        let location = tree.node(root).location;

        // Guard against configurations where nothing can be driven.
        let target = self.options.slew_target;
        let any_drivable = self.lib.buffer_ids().any(|b| {
            self.lib
                .max_wire_length_for_slew(b, Load::Buffer(b), target, target)
                .is_some()
        });
        if !any_drivable {
            return Err(CtsError::SlewUnachievable {
                context: "balance stage: no buffer drives any wire at the slew target".into(),
            });
        }

        loop {
            let load = self.load_of(tree, current);
            let pending = self.effective_pending_um(tree, current);
            let min_stage = self.min_stage_delay(load);
            if remaining < min_stage {
                break; // close enough; binary search absorbs the rest
            }
            // Pick the buffer/wire-length combination: longest slew-legal
            // wire whose stage delay does not overshoot `remaining`. The
            // driver must also push through the root's unbuffered pending.
            let mut best: Option<(BufferId, f64, f64)> = None; // (buf, len, delay)
            for drive in self.lib.buffer_ids() {
                let lmax = match self
                    .lib
                    .max_wire_length_for_slew(drive, load, target, target)
                {
                    Some(l) => (l - pending).max(0.0),
                    None => continue,
                };
                if lmax < 1.0 {
                    continue;
                }
                // Longest wire (<= lmax) with stage delay <= remaining.
                let full = self.stage_delay(drive, load, lmax);
                let len = if full <= remaining {
                    lmax
                } else {
                    let (mut lo, mut hi) = (1.0, lmax);
                    for _ in 0..40 {
                        let mid = 0.5 * (lo + hi);
                        if self.stage_delay(drive, load, mid) <= remaining {
                            lo = mid;
                        } else {
                            hi = mid;
                        }
                    }
                    lo
                };
                let d = self.stage_delay(drive, load, len);
                if d <= remaining && best.is_none_or(|(_, _, bd)| d > bd) {
                    best = Some((drive, len, d));
                }
            }
            let Some((drive, len, d)) = best else { break };
            let buf = tree.add_buffer(location, drive);
            tree.attach(buf, current, len);
            current = buf;
            remaining -= d;
            added += d;
            stages += 1;
            // Defensive cap: delay_needed / min_stage + slack stages.
            if stages > 10_000 {
                return Err(CtsError::SlewUnachievable {
                    context: "balance stage failed to converge".into(),
                });
            }
        }

        // Fine stage: a plain snaked wire (no buffer) for the sub-stage
        // residue, bisected against the timing engine. The wire deepens the
        // root's unbuffered pending, which downstream routing budgets for.
        if remaining > 0.5e-12 && fine_wire_cap_um > 2.0 {
            let engine = TimingEngine::new(self.lib);
            let mut latency = |tree: &ClockTree, at: TreeNodeId| {
                StageAt::bottom_up(at, self.options).eval(&engine, tree, report);
                report.latency
            };
            let base = latency(tree, current);
            let joint = tree.add_joint(location);
            tree.attach(joint, current, fine_wire_cap_um);
            let full_gain = latency(tree, joint) - base;
            let len = if full_gain <= remaining {
                fine_wire_cap_um
            } else {
                let (mut lo, mut hi) = (1.0, fine_wire_cap_um);
                for _ in 0..30 {
                    let mid = 0.5 * (lo + hi);
                    tree.set_wire_to_parent(current, mid);
                    if latency(tree, joint) - base <= remaining {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                lo
            };
            tree.set_wire_to_parent(current, len);
            let gained = latency(tree, joint) - base;
            remaining -= gained;
            added += gained;
            current = joint;
        }

        // Overshoot escape: the residue sits in the dead zone (too big for
        // wire, too small for a stage). Insert the smallest stage anyway;
        // the caller rebalances the other side.
        if allow_overshoot && remaining > 1.0e-12 {
            let load = self.load_of(tree, current);
            let pending = self.effective_pending_um(tree, current);
            // Only buffers that can drive through the pending region are
            // feasible overshoot stages.
            let Some(best) = self
                .lib
                .buffer_ids()
                .filter(|&b| {
                    self.lib
                        .max_wire_length_for_slew(b, load, target, target)
                        .is_some_and(|l| l >= pending + 1.0)
                })
                .min_by(|&a, &b| {
                    self.stage_delay(a, load, 1.0)
                        .partial_cmp(&self.stage_delay(b, load, 1.0))
                        .unwrap()
                })
            else {
                return Ok(BalanceOutcome {
                    root: current,
                    added_delay: added,
                    stages,
                });
            };
            let d = self.stage_delay(best, load, 1.0);
            // Only overshoot when the resulting excess (d - remaining) is
            // small enough for the sibling's plain wire to absorb.
            if remaining > 0.4 * d {
                let buf = tree.add_buffer(location, best);
                tree.attach(buf, current, 1.0);
                current = buf;
                added += d;
                stages += 1;
            }
        }

        Ok(BalanceOutcome {
            root: current,
            added_delay: added,
            stages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TimingEngine;
    use crate::instance::Sink;
    use cts_geom::Point;
    use cts_spice::units::PS;
    use cts_timing::fast_library;

    fn one_sink_tree() -> (ClockTree, TreeNodeId) {
        let mut t = ClockTree::new();
        let s = t.add_sink(0, &Sink::new("a", Point::new(0.0, 0.0), 20e-15));
        (t, s)
    }

    #[test]
    fn zero_need_is_a_noop() {
        let lib = fast_library();
        let opts = CtsOptions::default();
        let bal = Balancer::new(lib, &opts);
        let (mut t, s) = one_sink_tree();
        let mut scratch = TimingReport::default();
        let out = bal
            .add_delay(&mut t, s, 0.0, 500.0, false, &mut scratch)
            .unwrap();
        assert_eq!(out.root, s);
        assert_eq!(out.stages, 0);
        assert_eq!(out.added_delay, 0.0);
    }

    #[test]
    fn snaking_adds_requested_delay() {
        let lib = fast_library();
        let opts = CtsOptions::default();
        let bal = Balancer::new(lib, &opts);
        let engine = TimingEngine::new(lib);
        let mut scratch = TimingReport::default();

        for &need_ps in &[120.0, 400.0, 900.0] {
            let (mut t, s) = one_sink_tree();
            let before = StageAt::bottom_up(s, &opts).report(&engine, &t).latency;
            let out = bal
                .add_delay(&mut t, s, need_ps * PS, 400.0, false, &mut scratch)
                .unwrap();
            let after = StageAt::bottom_up(out.root, &opts)
                .report(&engine, &t)
                .latency;
            let gained = after - before;
            assert!(out.stages >= 1, "need {need_ps} ps should insert stages");
            // The engine-measured gain tracks the request within one
            // minimum stage delay (undershoot only).
            assert!(
                gained <= need_ps * PS * 1.05 + 10.0 * PS,
                "overshoot: requested {need_ps} ps, got {} ps",
                gained / PS
            );
            assert!(
                gained >= need_ps * PS * 0.4,
                "undershoot: requested {need_ps} ps, got {} ps",
                gained / PS
            );
        }
        // A request below the minimum stage delay is honored by doing
        // nothing (the binary-search stage absorbs such residues).
        let (mut t, s) = one_sink_tree();
        let out = bal
            .add_delay(&mut t, s, 5.0 * PS, 0.0, false, &mut scratch)
            .unwrap();
        assert_eq!(out.stages, 0);
    }

    #[test]
    fn snaked_stages_respect_slew_target() {
        let lib = fast_library();
        let opts = CtsOptions::default();
        let bal = Balancer::new(lib, &opts);
        let engine = TimingEngine::new(lib);
        let (mut t, s) = one_sink_tree();
        let mut scratch = TimingReport::default();
        let out = bal
            .add_delay(&mut t, s, 300.0 * PS, 400.0, false, &mut scratch)
            .unwrap();
        let rep = StageAt::bottom_up(out.root, &opts).report(&engine, &t);
        assert!(
            rep.worst_slew <= opts.slew_limit,
            "snaking violated slew: {} ps",
            rep.worst_slew / PS
        );
        t.validate_under(out.root);
    }

    #[test]
    fn load_of_kinds() {
        let lib = fast_library();
        let opts = CtsOptions::default();
        let bal = Balancer::new(lib, &opts);
        let mut t = ClockTree::new();
        let s = t.add_sink(0, &Sink::new("a", Point::new(0.0, 0.0), 33e-15));
        assert_eq!(bal.load_of(&t, s), Load::Sink { cap: 33e-15 });
        let b = t.add_buffer(Point::new(0.0, 0.0), BufferId(2));
        t.attach(b, s, 10.0);
        assert_eq!(bal.load_of(&t, b), Load::Buffer(BufferId(2)));
        let j = t.add_joint(Point::new(5.0, 0.0));
        t.attach(j, b, 5.0);
        match bal.load_of(&t, j) {
            Load::Sink { cap } => assert!(cap > 0.0),
            other => panic!("joint load should be a cap, got {other:?}"),
        }
    }
}
