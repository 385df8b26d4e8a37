//! Van Ginneken-style bottom-up buffer insertion along a routed merge
//! path (Li & Shi's O(bn²) formulation with b buffer types,
//! arXiv:0710.4691), selected by `CtsOptions::buffering =
//! Buffering::VanGinneken`.
//!
//! The greedy default walks the path once and, whenever the pending wire
//! segment would exceed the slew reach, commits the single buffer whose
//! slew lands closest to the target. This module instead carries a *set*
//! of candidate prefixes up the path: at every vertex, each candidate may
//! insert any slew-feasible buffer type (one spawned candidate per type),
//! and after every step candidates that are **dominated** are pruned. The
//! classic algorithm prunes on (downstream capacitance, slack); in this
//! stage-based timing model the equivalents are the *pending unbuffered
//! wire length* (the capacitive load the next driver must take on, plus
//! the slew budget already spent) and the *committed stage delay* (the
//! slack already consumed). A candidate dominates another with the same
//! last-buffer type when both its pending length and its committed delay
//! are no larger: any completion of the loser is available to the winner
//! at no greater cost, because stage delay and output slew are monotone
//! in wire length. At the merge point the candidate with the minimum
//! arrival estimate wins and its buffer chain is committed.
//!
//! The never-buffered root candidate carries the pre-existing unbuffered
//! depth below the root (`phantom`), whose delay already sits inside the
//! sub-tree delay; it is exempt from dominance in both directions (its
//! committed-share accounting differs), which costs at most one extra
//! candidate.

use crate::maze::{BufferSite, MazeRouter, MergeSide, SidePlan};
use crate::options::CtsError;
use cts_geom::Point;
use cts_timing::{BufferId, Load};

/// One candidate prefix: the routed path up to the current vertex with a
/// particular (placement, sizing) history.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// Type of the last inserted buffer (or the resolved root load).
    load: BufferId,
    /// New wire since the last buffer (µm).
    seg: f64,
    /// Pre-existing unbuffered depth below the root (µm); non-zero only
    /// for the never-buffered root candidate.
    phantom: f64,
    /// Delay of the committed stages (s).
    committed: f64,
    /// Arena index of the last inserted buffer site.
    chain: Option<u32>,
}

impl Candidate {
    /// The pending stage length the next driver must handle (µm) — the
    /// capacitance axis of the dominance relation.
    fn pending(&self) -> f64 {
        self.phantom + self.seg
    }
}

/// Spawns the candidate that inserts buffer `drive` at `at`, closing the
/// current stage. The phantom wire's delay is already inside the sub-tree
/// delay, so only the new wire's share is committed (exactly the greedy
/// commit rule).
fn insert(
    c: &Candidate,
    drive: BufferId,
    buffer_delay: f64,
    wire_delay: f64,
    at: Point,
    arena: &mut Vec<(BufferSite, Option<u32>)>,
) -> Candidate {
    let stage = c.pending();
    let new_share = if stage > 0.0 { c.seg / stage } else { 1.0 };
    let idx = arena.len() as u32;
    arena.push((
        BufferSite {
            position: at,
            buffer: drive,
            wire_below_um: c.seg,
        },
        c.chain,
    ));
    Candidate {
        load: drive,
        seg: 0.0,
        phantom: 0.0,
        committed: c.committed + buffer_delay + wire_delay * new_share,
        chain: Some(idx),
    }
}

/// (cap, slack)-dominance pruning: per last-buffer type, keep only the
/// Pareto front over (pending length, committed delay). Candidates are
/// sorted by the exact total order (type, pending, committed, chain), so
/// the survivor set and its order are deterministic. The phantom root
/// candidate is kept unconditionally and dominates nothing.
fn prune(cands: &mut Vec<Candidate>) {
    if cands.len() <= 1 {
        return;
    }
    cands.sort_by(|a, b| {
        a.load
            .0
            .cmp(&b.load.0)
            .then(a.pending().total_cmp(&b.pending()))
            .then(a.committed.total_cmp(&b.committed))
            .then(a.chain.cmp(&b.chain))
    });
    let mut kept = Vec::with_capacity(cands.len());
    let mut group: Option<BufferId> = None;
    let mut best_committed = f64::INFINITY;
    for c in cands.iter() {
        if c.phantom > 0.0 {
            kept.push(*c);
            continue;
        }
        if group != Some(c.load) {
            group = Some(c.load);
            best_committed = f64::INFINITY;
        }
        // Sorted by pending ascending: a later candidate is dominated
        // exactly when its committed delay fails to strictly improve.
        if c.committed < best_committed {
            best_committed = c.committed;
            kept.push(*c);
        }
    }
    *cands = kept;
}

/// The van Ginneken replacement for the greedy `commit_path`: same
/// inputs, same `SidePlan` contract (committed delay excludes the top
/// pending wire), different placement/sizing search.
pub(crate) fn commit_path_vg(
    router: &MazeRouter<'_>,
    points: &[Point],
    side: &MergeSide,
) -> Result<SidePlan, CtsError> {
    let limits = router.limits()?;
    let lib = router.lib;
    let target = router.options.slew_target;
    let root_load = lib.resolve(side.root_load);

    let mut arena: Vec<(BufferSite, Option<u32>)> = Vec::new();
    let mut cands = vec![Candidate {
        load: root_load,
        seg: 0.0,
        phantom: side.unbuffered_depth_um,
        committed: 0.0,
        chain: None,
    }];
    let mut spawned: Vec<Candidate> = Vec::new();
    let mut at = side.root_point;

    for &next in points {
        let step = at.manhattan_dist(next);
        if step == 0.0 {
            continue;
        }

        // Insertion phase at the current vertex: every candidate may close
        // its stage with every slew-feasible type.
        spawned.clear();
        for c in &cands {
            let stage = c.pending();
            if stage <= 0.0 {
                continue;
            }
            let mut any_feasible = false;
            for drive in lib.buffer_ids() {
                let t = lib.single_wire(drive, Load::Buffer(c.load), target, stage.max(1.0));
                if t.output_slew <= target {
                    any_feasible = true;
                    spawned.push(insert(
                        c,
                        drive,
                        t.buffer_delay,
                        t.wire_delay,
                        at,
                        &mut arena,
                    ));
                }
            }
            // Forced fallback, mirroring greedy's strongest-buffer escape:
            // the stage must break now (the next step exceeds every
            // driver's reach) but no type meets the target.
            if !any_feasible && stage + step > limits[c.load.0] {
                let drive = router.best_buffer_for(c.load, stage);
                let t = lib.single_wire(drive, Load::Buffer(c.load), target, stage.max(1.0));
                spawned.push(insert(
                    c,
                    drive,
                    t.buffer_delay,
                    t.wire_delay,
                    at,
                    &mut arena,
                ));
            }
        }
        cands.append(&mut spawned);

        for c in &mut cands {
            c.seg += step;
        }

        // Drop candidates no driver can reach any more (their stage can
        // only grow) — unless that drops everything: a single grid step
        // longer than the reach is tolerated, as in greedy, with the
        // target/limit margin absorbing the overshoot.
        if cands.iter().any(|c| c.pending() <= limits[c.load.0]) {
            cands.retain(|c| c.pending() <= limits[c.load.0]);
        }

        prune(&mut cands);
        at = next;
    }

    // Final selection: the minimum arrival estimate at the merge point,
    // ties broken by (type, pending, chain) so the pick is deterministic.
    let arrival =
        |c: &Candidate| side.subtree_delay + c.committed + router.pending_delay(c.load, c.seg);
    let best = cands
        .iter()
        .min_by(|a, b| {
            arrival(a)
                .total_cmp(&arrival(b))
                .then(a.load.0.cmp(&b.load.0))
                .then(a.pending().total_cmp(&b.pending()))
                .then(a.chain.cmp(&b.chain))
        })
        .copied()
        .expect("the candidate set never empties");

    let mut buffers = Vec::new();
    let mut link = best.chain;
    while let Some(i) = link {
        let (site, prev) = arena[i as usize];
        buffers.push(site);
        link = prev;
    }
    buffers.reverse();

    Ok(SidePlan {
        buffers,
        top_wire_um: best.seg,
        committed_delay: best.committed,
        arrival_estimate: arrival(&best),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{Buffering, CtsOptions};
    use cts_spice::units::PS;
    use cts_timing::fast_library;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cand(load: usize, seg: f64, committed: f64, chain: Option<u32>) -> Candidate {
        Candidate {
            load: BufferId(load),
            seg,
            phantom: 0.0,
            committed,
            chain,
        }
    }

    #[test]
    fn prune_removes_dominated_candidates() {
        // Same type: (200 µm, 5 ps) dominates (300 µm, 7 ps).
        let mut c = vec![
            cand(0, 300.0, 7.0 * PS, Some(1)),
            cand(0, 200.0, 5.0 * PS, Some(0)),
        ];
        prune(&mut c);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].chain, Some(0));
    }

    #[test]
    fn prune_keeps_the_pareto_front() {
        // Shorter-pending-but-slower and longer-pending-but-faster are
        // incomparable; both survive.
        let mut c = vec![
            cand(0, 200.0, 7.0 * PS, Some(0)),
            cand(0, 300.0, 5.0 * PS, Some(1)),
        ];
        prune(&mut c);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn prune_is_per_buffer_type() {
        // Dominance never crosses types: the next stage's delay depends on
        // the driving type, so a "worse" point of another type may still
        // win later.
        let mut c = vec![
            cand(0, 200.0, 5.0 * PS, Some(0)),
            cand(1, 300.0, 7.0 * PS, Some(1)),
        ];
        prune(&mut c);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn prune_exempts_the_phantom_root_candidate() {
        let mut c = vec![
            cand(0, 100.0, 1.0 * PS, Some(0)),
            Candidate {
                load: BufferId(0),
                seg: 50.0,
                phantom: 400.0, // dominated on both axes, but exempt
                committed: 2.0 * PS,
                chain: None,
            },
        ];
        prune(&mut c);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn prune_drops_exact_duplicates_deterministically() {
        let mut c = vec![
            cand(0, 200.0, 5.0 * PS, Some(3)),
            cand(0, 200.0, 5.0 * PS, Some(1)),
        ];
        prune(&mut c);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].chain, Some(1), "keeps the earliest-spawned twin");
    }

    /// Exhaustive reference: enumerate every placement/sizing whose every
    /// committed stage is slew-feasible and whose final pending stage is
    /// within the drivable limit; return the minimum arrival estimate.
    fn exhaustive_best(
        router: &MazeRouter<'_>,
        points: &[Point],
        side: &MergeSide,
        limits: &[f64],
    ) -> f64 {
        let target = router.options.slew_target;

        struct State {
            load: BufferId,
            seg: f64,
            phantom: f64,
            committed: f64,
        }
        #[allow(clippy::too_many_arguments)]
        fn go(
            router: &MazeRouter<'_>,
            target: f64,
            limits: &[f64],
            side: &MergeSide,
            points: &[Point],
            at: Point,
            s: State,
            best: &mut f64,
        ) {
            let lib = router.lib;
            let Some((&next, rest)) = points.split_first() else {
                if s.phantom + s.seg <= limits[s.load.0] {
                    let arrival =
                        side.subtree_delay + s.committed + router.pending_delay(s.load, s.seg);
                    *best = best.min(arrival);
                }
                return;
            };
            let step = at.manhattan_dist(next);
            if step == 0.0 {
                return go(router, target, limits, side, rest, at, s, best);
            }
            // Branch 1: step on without inserting.
            go(
                router,
                target,
                limits,
                side,
                rest,
                next,
                State {
                    seg: s.seg + step,
                    ..s
                },
                best,
            );
            // Branch 2: insert each slew-feasible type at `at`, then step.
            let stage = s.phantom + s.seg;
            if stage > 0.0 {
                for drive in lib.buffer_ids() {
                    let t = lib.single_wire(drive, Load::Buffer(s.load), target, stage.max(1.0));
                    if t.output_slew <= target {
                        let share = s.seg / stage;
                        go(
                            router,
                            target,
                            limits,
                            side,
                            rest,
                            next,
                            State {
                                load: drive,
                                seg: step,
                                phantom: 0.0,
                                committed: s.committed + t.buffer_delay + t.wire_delay * share,
                            },
                            best,
                        );
                    }
                }
            }
        }

        let mut best = f64::INFINITY;
        go(
            router,
            target,
            limits,
            side,
            points,
            side.root_point,
            State {
                load: router.lib.resolve(side.root_load),
                seg: 0.0,
                phantom: side.unbuffered_depth_um,
                committed: 0.0,
            },
            &mut best,
        );
        best
    }

    fn vg_options() -> CtsOptions {
        let mut o = CtsOptions::default();
        o.buffering = Buffering::VanGinneken;
        o
    }

    fn straight_path(from: Point, steps: &[f64]) -> Vec<Point> {
        let mut pts = Vec::new();
        let mut x = from.x;
        for &s in steps {
            x += s;
            pts.push(Point::new(x, from.y));
        }
        pts
    }

    fn merge_side(delay_ps: f64, depth: f64) -> MergeSide {
        MergeSide {
            root_point: Point::new(0.0, 0.0),
            root_load: Load::Sink { cap: 20e-15 },
            subtree_delay: delay_ps * PS,
            unbuffered_depth_um: depth,
        }
    }

    #[test]
    fn vg_matches_exhaustive_on_small_paths() {
        let lib = fast_library();
        let opts = vg_options();
        let router = MazeRouter::new(lib, &opts);
        let limits = router.limits().unwrap();
        for (steps, depth) in [
            (vec![300.0, 300.0, 400.0, 350.0, 300.0], 0.0),
            (vec![500.0, 500.0, 500.0, 500.0], 150.0),
            (vec![150.0, 900.0, 200.0, 700.0, 250.0], 0.0),
            (vec![50.0, 50.0], 0.0),
        ] {
            let side = merge_side(3.0, depth);
            let points = straight_path(side.root_point, &steps);
            let plan = commit_path_vg(&router, &points, &side).unwrap();
            let best = exhaustive_best(&router, &points, &side, limits);
            assert!(
                (plan.arrival_estimate - best).abs() <= 1e-18 + 1e-12 * best.abs(),
                "vg {} ps vs exhaustive {} ps on {steps:?}",
                plan.arrival_estimate / PS,
                best / PS
            );
        }
    }

    #[test]
    fn vg_never_worse_than_exhaustive_on_random_paths() {
        // Property sweep: random short paths, random unbuffered depth —
        // pruning must never discard the optimal (cap, slack) point.
        let lib = fast_library();
        let opts = vg_options();
        let router = MazeRouter::new(lib, &opts);
        let limits = router.limits().unwrap();
        let mut rng = StdRng::seed_from_u64(0xb0ffe5);
        for case in 0..24 {
            let n = rng.gen_range(2..7usize);
            let steps: Vec<f64> = (0..n).map(|_| rng.gen_range(60.0..950.0)).collect();
            let depth = if rng.gen_bool(0.3) {
                rng.gen_range(0.0..400.0)
            } else {
                0.0
            };
            let side = merge_side(rng.gen_range(0.0..10.0), depth);
            let points = straight_path(side.root_point, &steps);
            let plan = commit_path_vg(&router, &points, &side).unwrap();
            let best = exhaustive_best(&router, &points, &side, limits);
            assert!(
                plan.arrival_estimate <= best + 1e-18 + 1e-12 * best.abs(),
                "case {case}: vg {} ps vs exhaustive {} ps on {steps:?} depth {depth}",
                plan.arrival_estimate / PS,
                best / PS
            );
        }
    }

    #[test]
    fn vg_routing_is_deterministic_and_no_worse_than_greedy() {
        // Both modes share the wavefront (and thus the merge cell and the
        // cell path); greedy's placement is inside van Ginneken's search
        // space, so per-side arrivals can only improve.
        let lib = fast_library();
        let greedy_opts = CtsOptions::default();
        let vg = vg_options();
        let g_router = MazeRouter::new(lib, &greedy_opts);
        let v_router = MazeRouter::new(lib, &vg);
        for (ax, bx, d) in [(0.0, 5200.0, 0.0), (0.0, 2600.0, 2.0), (0.0, 7900.0, 4.0)] {
            let a = MergeSide {
                root_point: Point::new(ax, 0.0),
                root_load: Load::Sink { cap: 20e-15 },
                subtree_delay: d * PS,
                unbuffered_depth_um: 0.0,
            };
            let b = MergeSide {
                root_point: Point::new(bx, 300.0),
                root_load: Load::Sink { cap: 25e-15 },
                subtree_delay: 0.0,
                unbuffered_depth_um: 0.0,
            };
            let gp = g_router.route(&a, &b).unwrap();
            let vp = v_router.route(&a, &b).unwrap();
            let vp2 = v_router.route(&a, &b).unwrap();
            assert_eq!(vp, vp2, "van Ginneken routing must be deterministic");
            assert_eq!(gp.merge_point, vp.merge_point, "shared wavefront");
            for (gs, vs) in gp.sides.iter().zip(&vp.sides) {
                assert!(
                    vs.arrival_estimate <= gs.arrival_estimate + 1e-18,
                    "vg side arrival {} ps vs greedy {} ps",
                    vs.arrival_estimate / PS,
                    gs.arrival_estimate / PS
                );
            }
        }
    }
}
