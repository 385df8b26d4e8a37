//! Baseline synthesizers for comparison and ablation.
//!
//! * [`dme_zero_skew`] — the classic unbuffered zero-skew construction
//!   (paper §2.2): Edahiro-style nearest-neighbor topology with Tsay's
//!   closed-form Elmore merge point (eq. 2.5) on Manhattan arcs.
//! * [`merge_node_buffering`] — the prior-work policy the paper argues
//!   against (Fig. 1.2a): identical topology, but buffers may only be
//!   placed *at merge nodes*, sized greedily for slew. On large dies this
//!   provably cannot hold the slew limit, which is the paper's motivation.

use crate::engine::TimingEngine;
use crate::instance::Instance;
use crate::options::{CtsError, CtsOptions};
use crate::topology::{find_matching, MatchCandidate};
use crate::tree::{ClockTree, NodeKind, TreeNodeId};
use cts_geom::ManhattanArc;
use cts_timing::DelaySlewLibrary;

/// Result of a baseline construction.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// The constructed tree.
    pub tree: ClockTree,
    /// Its source node.
    pub source: TreeNodeId,
    /// Elmore delay from source to each sink (s) — the model the baseline
    /// optimizes, reported for zero-skew checks.
    pub elmore_sink_delays: Vec<(TreeNodeId, f64)>,
}

/// Per-subtree bookkeeping for the Elmore merge recursion.
#[derive(Debug, Clone, Copy)]
struct ElmoreState {
    /// Delay from this root to its sinks (equal on all paths by
    /// construction), seconds.
    delay: f64,
    /// Downstream capacitance seen at this root (F).
    cap: f64,
}

/// Unbuffered zero-skew DME baseline.
///
/// Merge points are placed with the closed-form balance condition of
/// eq. 2.5 under the Elmore model; when one side is too slow to balance
/// without detour, the merge point sits at an endpoint and the wire to the
/// other side is snaked (extended) to equalize delays.
///
/// # Errors
///
/// [`CtsError::BadOptions`] for invalid options (via validation).
pub fn dme_zero_skew(
    lib: &DelaySlewLibrary,
    options: &CtsOptions,
    instance: &Instance,
) -> Result<BaselineResult, CtsError> {
    options.validate()?;
    let r = lib.wire().r_per_um();
    let c = lib.wire().c_per_um();

    let mut tree = ClockTree::new();
    let mut active: Vec<(TreeNodeId, ElmoreState)> = instance
        .sinks()
        .iter()
        .enumerate()
        .map(|(i, s)| {
            (
                tree.add_sink(i, s),
                ElmoreState {
                    delay: 0.0,
                    cap: s.cap,
                },
            )
        })
        .collect();
    let centroid = instance.sink_centroid();

    while active.len() > 1 {
        let candidates: Vec<MatchCandidate> = active
            .iter()
            .map(|&(id, st)| MatchCandidate {
                location: tree.node(id).location,
                delay: st.delay,
            })
            .collect();
        let matching = find_matching(&candidates, centroid, options.cost_alpha, options.cost_beta)?;

        let mut next = Vec::with_capacity(active.len() / 2 + 1);
        if let Some(seed) = matching.seed {
            next.push(active[seed]);
        }
        for &(i, j) in &matching.pairs {
            let (n1, s1) = active[i];
            let (n2, s2) = active[j];
            let p1 = tree.node(n1).location;
            let p2 = tree.node(n2).location;
            let l = p1.manhattan_dist(p2).max(1e-6);

            // Eq. 2.5: balance α·l1(β·l1/2 + C1) + t1 = α·l2(β·l2/2 + C2) + t2.
            let x = ((s2.delay - s1.delay) + r * l * (s2.cap + c * l / 2.0))
                / (r * l * (s1.cap + s2.cap + c * l));

            let (l1, l2, snake) = if (0.0..=1.0).contains(&x) {
                (x * l, (1.0 - x) * l, 0.0)
            } else if x < 0.0 {
                // Side 1 already slower even at its root: snake side 2.
                // Solve t1 = t2 + α l2 (β l2/2 + C2) for l2 >= l.
                let ext = solve_snake(s1.delay - s2.delay, s2.cap, r, c).max(l);
                (0.0, ext, ext - l)
            } else {
                let ext = solve_snake(s2.delay - s1.delay, s1.cap, r, c).max(l);
                (ext, 0.0, ext - l)
            };
            let _ = snake;

            // Merge node position: on the Manhattan arc when detour-free;
            // at the slower root when snaking.
            let position = if l1 + l2 <= l * (1.0 + 1e-9) && l1 >= 0.0 && l2 >= 0.0 {
                ManhattanArc::from_radii(p1, p2, l1.min(l), l - l1.min(l))
                    .map(|arc| arc.segment().midpoint())
                    .unwrap_or_else(|| p1.lerp(p2, l1 / l))
            } else if l1 == 0.0 {
                p1
            } else {
                p2
            };

            let m = tree.add_joint(position);
            tree.attach(m, n1, l1);
            tree.attach(m, n2, l2);

            let delay1 = s1.delay + r * l1 * (c * l1 / 2.0 + s1.cap);
            let delay2 = s2.delay + r * l2 * (c * l2 / 2.0 + s2.cap);
            let merged = ElmoreState {
                // Both should agree; take the max to stay conservative
                // against rounding.
                delay: delay1.max(delay2),
                cap: s1.cap + s2.cap + c * (l1 + l2),
            };
            next.push((m, merged));
        }
        active = next;
    }

    let (top, _) = active[0];
    let source = tree.add_source(top, crate::pipeline::strongest_buffer(lib));
    let elmore_sink_delays = elmore_delays(&tree, source, r, c);
    Ok(BaselineResult {
        tree,
        source,
        elmore_sink_delays,
    })
}

/// Solves `Δt = α·L(β·L/2 + C)` for the snaked length `L`.
fn solve_snake(dt: f64, cap: f64, r: f64, c: f64) -> f64 {
    // (r c / 2) L^2 + r cap L - dt = 0
    let a = r * c / 2.0;
    let b = r * cap;
    let disc = (b * b + 4.0 * a * dt).max(0.0);
    (-b + disc.sqrt()) / (2.0 * a)
}

/// Merge-node-only buffering baseline (the Fig. 1.2(a) policy): builds the
/// DME tree, then inserts one buffer at every merge node whose estimated
/// downstream slew would otherwise exceed the target, choosing the type
/// greedily by the library's slew surface.
///
/// # Errors
///
/// As [`dme_zero_skew`].
pub fn merge_node_buffering(
    lib: &DelaySlewLibrary,
    options: &CtsOptions,
    instance: &Instance,
) -> Result<BaselineResult, CtsError> {
    let base = dme_zero_skew(lib, options, instance)?;
    let mut tree = base.tree;
    let source = base.source;

    // Walk top-down; at each joint, estimate the slew over the longest
    // unbuffered downstream path; if it exceeds the target, wrap the joint
    // in a buffer (inserted on its parent edge, i.e. *at* the merge node).
    let engine = TimingEngine::new(lib);
    let ids: Vec<TreeNodeId> = tree.ids().collect();
    for id in ids {
        if !matches!(tree.node(id).kind, NodeKind::Joint) {
            continue;
        }
        if tree.node(id).parent.is_none() {
            continue;
        }
        let rep = engine.evaluate_subtree(&tree, id, options.virtual_driver, options.slew_target);
        if rep.worst_slew <= options.slew_target {
            continue;
        }
        // Choose the buffer whose estimated downstream slew is smallest.
        let best = lib
            .buffer_ids()
            .min_by(|&a, &b| {
                let sa = engine
                    .evaluate_subtree(&tree, id, a, options.slew_target)
                    .worst_slew;
                let sb = engine
                    .evaluate_subtree(&tree, id, b, options.slew_target)
                    .worst_slew;
                sa.partial_cmp(&sb).unwrap()
            })
            .expect("non-empty library");
        // Splice: parent -> buffer(at joint location) -> joint.
        let parent = tree.node(id).parent.expect("checked");
        let wire = tree.node(id).wire_to_parent_um;
        tree.detach(id);
        let buf = tree.add_buffer(tree.node(id).location, best);
        tree.attach(parent, buf, wire);
        tree.attach(buf, id, 0.0);
    }

    let r = lib.wire().r_per_um();
    let c = lib.wire().c_per_um();
    let elmore_sink_delays = elmore_delays(&tree, source, r, c);
    Ok(BaselineResult {
        tree,
        source,
        elmore_sink_delays,
    })
}

/// Elmore source-to-sink delays of an arbitrary (possibly buffered) tree:
/// buffers contribute a fixed intrinsic estimate via the library at the
/// slew target; wires contribute path resistance times downstream cap.
fn elmore_delays(
    tree: &ClockTree,
    source: TreeNodeId,
    r_per_um: f64,
    c_per_um: f64,
) -> Vec<(TreeNodeId, f64)> {
    // Downstream cap per node (shielded at buffers).
    fn downstream_cap(
        tree: &ClockTree,
        node: TreeNodeId,
        c_per_um: f64,
        memo: &mut Vec<Option<f64>>,
    ) -> f64 {
        if let Some(v) = memo[node.index()] {
            return v;
        }
        let n = tree.node(node);
        let own = match n.kind {
            NodeKind::Sink { cap, .. } => cap,
            // Gate cap approximation consistent with the engine.
            NodeKind::Buffer { .. } => 4.0e-15,
            _ => 0.0,
        };
        let mut total = own;
        if !matches!(n.kind, NodeKind::Buffer { .. }) {
            for &ch in &n.children {
                total += tree.node(ch).wire_to_parent_um * c_per_um
                    + downstream_cap(tree, ch, c_per_um, memo);
            }
        }
        memo[node.index()] = Some(total);
        total
    }

    let mut memo = vec![None; tree.len()];
    let mut out = Vec::new();
    // DFS accumulating Elmore delay.
    let mut stack = vec![(source, 0.0f64)];
    while let Some((id, t)) = stack.pop() {
        let n = tree.node(id);
        if matches!(n.kind, NodeKind::Sink { .. }) {
            out.push((id, t));
            continue;
        }
        for &ch in &n.children {
            let len = tree.node(ch).wire_to_parent_um;
            let rw = r_per_um * len;
            let load = tree.node(ch).wire_to_parent_um * c_per_um / 2.0
                + downstream_cap(tree, ch, c_per_um, &mut memo);
            stack.push((ch, t + rw * load));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Sink;
    use cts_geom::Point;
    use cts_spice::units::PS;
    use cts_timing::fast_library;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_instance(n: usize, span: f64, seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        Instance::new(
            "rand",
            (0..n)
                .map(|i| {
                    Sink::new(
                        format!("s{i}"),
                        Point::new(rng.gen_range(0.0..span), rng.gen_range(0.0..span)),
                        rng.gen_range(10e-15..40e-15),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn dme_produces_near_zero_elmore_skew() {
        let lib = fast_library();
        let opts = CtsOptions::default();
        let inst = random_instance(12, 3000.0, 3);
        let res = dme_zero_skew(lib, &opts, &inst).unwrap();
        res.tree.validate_under(res.source);
        assert_eq!(res.tree.sinks_under(res.source).len(), 12);
        let delays: Vec<f64> = res.elmore_sink_delays.iter().map(|&(_, d)| d).collect();
        let spread = delays.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - delays.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = delays.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            spread <= 0.02 * max.max(1e-12),
            "Elmore skew {} ps of {} ps latency",
            spread / PS,
            max / PS
        );
    }

    #[test]
    fn dme_uses_no_buffers() {
        let lib = fast_library();
        let opts = CtsOptions::default();
        let inst = random_instance(9, 2000.0, 5);
        let res = dme_zero_skew(lib, &opts, &inst).unwrap();
        assert_eq!(res.tree.buffer_count_under(res.source), 0);
    }

    #[test]
    fn merge_node_buffering_only_places_buffers_at_merges() {
        let lib = fast_library();
        let opts = CtsOptions::default();
        let inst = random_instance(10, 8000.0, 7);
        let res = merge_node_buffering(lib, &opts, &inst).unwrap();
        res.tree.validate_under(res.source);
        // Every buffer must sit exactly at a joint location with zero
        // distance to its child joint.
        for id in res.tree.ids() {
            if matches!(res.tree.node(id).kind, NodeKind::Buffer { .. }) {
                let children = &res.tree.node(id).children;
                assert_eq!(children.len(), 1);
                let ch = children[0];
                assert!(matches!(res.tree.node(ch).kind, NodeKind::Joint));
                assert_eq!(res.tree.node(ch).wire_to_parent_um, 0.0);
            }
        }
        assert!(res.tree.buffer_count_under(res.source) > 0);
    }

    #[test]
    fn snake_solver_inverts_delay() {
        let (r, c) = (0.03, 0.2e-15);
        let cap = 30e-15;
        for &target in &[1e-12, 20e-12, 100e-12] {
            let l = solve_snake(target, cap, r, c);
            let back = r * l * (c * l / 2.0 + cap);
            assert!((back - target).abs() < 1e-15 * target.max(1e-12) + 1e-18);
        }
    }
}
