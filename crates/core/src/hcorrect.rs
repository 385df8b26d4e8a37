//! H-structure corrections (paper §4.1.2, Fig. 4.2).
//!
//! When two sub-trees about to merge were themselves merges (each with two
//! children), the four grandchildren admit three pairings; the bottom-up
//! flow may have picked an intertwined one. Before committing the merge,
//! the corrector re-examines the pairings:
//!
//! * **Method 1 (re-estimation)** scores all three pairings with the cheap
//!   edge-cost estimate (delay difference) and re-pairs if a cheaper one
//!   exists.
//! * **Method 2 (correction)** actually merge-routes the alternative
//!   pairings on scratch copies of the tree, compares measured skews
//!   (`max(skew(nᵢ), skew(nⱼ))` per pairing), and keeps the best — the
//!   most expensive but best-performing option (Table 5.3).

use crate::engine::TimingEngine;
use crate::merge::{MergeOutcome, MergeRouting, MergeScratch, StageAt};
use crate::options::{CtsError, CtsOptions, HCorrection};
use crate::tree::{ClockTree, NodeKind, TreeNodeId};
use cts_timing::DelaySlewLibrary;

/// Merges the pair `(a, b)` through reusable `scratch`, applying the
/// configured H-structure correction when both nodes are merge joints
/// with two children.
///
/// Builds a [`MergeRouting`] per call; the synthesis pipeline builds one
/// per run and shares it across its merges instead.
///
/// # Errors
///
/// Propagates [`CtsError`] from merge-routing.
pub fn merge_with_correction_with(
    lib: &DelaySlewLibrary,
    options: &CtsOptions,
    scratch: &mut MergeScratch,
    tree: &mut ClockTree,
    a: TreeNodeId,
    b: TreeNodeId,
) -> Result<MergeOutcome, CtsError> {
    merge_corrected(&MergeRouting::new(lib, options), scratch, tree, a, b)
}

/// [`merge_with_correction_with`] on a prebuilt [`MergeRouting`].
///
/// # Errors
///
/// Propagates [`CtsError`] from merge-routing.
pub(crate) fn merge_corrected(
    mr: &MergeRouting<'_>,
    scratch: &mut MergeScratch,
    tree: &mut ClockTree,
    a: TreeNodeId,
    b: TreeNodeId,
) -> Result<MergeOutcome, CtsError> {
    let (lib, options) = (mr.lib, mr.options);
    let (ja, jb) = (merge_joint_of(tree, a), merge_joint_of(tree, b));
    let correctable = options.h_correction != HCorrection::Off && ja.is_some() && jb.is_some();
    if !correctable {
        return mr.merge_pair_with(scratch, tree, a, b);
    }
    let (ja, jb) = (ja.expect("checked"), jb.expect("checked"));

    let (a1, a2) = children2(tree, ja);
    let (b1, b2) = children2(tree, jb);
    // The three pairings of Fig. 4.2: original and the two cross pairings.
    let pairings = [
        [(a1, a2), (b1, b2)],
        [(a1, b1), (a2, b2)],
        [(a1, b2), (a2, b1)],
    ];

    let choice = match options.h_correction {
        HCorrection::Off => unreachable!("handled above"),
        HCorrection::ReEstimate => {
            // Cheap estimate: delay-difference cost of each pairing.
            let delay = |n: TreeNodeId| mr.subtree_delay(tree, n);
            let (da1, da2, db1, db2) = (delay(a1), delay(a2), delay(b1), delay(b2));
            let d = [da1, da2, db1, db2];
            let idx = |n: TreeNodeId| -> usize {
                [a1, a2, b1, b2]
                    .iter()
                    .position(|&x| x == n)
                    .expect("child")
            };
            let score = |p: &[(TreeNodeId, TreeNodeId); 2]| -> f64 {
                p.iter().map(|&(x, y)| (d[idx(x)] - d[idx(y)]).abs()).sum()
            };
            (0..3).min_by(|&i, &j| {
                score(&pairings[i])
                    .partial_cmp(&score(&pairings[j]))
                    .unwrap()
                    .then(i.cmp(&j))
            })
        }
        HCorrection::Correct => {
            // Measured: merge-route each pairing on a scratch copy and
            // compare max skews. The original pairing is already routed;
            // its skews are measured in place.
            let engine = TimingEngine::new(lib);
            let mut measured_skew = |t: &ClockTree, n: TreeNodeId| {
                StageAt::bottom_up(n, options).eval(&engine, t, &mut scratch.report);
                scratch.report.skew()
            };
            let mut scores = [f64::INFINITY; 3];
            scores[0] = measured_skew(tree, a).max(measured_skew(tree, b));
            for (i, pairing) in pairings.iter().enumerate().skip(1) {
                let mut trial = tree.clone();
                trial.detach(a1);
                trial.detach(a2);
                trial.detach(b1);
                trial.detach(b2);
                let mut worst: f64 = 0.0;
                let mut failed = false;
                for &(x, y) in pairing {
                    match mr.merge_pair_with(scratch, &mut trial, x, y) {
                        Ok(out) => worst = worst.max(out.skew_estimate),
                        Err(_) => {
                            failed = true;
                            break;
                        }
                    }
                }
                if !failed {
                    scores[i] = worst;
                }
            }
            (0..3).min_by(|&i, &j| scores[i].partial_cmp(&scores[j]).unwrap().then(i.cmp(&j)))
        }
    }
    .expect("three pairings");

    if choice == 0 {
        // Keep the original pairing: merge a and b directly.
        return mr.merge_pair_with(scratch, tree, a, b);
    }

    // Flip: dissolve the two old merges and rebuild with the chosen pairs.
    tree.detach(a1);
    tree.detach(a2);
    tree.detach(b1);
    tree.detach(b2);
    let pairing = pairings[choice];
    let m1 = mr
        .merge_pair_with(scratch, tree, pairing[0].0, pairing[0].1)?
        .merge_node;
    let m2 = mr
        .merge_pair_with(scratch, tree, pairing[1].0, pairing[1].1)?
        .merge_node;
    let out = mr.merge_pair_with(scratch, tree, m1, m2)?;
    Ok(MergeOutcome {
        flipped: true,
        ..out
    })
}

/// Resolves a sub-tree root to its merge joint, looking through a
/// crowning buffer (the merge-capping rule often places one directly at
/// the merge point): returns the two-child joint whose pairing can be
/// revisited, if any.
fn merge_joint_of(tree: &ClockTree, n: TreeNodeId) -> Option<TreeNodeId> {
    match tree.node(n).kind {
        NodeKind::Joint if tree.node(n).children.len() == 2 => Some(n),
        NodeKind::Buffer { .. } if tree.node(n).children.len() == 1 => {
            let child = tree.node(n).children[0];
            (matches!(tree.node(child).kind, NodeKind::Joint)
                && tree.node(child).children.len() == 2)
                .then_some(child)
        }
        _ => None,
    }
}

fn children2(tree: &ClockTree, n: TreeNodeId) -> (TreeNodeId, TreeNodeId) {
    let c = &tree.node(n).children;
    (c[0], c[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Sink;
    use crate::merge::MergeRouting;
    use cts_geom::Point;
    use cts_timing::fast_library;

    /// Builds the intertwined four-sink configuration of Fig. 2.2: two
    /// existing merges that pair far-apart sinks, so correction should flip.
    fn intertwined_forest() -> (ClockTree, TreeNodeId, TreeNodeId) {
        let lib = fast_library();
        let opts = CtsOptions::default();
        let mr = MergeRouting::new(lib, &opts);
        let mut t = ClockTree::new();
        // Sinks at the corners of a wide rectangle.
        let s = [
            t.add_sink(0, &Sink::new("a", Point::new(0.0, 0.0), 20e-15)),
            t.add_sink(1, &Sink::new("b", Point::new(3000.0, 0.0), 20e-15)),
            t.add_sink(2, &Sink::new("c", Point::new(0.0, 300.0), 20e-15)),
            t.add_sink(3, &Sink::new("d", Point::new(3000.0, 300.0), 20e-15)),
        ];
        // Deliberately bad pairing: diagonal merges (a with d, b with c).
        let m1 = mr
            .merge_pair_with(&mut MergeScratch::new(), &mut t, s[0], s[3])
            .unwrap()
            .merge_node;
        let m2 = mr
            .merge_pair_with(&mut MergeScratch::new(), &mut t, s[1], s[2])
            .unwrap()
            .merge_node;
        (t, m1, m2)
    }

    #[test]
    fn off_mode_never_flips() {
        let lib = fast_library();
        let opts = CtsOptions::default();
        let (mut t, m1, m2) = intertwined_forest();
        let out = merge_with_correction_with(lib, &opts, &mut MergeScratch::new(), &mut t, m1, m2)
            .unwrap();
        assert!(!out.flipped);
        t.validate_under(out.merge_node);
        assert_eq!(t.sinks_under(out.merge_node).len(), 4);
    }

    #[test]
    fn correction_flips_intertwined_pairs() {
        let lib = fast_library();
        let mut opts = CtsOptions::default();
        opts.h_correction = HCorrection::Correct;
        let (mut t, m1, m2) = intertwined_forest();
        let out = merge_with_correction_with(lib, &opts, &mut MergeScratch::new(), &mut t, m1, m2)
            .unwrap();
        // All four sinks must still be reachable regardless of flipping.
        assert_eq!(t.sinks_under(out.merge_node).len(), 4);
        t.validate_under(out.merge_node);
    }

    #[test]
    fn reestimate_runs_and_preserves_sinks() {
        let lib = fast_library();
        let mut opts = CtsOptions::default();
        opts.h_correction = HCorrection::ReEstimate;
        let (mut t, m1, m2) = intertwined_forest();
        let out = merge_with_correction_with(lib, &opts, &mut MergeScratch::new(), &mut t, m1, m2)
            .unwrap();
        assert_eq!(t.sinks_under(out.merge_node).len(), 4);
        t.validate_under(out.merge_node);
    }

    #[test]
    fn non_joint_pairs_skip_correction() {
        let lib = fast_library();
        let mut opts = CtsOptions::default();
        opts.h_correction = HCorrection::Correct;
        let mut t = ClockTree::new();
        let s0 = t.add_sink(0, &Sink::new("a", Point::new(0.0, 0.0), 20e-15));
        let s1 = t.add_sink(1, &Sink::new("b", Point::new(500.0, 0.0), 20e-15));
        let out = merge_with_correction_with(lib, &opts, &mut MergeScratch::new(), &mut t, s0, s1)
            .unwrap();
        assert!(!out.flipped, "sink pairs have no grandchildren to flip");
        assert_eq!(t.sinks_under(out.merge_node).len(), 2);
    }
}
