//! The staged, parallel synthesis level loop.
//!
//! The paper's flow (§4.1, Fig. 4.1) is levelized: every topology level
//! pairs up the active sub-tree roots and merge-routes each pair
//! *independently*, which makes the dominant cost — balance + slew-aware
//! maze routing per merge (§4.2) — embarrassingly parallel within a level.
//! Each level runs as explicit stages:
//!
//! 1. **Topology matching** — per-root timing candidates (evaluated in
//!    parallel, order-preserving) feed the farthest-from-centroid greedy
//!    matching.
//! 2. **Per-pair merge-routing** — each matched pair's two sub-trees are
//!    [extracted](ClockTree::extract_forest) into a detached forest and
//!    merged there by a worker from the shared [`cts_util::exec`] pool,
//!    with per-worker [`MergeScratch`] so the maze router and merge engine
//!    reuse allocations across merges. The values derived from the library
//!    and options alone live in one [`MergeRouting`], built once per
//!    synthesis and shared by `&` across every merge and worker.
//! 3. **Graft + H-correction** — the merged forests (H-correction already
//!    applied inside the worker, where its scratch clones are pair-sized
//!    instead of whole-tree-sized) are grafted back into the main arena in
//!    deterministic pair order, so the resulting arena is **bit-identical
//!    for every thread count**.
//! 4. **Level timing** — per-level statistics ([`LevelStats`]) aggregated
//!    from the merge outcomes, surfaced on [`crate::CtsResult`].
//!
//! [`crate::Synthesizer::synthesize`],
//! [`crate::Synthesizer::synthesize_unverified`] and
//! [`crate::Synthesizer::synthesize_unverified_observed`] all run this
//! one loop; the batch driver and the variation axis call it directly
//! with their own [`MergeScratch`].

use crate::engine::{TimingEngine, TimingReport};
use crate::flow::{CtsResult, Synthesizer};
use crate::hcorrect::merge_corrected;
use crate::instance::Instance;
use crate::merge::{Arms, Bisect, MergeOutcome, MergeRouting, MergeScratch, StageAt};
use crate::options::CtsError;
use crate::topology::{find_matching, MatchCandidate, Matching};
use crate::tree::{ClockTree, NodeKind, TreeNodeId};
use cts_timing::{BufferId, DelaySlewLibrary};
use cts_util::{resolve_threads, run_parallel, run_parallel_with};

// Span taxonomy for the pipeline stages (attr = topology level, except
// `pipeline.refine`). Inert single-load checks unless a
// `cts_obs::Recorder` is installed; never feeds back into results.
static SPAN_MATCH: cts_obs::Name = cts_obs::Name::new("pipeline.match_level");
static SPAN_MERGE: cts_obs::Name = cts_obs::Name::new("pipeline.merge_level");
static SPAN_MERGE_PAIR: cts_obs::Name = cts_obs::Name::new("pipeline.merge_pair");
static SPAN_LEVEL_STATS: cts_obs::Name = cts_obs::Name::new("pipeline.level_stats");
static SPAN_GRAFT: cts_obs::Name = cts_obs::Name::new("pipeline.graft");
static SPAN_REFINE: cts_obs::Name = cts_obs::Name::new("pipeline.refine");

/// Per-level statistics from the pipeline's level-timing stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelStats {
    /// Topology level (1 = first merge rank above the sinks).
    pub level: usize,
    /// Pairs merged at this level.
    pub pairs: usize,
    /// Whether an odd root was promoted unmatched (the seed).
    pub seed_promoted: bool,
    /// H-structure pairings flipped at this level.
    pub flippings: usize,
    /// Buffers inserted by this level's merges.
    pub buffers_inserted: usize,
    /// Worst engine-estimated skew over this level's merges (s).
    pub worst_skew_estimate: f64,
    /// Largest engine-estimated sub-tree latency after this level (s).
    pub max_latency_estimate: f64,
    /// Arena node count once this level's grafts have landed — the
    /// level-complete watermark. Every node below this index belongs to
    /// this level or an earlier one, which is what lets a streaming
    /// client chunk a finished tree on level boundaries (the source node
    /// and global refinement mutate *positions and buffer types* of
    /// existing nodes afterwards, never the arena order).
    pub nodes_total: usize,
}

/// A point-in-time, level-complete copy of the growing arena, published
/// by [`Synthesizer::synthesize_unverified_observed`] after each level's
/// grafts land. The nodes form a valid *forest* (the remaining active
/// roots are parentless) that [`ClockTree::from_nodes`] accepts, so a
/// mid-synthesis observer can rebuild and inspect completed levels
/// while upper levels are still merging. Snapshots are copies: later
/// refinement does not retroactively edit them.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelSnapshot {
    /// The arena at the watermark, verbatim (sinks first, then each
    /// level's merge nodes in deterministic pair order).
    pub nodes: Vec<crate::tree::TreeNode>,
    /// Topology levels fully merged and grafted (1 = first merge rank).
    pub levels_done: usize,
    /// Active sub-tree roots still awaiting upper levels.
    pub roots: usize,
}

/// What one worker hands back for a merged pair: the detached forest, the
/// extraction map to graft it with, and the merge outcome.
struct PairMerge {
    forest: ClockTree,
    map: Vec<TreeNodeId>,
    out: MergeOutcome,
}

impl Synthesizer<'_> {
    /// The one synthesis body behind every entry point: checks the
    /// options, runs the levelized flow for `instance` (see the module
    /// docs for the stage breakdown), crowns the tree with its source,
    /// refines it globally, and reports engine-estimated timing.
    ///
    /// On the serial path (`threads <= 1`, or levels with a single pair)
    /// every merge runs through `scratch`, so a caller synthesizing many
    /// instances — the batch driver's per-shard workers — reuses the maze
    /// label stores and grid-dimension cache across instances instead of
    /// reallocating them per level. Parallel levels hand each pool worker
    /// its own scratch. The scratch never affects results.
    ///
    /// `on_level`, when given, is invoked after each level's grafts land
    /// with a [`LevelSnapshot`] copy of the arena at that watermark. The
    /// observer is telemetry-only — the produced tree is bit-identical to
    /// an unobserved run.
    ///
    /// # Errors
    ///
    /// [`CtsError::BadOptions`] for options the library cannot satisfy or
    /// that fail validation, [`CtsError::SlewUnachievable`] when no buffer
    /// can drive some load at the slew target — all three reported before
    /// any level runs — or when a merge cannot meet it.
    pub(crate) fn run_levels(
        &self,
        instance: &Instance,
        scratch: &mut MergeScratch,
        mut on_level: Option<&mut dyn FnMut(LevelSnapshot)>,
    ) -> Result<CtsResult, CtsError> {
        let options = &self.options;
        let nb = self.lib.buffers().len();
        let k = options.library_subset;
        if k > nb {
            return Err(CtsError::BadOptions(format!(
                "library_subset ({k}) exceeds the library's {nb} buffer types"
            )));
        }
        let usable = if k == 0 { nb } else { k };
        if options.virtual_driver.0 >= usable {
            return Err(CtsError::BadOptions(format!(
                "virtual_driver ({}) is outside the usable library of {} buffer types",
                options.virtual_driver.0, usable
            )));
        }
        options.validate()?;
        let lib = self.library();
        let routing = MergeRouting::new(lib, options);
        routing.router.limits()?;
        let threads = resolve_threads(options.threads);

        let mut tree = ClockTree::new();
        let mut active: Vec<TreeNodeId> = instance
            .sinks()
            .iter()
            .enumerate()
            .map(|(i, s)| tree.add_sink(i, s))
            .collect();
        let centroid = instance.sink_centroid();

        let mut levels = 0;
        let mut flippings = 0;
        let mut level_stats = Vec::new();
        let mut topology_seconds = 0.0;
        let mut merge_seconds = 0.0;
        while active.len() > 1 {
            levels += 1;
            let t0 = std::time::Instant::now();
            let matching = {
                let _span = cts_obs::span_with(&SPAN_MATCH, levels as u64);
                match_level(&routing, threads, &tree, &active, centroid)?
            };
            topology_seconds += t0.elapsed().as_secs_f64();
            let t1 = std::time::Instant::now();
            let stats = {
                let _span = cts_obs::span_with(&SPAN_MERGE, levels as u64);
                merge_level(
                    &routing,
                    threads,
                    &mut tree,
                    &mut active,
                    &matching,
                    levels,
                    scratch,
                )?
            };
            merge_seconds += t1.elapsed().as_secs_f64();
            flippings += stats.flippings;
            level_stats.push(stats);
            if let Some(observer) = on_level.as_deref_mut() {
                observer(LevelSnapshot {
                    nodes: tree.nodes().to_vec(),
                    levels_done: levels,
                    roots: active.len(),
                });
            }
        }

        let t2 = std::time::Instant::now();
        let top = active[0];
        let source = tree.add_source(top, routing.strongest);

        // Global refinement: per-merge balancing cannot anticipate the
        // stems and drivers that upper levels later place above each merge,
        // which re-opens small skew gaps; see [`refine_global`].
        let engine = TimingEngine::new(lib);
        {
            let _span = cts_obs::span(&SPAN_REFINE);
            refine_global(&routing, &mut tree, source, &engine);
        }
        merge_seconds += t2.elapsed().as_secs_f64();

        tree.validate_under(source);
        Ok(CtsResult {
            report: engine.evaluate(&tree, source, options.source_slew),
            buffers: tree.buffer_count_under(source),
            wirelength_um: tree.wirelength_under(source),
            buffer_cap_f: buffer_cap_under(&tree, source, lib),
            tree,
            source,
            levels,
            flippings,
            level_stats,
            topology_seconds,
            merge_seconds,
        })
    }
}

/// Stage 1 — topology matching: evaluate every active root's sub-tree
/// delay (in parallel, order preserved) and run the paper's greedy
/// matching heuristic.
fn match_level(
    mr: &MergeRouting<'_>,
    threads: usize,
    tree: &ClockTree,
    active: &[TreeNodeId],
    centroid: cts_geom::Point,
) -> Result<Matching, CtsError> {
    let options = mr.options;
    let candidates: Vec<MatchCandidate> = run_parallel(threads, active, |&root| {
        Ok::<_, CtsError>(MatchCandidate {
            location: tree.node(root).location,
            delay: mr.subtree_delay(tree, root),
        })
    })?;
    find_matching(&candidates, centroid, options.cost_alpha, options.cost_beta)
}

/// Stages 2–4 — merge every matched pair on detached forests (in
/// parallel), graft the results back in deterministic pair order, and
/// aggregate the level's timing statistics. `active` is replaced by the
/// next level's roots.
fn merge_level(
    mr: &MergeRouting<'_>,
    threads: usize,
    tree: &mut ClockTree,
    active: &mut Vec<TreeNodeId>,
    matching: &Matching,
    level: usize,
    scratch: &mut MergeScratch,
) -> Result<LevelStats, CtsError> {
    let jobs: Vec<(TreeNodeId, TreeNodeId)> = matching
        .pairs
        .iter()
        .map(|&(i, j)| (active[i], active[j]))
        .collect();

    // Stage 2 + 3a: merge-route each pair (with its H-correction) on a
    // detached forest. Workers only read the shared arena during
    // extraction; all mutation happens on the private forest.
    let merge_one = |scratch: &mut MergeScratch,
                     tree: &ClockTree,
                     &(a, b): &(TreeNodeId, TreeNodeId)|
     -> Result<PairMerge, CtsError> {
        let _span = cts_obs::span_with(&SPAN_MERGE_PAIR, level as u64);
        let (mut forest, map) = tree.extract_forest(&[a, b]);
        let la = ClockTree::local_id(&map, a);
        let lb = ClockTree::local_id(&map, b);
        let out = merge_corrected(mr, scratch, &mut forest, la, lb)?;
        Ok(PairMerge { forest, map, out })
    };
    let merged: Vec<PairMerge> = {
        let tree: &ClockTree = tree;
        if threads <= 1 || jobs.len() <= 1 {
            // Serial path: run through the caller's scratch, which then
            // persists across levels (and across the instances a batch
            // shard processes).
            jobs.iter()
                .map(|job| merge_one(scratch, tree, job))
                .collect::<Result<_, _>>()?
        } else {
            run_parallel_with(threads, &jobs, MergeScratch::new, |scratch, job| {
                merge_one(scratch, tree, job)
            })?
        }
    };

    // Stage 3b: graft in pair order — arena layout (and therefore the
    // whole downstream flow) is independent of the worker count.
    let mut next: Vec<TreeNodeId> = Vec::with_capacity(active.len() / 2 + 1);
    if let Some(seed) = matching.seed {
        next.push(active[seed]);
    }
    let mut stats = LevelStats {
        level,
        pairs: merged.len(),
        seed_promoted: matching.seed.is_some(),
        flippings: 0,
        buffers_inserted: 0,
        worst_skew_estimate: 0.0,
        max_latency_estimate: 0.0,
        nodes_total: 0,
    };
    // Stage 4 first: the level's statistics are a pure read over the
    // merge outcomes, so they aggregate before grafting consumes the
    // forests — in the same pair order, keeping every fold (including
    // the f64 max folds) arithmetically identical to the old fused
    // loop.
    {
        let _span = cts_obs::span_with(&SPAN_LEVEL_STATS, level as u64);
        for m in &merged {
            stats.flippings += m.out.flipped as usize;
            stats.worst_skew_estimate = stats.worst_skew_estimate.max(m.out.skew_estimate);
            stats.max_latency_estimate = stats.max_latency_estimate.max(m.out.latency_estimate);
            stats.buffers_inserted += m
                .forest
                .ids()
                .skip(m.map.len())
                .filter(|&id| matches!(m.forest.node(id).kind, NodeKind::Buffer { .. }))
                .count();
        }
    }
    {
        let _span = cts_obs::span_with(&SPAN_GRAFT, level as u64);
        for m in merged {
            let global = tree.graft_forest(m.forest, &m.map);
            next.push(global[m.out.merge_node.index()]);
        }
    }
    *active = next;
    stats.nodes_total = tree.len();
    Ok(stats)
}

/// Sums the input capacitance ([`DelaySlewLibrary::input_cap`]) of every
/// buffer under `root`. Traversal order is deterministic (preorder, right
/// child first), so the sum is bit-identical across runs of the same tree.
fn buffer_cap_under(tree: &ClockTree, root: TreeNodeId, lib: &DelaySlewLibrary) -> f64 {
    let mut total = 0.0;
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        let node = tree.node(id);
        if let NodeKind::Buffer { buffer } = node.kind {
            total += lib.input_cap(buffer);
        }
        stack.extend(node.children.iter().copied());
    }
    total
}

/// The strongest (largest) buffer in the library — the source driver.
pub(crate) fn strongest_buffer(lib: &DelaySlewLibrary) -> BufferId {
    lib.buffer_ids()
        .max_by(|&a, &b| {
            lib.buffer(a)
                .size()
                .partial_cmp(&lib.buffer(b).size())
                .unwrap()
        })
        .expect("non-empty buffer library")
}

/// Global skew refinement on the finished tree.
///
/// Per-merge balancing runs before the upper levels exist; the stems and
/// drivers those levels later place above each merge shift its balance
/// point. Two complementary passes repair this *in context*:
///
/// 1. **Joint re-balancing sweeps** — for every two-child joint, re-run
///    the merge's wire redistribution of §4.2.3 (`Arms::rebalance`, with
///    `Bisect::REFINE`) against an evaluation rooted at the joint's true
///    stage driver with its true input slew (redistribution keeps the
///    total wire constant, so nothing above the driver changes), and keep
///    it only where it helps. Fine-grained (sub-ps) control.
/// 2. **Buffer re-typing** along the extreme sinks' root paths, judged on
///    the full-tree evaluation by the merge's trial
///    (`MergeRouting::best_retype`) — the coarse lever for residuals the
///    wire can't reach.
pub(crate) fn refine_global(
    mr: &MergeRouting<'_>,
    tree: &mut ClockTree,
    source: TreeNodeId,
    engine: &TimingEngine<'_>,
) {
    // Reused by every evaluation below: the bisection probes, the
    // full-tree measurement and the re-typing trials all refill it.
    let mut report = TimingReport::default();

    for _round in 0..3 {
        let (rep, slews) = engine.evaluate_annotated(tree, source, mr.options.source_slew);
        if rep.skew() < 2.0e-12 || rep.sink_arrivals.len() < 2 {
            return;
        }

        // --- pass 1: per-joint wire re-balancing in true context -----
        for joint in tree.ids().collect::<Vec<_>>() {
            if !matches!(tree.node(joint).kind, NodeKind::Joint)
                || tree.node(joint).children.len() != 2
            {
                continue;
            }
            // The joint's stage driver: nearest ancestor buffer/source.
            let mut drv = tree.node(joint).parent;
            while let Some(d) = drv {
                if matches!(
                    tree.node(d).kind,
                    NodeKind::Buffer { .. } | NodeKind::Source { .. }
                ) {
                    break;
                }
                drv = tree.node(d).parent;
            }
            let Some(driver_node) = drv else { continue };
            let Some(&driver_slew) = slews.get(&driver_node) else {
                continue;
            };
            let kids = [tree.node(joint).children[0], tree.node(joint).children[1]];
            let arms = Arms::new(tree, kids);
            if arms.total < 4.0 {
                continue;
            }
            let Some(window) = arms
                .window(mr.arm_caps(tree, kids))
                .filter(|(lo, hi)| lo < hi)
            else {
                continue;
            };
            let at = StageAt::at_driver(tree, driver_node, driver_slew);
            let r_now = tree.node(kids[0]).wire_to_parent_um / arms.total;
            let d_now = arms.diff_at(engine, tree, at, &mut report, r_now);
            let (_, residual) =
                arms.rebalance(engine, tree, at, window, &Bisect::REFINE, &mut report);
            // Keep the better of current vs rebalanced; restoring is two
            // wire writes, not another subtree evaluation.
            if residual >= d_now.abs() {
                arms.set(tree, r_now);
            }
        }

        // --- pass 2: buffer re-typing on the extreme paths ------------
        let path_buffers = |tree: &ClockTree, from: TreeNodeId| -> Vec<TreeNodeId> {
            let mut out = Vec::new();
            let mut at = Some(from);
            while let Some(id) = at {
                if matches!(tree.node(id).kind, NodeKind::Buffer { .. }) {
                    out.push(id);
                }
                at = tree.node(id).parent;
            }
            out
        };
        let at = StageAt::at_driver(tree, source, mr.options.source_slew);
        for _iter in 0..24 {
            at.eval(engine, tree, &mut report);
            let skew = report.skew();
            if skew < 2.0e-12 {
                break;
            }
            let fastest = report
                .sink_arrivals
                .iter()
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .expect("sinks present")
                .0;
            let slowest = report
                .sink_arrivals
                .iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .expect("sinks present")
                .0;
            let mut candidates = path_buffers(tree, fastest);
            candidates.extend(path_buffers(tree, slowest));
            candidates.sort_unstable();
            candidates.dedup();

            let mut best: Option<(f64, TreeNodeId, BufferId)> = None;
            for &cand in &candidates {
                let baseline = best.map_or(skew, |(s, _, _)| s);
                if let Some((s, alt)) =
                    mr.best_retype(tree, cand, at, baseline, 0.3e-12, &mut report)
                {
                    best = Some((s, cand, alt));
                }
            }
            match best {
                Some((_, node, alt)) => tree.set_buffer_type(node, alt),
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Sink;
    use crate::options::CtsOptions;
    use cts_geom::Point;
    use cts_timing::fast_library;

    fn line_instance(n: usize, pitch: f64) -> Instance {
        let sinks = (0..n)
            .map(|i| Sink::new(format!("s{i}"), Point::new(i as f64 * pitch, 0.0), 25e-15))
            .collect();
        Instance::new("line", sinks)
    }

    #[test]
    fn pipeline_reports_per_level_stats() {
        let synth = Synthesizer::new(fast_library(), CtsOptions::default());
        let out = synth.synthesize(&line_instance(8, 600.0)).unwrap();
        assert_eq!(out.levels, 3);
        assert_eq!(out.level_stats.len(), 3);
        assert_eq!(out.level_stats[0].pairs, 4);
        assert_eq!(out.level_stats[1].pairs, 2);
        assert_eq!(out.level_stats[2].pairs, 1);
        assert!(out.level_stats.iter().all(|s| !s.seed_promoted));
        // Latency estimates grow as levels stack stages.
        assert!(out.level_stats[2].max_latency_estimate >= out.level_stats[0].max_latency_estimate);
    }

    #[test]
    fn odd_counts_promote_seeds() {
        let synth = Synthesizer::new(fast_library(), CtsOptions::default());
        let out = synth.synthesize(&line_instance(5, 500.0)).unwrap();
        assert!(out.level_stats.iter().any(|s| s.seed_promoted));
        assert_eq!(out.tree.sinks_under(out.source).len(), 5);
    }

    #[test]
    fn thread_counts_agree_bit_for_bit() {
        let inst = line_instance(9, 800.0);
        let mut serial = CtsOptions::default();
        serial.threads = 1;
        let mut wide = CtsOptions::default();
        wide.threads = 4;
        let a = Synthesizer::new(fast_library(), serial)
            .synthesize(&inst)
            .unwrap();
        let b = Synthesizer::new(fast_library(), wide)
            .synthesize(&inst)
            .unwrap();
        assert_eq!(a.tree, b.tree);
        assert_eq!(a.source, b.source);
        assert_eq!(a.level_stats, b.level_stats);
    }

    #[test]
    fn observer_sees_level_complete_forests() {
        let synth = Synthesizer::new(fast_library(), CtsOptions::default());
        let inst = line_instance(8, 600.0);
        let mut snaps = Vec::new();
        let out = synth
            .synthesize_unverified_observed(&inst, &mut MergeScratch::new(), &mut |s| snaps.push(s))
            .unwrap();
        assert_eq!(snaps.len(), out.levels);
        for (snap, stats) in snaps.iter().zip(&out.level_stats) {
            // The snapshot arena sits exactly at the level watermark …
            assert_eq!(snap.nodes.len(), stats.nodes_total);
            assert_eq!(snap.levels_done, stats.level);
            // … and rebuilds as a valid forest whose parentless roots are
            // the level's still-active sub-tree roots.
            let forest = ClockTree::from_nodes(snap.nodes.clone()).unwrap();
            let roots = forest
                .ids()
                .filter(|&id| forest.node(id).parent.is_none())
                .count();
            assert_eq!(roots, snap.roots);
        }
        // Watermarks are strictly increasing; the final one covers every
        // pre-source node of the finished tree.
        assert!(snaps
            .windows(2)
            .all(|w| w[0].nodes.len() < w[1].nodes.len()));
        assert_eq!(snaps.last().unwrap().nodes.len() + 1, out.tree.len());
        // Observing never perturbs the synthesis.
        let plain = synth.synthesize_unverified(&inst).unwrap();
        assert_eq!(plain.tree, out.tree);
        assert_eq!(plain.level_stats, out.level_stats);
    }
}
