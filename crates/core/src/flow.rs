//! The top-level synthesis flow (paper §4.1, Fig. 4.1): levelized topology
//! generation driving merge-routing until a single tree remains.
//!
//! [`Synthesizer`] is the public entry point: [`Synthesizer::synthesize`]
//! (a synonym of [`Synthesizer::synthesize_unverified`]) and
//! [`Synthesizer::synthesize_unverified_observed`] run the one level loop
//! in [`crate::pipeline`] and return library-estimated timing. SPICE
//! verification of the finished netlist is a separate stage
//! ([`crate::verify::verify_tree`], or a warm [`crate::verify::Verifier`]),
//! so callers that process many instances can overlap one instance's
//! verification with the next instance's synthesis (see
//! [`crate::batch::BatchRunner`]).

use crate::engine::TimingReport;
use crate::instance::Instance;
use crate::merge::MergeScratch;
use crate::options::{CtsError, CtsOptions};
use crate::pipeline::{LevelSnapshot, LevelStats};
use crate::tree::{ClockTree, TreeNodeId};
use cts_timing::DelaySlewLibrary;
use std::sync::Arc;

/// A synthesized clock tree with engine-estimated quality metrics.
///
/// The estimates come from the delay library; for paper-grade numbers run
/// [`crate::verify::verify_tree`] on the result, which simulates the actual
/// netlist.
#[derive(Debug, Clone)]
pub struct CtsResult {
    /// The tree (single-rooted, crowned with a source node).
    pub tree: ClockTree,
    /// The source node.
    pub source: TreeNodeId,
    /// Engine-estimated timing of the finished tree.
    pub report: TimingReport,
    /// Topology levels built.
    pub levels: usize,
    /// Total buffers inserted.
    pub buffers: usize,
    /// Total routed wirelength (µm).
    pub wirelength_um: f64,
    /// H-structure pairings flipped (0 when correction is off).
    pub flippings: usize,
    /// Total input capacitance of inserted buffers (F), under the same
    /// cap-matching convention the timing engine uses. The buffer-area
    /// objective of sweep Pareto fronts; `0.0` for unbuffered trees.
    pub buffer_cap_f: f64,
    /// Per-level statistics from the pipeline's level-timing stage.
    pub level_stats: Vec<LevelStats>,
    /// Wall-clock seconds spent in topology matching (candidate timing +
    /// pairing), summed over levels. Telemetry only — it feeds the
    /// service's per-stage sinks/second metrics and never affects results.
    pub topology_seconds: f64,
    /// Wall-clock seconds spent merge-routing and refining. Telemetry only.
    pub merge_seconds: f64,
}

/// The buffered clock tree synthesizer.
///
/// ```no_run
/// use cts_core::{CtsOptions, Instance, Sink, Synthesizer};
/// use cts_geom::Point;
/// use cts_timing::fast_library;
///
/// let sinks = (0..8)
///     .map(|i| Sink::new(format!("ff{i}"), Point::new(500.0 * i as f64, 0.0), 30e-15))
///     .collect();
/// let instance = Instance::new("demo", sinks);
/// let synth = Synthesizer::new(fast_library(), CtsOptions::default());
/// let result = synth.synthesize(&instance)?;
/// assert!(result.report.skew() < result.report.latency);
/// # Ok::<(), cts_core::CtsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Synthesizer<'a> {
    pub(crate) lib: &'a DelaySlewLibrary,
    /// Owned restriction of `lib` when `options.library_subset` names a
    /// strict prefix of its buffer types; `None` means `lib` itself.
    subset: Option<Arc<DelaySlewLibrary>>,
    pub(crate) options: CtsOptions,
}

impl<'a> Synthesizer<'a> {
    /// Creates a synthesizer over a delay library with the given options.
    ///
    /// When `options.library_subset` names a strict prefix of the
    /// library's buffer types, the restricted library is derived once
    /// here and shared by every synthesis this instance runs. An
    /// out-of-range subset is reported by the first `synthesize` call
    /// (as [`CtsError::BadOptions`]), not here, so construction stays
    /// infallible.
    pub fn new(lib: &'a DelaySlewLibrary, options: CtsOptions) -> Synthesizer<'a> {
        let subset = match options.library_subset {
            0 => None,
            k if k >= lib.buffers().len() => None,
            k => lib.subset(k).map(Arc::new),
        };
        Synthesizer {
            lib,
            subset,
            options,
        }
    }

    /// The options in effect.
    pub fn options(&self) -> &CtsOptions {
        &self.options
    }

    /// The delay library synthesis actually queries: the restricted
    /// subset when `options.library_subset` is active, otherwise the
    /// base library (also the base of the variation axis).
    pub(crate) fn library(&self) -> &DelaySlewLibrary {
        self.subset.as_deref().unwrap_or(self.lib)
    }

    /// A synthesizer over the same library with different options — the
    /// hook that lets a long-running service honor per-request option
    /// overrides without re-characterizing anything (the expensive state
    /// is the library, which is shared by reference; only a restricted
    /// subset, when requested, is derived per configuration).
    pub fn with_options(&self, options: CtsOptions) -> Synthesizer<'a> {
        Synthesizer::new(self.lib, options)
    }

    /// Synthesizes a buffered clock tree for `instance`.
    ///
    /// Runs the staged [level loop](crate::pipeline): per-level topology
    /// matching, parallel per-pair merge-routing (`options.threads`
    /// workers; the result is bit-identical for every worker count),
    /// deterministic grafting, and global refinement.
    ///
    /// The result carries *engine-estimated* timing; the SPICE numbers the
    /// paper reports come from the separate
    /// [`verify_tree`](crate::verify::verify_tree) stage.
    /// `synthesize` is a synonym of [`Synthesizer::synthesize_unverified`],
    /// kept as the short name for the common entry point.
    ///
    /// # Errors
    ///
    /// [`CtsError::BadOptions`] for invalid options,
    /// [`CtsError::SlewUnachievable`] when the buffer library cannot meet
    /// the slew target.
    pub fn synthesize(&self, instance: &Instance) -> Result<CtsResult, CtsError> {
        self.synthesize_unverified(instance)
    }

    /// The synthesis stage alone: builds the tree and reports
    /// library-estimated timing, without touching the SPICE simulator.
    ///
    /// # Errors
    ///
    /// [`CtsError::BadOptions`] for invalid options,
    /// [`CtsError::SlewUnachievable`] when the buffer library cannot meet
    /// the slew target.
    pub fn synthesize_unverified(&self, instance: &Instance) -> Result<CtsResult, CtsError> {
        self.run_levels(instance, &mut MergeScratch::new(), None)
    }

    /// [`Synthesizer::synthesize_unverified`] through caller-provided
    /// merge scratch, plus a level observer: `on_level` receives a
    /// [`LevelSnapshot`] copy of the growing arena after each level's
    /// grafts land, so a streaming front end can publish level-complete
    /// subtrees mid-synthesis. Neither the scratch nor the observer
    /// affects results — the produced tree is bit-identical to an
    /// unobserved run.
    ///
    /// # Errors
    ///
    /// As for [`Synthesizer::synthesize_unverified`].
    pub fn synthesize_unverified_observed(
        &self,
        instance: &Instance,
        scratch: &mut MergeScratch,
        on_level: &mut dyn FnMut(LevelSnapshot),
    ) -> Result<CtsResult, CtsError> {
        self.run_levels(instance, scratch, Some(on_level))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Sink;
    use crate::options::HCorrection;
    use cts_geom::Point;
    use cts_spice::units::PS;
    use cts_timing::fast_library;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn grid_instance(nx: usize, ny: usize, pitch: f64) -> Instance {
        let mut sinks = Vec::new();
        for i in 0..nx {
            for j in 0..ny {
                sinks.push(Sink::new(
                    format!("s{i}_{j}"),
                    Point::new(i as f64 * pitch, j as f64 * pitch),
                    25e-15,
                ));
            }
        }
        Instance::new("grid", sinks)
    }

    fn random_instance(n: usize, w: f64, h: f64, seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let sinks = (0..n)
            .map(|i| {
                Sink::new(
                    format!("s{i}"),
                    Point::new(rng.gen_range(0.0..w), rng.gen_range(0.0..h)),
                    rng.gen_range(10e-15..40e-15),
                )
            })
            .collect();
        Instance::new("rand", sinks)
    }

    #[test]
    fn synthesizes_a_grid() {
        let synth = Synthesizer::new(fast_library(), CtsOptions::default());
        let inst = grid_instance(4, 4, 700.0);
        let r = synth.synthesize(&inst).unwrap();
        assert_eq!(r.tree.sinks_under(r.source).len(), 16);
        assert!(r.levels >= 4, "16 sinks need >= 4 levels, got {}", r.levels);
        assert!(
            r.report.worst_slew <= synth.options().slew_limit * 1.1,
            "slew {} ps",
            r.report.worst_slew / PS
        );
        assert!(
            r.report.skew() < 0.10 * r.report.latency.max(50.0 * PS),
            "skew {} ps vs latency {} ps",
            r.report.skew() / PS,
            r.report.latency / PS
        );
    }

    #[test]
    fn synthesizes_random_instances() {
        let synth = Synthesizer::new(fast_library(), CtsOptions::default());
        for seed in 0..3u64 {
            let inst = random_instance(13, 4000.0, 3000.0, seed);
            let r = synth.synthesize(&inst).unwrap();
            assert_eq!(r.tree.sinks_under(r.source).len(), 13);
            assert!(r.report.latency > 0.0);
            assert!(r.wirelength_um > 0.0);
        }
    }

    #[test]
    fn single_sink_instance() {
        let synth = Synthesizer::new(fast_library(), CtsOptions::default());
        let inst = Instance::new(
            "one",
            vec![Sink::new("only", Point::new(10.0, 10.0), 20e-15)],
        );
        let r = synth.synthesize(&inst).unwrap();
        assert_eq!(r.levels, 0);
        assert_eq!(r.tree.sinks_under(r.source).len(), 1);
        assert_eq!(r.report.skew(), 0.0);
    }

    #[test]
    fn coincident_sinks_are_handled() {
        let synth = Synthesizer::new(fast_library(), CtsOptions::default());
        let p = Point::new(100.0, 100.0);
        let inst = Instance::new(
            "stack",
            (0..4)
                .map(|i| Sink::new(format!("s{i}"), p, 20e-15))
                .collect(),
        );
        let r = synth.synthesize(&inst).unwrap();
        assert_eq!(r.tree.sinks_under(r.source).len(), 4);
    }

    #[test]
    fn large_spread_inserts_buffers() {
        let synth = Synthesizer::new(fast_library(), CtsOptions::default());
        let inst = grid_instance(2, 2, 4000.0);
        let r = synth.synthesize(&inst).unwrap();
        assert!(r.buffers > 0, "8 mm spans require along-path buffers");
    }

    #[test]
    fn hcorrection_modes_produce_valid_trees() {
        for mode in [
            HCorrection::Off,
            HCorrection::ReEstimate,
            HCorrection::Correct,
        ] {
            let opts = CtsOptions::builder().h_correction(mode).build().unwrap();
            let synth = Synthesizer::new(fast_library(), opts);
            let inst = random_instance(10, 3000.0, 3000.0, 7);
            let r = synth.synthesize(&inst).unwrap();
            assert_eq!(
                r.tree.sinks_under(r.source).len(),
                10,
                "mode {mode}: sink lost"
            );
            if mode == HCorrection::Off {
                assert_eq!(r.flippings, 0);
            }
        }
    }

    #[test]
    fn determinism_same_seed_same_tree() {
        let synth = Synthesizer::new(fast_library(), CtsOptions::default());
        let inst = random_instance(9, 2500.0, 2500.0, 42);
        let a = synth.synthesize(&inst).unwrap();
        let b = synth.synthesize(&inst).unwrap();
        assert_eq!(a.tree, b.tree);
        assert_eq!(a.report.latency, b.report.latency);
    }

    #[test]
    fn warm_scratch_does_not_change_results() {
        // A batch shard drives many instances through one scratch, and a
        // service worker or a corner sweep drives one scratch through
        // changing options and libraries; the trees must match what
        // fresh-scratch calls produce, bit for bit.
        let sigma = cts_timing::PerturbSigma {
            buffer_delay: 0.05,
            wire_delay: 0.05,
            slew: 0.05,
        };
        let corner = cts_timing::perturb_library(fast_library(), 7, &sigma);
        let base = Synthesizer::new(fast_library(), CtsOptions::default());
        let contexts = [
            base.clone(),
            base.with_options(
                CtsOptions::builder()
                    .slew_target(60.0 * PS)
                    .build()
                    .unwrap(),
            ),
            base.with_options(CtsOptions::builder().library_subset(2).build().unwrap()),
            Synthesizer::new(&corner, CtsOptions::default()),
            base.clone(),
        ];
        let mut scratch = crate::merge::MergeScratch::new();
        for synth in &contexts {
            for seed in 0..3u64 {
                let inst = random_instance(8, 3000.0, 2000.0, seed);
                let warm = synth.run_levels(&inst, &mut scratch, None).unwrap();
                let cold = synth.synthesize(&inst).unwrap();
                assert_eq!(warm.tree, cold.tree);
                assert_eq!(warm.report, cold.report);
                assert_eq!(warm.level_stats, cold.level_stats);
            }
        }
    }

    #[test]
    fn buffer_cap_tracks_inserted_buffers() {
        let synth = Synthesizer::new(fast_library(), CtsOptions::default());
        let r = synth.synthesize(&grid_instance(2, 2, 4000.0)).unwrap();
        assert!(r.buffers > 0);
        assert!(r.buffer_cap_f > 0.0);
        // Unbuffered trees carry zero buffer cap.
        let small = synth.synthesize(&grid_instance(2, 2, 100.0)).unwrap();
        if small.buffers == 0 {
            assert_eq!(small.buffer_cap_f, 0.0);
        }
        // The sum matches a direct walk at the matching convention.
        let mut direct = 0.0;
        let mut stack = vec![r.source];
        while let Some(id) = stack.pop() {
            let node = r.tree.node(id);
            if let crate::tree::NodeKind::Buffer { buffer } = node.kind {
                direct += fast_library().buffer(buffer).stage1_size() * 1.2e-15;
            }
            stack.extend(node.children.iter().copied());
        }
        assert_eq!(r.buffer_cap_f, direct);
    }

    #[test]
    fn library_subset_restricts_and_validates() {
        use cts_timing::BufferId;
        let nb = fast_library().buffers().len();
        let inst = random_instance(9, 4000.0, 3000.0, 11);

        // Full-width subset is the identity: byte-identical trees.
        let full = Synthesizer::new(fast_library(), CtsOptions::default());
        let same = Synthesizer::new(
            fast_library(),
            CtsOptions::builder().library_subset(nb).build().unwrap(),
        );
        let a = full.synthesize(&inst).unwrap();
        let b = same.synthesize(&inst).unwrap();
        assert_eq!(a.tree, b.tree);
        assert_eq!(a.report, b.report);

        // A strict subset only inserts buffers with ids below k.
        let k = nb - 1;
        let sub = full.with_options(CtsOptions::builder().library_subset(k).build().unwrap());
        let r = sub.synthesize(&inst).unwrap();
        for node in (0..r.tree.len()).map(TreeNodeId::from_index) {
            if let crate::tree::NodeKind::Buffer { buffer } = r.tree.node(node).kind {
                assert!(buffer.0 < k, "buffer {buffer} outside subset of {k}");
            }
        }

        // Out-of-range subset / virtual driver are typed errors, not panics.
        let wide = full.with_options(
            CtsOptions::builder()
                .library_subset(nb + 1)
                .build()
                .unwrap(),
        );
        assert!(matches!(
            wide.synthesize(&inst),
            Err(CtsError::BadOptions(_))
        ));
        let bad_driver = full.with_options(
            CtsOptions::builder()
                .library_subset(1)
                .virtual_driver(BufferId(1))
                .build()
                .unwrap(),
        );
        assert!(matches!(
            bad_driver.synthesize(&inst),
            Err(CtsError::BadOptions(_))
        ));
    }

    #[test]
    fn bad_options_rejected() {
        let mut opts = CtsOptions::default();
        opts.slew_target = 0.0;
        let synth = Synthesizer::new(fast_library(), opts);
        let inst = grid_instance(2, 2, 100.0);
        assert!(matches!(
            synth.synthesize(&inst),
            Err(CtsError::BadOptions(_))
        ));
    }
}
