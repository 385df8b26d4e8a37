//! Sharded batch synthesis with overlapped SPICE verification.
//!
//! The paper evaluates whole benchmark *suites* (Tables 5.1–5.3), and a
//! production deployment synthesizes a queue of independent requests; both
//! reduce to "run N instances through the flow as fast as the hardware
//! allows". [`BatchRunner`] does that in two stages per instance:
//! [`BatchRunner::synth_stage`] runs the synthesizer's one level loop and
//! returns the instance's [`BatchItem`] row, and
//! [`BatchRunner::finish_stage`] fills in its SPICE verification:
//!
//! * **Sharding** — instances are claimed by up to
//!   [`BatchOptions::shards`] workers on the shared [`cts_util`] pool; each
//!   shard owns one [`MergeScratch`], so the maze router's label stores
//!   and grid-dimension cache persist across every instance the shard
//!   processes. The characterized library is shared by
//!   reference — it is built (or loaded from its disk cache) once, not per
//!   shard.
//! * **Overlapped verification** — with
//!   [`BatchOptions::overlap_verify`], finished trees enter a SPICE
//!   verification stage that runs *while later instances are still
//!   synthesizing* ([`cts_util::run_two_stage`]): the expensive transient
//!   simulations no longer serialize behind the last synthesis.
//! * **Determinism** — results come back in input order, and every
//!   per-instance [`CtsResult`] is byte-identical to a serial
//!   [`Synthesizer::synthesize`] call, for every shard count and either
//!   overlap setting. Scratch reuse and scheduling affect wall time only.
//! * **First-error short-circuit** — the returned error is the one a
//!   serial loop over the instances would surface.
//!
//! The per-instance rows ([`BatchItem`]) carry everything a Table 5.1-style
//! report needs; [`BatchSummary`] aggregates the suite (including per-level
//! [`LevelStats`] folded across instances).

use crate::flow::{CtsResult, Synthesizer};
use crate::instance::Instance;
use crate::merge::MergeScratch;
use crate::options::{CtsError, CtsOptions};
use crate::pipeline::{LevelSnapshot, LevelStats};
use crate::variation::VariationSummary;
use crate::verify::{VerifiedTiming, Verifier, VerifyOptions};
use cts_spice::Technology;
use cts_timing::{library_fingerprint, CornerLibraryCache, DelaySlewLibrary};
use cts_util::{resolve_threads, run_parallel_with, run_two_stage};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

// Span taxonomy for the batch stages: tree construction (attr = sink
// count), corner expansion (attr = corner count), and SPICE verification
// (attr = sink count). Telemetry only.
static SPAN_BATCH_SYNTH: cts_obs::Name = cts_obs::Name::new("batch.synth");
static SPAN_BATCH_CORNERS: cts_obs::Name = cts_obs::Name::new("batch.corner_stage");
static SPAN_BATCH_VERIFY: cts_obs::Name = cts_obs::Name::new("batch.verify");

/// Options controlling batch execution. Orthogonal to [`CtsOptions`]: the
/// per-instance flow is configured there; this configures how instances
/// are scheduled.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker shards instances are distributed over: `0` uses every core,
    /// `1` runs the batch serially. Any value yields identical results.
    pub shards: usize,
    /// Pipeline SPICE verification so that verification of finished trees
    /// overlaps with synthesis of later instances. With `false` (and
    /// `verify` on) each shard verifies its own instance right after
    /// synthesizing it. Results are identical either way.
    pub overlap_verify: bool,
    /// Run SPICE verification at all. Off, [`BatchItem::verified`] is
    /// `None` and the summary quality figures fall back to the engine
    /// estimates.
    pub verify: bool,
    /// Options for the verification stage.
    pub verify_options: VerifyOptions,
}

impl Default for BatchOptions {
    fn default() -> BatchOptions {
        BatchOptions {
            shards: 0,
            overlap_verify: true,
            verify: true,
            verify_options: VerifyOptions::default(),
        }
    }
}

/// One instance's outcome within a batch.
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// Instance name (copied from the input).
    pub name: String,
    /// Sink count of the instance.
    pub sinks: usize,
    /// The synthesized tree with engine-estimated metrics — byte-identical
    /// to what a serial [`Synthesizer::synthesize`] call produces.
    pub result: CtsResult,
    /// SPICE-verified timing, when verification is enabled.
    pub verified: Option<VerifiedTiming>,
    /// Monte Carlo corner distribution, when
    /// [`CtsOptions::variation`](crate::CtsOptions) is enabled for this
    /// instance. Bit-identical across shard counts and overlap settings.
    pub variation: Option<VariationSummary>,
    /// Wall time of the synthesis stage (s).
    pub synth_seconds: f64,
    /// Wall time of the verification stage (s); `0` when skipped.
    pub verify_seconds: f64,
}

impl BatchItem {
    /// Worst 10–90 % slew: SPICE-verified when available, else the engine
    /// estimate.
    pub fn worst_slew(&self) -> f64 {
        self.verified
            .as_ref()
            .map_or(self.result.report.worst_slew, |v| v.worst_slew)
    }

    /// Skew: SPICE-verified when available, else the engine estimate.
    pub fn skew(&self) -> f64 {
        self.verified
            .as_ref()
            .map_or(self.result.report.skew(), |v| v.skew)
    }

    /// Max source-to-sink latency: SPICE-verified when available, else the
    /// engine estimate.
    pub fn max_latency(&self) -> f64 {
        self.verified
            .as_ref()
            .map_or(self.result.report.latency, |v| v.max_latency)
    }
}

/// Suite-level aggregation over a batch run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchSummary {
    /// Instances synthesized.
    pub instances: usize,
    /// Total sinks across the suite.
    pub sinks: usize,
    /// Total buffers inserted.
    pub buffers: usize,
    /// Total routed wirelength (µm).
    pub wirelength_um: f64,
    /// Deepest topology (level count) in the suite.
    pub levels_max: usize,
    /// Worst slew across the suite (verified when available).
    pub worst_slew: f64,
    /// Worst skew across the suite (verified when available).
    pub worst_skew: f64,
    /// Largest max-latency across the suite (verified when available).
    pub max_latency: f64,
    /// Per-level statistics folded across instances: counters (pairs,
    /// flippings, buffers) are summed, extrema (skew/latency estimates)
    /// maxed, and `seed_promoted` is true when any instance promoted a
    /// seed at that level.
    pub level_stats: Vec<LevelStats>,
}

impl BatchSummary {
    /// Folds per-instance rows into the suite aggregation. [`BatchRunner`]
    /// does this for its own output; it is public so consumers that
    /// *stream* items — the synthesis service's per-request results — can
    /// produce the same Table 5.1-style summary once their stream is
    /// collected.
    pub fn fold(items: &[BatchItem]) -> BatchSummary {
        let mut s = BatchSummary::default();
        for item in items {
            s.instances += 1;
            s.sinks += item.sinks;
            s.buffers += item.result.buffers;
            s.wirelength_um += item.result.wirelength_um;
            s.levels_max = s.levels_max.max(item.result.levels);
            s.worst_slew = s.worst_slew.max(item.worst_slew());
            s.worst_skew = s.worst_skew.max(item.skew());
            s.max_latency = s.max_latency.max(item.max_latency());
            for ls in &item.result.level_stats {
                if s.level_stats.len() < ls.level {
                    s.level_stats.push(LevelStats {
                        level: ls.level,
                        pairs: 0,
                        seed_promoted: false,
                        flippings: 0,
                        buffers_inserted: 0,
                        worst_skew_estimate: 0.0,
                        max_latency_estimate: 0.0,
                        nodes_total: 0,
                    });
                }
                let agg = &mut s.level_stats[ls.level - 1];
                agg.pairs += ls.pairs;
                agg.seed_promoted |= ls.seed_promoted;
                agg.flippings += ls.flippings;
                agg.buffers_inserted += ls.buffers_inserted;
                agg.worst_skew_estimate = agg.worst_skew_estimate.max(ls.worst_skew_estimate);
                agg.max_latency_estimate = agg.max_latency_estimate.max(ls.max_latency_estimate);
                agg.nodes_total = agg.nodes_total.max(ls.nodes_total);
            }
        }
        s
    }
}

/// Output of a batch run: per-instance rows in **input order** plus the
/// suite summary.
#[derive(Debug, Clone)]
pub struct BatchOutput {
    /// One row per input instance, in input order.
    pub items: Vec<BatchItem>,
    /// The suite-level aggregation.
    pub summary: BatchSummary,
}

/// Runs suites of instances through the synthesize → verify flow, sharded
/// across the worker pool. See the module docs for the guarantees.
///
/// ```no_run
/// use cts_core::{BatchOptions, BatchRunner, CtsOptions, Instance, Sink};
/// use cts_geom::Point;
/// use cts_spice::Technology;
/// use cts_timing::fast_library;
///
/// let suite: Vec<Instance> = (0..8)
///     .map(|k| {
///         let sinks = (0..4)
///             .map(|i| Sink::new(format!("ff{i}"), Point::new(600.0 * i as f64, 0.0), 30e-15))
///             .collect();
///         Instance::new(format!("req{k}"), sinks)
///     })
///     .collect();
/// let tech = Technology::nominal_45nm();
/// let runner = BatchRunner::new(
///     fast_library(),
///     &tech,
///     CtsOptions::default(),
///     BatchOptions::default(),
/// );
/// let out = runner.run(&suite)?;
/// assert_eq!(out.items.len(), 8);
/// println!("suite worst slew: {} ps", out.summary.worst_slew / 1e-12);
/// # Ok::<(), cts_core::CtsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BatchRunner<'a> {
    synth: Synthesizer<'a>,
    tech: &'a Technology,
    batch: BatchOptions,
    /// Shared per-corner library derivations; see
    /// [`BatchRunner::with_corner_cache`].
    corner_cache: Arc<CornerLibraryCache>,
    /// Fingerprint of the base library, computed on first variation use
    /// (serializing the library is not free, and most batches never
    /// enable the axis). Shared across clones of this runner.
    base_fp: Arc<OnceLock<u64>>,
}

impl<'a> BatchRunner<'a> {
    /// Creates a batch runner over a shared library and technology.
    pub fn new(
        lib: &'a DelaySlewLibrary,
        tech: &'a Technology,
        options: CtsOptions,
        batch: BatchOptions,
    ) -> BatchRunner<'a> {
        BatchRunner {
            synth: Synthesizer::new(lib, options),
            tech,
            batch,
            corner_cache: Arc::new(CornerLibraryCache::new()),
            base_fp: Arc::new(OnceLock::new()),
        }
    }

    /// Replaces the corner-library cache with a caller-owned one, so a
    /// long-lived host (the synthesis service) keeps derived corner
    /// libraries warm across batches and can surface hit/miss counts in
    /// its metrics. The cache never affects results — it memoizes a pure
    /// derivation.
    pub fn with_corner_cache(mut self, cache: Arc<CornerLibraryCache>) -> BatchRunner<'a> {
        self.corner_cache = cache;
        self
    }

    /// The corner-library cache in use (shared with clones).
    pub fn corner_cache(&self) -> &Arc<CornerLibraryCache> {
        &self.corner_cache
    }

    fn base_fingerprint(&self) -> u64 {
        *self
            .base_fp
            .get_or_init(|| library_fingerprint(self.synth.library()))
    }

    /// The synthesis stage for one instance: builds the tree with the
    /// shared library (engine-estimated metrics only), times the stage,
    /// and returns the instance's row with `verified: None` and
    /// `verify_seconds: 0.0` for [`BatchRunner::finish_stage`] to fill.
    ///
    /// `options` overrides the runner's [`CtsOptions`] for this instance
    /// (`None` runs with the defaults) — how the synthesis service honors
    /// a request-level override. `on_level`, when given, receives a
    /// [`crate::LevelSnapshot`] copy of the arena after each topology
    /// level's grafts land, which is how the service publishes
    /// level-complete subtrees for mid-synthesis streaming; it is
    /// telemetry-only, so the staged result is bit-identical either way.
    ///
    /// This is the exact stage-1 closure [`BatchRunner::run`] schedules —
    /// public so the long-running [`crate::service::SynthesisService`] can
    /// run *the same code* per request, which is what makes service
    /// results byte-identical to batch and serial results.
    ///
    /// # Errors
    ///
    /// [`CtsError::BadOptions`] / [`CtsError::SlewUnachievable`] from the
    /// synthesis flow.
    pub fn synth_stage(
        &self,
        scratch: &mut MergeScratch,
        instance: &Instance,
        options: Option<CtsOptions>,
        on_level: Option<&mut dyn FnMut(LevelSnapshot)>,
    ) -> Result<BatchItem, CtsError> {
        let t0 = Instant::now();
        let owned;
        let synth = match options {
            None => &self.synth,
            Some(o) => {
                owned = self.synth.with_options(o);
                &owned
            }
        };
        let result = {
            let _span = cts_obs::span_with(&SPAN_BATCH_SYNTH, instance.sinks().len() as u64);
            synth.run_levels(instance, scratch, on_level)?
        };
        let variation = self.corner_stage(synth, instance, &result)?;
        Ok(BatchItem {
            name: instance.name().to_string(),
            sinks: instance.sinks().len(),
            result,
            verified: None,
            variation,
            synth_seconds: t0.elapsed().as_secs_f64(),
            verify_seconds: 0.0,
        })
    }

    /// Expands a finished synthesis into its variation corners (a no-op
    /// returning `None` when the effective options leave the axis off).
    fn corner_stage(
        &self,
        synth: &Synthesizer<'a>,
        instance: &Instance,
        result: &CtsResult,
    ) -> Result<Option<VariationSummary>, CtsError> {
        if synth.options().variation.corners == 0 {
            return Ok(None);
        }
        let _span = cts_obs::span_with(
            &SPAN_BATCH_CORNERS,
            synth.options().variation.corners as u64,
        );
        // A per-request library restriction swaps the queried library out
        // from under the runner; its corner derivations must not share
        // cache keys with the base library's, so fingerprint whatever the
        // synthesizer actually queries (cached for the common base case).
        let fp = if std::ptr::eq(synth.library(), self.synth.library()) {
            self.base_fingerprint()
        } else {
            library_fingerprint(synth.library())
        };
        synth.evaluate_variation_with(instance, result, &self.corner_cache, fp)
    }

    /// The finishing stage for one instance: SPICE verification (when
    /// [`BatchOptions::verify`] is on) of the row
    /// [`BatchRunner::synth_stage`] returned, filling in `verified` and
    /// `verify_seconds`. Stage 2 of the overlapped schedule.
    ///
    /// Verification runs through the caller's [`Verifier`], so one
    /// worker's stream of verifications shares solve plans, and stage
    /// records with the verifier's peers ([`Verifier::peer`]). The
    /// verifier never affects results (warm and cold verification are
    /// bit-identical); it only removes repeated work. [`BatchRunner::run`]
    /// schedules this with one private-store verifier per worker, dropped
    /// when the call returns.
    ///
    /// # Errors
    ///
    /// [`CtsError::Verify`] if the tree fails to simulate.
    pub fn finish_stage(
        &self,
        verifier: &mut Verifier,
        mut item: BatchItem,
    ) -> Result<BatchItem, CtsError> {
        if self.batch.verify {
            let t0 = Instant::now();
            let _span = cts_obs::span_with(&SPAN_BATCH_VERIFY, item.sinks as u64);
            let r = &item.result;
            let v = verifier.verify(&r.tree, r.source, self.tech, &self.batch.verify_options)?;
            item.verified = Some(v);
            item.verify_seconds = t0.elapsed().as_secs_f64();
        }
        Ok(item)
    }

    /// Runs the batch and returns per-instance rows (input order) plus the
    /// suite summary.
    ///
    /// # Errors
    ///
    /// The first error — in instance order, matching a serial loop — from
    /// either stage: [`CtsError::BadOptions`] / [`CtsError::SlewUnachievable`]
    /// out of synthesis, [`CtsError::Verify`] out of verification.
    pub fn run(&self, instances: &[Instance]) -> Result<BatchOutput, CtsError> {
        let shards = resolve_threads(self.batch.shards);
        let items: Vec<BatchItem> = if self.batch.verify && self.batch.overlap_verify {
            // Two-stage: synthesis producers feed the verification
            // consumers; verification of finished trees overlaps with the
            // synthesis of later instances.
            run_two_stage(
                shards,
                instances,
                MergeScratch::new,
                |scratch, instance| self.synth_stage(scratch, instance, None, None),
                Verifier::new,
                |verifier, item, _| self.finish_stage(verifier, item),
            )?
        } else {
            // Fused per-shard loop: each shard synthesizes (and, when
            // enabled, verifies) its own instances, reusing one scratch and
            // one verifier for the shard's whole stream.
            run_parallel_with(
                shards,
                instances,
                || (MergeScratch::new(), Verifier::new()),
                |(scratch, verifier), instance| {
                    let item = self.synth_stage(scratch, instance, None, None)?;
                    self.finish_stage(verifier, item)
                },
            )?
        };

        let summary = BatchSummary::fold(&items);
        Ok(BatchOutput { items, summary })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Sink;
    use cts_geom::Point;
    use cts_timing::fast_library;

    fn tiny_suite(n: usize) -> Vec<Instance> {
        (0..n)
            .map(|k| {
                let sinks = (0..3 + k % 2)
                    .map(|i| {
                        Sink::new(
                            format!("s{i}"),
                            Point::new(500.0 * i as f64 + 37.0 * k as f64, 210.0 * k as f64),
                            22e-15,
                        )
                    })
                    .collect();
                Instance::new(format!("inst{k}"), sinks)
            })
            .collect()
    }

    fn options() -> CtsOptions {
        let mut o = CtsOptions::default();
        o.threads = 1; // batch shards are the parallel axis in these tests
        o
    }

    #[test]
    fn batch_matches_serial_flow() {
        let tech = Technology::nominal_45nm();
        let suite = tiny_suite(4);
        let runner = BatchRunner::new(fast_library(), &tech, options(), BatchOptions::default());
        let out = runner.run(&suite).unwrap();
        assert_eq!(out.items.len(), 4);

        let serial = Synthesizer::new(fast_library(), options());
        for (item, inst) in out.items.iter().zip(&suite) {
            assert_eq!(item.name, inst.name());
            let reference = serial.synthesize(inst).unwrap();
            assert_eq!(item.result.tree, reference.tree);
            assert_eq!(item.result.report, reference.report);
            let v = item.verified.as_ref().expect("verification enabled");
            assert!(v.worst_slew > 0.0);
        }
    }

    #[test]
    fn shard_counts_and_overlap_agree() {
        let tech = Technology::nominal_45nm();
        let suite = tiny_suite(5);
        let mut reference: Option<BatchOutput> = None;
        for shards in [1usize, 3] {
            for overlap_verify in [false, true] {
                let mut batch = BatchOptions::default();
                batch.shards = shards;
                batch.overlap_verify = overlap_verify;
                let runner = BatchRunner::new(fast_library(), &tech, options(), batch);
                let out = runner.run(&suite).unwrap();
                match &reference {
                    None => reference = Some(out),
                    Some(r) => {
                        for (a, b) in r.items.iter().zip(&out.items) {
                            assert_eq!(a.result.tree, b.result.tree);
                            assert_eq!(a.verified, b.verified);
                        }
                        assert_eq!(r.summary, out.summary);
                    }
                }
            }
        }
    }

    #[test]
    fn verification_can_be_skipped() {
        let tech = Technology::nominal_45nm();
        let suite = tiny_suite(2);
        let mut batch = BatchOptions::default();
        batch.verify = false;
        let runner = BatchRunner::new(fast_library(), &tech, options(), batch);
        let out = runner.run(&suite).unwrap();
        assert!(out.items.iter().all(|i| i.verified.is_none()));
        // Quality figures fall back to engine estimates.
        assert!(out.summary.worst_slew > 0.0);
        assert!(out.summary.max_latency > 0.0);
    }

    #[test]
    fn summary_aggregates_levels_and_counts() {
        let tech = Technology::nominal_45nm();
        let suite = tiny_suite(3);
        let mut batch = BatchOptions::default();
        batch.verify = false;
        let runner = BatchRunner::new(fast_library(), &tech, options(), batch);
        let out = runner.run(&suite).unwrap();
        let s = &out.summary;
        assert_eq!(s.instances, 3);
        assert_eq!(s.sinks, out.items.iter().map(|i| i.sinks).sum::<usize>());
        assert_eq!(
            s.buffers,
            out.items.iter().map(|i| i.result.buffers).sum::<usize>()
        );
        assert_eq!(s.levels_max, s.level_stats.len());
        let pairs_direct: usize = out
            .items
            .iter()
            .flat_map(|i| &i.result.level_stats)
            .map(|ls| ls.pairs)
            .sum();
        let pairs_agg: usize = s.level_stats.iter().map(|ls| ls.pairs).sum();
        assert_eq!(pairs_direct, pairs_agg);
    }

    #[test]
    fn variation_corners_ride_along_and_match_serial() {
        use cts_timing::library_fingerprint;

        let tech = Technology::nominal_45nm();
        let suite = tiny_suite(3);
        let mut opts = options();
        opts.variation.corners = 6;
        opts.variation.seed = 99;
        opts.variation.sigma_buffer = 0.1;
        let mut batch = BatchOptions::default();
        batch.verify = false;
        batch.shards = 2;
        let runner = BatchRunner::new(fast_library(), &tech, opts.clone(), batch);
        let out = runner.run(&suite).unwrap();

        let serial = Synthesizer::new(fast_library(), opts);
        let cache = cts_timing::CornerLibraryCache::new();
        let fp = library_fingerprint(fast_library());
        for (item, inst) in out.items.iter().zip(&suite) {
            let nominal = serial.synthesize_unverified(inst).unwrap();
            let reference = serial
                .evaluate_variation_with(inst, &nominal, &cache, fp)
                .unwrap()
                .expect("variation enabled");
            assert_eq!(item.variation.as_ref(), Some(&reference));
            assert_eq!(reference.corners, 6);
            assert!(reference.rows.iter().all(|r| !r.resynthesized));
        }
        // 3 instances × 6 corners = 18 lookups against 6 distinct keys.
        // Racing shards may both derive a key before either inserts it,
        // so only bounds are exact: at least one miss per distinct key,
        // and hits account for the rest.
        let (hits, misses) = (runner.corner_cache().hits(), runner.corner_cache().misses());
        assert_eq!(hits + misses, 18);
        assert!((6..=18).contains(&misses), "misses: {misses}");
        assert_eq!(runner.corner_cache().len(), 6);
    }

    #[test]
    fn first_error_in_instance_order_wins() {
        let tech = Technology::nominal_45nm();
        let suite = tiny_suite(3);
        let mut bad = options();
        bad.slew_target = 0.0; // fails validation on every instance
        let runner = BatchRunner::new(fast_library(), &tech, bad, BatchOptions::default());
        let err = runner.run(&suite).unwrap_err();
        assert!(matches!(err, CtsError::BadOptions(_)));
    }

    #[test]
    fn empty_batch() {
        let tech = Technology::nominal_45nm();
        let runner = BatchRunner::new(fast_library(), &tech, options(), BatchOptions::default());
        let out = runner.run(&[]).unwrap();
        assert!(out.items.is_empty());
        assert_eq!(out.summary, BatchSummary::default());
    }
}
