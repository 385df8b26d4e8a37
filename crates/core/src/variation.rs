//! Monte Carlo corner evaluation: per-corner rows, the yield-style
//! [`VariationSummary`], and the [`Synthesizer`] hook that expands one
//! synthesized instance into N corner evaluations.
//!
//! Determinism contract: corner `k` of an instance is always evaluated
//! under the library derived from `corner_seed(options.variation.seed,
//! k)`, rows are emitted in corner order, and [`VariationSummary::fold`]
//! concatenates partial summaries' rows in argument order before
//! recomputing the distribution stats from scratch — so folding
//! per-shard partials equals folding the flat row list, bit for bit,
//! regardless of shard count or verify overlap.

use crate::engine::TimingEngine;
use crate::flow::{CtsResult, Synthesizer};
use crate::instance::Instance;
use crate::merge::MergeScratch;
use crate::options::{CtsError, VariationMode};
use cts_timing::{corner_seed, CornerLibraryCache, PerturbSigma};

/// One evaluated corner of one instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerRow {
    /// Corner index within the instance's variation config.
    pub corner: usize,
    /// The per-corner stream seed (`corner_seed(config seed, corner)`).
    pub seed: u64,
    /// Engine-estimated sink-to-sink skew under the perturbed library (s).
    pub skew: f64,
    /// Worst sink slew under the perturbed library (s).
    pub worst_slew: f64,
    /// Maximum source-to-sink latency under the perturbed library (s).
    pub latency: f64,
    /// True when the corner re-synthesized the tree
    /// ([`VariationMode::Resynthesize`]) rather than re-timing the
    /// nominal one.
    pub resynthesized: bool,
}

/// Distribution statistics over one metric across corners.
///
/// Quantiles are nearest-rank over the total-order (`f64::total_cmp`)
/// sorted values: `median` averages the two central elements for even
/// N, `p95` is the ceil(0.95 N)-th smallest value. All zero for an
/// empty distribution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DistStats {
    /// Smallest value.
    pub min: f64,
    /// Median (mean of central pair for even N).
    pub median: f64,
    /// 95th percentile, nearest-rank.
    pub p95: f64,
    /// Largest value.
    pub max: f64,
}

impl DistStats {
    /// Stats of `values` (need not be sorted; NaNs order via
    /// [`f64::total_cmp`]). Returns the zero stats for an empty slice.
    pub fn from_values(values: &[f64]) -> DistStats {
        if values.is_empty() {
            return DistStats::default();
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            0.5 * (v[n / 2 - 1] + v[n / 2])
        };
        // Nearest-rank: smallest value with at least 95 % of the mass at
        // or below it. N = 1 → v[0]; N = 2 → v[1]; N = 20 → v[18].
        let rank = (0.95 * n as f64).ceil() as usize;
        DistStats {
            min: v[0],
            median,
            p95: v[rank.max(1) - 1],
            max: v[n - 1],
        }
    }
}

/// The yield view of one instance across its variation corners.
///
/// Carries both the folded distribution statistics and the raw
/// per-corner rows (sorted by corner index), so clients can recompute
/// any quantile themselves.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VariationSummary {
    /// Corners evaluated (`rows.len()`).
    pub corners: usize,
    /// Skew distribution across corners.
    pub skew: DistStats,
    /// Worst-slew distribution across corners.
    pub worst_slew: DistStats,
    /// Latency distribution across corners.
    pub latency: DistStats,
    /// Per-corner rows, ascending corner index.
    pub rows: Vec<CornerRow>,
}

impl VariationSummary {
    /// Builds a summary from per-corner rows (any order; rows are
    /// sorted by corner index first, a stable total order because
    /// corner indices are unique per instance).
    pub fn from_rows(mut rows: Vec<CornerRow>) -> VariationSummary {
        rows.sort_by_key(|r| r.corner);
        let collect = |f: fn(&CornerRow) -> f64| -> Vec<f64> { rows.iter().map(f).collect() };
        VariationSummary {
            corners: rows.len(),
            skew: DistStats::from_values(&collect(|r| r.skew)),
            worst_slew: DistStats::from_values(&collect(|r| r.worst_slew)),
            latency: DistStats::from_values(&collect(|r| r.latency)),
            rows,
        }
    }

    /// Folds partial summaries (e.g. one per shard) into one, exactly
    /// as if all rows had been folded flat: the partials' rows are
    /// concatenated and re-summarized from scratch, so
    /// `fold(&[a, b]) == from_rows(a.rows ++ b.rows)` bit for bit and
    /// the result is independent of how rows were grouped.
    pub fn fold(partials: &[VariationSummary]) -> VariationSummary {
        VariationSummary::from_rows(
            partials
                .iter()
                .flat_map(|p| p.rows.iter().copied())
                .collect(),
        )
    }
}

impl Synthesizer<'_> {
    /// Expands a synthesized instance into its variation corners.
    ///
    /// Returns `Ok(None)` when the variation axis is off
    /// (`options.variation.corners == 0`). Otherwise evaluates every
    /// corner in index order: derive (or fetch from `cache`) the
    /// perturbed library for `corner_seed(seed, k)`, then either re-time
    /// the nominal tree under it ([`VariationMode::Evaluate`]) or run a
    /// full re-synthesis ([`VariationMode::Resynthesize`]). Corners run
    /// serially within this call, so the summary is bit-identical no
    /// matter which shard or worker invokes it.
    ///
    /// `base_fp` must be `library_fingerprint` of this synthesizer's
    /// library; callers compute it once, not per corner.
    ///
    /// # Errors
    ///
    /// [`CtsError`] from a corner's re-synthesis (Resynthesize mode
    /// only; Evaluate mode cannot fail).
    pub fn evaluate_variation_with(
        &self,
        instance: &Instance,
        nominal: &CtsResult,
        cache: &CornerLibraryCache,
        base_fp: u64,
    ) -> Result<Option<VariationSummary>, CtsError> {
        let var = &self.options().variation;
        if var.corners == 0 {
            return Ok(None);
        }
        let sigma = PerturbSigma {
            buffer_delay: var.sigma_buffer,
            wire_delay: var.sigma_wire,
            slew: var.sigma_slew,
        };
        let mut rows = Vec::with_capacity(var.corners);
        let mut scratch = MergeScratch::new();
        for corner in 0..var.corners {
            let seed = corner_seed(var.seed, corner as u64);
            let lib = cache.get_or_derive(self.library(), base_fp, seed, &sigma);
            let (report, resynthesized) = match var.mode {
                VariationMode::Evaluate => {
                    let engine = TimingEngine::new(&lib);
                    (
                        engine.evaluate(&nominal.tree, nominal.source, self.options().source_slew),
                        false,
                    )
                }
                VariationMode::Resynthesize => {
                    let corner_synth = Synthesizer::new(&lib, self.options().clone());
                    let result = corner_synth.run_levels(instance, &mut scratch, None)?;
                    (result.report, true)
                }
            };
            rows.push(CornerRow {
                corner,
                seed,
                skew: report.skew(),
                worst_slew: report.worst_slew,
                latency: report.latency,
                resynthesized,
            });
        }
        Ok(Some(VariationSummary::from_rows(rows)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(corner: usize, v: f64) -> CornerRow {
        CornerRow {
            corner,
            seed: corner as u64,
            skew: v,
            worst_slew: 2.0 * v,
            latency: 3.0 * v,
            resynthesized: false,
        }
    }

    #[test]
    fn dist_stats_edges_match_reference_sort() {
        // N = 1: every quantile is the single value.
        let one = DistStats::from_values(&[4.0]);
        assert_eq!(
            one,
            DistStats {
                min: 4.0,
                median: 4.0,
                p95: 4.0,
                max: 4.0
            }
        );
        // N = 2: median averages, p95 takes the larger.
        let two = DistStats::from_values(&[7.0, 3.0]);
        assert_eq!(
            two,
            DistStats {
                min: 3.0,
                median: 5.0,
                p95: 7.0,
                max: 7.0
            }
        );
        // Ties collapse.
        let ties = DistStats::from_values(&[2.0, 2.0, 2.0, 2.0]);
        assert_eq!(
            ties,
            DistStats {
                min: 2.0,
                median: 2.0,
                p95: 2.0,
                max: 2.0
            }
        );
        // N = 20 nearest-rank p95 is the 19th smallest.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let twenty = DistStats::from_values(&v);
        assert_eq!((twenty.p95, twenty.median), (19.0, 10.5));
        // Empty is all zero.
        assert_eq!(DistStats::from_values(&[]), DistStats::default());
    }

    #[test]
    fn fold_of_partials_equals_flat_fold() {
        let rows: Vec<CornerRow> = (0..17).map(|k| row(k, (k as f64) * 0.7 - 3.0)).collect();
        let flat = VariationSummary::from_rows(rows.clone());
        // Split into uneven "shards" in scrambled order: fold must not
        // care how rows were grouped or ordered.
        let a = VariationSummary::from_rows(rows[10..].to_vec());
        let b = VariationSummary::from_rows(rows[..3].to_vec());
        let c = VariationSummary::from_rows(rows[3..10].to_vec());
        let folded = VariationSummary::fold(&[a, b, c]);
        assert_eq!(folded, flat);
        assert_eq!(folded.corners, 17);
        // Rows come back in corner order.
        assert!(folded.rows.windows(2).all(|w| w[0].corner < w[1].corner));
    }

    #[test]
    fn fold_of_empty_is_default() {
        assert_eq!(VariationSummary::fold(&[]), VariationSummary::default());
        assert_eq!(VariationSummary::from_rows(Vec::new()).corners, 0);
    }
}
