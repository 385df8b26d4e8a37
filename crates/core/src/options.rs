//! Synthesis options and error types.

use cts_timing::BufferId;
use std::fmt;

/// H-structure correction mode (paper §4.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HCorrection {
    /// No correction (the base flow).
    #[default]
    Off,
    /// Method 1: re-estimate the six child-pairing edge costs and pick the
    /// cheapest pairing (cheap, estimate-based).
    ReEstimate,
    /// Method 2: actually merge-route all three pairings and keep the one
    /// with the lowest skew (expensive, measurement-based).
    Correct,
}

impl fmt::Display for HCorrection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HCorrection::Off => write!(f, "off"),
            HCorrection::ReEstimate => write!(f, "re-estimation"),
            HCorrection::Correct => write!(f, "correction"),
        }
    }
}

/// Buffer-insertion strategy used while committing routed merge paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Buffering {
    /// Per-segment greedy insertion (paper §4.2.2): walk the routed path
    /// and place the largest slew-satisfying buffer as late as possible.
    /// The default; results are bit-identical to previous releases.
    #[default]
    Greedy,
    /// Van Ginneken-style bottom-up candidate generation with
    /// (cap, slack)-dominance pruning over the b-type buffer library
    /// (Li & Shi, arXiv:0710.4691): every slew-feasible placement and
    /// sizing is kept as a candidate, dominated candidates are pruned,
    /// and the minimum-arrival survivor is committed.
    VanGinneken,
}

impl fmt::Display for Buffering {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Buffering::Greedy => write!(f, "greedy"),
            Buffering::VanGinneken => write!(f, "van Ginneken"),
        }
    }
}

/// How each variation corner re-evaluates an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VariationMode {
    /// Keep the nominal synthesized tree and re-time it under each
    /// perturbed library: the perturbation only shifts verification.
    /// Cheap — one synthesis plus N timing evaluations.
    #[default]
    Evaluate,
    /// Re-run full synthesis under each perturbed library, so corners
    /// where the perturbation changes buffer-insertion decisions get
    /// the tree those decisions produce. N full syntheses.
    Resynthesize,
}

impl fmt::Display for VariationMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VariationMode::Evaluate => write!(f, "evaluate"),
            VariationMode::Resynthesize => write!(f, "resynthesize"),
        }
    }
}

/// The Monte Carlo variation axis: how many perturbed-library corners
/// to evaluate per instance, and how the perturbation is drawn.
///
/// The default is off (`corners == 0`). With `corners == N`, every
/// synthesized instance is additionally evaluated under N libraries
/// derived from the base library by `cts_timing::perturb_library`,
/// corner `k` using the stream seed `corner_seed(seed, k)`. The sigmas
/// are relative half-widths (`0.1` = up to ±10 %) applied per parameter
/// class. Results fold into a `VariationSummary` whose bytes are
/// identical for every shard/worker configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Variation {
    /// Number of corners to evaluate per instance; `0` disables the axis.
    pub corners: usize,
    /// Base seed of the per-corner perturbation streams.
    pub seed: u64,
    /// Relative half-width on buffer intrinsic-delay surfaces.
    pub sigma_buffer: f64,
    /// Relative half-width on wire-delay surfaces.
    pub sigma_wire: f64,
    /// Relative half-width on slew surfaces.
    pub sigma_slew: f64,
    /// Whether corners re-time the nominal tree or re-synthesize.
    pub mode: VariationMode,
}

impl Default for Variation {
    fn default() -> Variation {
        Variation {
            corners: 0,
            seed: 0,
            sigma_buffer: 0.05,
            sigma_wire: 0.05,
            sigma_slew: 0.05,
            mode: VariationMode::Evaluate,
        }
    }
}

impl Variation {
    /// Upper bound on `corners` accepted by validation — far above any
    /// practical Monte Carlo budget, low enough to catch a garbage
    /// value before it turns into a multi-day service job.
    pub const MAX_CORNERS: usize = 100_000;
}

/// Options controlling the buffered CTS flow.
///
/// Defaults reproduce the paper's experimental setup: 100 ps slew limit
/// with synthesis at 80 ps (§5.1), R = 45 routing grid (§4.2.2), cost
/// weights equal.
#[derive(Debug, Clone, PartialEq)]
pub struct CtsOptions {
    /// Hard slew limit the final tree must honor (s).
    pub slew_limit: f64,
    /// Slew target used during synthesis, leaving margin under the limit
    /// (s). The paper uses 80 ps against a 100 ps limit.
    pub slew_target: f64,
    /// Default routing grid resolution per dimension (the paper's R = 45).
    pub grid_resolution: u32,
    /// Weight of distance in the nearest-neighbor cost (α of eq. 4.1),
    /// in 1/µm (costs are dimensionless).
    pub cost_alpha: f64,
    /// Weight of delay difference in the nearest-neighbor cost (β of
    /// eq. 4.1), in 1/s.
    pub cost_beta: f64,
    /// H-structure correction mode.
    pub h_correction: HCorrection,
    /// Buffer-insertion strategy along routed merge paths.
    pub buffering: Buffering,
    /// 10–90 % slew of the edge presented at the clock source input (s).
    pub source_slew: f64,
    /// Driver type assumed at sub-tree roots during bottom-up construction
    /// (before the real upstream buffer exists).
    pub virtual_driver: BufferId,
    /// Worker threads for the per-level parallel stages (candidate timing
    /// and pair merge-routing): `0` uses all available cores, `1` runs
    /// serially. The synthesized tree is bit-identical for every value —
    /// merges build detached sub-forests that are grafted back in
    /// deterministic pair order.
    pub threads: usize,
    /// Restrict synthesis to the first `k` buffer types of the library;
    /// `0` (the default) uses the full library. Buffer ids keep their
    /// meaning under the truncation, so a tree synthesized against a
    /// subset times identically under the full library. Checked against
    /// the actual library size when synthesis starts (a `k` larger than
    /// the library is a [`CtsError::BadOptions`]).
    pub library_subset: usize,
    /// Monte Carlo corner evaluation under perturbed libraries; off by
    /// default (`corners == 0`).
    pub variation: Variation,
}

impl Default for CtsOptions {
    fn default() -> CtsOptions {
        CtsOptions {
            slew_limit: 100e-12,
            slew_target: 80e-12,
            grid_resolution: 45,
            // Relative weighting: 1 mm of distance ~ 10 ps of delay skew.
            cost_alpha: 1e-3,
            cost_beta: 1e11,
            h_correction: HCorrection::Off,
            buffering: Buffering::Greedy,
            source_slew: 80e-12,
            virtual_driver: BufferId(1),
            threads: 0,
            library_subset: 0,
            variation: Variation::default(),
        }
    }
}

impl CtsOptions {
    /// Upper bound on `grid_resolution` accepted by validation — 11×
    /// the finest grid any caller uses, low enough that a garbage value
    /// is a typed error instead of a maze-label allocation the process
    /// cannot survive (the label grid grows with its square).
    pub const MAX_GRID_RESOLUTION: u32 = 1024;

    /// Starts a [`CtsOptionsBuilder`] from the defaults. The builder
    /// validates ranges at [`CtsOptionsBuilder::build`], so invalid
    /// combinations surface as a typed [`OptionsError`] before any
    /// synthesis work begins.
    pub fn builder() -> CtsOptionsBuilder {
        CtsOptionsBuilder::default()
    }

    /// Typed range validation — the machine-readable form of
    /// [`CtsOptions::validate`].
    ///
    /// # Errors
    ///
    /// Returns the first [`OptionsError`] describing an out-of-range
    /// field (non-positive limits, target above limit, zero or oversized
    /// grid, negative cost weights, too many corners, out-of-range sigmas).
    pub fn check(&self) -> Result<(), OptionsError> {
        if !(self.slew_limit > 0.0) {
            return Err(OptionsError::SlewLimit {
                value: self.slew_limit,
            });
        }
        if !(self.slew_target > 0.0) || self.slew_target > self.slew_limit {
            return Err(OptionsError::SlewTarget {
                target: self.slew_target,
                limit: self.slew_limit,
            });
        }
        if self.grid_resolution == 0 {
            return Err(OptionsError::GridResolution);
        }
        if self.grid_resolution > CtsOptions::MAX_GRID_RESOLUTION {
            return Err(OptionsError::GridTooFine {
                resolution: self.grid_resolution,
                max: CtsOptions::MAX_GRID_RESOLUTION,
            });
        }
        if self.cost_alpha < 0.0 || self.cost_beta < 0.0 {
            return Err(OptionsError::CostWeights);
        }
        if self.variation.corners > Variation::MAX_CORNERS {
            return Err(OptionsError::Corners {
                corners: self.variation.corners,
                max: Variation::MAX_CORNERS,
            });
        }
        for (name, s) in [
            ("sigma_buffer", self.variation.sigma_buffer),
            ("sigma_wire", self.variation.sigma_wire),
            ("sigma_slew", self.variation.sigma_slew),
        ] {
            if !s.is_finite() || !(0.0..=0.5).contains(&s) {
                return Err(OptionsError::Sigma { name, value: s });
            }
        }
        Ok(())
    }

    /// Validates option consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`CtsError::BadOptions`] description if values are
    /// inconsistent (non-positive limits, target above limit, zero grid).
    pub fn validate(&self) -> Result<(), CtsError> {
        self.check()
            .map_err(|e| CtsError::BadOptions(e.to_string()))
    }
}

/// A single out-of-range [`CtsOptions`] field, produced by
/// [`CtsOptions::check`] and [`CtsOptionsBuilder::build`]. Its `Display`
/// text is exactly the message [`CtsError::BadOptions`] carried before
/// this type existed, so wire-visible errors are unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum OptionsError {
    /// `slew_limit` was zero, negative, or NaN.
    SlewLimit {
        /// The offending value (s).
        value: f64,
    },
    /// `slew_target` was outside `(0, slew_limit]`.
    SlewTarget {
        /// The offending target (s).
        target: f64,
        /// The limit it must stay under (s).
        limit: f64,
    },
    /// `grid_resolution` was zero.
    GridResolution,
    /// `grid_resolution` exceeded [`CtsOptions::MAX_GRID_RESOLUTION`].
    GridTooFine {
        /// The requested resolution.
        resolution: u32,
        /// The maximum accepted.
        max: u32,
    },
    /// `cost_alpha` or `cost_beta` was negative.
    CostWeights,
    /// `variation.corners` exceeded [`Variation::MAX_CORNERS`].
    Corners {
        /// The requested corner count.
        corners: usize,
        /// The maximum accepted.
        max: usize,
    },
    /// A variation sigma was NaN or outside `[0, 0.5]`.
    Sigma {
        /// Which sigma field.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for OptionsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptionsError::SlewLimit { value } => {
                write!(f, "slew_limit must be positive, got {value}")
            }
            OptionsError::SlewTarget { target, limit } => {
                write!(
                    f,
                    "slew_target ({target}) must be in (0, slew_limit = {limit}]"
                )
            }
            OptionsError::GridResolution => write!(f, "grid_resolution must be positive"),
            OptionsError::GridTooFine { resolution, max } => {
                write!(
                    f,
                    "grid_resolution ({resolution}) exceeds the maximum of {max}"
                )
            }
            OptionsError::CostWeights => write!(f, "cost weights must be non-negative"),
            OptionsError::Corners { corners, max } => {
                write!(
                    f,
                    "variation.corners ({corners}) exceeds the maximum of {max}"
                )
            }
            OptionsError::Sigma { name, value } => {
                write!(f, "variation.{name} must be in [0, 0.5], got {value}")
            }
        }
    }
}

impl std::error::Error for OptionsError {}

/// With-style builder for [`CtsOptions`], started by
/// [`CtsOptions::builder`] or [`From<CtsOptions>`] to tweak an existing
/// configuration. Setters take the
/// same units as the fields they set; [`CtsOptionsBuilder::build`] runs
/// the full range validation and returns a typed [`OptionsError`]
/// instead of deferring the failure to synthesis.
#[derive(Debug, Clone, Default)]
pub struct CtsOptionsBuilder {
    opts: CtsOptions,
}

impl From<CtsOptions> for CtsOptionsBuilder {
    fn from(opts: CtsOptions) -> CtsOptionsBuilder {
        CtsOptionsBuilder { opts }
    }
}

impl CtsOptionsBuilder {
    /// Hard slew limit the final tree must honor (s).
    pub fn slew_limit(mut self, v: f64) -> Self {
        self.opts.slew_limit = v;
        self
    }

    /// Slew target used during synthesis (s); must stay within the limit.
    pub fn slew_target(mut self, v: f64) -> Self {
        self.opts.slew_target = v;
        self
    }

    /// Routing grid resolution per dimension.
    pub fn grid_resolution(mut self, v: u32) -> Self {
        self.opts.grid_resolution = v;
        self
    }

    /// Weight of distance in the nearest-neighbor cost (1/µm).
    pub fn cost_alpha(mut self, v: f64) -> Self {
        self.opts.cost_alpha = v;
        self
    }

    /// Weight of delay difference in the nearest-neighbor cost (1/s).
    pub fn cost_beta(mut self, v: f64) -> Self {
        self.opts.cost_beta = v;
        self
    }

    /// H-structure correction mode.
    pub fn h_correction(mut self, v: HCorrection) -> Self {
        self.opts.h_correction = v;
        self
    }

    /// Buffer-insertion strategy along routed merge paths.
    pub fn buffering(mut self, v: Buffering) -> Self {
        self.opts.buffering = v;
        self
    }

    /// Slew of the edge presented at the clock source input (s).
    pub fn source_slew(mut self, v: f64) -> Self {
        self.opts.source_slew = v;
        self
    }

    /// Driver type assumed at sub-tree roots during construction.
    pub fn virtual_driver(mut self, v: BufferId) -> Self {
        self.opts.virtual_driver = v;
        self
    }

    /// Worker threads for the per-level parallel stages.
    pub fn threads(mut self, v: usize) -> Self {
        self.opts.threads = v;
        self
    }

    /// Restrict synthesis to the first `k` buffer types (0 = all).
    pub fn library_subset(mut self, v: usize) -> Self {
        self.opts.library_subset = v;
        self
    }

    /// Monte Carlo corner evaluation settings.
    pub fn variation(mut self, v: Variation) -> Self {
        self.opts.variation = v;
        self
    }

    /// Validates and returns the finished options.
    ///
    /// # Errors
    ///
    /// The first [`OptionsError`] describing an out-of-range field.
    pub fn build(self) -> Result<CtsOptions, OptionsError> {
        self.opts.check()?;
        Ok(self.opts)
    }
}

/// Errors from the synthesis flow.
#[derive(Debug, Clone, PartialEq)]
pub enum CtsError {
    /// Options failed validation.
    BadOptions(String),
    /// The slew target cannot be met by any buffer in the library even at
    /// the minimum characterized wire length.
    SlewUnachievable {
        /// Description of where the flow got stuck.
        context: String,
    },
    /// Verification (SPICE) failed.
    Verify(String),
    /// A NaN or infinite value reached a synthesis kernel (a corrupt
    /// coordinate or delay), caught up front instead of panicking inside
    /// a comparison deep in a worker thread.
    NonFinite {
        /// Description of the offending value.
        context: String,
    },
}

impl fmt::Display for CtsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtsError::BadOptions(msg) => write!(f, "invalid CTS options: {msg}"),
            CtsError::SlewUnachievable { context } => {
                write!(
                    f,
                    "slew target unachievable with this buffer library: {context}"
                )
            }
            CtsError::Verify(msg) => write!(f, "verification failed: {msg}"),
            CtsError::NonFinite { context } => {
                write!(f, "non-finite value in synthesis input: {context}")
            }
        }
    }
}

impl std::error::Error for CtsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(CtsOptions::default().validate().is_ok());
    }

    #[test]
    fn target_above_limit_rejected() {
        let mut o = CtsOptions::default();
        o.slew_target = 2.0 * o.slew_limit;
        assert!(matches!(o.validate(), Err(CtsError::BadOptions(_))));
    }

    #[test]
    fn zero_grid_rejected() {
        let mut o = CtsOptions::default();
        o.grid_resolution = 0;
        assert!(o.validate().is_err());
    }

    #[test]
    fn oversized_grid_rejected() {
        let mut o = CtsOptions::default();
        o.grid_resolution = CtsOptions::MAX_GRID_RESOLUTION;
        assert!(o.check().is_ok());
        o.grid_resolution = 100_000;
        let e = o.check().unwrap_err();
        assert_eq!(
            e,
            OptionsError::GridTooFine {
                resolution: 100_000,
                max: CtsOptions::MAX_GRID_RESOLUTION
            }
        );
        assert_eq!(
            e.to_string(),
            "grid_resolution (100000) exceeds the maximum of 1024"
        );
    }

    #[test]
    fn error_display() {
        let e = CtsError::SlewUnachievable {
            context: "merge of a/b".into(),
        };
        assert!(e.to_string().contains("merge of a/b"));
    }

    #[test]
    fn hcorrection_display() {
        assert_eq!(HCorrection::Off.to_string(), "off");
        assert_eq!(HCorrection::Correct.to_string(), "correction");
    }

    #[test]
    fn buffering_display_and_default() {
        assert_eq!(Buffering::default(), Buffering::Greedy);
        assert_eq!(Buffering::Greedy.to_string(), "greedy");
        assert_eq!(Buffering::VanGinneken.to_string(), "van Ginneken");
    }

    #[test]
    fn variation_defaults_off_and_validate() {
        let o = CtsOptions::default();
        assert_eq!(o.variation.corners, 0);
        assert_eq!(o.variation.mode, VariationMode::Evaluate);
        assert!(o.validate().is_ok());

        let mut bad = o.clone();
        bad.variation.sigma_wire = 0.9;
        assert!(matches!(bad.validate(), Err(CtsError::BadOptions(_))));
        let mut bad = o.clone();
        bad.variation.sigma_slew = f64::NAN;
        assert!(bad.validate().is_err());
        let mut bad = o;
        bad.variation.corners = Variation::MAX_CORNERS + 1;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn variation_mode_display() {
        assert_eq!(VariationMode::Evaluate.to_string(), "evaluate");
        assert_eq!(VariationMode::Resynthesize.to_string(), "resynthesize");
    }

    #[test]
    fn builder_validates_ranges() {
        // Negative slew and zero grid each produce the typed
        // error whose Display matches the legacy validate() message.
        let e = CtsOptions::builder().slew_limit(-1.0).build().unwrap_err();
        assert_eq!(e, OptionsError::SlewLimit { value: -1.0 });
        assert_eq!(e.to_string(), "slew_limit must be positive, got -1");

        let e = CtsOptions::builder()
            .grid_resolution(0)
            .build()
            .unwrap_err();
        assert_eq!(e, OptionsError::GridResolution);

        let built = CtsOptions::builder()
            .slew_target(60e-12)
            .threads(1)
            .library_subset(2)
            .build()
            .unwrap();
        assert_eq!(built.slew_target, 60e-12);
        assert_eq!(built.library_subset, 2);
        // validate() and check() agree on the message text.
        let mut o = CtsOptions::default();
        o.slew_target = 2.0 * o.slew_limit;
        let typed = o.check().unwrap_err();
        match o.validate() {
            Err(CtsError::BadOptions(msg)) => assert_eq!(msg, typed.to_string()),
            other => panic!("expected BadOptions, got {other:?}"),
        }
    }

    #[test]
    fn builder_from_existing_options() {
        let base = CtsOptions::builder().threads(3).build().unwrap();
        let tweaked = CtsOptionsBuilder::from(base.clone())
            .slew_target(70e-12)
            .build()
            .unwrap();
        assert_eq!(tweaked.threads, 3);
        assert_eq!(tweaked.slew_target, 70e-12);
        assert_eq!(tweaked.slew_limit, base.slew_limit);
    }

    #[test]
    fn nonfinite_error_display() {
        let e = CtsError::NonFinite {
            context: "candidate 3".into(),
        };
        assert!(e.to_string().contains("candidate 3"));
    }
}
