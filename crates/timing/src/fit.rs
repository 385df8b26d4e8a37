//! Polynomial surface/hyperplane fitting — the Rust equivalent of the
//! paper's MATLAB surface fits (Figs. 3.4, 3.6, 3.7).
//!
//! The delay library stores each characterized quantity as a low-order
//! polynomial in the sweep variables: `(input slew, wire length)` for
//! single-wire components, `(input slew, left length, right length)` for
//! branch components. Inputs are standardized (zero mean, unit variance per
//! dimension) before fitting so the normal equations stay well conditioned,
//! and queries are clamped to the characterized domain — extrapolating a
//! cubic outside its data is how timing models go wrong silently.

use crate::linalg::{least_squares, Matrix};
use std::fmt;

/// Largest number of input variables a [`PolyFit`] accepts. The library
/// needs two (single-wire surfaces) and three (branch volumes), and
/// [`PolyFit::eval`] standardizes queries into a stack array of this size.
pub const MAX_DIMS: usize = 3;

/// Largest total polynomial degree a [`PolyFit`] accepts. The library fits
/// cubics at most; the bound keeps a damaged cache record from requesting
/// an astronomically large monomial basis.
pub const MAX_ORDER: u32 = 8;

/// Error returned when a polynomial fit cannot be computed.
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// Fewer samples than polynomial coefficients.
    TooFewSamples {
        /// Samples provided.
        samples: usize,
        /// Coefficients required by the requested order.
        needed: usize,
    },
    /// The design matrix was rank deficient (e.g. all samples identical in
    /// one dimension).
    Degenerate,
    /// A sample contained a non-finite coordinate or value.
    NonFiniteSample,
    /// The requested total degree exceeds [`MAX_ORDER`].
    OrderTooHigh {
        /// The requested degree.
        order: u32,
    },
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::TooFewSamples { samples, needed } => write!(
                f,
                "too few samples for fit: {samples} provided, {needed} needed"
            ),
            FitError::Degenerate => write!(f, "design matrix is rank deficient"),
            FitError::NonFiniteSample => write!(f, "samples must be finite"),
            FitError::OrderTooHigh { order } => {
                write!(
                    f,
                    "polynomial order {order} exceeds the maximum {MAX_ORDER}"
                )
            }
        }
    }
}

impl std::error::Error for FitError {}

/// Monomial powers for a full polynomial basis of total degree `order` in
/// `dims` variables. Each term is padded to [`MAX_DIMS`] with zero powers
/// past `dims`, so a basis is one flat allocation that `eval` walks
/// without chasing a pointer per term.
fn basis_powers(dims: usize, order: u32) -> Vec<[u32; MAX_DIMS]> {
    fn rec(
        dims: usize,
        idx: usize,
        left: u32,
        current: &mut [u32; MAX_DIMS],
        out: &mut Vec<[u32; MAX_DIMS]>,
    ) {
        if idx == dims {
            out.push(*current);
            return;
        }
        for p in 0..=left {
            current[idx] = p;
            rec(dims, idx + 1, left - p, current, out);
        }
        current[idx] = 0;
    }
    let mut out = Vec::new();
    rec(dims, 0, order, &mut [0; MAX_DIMS], &mut out);
    out
}

/// Per-dimension standardization parameters.
#[derive(Debug, Clone, PartialEq)]
struct Standardizer {
    mean: Vec<f64>,
    scale: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl Standardizer {
    fn from_samples(dims: usize, points: &[Vec<f64>]) -> Standardizer {
        let n = points.len() as f64;
        let mut mean = vec![0.0; dims];
        let mut lo = vec![f64::INFINITY; dims];
        let mut hi = vec![f64::NEG_INFINITY; dims];
        for p in points {
            for d in 0..dims {
                mean[d] += p[d];
                lo[d] = lo[d].min(p[d]);
                hi[d] = hi[d].max(p[d]);
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut scale = vec![0.0; dims];
        for p in points {
            for d in 0..dims {
                scale[d] += (p[d] - mean[d]).powi(2);
            }
        }
        for s in &mut scale {
            *s = (*s / n).sqrt().max(1e-12);
        }
        Standardizer {
            mean,
            scale,
            lo,
            hi,
        }
    }

    /// Clamps query coordinate `v` of dimension `d` to the fitted domain
    /// and standardizes it.
    fn standardize(&self, d: usize, v: f64) -> f64 {
        (v.clamp(self.lo[d], self.hi[d]) - self.mean[d]) / self.scale[d]
    }

    /// Standardizes a fitting sample (no clamping: samples define the
    /// domain).
    fn apply(&self, x: &[f64]) -> Vec<f64> {
        x.iter()
            .enumerate()
            .map(|(d, &v)| (v - self.mean[d]) / self.scale[d])
            .collect()
    }
}

/// A fitted polynomial in `D` variables with domain clamping.
///
/// Build one with [`PolyFit::fit`]; evaluate with [`PolyFit::eval`].
///
/// ```
/// use cts_timing::fit::PolyFit;
/// // z = 1 + 2x + 3y, sampled on a grid.
/// let mut pts = Vec::new();
/// let mut vals = Vec::new();
/// for i in 0..5 {
///     for j in 0..5 {
///         let (x, y) = (i as f64, j as f64);
///         pts.push(vec![x, y]);
///         vals.push(1.0 + 2.0 * x + 3.0 * y);
///     }
/// }
/// let fit = PolyFit::fit(2, 2, &pts, &vals)?;
/// assert!((fit.eval(&[2.0, 2.0]) - 11.0).abs() < 1e-8);
/// # Ok::<(), cts_timing::fit::FitError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PolyFit {
    dims: usize,
    order: u32,
    powers: Vec<[u32; MAX_DIMS]>,
    coefs: Vec<f64>,
    std: Standardizer,
    max_abs_residual: f64,
    rms_residual: f64,
}

impl PolyFit {
    /// Fits a full polynomial of total degree `order` in `dims` variables to
    /// the samples `(points[i], values[i])` by least squares.
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] if `order` exceeds [`MAX_ORDER`], there are
    /// fewer samples than coefficients, samples are non-finite, or the
    /// design matrix is rank deficient.
    ///
    /// # Panics
    ///
    /// Panics if any point has the wrong dimensionality, or if `dims` is
    /// not in `1..=`[`MAX_DIMS`].
    pub fn fit(
        dims: usize,
        order: u32,
        points: &[Vec<f64>],
        values: &[f64],
    ) -> Result<PolyFit, FitError> {
        assert!(
            (1..=MAX_DIMS).contains(&dims),
            "dims must be in 1..={MAX_DIMS}, got {dims}"
        );
        assert_eq!(points.len(), values.len(), "points/values must match");
        for p in points {
            assert_eq!(p.len(), dims, "point dimensionality mismatch");
        }
        if points
            .iter()
            .flat_map(|p| p.iter())
            .chain(values.iter())
            .any(|v| !v.is_finite())
        {
            return Err(FitError::NonFiniteSample);
        }
        if order > MAX_ORDER {
            return Err(FitError::OrderTooHigh { order });
        }
        let powers = basis_powers(dims, order);
        if points.len() < powers.len() {
            return Err(FitError::TooFewSamples {
                samples: points.len(),
                needed: powers.len(),
            });
        }
        let std = Standardizer::from_samples(dims, points);
        let design = Matrix::from_fn(points.len(), powers.len(), |r, c| {
            let x = std.apply(&points[r]);
            monomial(&x, &powers[c])
        });
        let coefs = least_squares(&design, values).ok_or(FitError::Degenerate)?;

        let mut max_abs = 0.0f64;
        let mut sum_sq = 0.0f64;
        let predictions = design.mul_vec(&coefs);
        for (pred, &truth) in predictions.iter().zip(values) {
            let e = (pred - truth).abs();
            max_abs = max_abs.max(e);
            sum_sq += e * e;
        }
        let rms = (sum_sq / values.len() as f64).sqrt();

        Ok(PolyFit {
            dims,
            order,
            powers,
            coefs,
            std,
            max_abs_residual: max_abs,
            rms_residual: rms,
        })
    }

    /// Evaluates the polynomial at `x`, clamping each coordinate to the
    /// fitted domain (no extrapolation).
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimensionality.
    pub fn eval(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dims, "query dimensionality mismatch");
        // Everything lives on the stack: this runs inside the maze router's
        // wavefront, so it must not allocate. Each standardized coordinate
        // is raised to each power once, into `pw[d][k]`; a term then reads
        // its factors instead of recomputing them.
        let mut pw = [[0.0; POWERS]; MAX_DIMS];
        for (d, (row, &v)) in pw.iter_mut().zip(x).enumerate() {
            fill_powers(self.std.standardize(d, v), &mut row[..=self.order as usize]);
        }
        let pw = &pw[..self.dims];
        self.powers
            .iter()
            .zip(&self.coefs)
            .map(|(p, c)| {
                c * pw
                    .iter()
                    .zip(p)
                    .fold(1.0, |m, (row, &k)| m * row[k as usize])
            })
            .sum()
    }

    /// This 2-D fit with its first input fixed at `x0`: a curve in the
    /// second input whose [`PinnedFit::eval`] returns exactly
    /// `self.eval(&[x0, x1])`. The pinned coordinate is clamped,
    /// standardized and raised to each term's power once, here.
    ///
    /// # Panics
    ///
    /// Panics unless the fit has two dimensions.
    pub(crate) fn pinned(&self, x0: f64) -> PinnedFit {
        assert_eq!(self.dims, 2, "only a 2-D fit can be pinned");
        let z0 = self.std.standardize(0, x0);
        let terms = self
            .powers
            .iter()
            .zip(&self.coefs)
            .map(|(p, &c)| (c, z0.powi(p[0] as i32), p[1]))
            .collect();
        PinnedFit {
            order: self.order,
            lo: self.std.lo[1],
            hi: self.std.hi[1],
            mean: self.std.mean[1],
            scale: self.std.scale[1],
            terms,
        }
    }

    /// A copy of this fit with every coefficient (and the residual
    /// statistics) multiplied by `factor`, so the surface's output is
    /// scaled by `factor` over the entire domain. `factor == 1.0`
    /// reproduces `self` bit-identically (`x * 1.0 == x` for finite
    /// coefficients), which the variation axis relies on for the
    /// sigma-zero case.
    pub(crate) fn scaled(&self, factor: f64) -> PolyFit {
        PolyFit {
            dims: self.dims,
            order: self.order,
            powers: self.powers.clone(),
            coefs: self.coefs.iter().map(|c| c * factor).collect(),
            std: self.std.clone(),
            max_abs_residual: self.max_abs_residual * factor.abs(),
            rms_residual: self.rms_residual * factor.abs(),
        }
    }

    /// Number of input variables.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Total polynomial degree.
    pub fn order(&self) -> u32 {
        self.order
    }

    /// Largest absolute residual over the fitting samples.
    pub fn max_abs_residual(&self) -> f64 {
        self.max_abs_residual
    }

    /// Root-mean-square residual over the fitting samples.
    pub fn rms_residual(&self) -> f64 {
        self.rms_residual
    }

    /// The fitted domain: per-dimension `(lo, hi)` bounds that queries are
    /// clamped to.
    pub fn domain(&self) -> Vec<(f64, f64)> {
        (0..self.dims)
            .map(|d| (self.std.lo[d], self.std.hi[d]))
            .collect()
    }

    // -- (de)serialization support for the library's text format ----------

    /// The fit's whole state as one flat record: `[dims, order]`, the
    /// per-dimension mean, scale, lower and upper bound, the max-abs and
    /// RMS residuals, then the coefficients. The library's text format
    /// stores this layout, and fits with equal records evaluate
    /// identically.
    pub fn to_record(&self) -> Vec<f64> {
        let mut rec = vec![self.dims as f64, self.order as f64];
        rec.extend(self.std.mean.iter());
        rec.extend(self.std.scale.iter());
        rec.extend(self.std.lo.iter());
        rec.extend(self.std.hi.iter());
        rec.push(self.max_abs_residual);
        rec.push(self.rms_residual);
        rec.extend(self.coefs.iter());
        rec
    }

    /// Rebuilds a fit from [`PolyFit::to_record`]'s layout, or `None` if
    /// the record is malformed. The header is validated before the
    /// monomial basis is built, so a damaged record cannot request a huge
    /// basis.
    pub(crate) fn from_record(rec: &[f64]) -> Option<PolyFit> {
        let (&dims, &order) = (rec.first()?, rec.get(1)?);
        let integral_in = |v: f64, lo: f64, hi: f64| v.trunc() == v && (lo..=hi).contains(&v);
        if !integral_in(dims, 1.0, MAX_DIMS as f64)
            || !integral_in(order, 0.0, f64::from(MAX_ORDER))
        {
            return None;
        }
        let (dims, order) = (dims as usize, order as u32);
        let powers = basis_powers(dims, order);
        let need = 2 + 4 * dims + 2 + powers.len();
        if rec.len() != need {
            return None;
        }
        let mut it = rec[2..].iter().copied();
        let mut take = |n: usize| -> Vec<f64> { (&mut it).take(n).collect() };
        let mean = take(dims);
        let scale = take(dims);
        let lo = take(dims);
        let hi = take(dims);
        // `eval` clamps into [lo, hi], which panics on an inverted or NaN
        // bound; refuse such a domain here instead.
        if lo.iter().zip(&hi).any(|(l, h)| !(l <= h)) {
            return None;
        }
        let max_abs_residual = it.next()?;
        let rms_residual = it.next()?;
        let coefs: Vec<f64> = it.collect();
        Some(PolyFit {
            dims,
            order,
            powers,
            coefs,
            std: Standardizer {
                mean,
                scale,
                lo,
                hi,
            },
            max_abs_residual,
            rms_residual,
        })
    }
}

/// Length of a per-dimension power table: exponents `0..=MAX_ORDER`.
const POWERS: usize = MAX_ORDER as usize + 1;

/// `row[k] = z.powi(k)`: the exact factors [`monomial`] would compute.
/// Powers 0 and 1 are written directly (`powi` returns exactly `1.0` and
/// `z` for them); higher ones keep `powi`, so the table matches the
/// platform's `powi` bit for bit wherever it runs.
fn fill_powers(z: f64, row: &mut [f64]) {
    for (k, p) in row.iter_mut().enumerate() {
        *p = match k {
            0 => 1.0,
            1 => z,
            _ => z.powi(k as i32),
        };
    }
}

/// A 2-D [`PolyFit`] with its first input fixed ([`PolyFit::pinned`]).
///
/// Each term keeps its coefficient, its pinned factor `z0^p0` and its
/// second power `p1`; [`PinnedFit::eval`] forms `c * (z0^p0 * z1^p1)`,
/// which is the fold [`monomial`] computes (`1.0 * a == a` exactly), and
/// sums the terms in basis order, so the result is bit-identical to the
/// full evaluation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PinnedFit {
    order: u32,
    lo: f64,
    hi: f64,
    mean: f64,
    scale: f64,
    terms: Vec<(f64, f64, u32)>,
}

impl PinnedFit {
    /// The fit at `(x0, x1)`, `x0` being the pinned input.
    pub(crate) fn eval(&self, x1: f64) -> f64 {
        let z1 = (x1.clamp(self.lo, self.hi) - self.mean) / self.scale;
        let mut pw = [0.0; POWERS];
        fill_powers(z1, &mut pw[..=self.order as usize]);
        self.terms
            .iter()
            .map(|&(c, a, k)| c * (a * pw[k as usize]))
            .sum()
    }
}

fn monomial(x: &[f64], powers: &[u32]) -> f64 {
    x.iter()
        .zip(powers)
        .map(|(v, &p)| v.powi(p as i32))
        .product()
}

#[cfg(test)]
impl PolyFit {
    /// The heap-allocating evaluation [`PolyFit::eval`] replaced, kept
    /// verbatim so tests can pin the stack version to it bit for bit.
    pub(crate) fn eval_reference(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dims, "query dimensionality mismatch");
        let z: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(d, &v)| {
                let v = v.clamp(self.std.lo[d], self.std.hi[d]);
                (v - self.std.mean[d]) / self.std.scale[d]
            })
            .collect();
        self.powers
            .iter()
            .zip(&self.coefs)
            .map(|(p, c)| c * monomial(&z, p))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basis_sizes() {
        assert_eq!(basis_powers(2, 3).len(), 10); // full bivariate cubic
        assert_eq!(basis_powers(2, 4).len(), 15);
        assert_eq!(basis_powers(3, 2).len(), 10); // trivariate quadratic
        assert_eq!(basis_powers(1, 4).len(), 5);
    }

    #[test]
    fn fits_exact_cubic_surface() {
        let f =
            |x: f64, y: f64| 0.5 - x + 2.0 * y + 0.25 * x * x - 0.1 * x * y * y + 0.03 * x * x * x;
        let mut pts = Vec::new();
        let mut vals = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                let (x, y) = (i as f64 * 0.7, j as f64 * 1.3 + 2.0);
                pts.push(vec![x, y]);
                vals.push(f(x, y));
            }
        }
        let fit = PolyFit::fit(2, 3, &pts, &vals).unwrap();
        assert!(
            fit.max_abs_residual() < 1e-8,
            "residual {}",
            fit.max_abs_residual()
        );
        assert!((fit.eval(&[1.05, 3.3]) - f(1.05, 3.3)).abs() < 1e-7);
    }

    #[test]
    fn clamps_outside_domain() {
        let pts: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let vals: Vec<f64> = (0..10).map(|i| i as f64 * 2.0).collect();
        let fit = PolyFit::fit(1, 1, &pts, &vals).unwrap();
        // Queries beyond the domain return the edge value, not extrapolation.
        assert!((fit.eval(&[100.0]) - fit.eval(&[9.0])).abs() < 1e-9);
        assert!((fit.eval(&[-5.0]) - fit.eval(&[0.0])).abs() < 1e-9);
    }

    #[test]
    fn too_few_samples_is_an_error() {
        let pts = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        let vals = vec![0.0, 1.0];
        match PolyFit::fit(2, 3, &pts, &vals) {
            Err(FitError::TooFewSamples {
                needed: 10,
                samples: 2,
            }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn degenerate_samples_are_an_error() {
        // All x identical: can't identify x coefficients.
        let pts: Vec<Vec<f64>> = (0..12).map(|i| vec![5.0, i as f64]).collect();
        let vals: Vec<f64> = (0..12).map(|i| i as f64).collect();
        assert!(matches!(
            PolyFit::fit(2, 2, &pts, &vals),
            Err(FitError::Degenerate) | Ok(_)
        ));
        // (Standardization may still let the fit through with ~zero scale;
        // if it does, evaluation must at least reproduce the samples.)
        if let Ok(fit) = PolyFit::fit(2, 2, &pts, &vals) {
            assert!(fit.rms_residual() < 1e-6);
        }
    }

    #[test]
    fn non_finite_rejected() {
        let pts = vec![vec![f64::NAN], vec![1.0]];
        let vals = vec![0.0, 1.0];
        assert_eq!(
            PolyFit::fit(1, 1, &pts, &vals),
            Err(FitError::NonFiniteSample)
        );
    }

    #[test]
    fn record_roundtrip() {
        let pts: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64 * 0.3, (i % 5) as f64])
            .collect();
        let vals: Vec<f64> = pts.iter().map(|p| 1.0 + p[0] * p[1]).collect();
        let fit = PolyFit::fit(2, 2, &pts, &vals).unwrap();
        let rec = fit.to_record();
        let back = PolyFit::from_record(&rec).unwrap();
        assert_eq!(fit, back);
        assert!(PolyFit::from_record(&rec[..rec.len() - 1]).is_none());
    }

    #[test]
    fn record_header_is_validated_before_the_basis_is_built() {
        let pts: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64 * 0.3, (i % 5) as f64])
            .collect();
        let vals: Vec<f64> = pts.iter().map(|p| 1.0 + p[0] * p[1]).collect();
        let rec = PolyFit::fit(2, 2, &pts, &vals).unwrap().to_record();
        let with_header = |dims: f64, order: f64| {
            let mut r = rec.clone();
            r[0] = dims;
            r[1] = order;
            r
        };
        // dims 30 / order 30 would enumerate ~10^16 monomials.
        assert!(PolyFit::from_record(&[30.0, 30.0, 0.0]).is_none());
        assert!(PolyFit::from_record(&with_header(0.0, 2.0)).is_none());
        assert!(PolyFit::from_record(&with_header(4.0, 2.0)).is_none());
        assert!(PolyFit::from_record(&with_header(2.5, 2.0)).is_none());
        assert!(PolyFit::from_record(&with_header(f64::NAN, 2.0)).is_none());
        assert!(PolyFit::from_record(&with_header(2.0, 1.5)).is_none());
        assert!(PolyFit::from_record(&with_header(2.0, -1.0)).is_none());
        assert!(PolyFit::from_record(&with_header(2.0, f64::INFINITY)).is_none());
        assert!(PolyFit::from_record(&with_header(2.0, (MAX_ORDER + 1) as f64)).is_none());
        assert!(PolyFit::from_record(&[2.0]).is_none());
        // Domain bounds sit at record[2 + 2*dims ..]: lo then hi.
        let mut inverted = rec.clone();
        inverted.swap(6, 8);
        assert!(PolyFit::from_record(&inverted).is_none());
        let mut nan_bound = rec.clone();
        nan_bound[7] = f64::NAN;
        assert!(PolyFit::from_record(&nan_bound).is_none());
        assert!(PolyFit::from_record(&with_header(2.0, 2.0)).is_some());
    }

    #[test]
    fn order_above_the_bound_is_an_error() {
        let pts: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let vals = vec![0.0; 100];
        assert_eq!(
            PolyFit::fit(1, MAX_ORDER + 1, &pts, &vals),
            Err(FitError::OrderTooHigh {
                order: MAX_ORDER + 1
            })
        );
    }

    #[test]
    #[should_panic(expected = "dims must be in 1..=3")]
    fn fit_rejects_too_many_dims() {
        let pts: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64; 4]).collect();
        let vals = vec![0.0; 40];
        let _ = PolyFit::fit(4, 1, &pts, &vals);
    }

    /// Fits of every dimensionality and order the kernel supports, on
    /// jittered grids of `order + 2` samples per dimension (always at least
    /// as many samples as coefficients), paired with their query points:
    /// interior, on every domain corner, and clamped in from outside.
    fn kernel_cases() -> Vec<(PolyFit, Vec<Vec<f64>>)> {
        let mut cases = Vec::new();
        for dims in 1..=MAX_DIMS {
            for order in 1..=MAX_ORDER {
                let n = order as usize + 2;
                let mut points = vec![Vec::new()];
                for d in 0..dims {
                    points = points
                        .iter()
                        .flat_map(|p| {
                            (0..n).map(move |i| {
                                let jitter = 0.1 * ((i * 7 + d * 4) % 5) as f64;
                                let mut q = p.clone();
                                q.push((d + 1) as f64 * 100.0 * (i as f64 + jitter));
                                q
                            })
                        })
                        .collect();
                }
                // Not separable: mixed terms carry real weight, so a
                // reassociated product shows in the sum.
                let values: Vec<f64> = points
                    .iter()
                    .map(|p| {
                        let s: f64 = p.iter().map(|v| v * 1e-3).sum();
                        let prod: f64 = p.iter().map(|v| 1.0 + v * 1e-3).product();
                        s.sin() + 0.1 * prod
                    })
                    .collect();
                let fit = PolyFit::fit(dims, order, &points, &values)
                    .unwrap_or_else(|e| panic!("dims {dims} order {order}: {e}"));
                let domain = fit.domain();
                let mut queries: Vec<Vec<f64>> = (0..=8)
                    .map(|i| {
                        let t = |d: usize| ((f64::from(i) + 0.37) * 0.618 * (d + 1) as f64).fract();
                        domain
                            .iter()
                            .enumerate()
                            .map(|(d, (lo, hi))| lo + (hi - lo) * t(d))
                            .collect()
                    })
                    .collect();
                for corner in 0..(1usize << dims) {
                    let pick = |d: usize, (lo, hi): (f64, f64)| {
                        if corner >> d & 1 == 0 {
                            lo
                        } else {
                            hi
                        }
                    };
                    queries.push(
                        domain
                            .iter()
                            .enumerate()
                            .map(|(d, &b)| pick(d, b))
                            .collect(),
                    );
                    queries.push(
                        domain
                            .iter()
                            .enumerate()
                            .map(|(d, &(lo, hi))| pick(d, (lo - (hi - lo), hi + 1e9)))
                            .collect(),
                    );
                }
                cases.push((fit, queries));
            }
        }
        cases
    }

    #[test]
    fn power_table_kernel_is_bit_identical_to_the_reference() {
        let cases = kernel_cases();
        assert_eq!(cases.len(), MAX_DIMS * MAX_ORDER as usize);
        for (fit, queries) in &cases {
            for x in queries {
                assert_eq!(
                    fit.eval(x).to_bits(),
                    fit.eval_reference(x).to_bits(),
                    "dims {} order {} at {x:?}",
                    fit.dims(),
                    fit.order()
                );
            }
        }
    }

    #[test]
    fn pinned_fit_is_bit_identical_to_the_full_evaluation() {
        for (fit, queries) in kernel_cases().iter().filter(|(f, _)| f.dims() == 2) {
            for x0 in queries.iter().map(|q| q[0]) {
                let pinned = fit.pinned(x0);
                for x1 in queries.iter().map(|q| q[1]) {
                    assert_eq!(
                        pinned.eval(x1).to_bits(),
                        fit.eval_reference(&[x0, x1]).to_bits(),
                        "order {} at ({x0}, {x1})",
                        fit.order()
                    );
                }
            }
        }
    }

    #[test]
    fn trivariate_hyperplane_fit() {
        // The Fig. 3.6/3.7 shape: delay(slew, l_left, l_right).
        let f = |s: f64, a: f64, b: f64| 3.0 + 0.2 * s + 0.9 * a + 0.4 * b + 0.01 * a * b;
        let mut pts = Vec::new();
        let mut vals = Vec::new();
        for s in 0..3 {
            for a in 0..4 {
                for b in 0..4 {
                    let p = vec![s as f64 * 20.0, a as f64 * 300.0, b as f64 * 300.0];
                    vals.push(f(p[0], p[1], p[2]));
                    pts.push(p);
                }
            }
        }
        let fit = PolyFit::fit(3, 2, &pts, &vals).unwrap();
        assert!(fit.max_abs_residual() < 1e-6);
    }
}
