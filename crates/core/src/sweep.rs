//! Option-space sweeps: validation of an expanded sweep and the Pareto
//! objectives of its evaluated points.
//!
//! A sweep reaches [`crate::SynthesisService::submit_sweep`] already
//! expanded — one [`CtsOptions`] per point, in expansion order — and
//! [`check_points`] validates it before anything is admitted. Point `i`
//! is the sweep's *ordinal* `i` everywhere downstream: tickets, wire
//! `sweep_progress` events, and [`crate::ParetoFront`] rows. Each point
//! is an ordinary [`CtsOptions`] run as an ordinary request, so a swept
//! point's tree is byte-identical to the same options submitted alone.

use crate::flow::CtsResult;
use crate::options::{CtsOptions, OptionsError};
use crate::pareto::ParetoPoint;
use std::fmt;

/// Upper bound on expanded sweep size — large enough for any practical
/// grid over the four axes, small enough to catch a runaway product
/// before it floods the service queue.
pub const MAX_SWEEP_POINTS: usize = 4096;

/// Checks a sweep's point count against `1..=`[`MAX_SWEEP_POINTS`] —
/// for a cartesian product, before allocating any point.
///
/// # Errors
///
/// [`SweepError::Empty`] for zero points, [`SweepError::TooManyPoints`]
/// past [`MAX_SWEEP_POINTS`].
pub fn check_size(points: usize) -> Result<(), SweepError> {
    match points {
        0 => Err(SweepError::Empty),
        n if n > MAX_SWEEP_POINTS => Err(SweepError::TooManyPoints {
            points: n,
            max: MAX_SWEEP_POINTS,
        }),
        _ => Ok(()),
    }
}

/// Validates an expanded sweep: its size through [`check_size`], then
/// every point's options through [`CtsOptions::check`].
///
/// # Errors
///
/// The [`check_size`] errors, or [`SweepError::BadPoint`] naming the
/// first ordinal whose options are out of range.
pub fn check_points(points: &[CtsOptions]) -> Result<(), SweepError> {
    check_size(points.len())?;
    for (ordinal, options) in points.iter().enumerate() {
        options
            .check()
            .map_err(|source| SweepError::BadPoint { ordinal, source })?;
    }
    Ok(())
}

/// Why a sweep was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// The sweep had no points.
    Empty,
    /// The expansion exceeded [`MAX_SWEEP_POINTS`].
    TooManyPoints {
        /// The expanded size.
        points: usize,
        /// The maximum accepted.
        max: usize,
    },
    /// A point produced out-of-range options.
    BadPoint {
        /// The offending point's expansion ordinal.
        ordinal: usize,
        /// The underlying range violation.
        source: OptionsError,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Empty => write!(f, "sweep expands to zero points"),
            SweepError::TooManyPoints { points, max } => {
                write!(
                    f,
                    "sweep expands to {points} points, more than the maximum of {max}"
                )
            }
            SweepError::BadPoint { ordinal, source } => {
                write!(f, "sweep point {ordinal}: {source}")
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// The [`ParetoPoint`] of one evaluated sweep point: objectives are the
/// engine-estimated global skew and latency plus the tree's total
/// buffer input capacitance, so the front is identical whether or not
/// SPICE verification ran.
pub fn pareto_point(ordinal: usize, result: &CtsResult) -> ParetoPoint {
    ParetoPoint {
        ordinal,
        skew: result.report.skew(),
        buffer_cap: result.buffer_cap_f,
        latency: result.report.latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_errors_are_typed() {
        assert_eq!(check_points(&[]), Err(SweepError::Empty));

        let bad = vec![
            CtsOptions::default(),
            CtsOptions {
                slew_target: -1.0,
                ..CtsOptions::default()
            },
        ];
        match check_points(&bad) {
            Err(SweepError::BadPoint { ordinal: 1, source }) => {
                assert!(source.to_string().contains("slew_target"));
            }
            other => panic!("expected BadPoint at ordinal 1, got {other:?}"),
        }

        let huge = vec![CtsOptions::default(); MAX_SWEEP_POINTS + 1];
        assert!(matches!(
            check_points(&huge),
            Err(SweepError::TooManyPoints { .. })
        ));
        // A product is bounded without materializing it.
        assert_eq!(
            check_size(usize::MAX),
            Err(SweepError::TooManyPoints {
                points: usize::MAX,
                max: MAX_SWEEP_POINTS
            })
        );
        assert_eq!(check_size(MAX_SWEEP_POINTS), Ok(()));
    }
}
