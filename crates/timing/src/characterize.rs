//! SPICE characterization sweeps (paper §3.2).
//!
//! The paper's two characterization circuits are one
//! [`cts_spice::stages`] stage with `k` load arms — the Fig. 3.3 single
//! wire (`k = 1`) and the Fig. 3.5 branch (`k = 2`) — so one path serves
//! both:
//!
//! * [`sweep`] simulates a driving buffer at every input-wire length of
//!   the config (which sets the input slew) and every combination of arm
//!   lengths from a grid, measuring buffer intrinsic delay and each arm's
//!   wire delay and wire slew;
//! * [`fit_sweep`] fits the sweep's `1 + 2k` polynomial surfaces over
//!   `(input slew, arm lengths…)`;
//! * [`fn@characterize`] runs both for every buffer combination — single
//!   wires on `wire_lengths_um` at `surface_order`, branches on
//!   `branch_lengths_um` at `volume_order` — and assembles the surfaces
//!   into the [`crate::DelaySlewLibrary`].
//!
//! The shared code never asks which shape it serves; only
//! [`fn@characterize`] names the surfaces. Simulations are independent, so
//! each sweep fans out over the shared [`cts_util::exec`] thread pool.

use crate::fit::{FitError, PolyFit};
use crate::library::{BranchFns, DelaySlewLibrary, SingleWireFns};
use cts_spice::stages::{stage, StageConfig, StageMeasurement};
use cts_spice::units::{NS, PS};
use cts_spice::{BufferType, SimError, SimOptions, SolverContext, Technology};
use cts_util::run_parallel_with;
use std::fmt;

/// Sweep and fitting parameters for [`characterize`].
///
/// `standard()` reproduces the paper-scale characterization; `fast()` is a
/// coarse variant for tests (quadratic fits on small grids).
#[derive(Debug, Clone)]
pub struct CharacterizeConfig {
    /// Input-shaping wire lengths (µm); each produces one input-slew sample.
    pub input_wire_lengths_um: Vec<f64>,
    /// Load wire lengths for single-wire components (µm).
    pub wire_lengths_um: Vec<f64>,
    /// Branch wire lengths; the sweep uses the full cartesian square (µm).
    pub branch_lengths_um: Vec<f64>,
    /// Total degree of the 2-D (slew, length) fits. The paper uses 3rd/4th
    /// order.
    pub surface_order: u32,
    /// Total degree of the 3-D (slew, l_left, l_right) fits.
    pub volume_order: u32,
    /// 10–90 % slew of the ideal ramp feeding the shaping buffer (s).
    pub ramp_slew: f64,
    /// Transient options for each characterization run.
    pub sim: SimOptions,
    /// Worker threads for the sweep fan-out (honored as requested; see
    /// [`cts_util::run_parallel`] — oversubscription is allowed).
    pub threads: usize,
}

impl CharacterizeConfig {
    /// Paper-scale characterization: 5 slews × 7 lengths per buffer pair,
    /// cubic surfaces; 3 slews × 4 × 4 branch grids, quadratic volumes.
    pub fn standard() -> CharacterizeConfig {
        CharacterizeConfig {
            input_wire_lengths_um: vec![10.0, 200.0, 500.0, 900.0, 1500.0],
            wire_lengths_um: vec![5.0, 100.0, 300.0, 600.0, 1000.0, 1500.0, 2200.0],
            branch_lengths_um: vec![50.0, 400.0, 900.0, 1500.0],
            surface_order: 3,
            volume_order: 2,
            ramp_slew: 80.0 * PS,
            sim: SimOptions::default_for(6.0 * NS),
            threads: 8,
        }
    }

    /// Coarse characterization for tests: quadratic fits on minimal grids.
    pub fn fast() -> CharacterizeConfig {
        CharacterizeConfig {
            input_wire_lengths_um: vec![10.0, 500.0, 1200.0],
            wire_lengths_um: vec![5.0, 300.0, 900.0, 1800.0],
            branch_lengths_um: vec![50.0, 600.0, 1400.0],
            surface_order: 2,
            volume_order: 2,
            ramp_slew: 80.0 * PS,
            sim: SimOptions::default_for(5.0 * NS),
            threads: 8,
        }
    }
}

/// Errors from the characterization flow.
#[derive(Debug)]
pub enum CharacterizeError {
    /// A characterization simulation failed.
    Sim {
        /// What was being characterized.
        context: String,
        /// The underlying simulator error.
        source: SimError,
    },
    /// A polynomial fit failed.
    Fit {
        /// What was being fitted.
        context: String,
        /// The underlying fit error.
        source: FitError,
    },
}

impl fmt::Display for CharacterizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CharacterizeError::Sim { context, source } => {
                write!(f, "characterization sim failed ({context}): {source}")
            }
            CharacterizeError::Fit { context, source } => {
                write!(f, "characterization fit failed ({context}): {source}")
            }
        }
    }
}

impl std::error::Error for CharacterizeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CharacterizeError::Sim { source, .. } => Some(source),
            CharacterizeError::Fit { source, .. } => Some(source),
        }
    }
}

/// One sweep point: the arm lengths simulated and what was measured there.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Wire length of each load arm (µm), in arm order.
    pub arm_lengths_um: Vec<f64>,
    /// The stage measured at those lengths.
    pub measured: StageMeasurement,
}

/// Runs one characterization sweep: `drive` driving one arm per entry of
/// `loads` (buffer indices into the technology's library), every arm length
/// taken from `lengths` (µm), at every input-wire length of `cfg`. One load
/// is the Fig. 3.3 single wire, two are the Fig. 3.5 branch.
///
/// Samples come in job order: input-wire length outermost, then the arm
/// lengths row-major (the first arm varies slowest). Exposed so the
/// figure-regeneration binaries can plot raw sweep data (Figs. 3.4,
/// 3.6–3.7) without refitting.
pub fn sweep(
    tech: &Technology,
    drive: usize,
    loads: &[usize],
    lengths: &[f64],
    cfg: &CharacterizeConfig,
) -> Result<Vec<Sample>, CharacterizeError> {
    let buffers = tech.buffer_library();
    let shaper = shaping_buffer(tech);
    let k = loads.len() as u32;
    let mut jobs = Vec::new();
    for &l_input in &cfg.input_wire_lengths_um {
        // Arm `a`'s length index is digit `a` of `i` in base
        // `lengths.len()`, most significant first.
        for i in 0..lengths.len().pow(k) {
            let arm_lengths: Vec<f64> = (1..=k)
                .map(|a| lengths[i / lengths.len().pow(k - a) % lengths.len()])
                .collect();
            jobs.push((l_input, arm_lengths));
        }
    }
    // Every sweep point shares the same circuit topology (wire lengths
    // only change element values), so a per-worker solver context makes
    // the partition/elimination plan a once-per-worker cost.
    run_parallel_with(
        cfg.threads,
        &jobs,
        SolverContext::new,
        |ctx, (l_input, arm_lengths)| {
            let arms: Vec<(f64, &BufferType)> = arm_lengths
                .iter()
                .zip(loads)
                .map(|(&l, &load)| (l, &buffers[load]))
                .collect();
            let scfg = StageConfig {
                shaper: &shaper,
                l_input_um: *l_input,
                drive: &buffers[drive],
                arms: &arms,
                wire: tech.wire(),
                ramp_slew: cfg.ramp_slew,
                rising: true,
            };
            let measured = stage(tech, &scfg)
                .measure_with(ctx, &cfg.sim)
                .map_err(|source| CharacterizeError::Sim {
                    context: format!(
                        "drive={} loads={:?} Linput={l_input} L={arm_lengths:?}",
                        buffers[drive].name(),
                        loads.iter().map(|&l| buffers[l].name()).collect::<Vec<_>>()
                    ),
                    source,
                })?;
            Ok(Sample {
                arm_lengths_um: arm_lengths.clone(),
                measured,
            })
        },
    )
}

/// Fits the `1 + 2k` surfaces of a `k`-arm sweep over
/// `(input slew, arm lengths…)` at total degree `order`: the intrinsic
/// delay, then each arm's wire delay, then each arm's wire slew.
///
/// # Errors
///
/// Returns the first [`FitError`], in that surface order.
pub fn fit_sweep(samples: &[Sample], order: u32) -> Result<Vec<PolyFit>, FitError> {
    let k = samples.first().map_or(0, |s| s.arm_lengths_um.len());
    let (mut points, mut rows) = (Vec::new(), Vec::new());
    for Sample {
        arm_lengths_um,
        measured: m,
    } in samples
    {
        points.push([&[m.input_slew][..], arm_lengths_um].concat());
        rows.push([&[m.intrinsic_delay][..], &m.delay, &m.slew].concat());
    }
    (0..1 + 2 * k)
        .map(|j| {
            let values: Vec<f64> = rows.iter().map(|r| r[j]).collect();
            PolyFit::fit(1 + k, order, &points, &values)
        })
        .collect()
}

/// Builds the complete delay/slew library for a technology: sweeps every
/// buffer combination, fits surfaces/volumes, and assembles the lookup
/// structure.
///
/// # Errors
///
/// Returns [`CharacterizeError`] if any simulation or fit fails. A failure
/// here means the configuration (windows, grids) cannot characterize the
/// technology — there is no meaningful partial library.
pub fn characterize(
    tech: &Technology,
    cfg: &CharacterizeConfig,
) -> Result<DelaySlewLibrary, CharacterizeError> {
    let buffers = tech.buffer_library();
    let nb = buffers.len();
    let surfaces = |drive: usize, loads: &[usize], lengths: &[f64], order: u32| {
        let samples = sweep(tech, drive, loads, lengths, cfg)?;
        fit_sweep(&samples, order).map_err(|source| CharacterizeError::Fit {
            context: format!("drive#{drive} loads#{loads:?}"),
            source,
        })
    };

    let mut single = Vec::with_capacity(nb * nb);
    for d in 0..nb {
        for l in 0..nb {
            let fits = surfaces(d, &[l], &cfg.wire_lengths_um, cfg.surface_order)?;
            let [intrinsic, wire_delay, wire_slew] = fits.try_into().expect("3 surfaces");
            single.push(SingleWireFns {
                intrinsic,
                wire_delay,
                wire_slew,
            });
        }
    }

    let mut branch = Vec::new();
    for d in 0..nb {
        for ll in 0..nb {
            for lr in ll..nb {
                let fits = surfaces(d, &[ll, lr], &cfg.branch_lengths_um, cfg.volume_order)?;
                let [intrinsic, left_delay, right_delay, left_slew, right_slew] =
                    fits.try_into().expect("5 surfaces");
                let fns = BranchFns {
                    intrinsic,
                    left_delay,
                    right_delay,
                    left_slew,
                    right_slew,
                };
                branch.push(((d, ll, lr), fns));
            }
        }
    }

    Ok(DelaySlewLibrary::from_parts(
        tech.vdd(),
        tech.wire(),
        buffers,
        single,
        branch,
    ))
}

/// The buffer used to shape ideal ramps into realistic curved edges
/// (`Binput` of Fig. 3.3). A mid-size buffer keeps shaped slews in the range
/// the CTS flow actually sees.
fn shaping_buffer(tech: &Technology) -> BufferType {
    tech.buffer_library()
        .into_iter()
        .nth(1)
        .unwrap_or_else(|| BufferType::new("SHAPER", 20.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_util::run_parallel;

    #[test]
    fn fast_config_is_fittable() {
        // Grid sizes must cover the requested polynomial orders.
        let cfg = CharacterizeConfig::fast();
        let n2 = cfg.input_wire_lengths_um.len() * cfg.wire_lengths_um.len();
        assert!(
            n2 >= 6,
            "quadratic surface needs >= 6 samples, grid has {n2}"
        );
        let n3 = cfg.input_wire_lengths_um.len() * cfg.branch_lengths_um.len().pow(2);
        assert!(
            n3 >= 10,
            "quadratic volume needs >= 10 samples, grid has {n3}"
        );
    }

    #[test]
    fn single_sweep_produces_grid_samples() {
        let tech = Technology::nominal_45nm();
        let mut cfg = CharacterizeConfig::fast();
        cfg.input_wire_lengths_um = vec![10.0, 800.0];
        cfg.wire_lengths_um = vec![100.0, 700.0];
        let samples = sweep(&tech, 1, &[1], &cfg.wire_lengths_um, &cfg).unwrap();
        assert_eq!(samples.len(), 4);
        let m: Vec<&StageMeasurement> = samples.iter().map(|s| &s.measured).collect();
        // Slews grow with input wire; delays grow with length.
        assert!(m[0].input_slew < m[3].input_slew);
        assert!(m[0].delay[0] < m[1].delay[0]);
        for m in &m {
            assert!(m.intrinsic_delay > 0.0 && m.slew[0] > 0.0);
        }
    }

    #[test]
    fn run_parallel_preserves_order_and_errors() {
        let jobs: Vec<usize> = (0..40).collect();
        let out = run_parallel(4, &jobs, |&j| Ok::<_, CharacterizeError>(j * 2)).unwrap();
        assert_eq!(out, jobs.iter().map(|j| j * 2).collect::<Vec<_>>());

        let err = run_parallel(4, &jobs, |&j| {
            if j == 17 {
                Err(CharacterizeError::Sim {
                    context: "boom".into(),
                    source: SimError::EmptyCircuit,
                })
            } else {
                Ok(j)
            }
        });
        assert!(err.is_err());
    }
}
