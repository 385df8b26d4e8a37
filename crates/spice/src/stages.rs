//! The paper's characterization circuit, built and measured.
//!
//! Chapter 3 of the paper characterizes delay and slew on two circuits
//! that are one shape with `k` load arms: ideal ramp → `Binput` → wire
//! `Linput` → `Bdrive` → `k` wires, each to its own load buffer.
//!
//! * `k = 1` is the **single wire** of Fig. 3.3;
//! * `k = 2` is the **branch** of Fig. 3.5.
//!
//! `Binput` + `Linput` exist purely to turn the ideal ramp into a
//! *realistic, curved* buffer-output waveform with a controllable slew at
//! `Bdrive`'s input — the paper's Fig. 3.2 shows why an ideal ramp would
//! mis-predict delays by tens of ps.
//!
//! [`stage`] returns the circuit plus its probe nodes, and
//! [`Stage::measure`] extracts the quantities the delay library stores.

use crate::circuit::{Circuit, NodeId, WireParams};
use crate::device::{BufferType, Technology};
use crate::error::SimError;
use crate::solver::{simulate_observed_with, SimOptions, SolverContext, TransientResult};
use crate::units::{NS, PS};
use crate::waveform::Waveform;

/// Parameters for [`stage`].
#[derive(Debug, Clone)]
pub struct StageConfig<'a> {
    /// Buffer that shapes the input waveform (`Binput`).
    pub shaper: &'a BufferType,
    /// Wire length between `Binput` and `Bdrive` (µm); sweeping this sweeps
    /// the input slew seen by `Bdrive`.
    pub l_input_um: f64,
    /// The buffer under characterization (`Bdrive`).
    pub drive: &'a BufferType,
    /// One `(wire length µm, load buffer)` per arm: a wire from `Bdrive`'s
    /// output to that load buffer's input.
    pub arms: &'a [(f64, &'a BufferType)],
    /// Wire parasitics.
    pub wire: WireParams,
    /// 10–90 % slew of the ideal ramp applied at the source (s).
    pub ramp_slew: f64,
    /// `true` for a rising input edge at the source. Note `Binput` inverts
    /// once and the buffers are non-inverting, so the edge at `Bdrive` has
    /// the *opposite* polarity.
    pub rising: bool,
}

/// Probe nodes of a characterization circuit.
#[derive(Debug, Clone)]
pub struct StageProbes {
    /// Input of the driving buffer (`Bdrive`): input slew is measured here.
    pub drive_in: NodeId,
    /// Output of the driving buffer: intrinsic delay ends here.
    pub drive_out: NodeId,
    /// Input of each arm's load buffer, in arm order: the arm's wire delay
    /// and wire slew end here.
    pub load_in: Vec<NodeId>,
}

/// A built characterization circuit.
#[derive(Debug, Clone)]
pub struct Stage {
    /// The netlist, ready to simulate.
    pub circuit: Circuit,
    /// Probe nodes.
    pub probes: StageProbes,
}

/// Quantities measured on a characterization run — exactly what the delay
/// library stores (Fig. 3.3(b)).
#[derive(Debug, Clone, PartialEq)]
pub struct StageMeasurement {
    /// 10–90 % slew at the driving buffer's input (s).
    pub input_slew: f64,
    /// Driving buffer intrinsic delay: 50 % input → 50 % output (s).
    pub intrinsic_delay: f64,
    /// Per arm: wire delay, 50 % at drive output → 50 % at load input (s).
    pub delay: Vec<f64>,
    /// Per arm: 10–90 % slew at the load buffer's input (s).
    pub slew: Vec<f64>,
}

/// Builds the characterization circuit with one load arm per entry of
/// `cfg.arms`.
///
/// # Panics
///
/// Panics on non-positive lengths or slew (propagated from the circuit
/// builder).
pub fn stage(tech: &Technology, cfg: &StageConfig<'_>) -> Stage {
    let mut c = Circuit::new(tech);
    let source = c.add_node("src");
    let shaped = c.add_node("binput_out");
    c.add_buffer(source, shaped, cfg.shaper);
    let drive_in = c.add_node("drive_in");
    c.add_wire(shaped, drive_in, cfg.l_input_um, cfg.wire);
    let drive_out = c.add_node("drive_out");
    c.add_buffer(drive_in, drive_out, cfg.drive);
    // Every arm's wire, then every arm's load buffer.
    let load_in: Vec<NodeId> = cfg
        .arms
        .iter()
        .enumerate()
        .map(|(i, &(l_um, _))| {
            let node = c.add_node(format!("load{i}_in"));
            c.add_wire(drive_out, node, l_um, cfg.wire);
            node
        })
        .collect();
    for (i, (&node, &(_, load))) in load_in.iter().zip(cfg.arms).enumerate() {
        let out = c.add_node(format!("load{i}_out"));
        c.add_buffer(node, out, load);
    }

    let ramp = if cfg.rising {
        Waveform::rising_ramp_10_90(50.0 * PS, cfg.ramp_slew, tech.vdd())
    } else {
        Waveform::falling_ramp_10_90(50.0 * PS, cfg.ramp_slew, tech.vdd())
    };
    c.drive(source, ramp);

    Stage {
        circuit: c,
        probes: StageProbes {
            drive_in,
            drive_out,
            load_in,
        },
    }
}

impl Stage {
    /// Simulates the stage and extracts the library measurements.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if simulation fails; a probe that does not
    /// complete its transition within the window is reported as
    /// [`SimError::BadOptions`] naming the window.
    pub fn measure(&self, opts: &SimOptions) -> Result<StageMeasurement, SimError> {
        self.measure_with(&mut SolverContext::new(), opts)
    }

    /// [`Stage::measure`], reusing cached solve plans from `ctx`.
    /// Characterization sweeps over one circuit shape hit the plan cache on
    /// every run after the first. Only the probe nodes are recorded.
    ///
    /// # Errors
    ///
    /// As for [`Stage::measure`].
    pub fn measure_with(
        &self,
        ctx: &mut SolverContext,
        opts: &SimOptions,
    ) -> Result<StageMeasurement, SimError> {
        let p = &self.probes;
        let mut observed = vec![p.drive_in, p.drive_out];
        observed.extend(&p.load_in);
        let res = simulate_observed_with(ctx, &self.circuit, opts, &observed)?;
        self.extract(&res).ok_or_else(|| {
            SimError::BadOptions(format!(
                "transition incomplete within t_stop = {:.3} ns",
                opts.t_stop / NS
            ))
        })
    }

    /// Reads the measurements off `res` in place, or `None` if a probe did
    /// not complete its transition.
    fn extract(&self, res: &TransientResult) -> Option<StageMeasurement> {
        let vdd = self.circuit.tech().vdd();
        let drive_in = res.view(self.probes.drive_in);
        let t_out = res.view(self.probes.drive_out).t50(vdd)?;
        let (mut delay, mut slew) = (Vec::new(), Vec::new());
        for &node in &self.probes.load_in {
            let load = res.view(node);
            delay.push(load.t50(vdd)? - t_out);
            slew.push(load.slew_10_90(vdd)?);
        }
        Some(StageMeasurement {
            input_slew: drive_in.slew_10_90(vdd)?,
            intrinsic_delay: t_out - drive_in.t50(vdd)?,
            delay,
            slew,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::nominal_45nm()
    }

    fn opts() -> SimOptions {
        SimOptions::default_for(3.0 * NS)
    }

    #[test]
    fn single_wire_measurements_are_sane() {
        let t = tech();
        let lib = t.buffer_library();
        let cfg = StageConfig {
            shaper: &lib[1],
            l_input_um: 300.0,
            drive: &lib[1],
            arms: &[(600.0, &lib[1])],
            wire: t.wire(),
            ramp_slew: 80.0 * PS,
            rising: true,
        };
        let m = stage(&t, &cfg).measure(&opts()).unwrap();
        assert!(m.input_slew > 5.0 * PS && m.input_slew < 500.0 * PS);
        assert!(m.intrinsic_delay > 0.0 && m.intrinsic_delay < 300.0 * PS);
        assert!(m.delay[0] > 0.0 && m.delay[0] < 500.0 * PS);
        assert!(m.slew[0] > m.input_slew * 0.1);
    }

    #[test]
    fn input_wire_length_controls_input_slew() {
        let t = tech();
        let lib = t.buffer_library();
        let mut slews = Vec::new();
        for &l_input in &[100.0, 500.0, 1200.0] {
            let cfg = StageConfig {
                shaper: &lib[0],
                l_input_um: l_input,
                drive: &lib[1],
                arms: &[(400.0, &lib[1])],
                wire: t.wire(),
                ramp_slew: 60.0 * PS,
                rising: true,
            };
            let m = stage(&t, &cfg).measure(&opts()).unwrap();
            slews.push(m.input_slew);
        }
        assert!(
            slews[0] < slews[1] && slews[1] < slews[2],
            "input slew must grow with Linput: {:?} ps",
            slews.iter().map(|s| s / PS).collect::<Vec<_>>()
        );
    }

    #[test]
    fn branch_longer_side_is_slower() {
        let t = tech();
        let lib = t.buffer_library();
        let cfg = StageConfig {
            shaper: &lib[1],
            l_input_um: 300.0,
            drive: &lib[2],
            arms: &[(200.0, &lib[0]), (900.0, &lib[0])],
            wire: t.wire(),
            ramp_slew: 80.0 * PS,
            rising: true,
        };
        let m = stage(&t, &cfg).measure(&opts()).unwrap();
        assert!(
            m.delay[0] < m.delay[1],
            "left {} ps vs right {} ps",
            m.delay[0] / PS,
            m.delay[1] / PS
        );
        assert!(m.slew[0] < m.slew[1]);
    }

    #[test]
    fn branch_load_on_one_side_affects_the_other() {
        // Resistive shielding: fattening the right load should slow the left
        // branch too (this is why the paper fits branch components in the
        // joint (l_left, l_right) space rather than per-branch).
        let t = tech();
        let lib = t.buffer_library();
        let base = StageConfig {
            shaper: &lib[1],
            l_input_um: 300.0,
            drive: &lib[0],
            arms: &[(400.0, &lib[0]), (400.0, &lib[0])],
            wire: t.wire(),
            ramp_slew: 80.0 * PS,
            rising: true,
        };
        let m_small = stage(&t, &base).measure(&opts()).unwrap();
        let heavy_arms = [(400.0, &lib[0]), (1600.0, &lib[0])];
        let heavy = StageConfig {
            arms: &heavy_arms,
            ..base.clone()
        };
        let m_heavy = stage(&t, &heavy).measure(&opts()).unwrap();
        // The extra load slows the driver's edge, so the total
        // drive-input-to-left-load delay and the left slew both grow even
        // though the left branch itself is unchanged.
        let total_small = m_small.intrinsic_delay + m_small.delay[0];
        let total_heavy = m_heavy.intrinsic_delay + m_heavy.delay[0];
        assert!(
            total_heavy > total_small,
            "left-path delay should feel the right branch: {} vs {} ps",
            total_heavy / PS,
            total_small / PS
        );
        assert!(
            m_heavy.slew[0] > m_small.slew[0],
            "left slew should feel the right branch: {} vs {} ps",
            m_heavy.slew[0] / PS,
            m_small.slew[0] / PS
        );
    }
}
