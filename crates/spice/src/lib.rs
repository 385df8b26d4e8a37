//! A nonlinear RC-tree transient circuit simulator — the workspace's
//! stand-in for SPICE.
//!
//! The paper characterizes buffers and wires with HSPICE on 45 nm PTM
//! transistor models and verifies final clock trees by SPICE simulation.
//! Neither HSPICE nor PTM cards are available here, so this crate implements
//! the closest synthetic equivalent that exercises the same code paths:
//!
//! * [`Circuit`] — netlists of resistors, grounded capacitors, square-law
//!   CMOS inverters/buffers and piecewise-linear voltage sources,
//! * [`simulate`] — backward-Euler / trapezoidal transient analysis with
//!   Newton iteration on the nonlinear devices and an O(n) solver on the
//!   resistive components, which must be trees (a resistor loop is a
//!   [`SimError::ResistorLoop`]); [`simulate_observed_with`] reuses solve
//!   plans (partition, elimination order) across runs through a
//!   [`SolverContext`]; [`Transient`] is the same run advanced in pieces,
//!   saved and resumed,
//! * [`Waveform`] — sampled waveforms with the measurements CTS needs:
//!   50 % crossing delay and 10–90 % slew ([`WaveformRef`] takes them on
//!   borrowed samples),
//! * [`Technology`] / [`BufferType`] — a 45 nm-flavoured behavioural device
//!   model and the paper's three-buffer library,
//! * [`stages`] — the paper's characterization circuit, one driving
//!   buffer with `k` load arms (Fig. 3.3 single wire, `k = 1`; Fig. 3.5
//!   branch, `k = 2`), built and measured by one code path.
//!
//! What matters for the reproduction is not matching HSPICE numerically but
//! reproducing the *phenomena* the paper's flow depends on: buffer output
//! waveforms are curved (not ramps), intrinsic delay depends strongly on
//! input slew, and wire output slew blows up with wire length faster than
//! buffer upsizing can fix (Fig. 1.1). All three emerge from any square-law
//! CMOS driver in front of a distributed RC line.
//!
//! # Units
//!
//! This crate uses **SI units throughout**: volts, amperes, seconds, ohms,
//! farads. Geometry stays in µm (converted at wire-construction time). The
//! [`units`] module provides readable constants (`PS`, `FF`, …) so call
//! sites read like `100.0 * PS`.
//!
//! # Example
//!
//! ```
//! use cts_spice::{units::*, Circuit, SimOptions, Technology, Waveform};
//!
//! // An inverter driving a 300 µm wire.
//! let tech = Technology::nominal_45nm();
//! let mut c = Circuit::new(&tech);
//! let vin = c.add_node("in");
//! let out = c.add_node("out");
//! c.add_inverter(vin, out, 10.0);
//! let far = c.add_node("far");
//! c.add_wire(out, far, 300.0, tech.wire());
//! c.drive(vin, Waveform::rising_ramp_10_90(50.0 * PS, 100.0 * PS, tech.vdd()));
//!
//! let result = cts_spice::simulate(&c, &SimOptions::default_for(1.0 * NS))?;
//! let w = result.waveform(far);
//! let slew = w.slew_10_90(tech.vdd()).expect("output transitions");
//! assert!(slew > 0.0 && slew < 1.0 * NS);
//! # Ok::<(), cts_spice::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circuit;
mod device;
mod error;
mod solver;
pub mod stages;
pub mod units;
mod waveform;

pub use circuit::{Circuit, NodeId, WireParams};
pub use device::{BufferType, Technology};
pub use error::SimError;
pub use solver::{
    simulate, simulate_observed_with, EndState, Integrator, SimOptions, SolverContext, Transient,
    TransientResult,
};
pub use waveform::{Waveform, WaveformRef};
