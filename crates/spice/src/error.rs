//! Simulator error type.

use std::error::Error;
use std::fmt;

/// Errors reported by [`crate::simulate`].
///
/// Netlist *construction* mistakes (out-of-range nodes, negative values)
/// panic at build time instead — they are programming errors. `SimError`
/// covers conditions that depend on the assembled circuit or on numerical
/// behaviour.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The circuit has no nodes.
    EmptyCircuit,
    /// Inverter dependencies between resistive components form a cycle
    /// (e.g. a ring oscillator); the staged solver requires feed-forward
    /// circuits, which all CTS structures are.
    FeedbackLoop,
    /// The resistors of one component form a loop, through the named
    /// node. The solver takes resistive trees only: every circuit of the
    /// CTS flow is a buffered RC tree.
    ResistorLoop {
        /// A node on the loop.
        node: String,
    },
    /// Newton iteration failed to converge at time `t` (seconds) in the
    /// component containing the named node.
    NewtonDiverged {
        /// Simulation time at which convergence failed (s).
        t: f64,
        /// A node inside the offending component.
        node: String,
    },
    /// The solution became non-finite at time `t` (seconds) — usually an
    /// ill-conditioned netlist.
    NonFiniteSolution {
        /// Simulation time at which the solution broke (s).
        t: f64,
    },
    /// Simulation options were invalid (non-positive `dt` or `t_stop`, or
    /// `dt > t_stop`).
    BadOptions(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EmptyCircuit => write!(f, "circuit has no nodes"),
            SimError::FeedbackLoop => {
                write!(f, "inverter dependencies form a feedback loop")
            }
            SimError::ResistorLoop { node } => write!(
                f,
                "resistors form a loop through node {node}; only resistive trees are solved"
            ),
            SimError::NewtonDiverged { t, node } => write!(
                f,
                "newton iteration diverged at t = {:.3e} s near node {node}",
                t
            ),
            SimError::NonFiniteSolution { t } => {
                write!(f, "solution became non-finite at t = {:.3e} s", t)
            }
            SimError::BadOptions(msg) => write!(f, "invalid simulation options: {msg}"),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::NewtonDiverged {
            t: 1e-10,
            node: "n3".into(),
        };
        let s = e.to_string();
        assert!(s.contains("n3") && s.contains("1.000e-10"));
        let e = SimError::ResistorLoop { node: "n7".into() };
        assert!(e.to_string().contains("n7"));
    }

    #[test]
    fn error_trait_object() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
        let e: Box<dyn Error> = Box::new(SimError::EmptyCircuit);
        assert!(!e.to_string().is_empty());
    }
}
