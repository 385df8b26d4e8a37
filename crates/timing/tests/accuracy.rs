//! Accuracy validation: the fitted library must match direct simulation on
//! held-out (off-grid) points, and must beat the closed-form baselines —
//! the paper's core claim for its delay model (Chapter 3).

use cts_spice::stages::{stage, StageConfig};
use cts_spice::units::*;
use cts_spice::{SimOptions, Technology};
use cts_timing::{fast_library, metrics, BufferId, Load, RcTree};

fn opts() -> SimOptions {
    SimOptions::default_for(6.0 * NS)
}

/// Library lookups reproduce simulator measurements at points *between* the
/// characterization grid samples.
#[test]
fn library_matches_simulation_off_grid() {
    let tech = Technology::nominal_45nm();
    let lib = fast_library();
    let buffers = tech.buffer_library();

    // Off-grid combinations: (drive, load, l_input, L) chosen away from the
    // fast-config grid points {10,500,1200} x {5,300,900,1800}.
    let cases = [
        (0usize, 1usize, 250.0, 450.0),
        (1, 0, 700.0, 1200.0),
        (2, 2, 950.0, 700.0),
    ];
    for &(d, l, l_input, length) in &cases {
        let cfg = StageConfig {
            shaper: &buffers[1],
            l_input_um: l_input,
            drive: &buffers[d],
            arms: &[(length, &buffers[l])],
            wire: tech.wire(),
            ramp_slew: 80.0 * PS,
            rising: true,
        };
        let truth = stage(&tech, &cfg).measure(&opts()).unwrap();
        let pred = lib.single_wire(
            BufferId(d),
            Load::Buffer(BufferId(l)),
            truth.input_slew,
            length,
        );

        let err_intrinsic = (pred.buffer_delay - truth.intrinsic_delay).abs();
        let err_wire = (pred.wire_delay - truth.delay[0]).abs();
        let err_slew = (pred.output_slew - truth.slew[0]).abs();
        // Tolerances: a few ps absolute or ~10 % relative, whichever is
        // looser — the fast config uses coarse quadratic fits.
        let tol = |truth_val: f64| (0.10 * truth_val).max(3.0 * PS);
        assert!(
            err_intrinsic < tol(truth.intrinsic_delay),
            "intrinsic d={d} l={l}: pred {} ps vs truth {} ps",
            pred.buffer_delay / PS,
            truth.intrinsic_delay / PS
        );
        assert!(
            err_wire < tol(truth.delay[0]),
            "wire d={d} l={l}: pred {} ps vs truth {} ps",
            pred.wire_delay / PS,
            truth.delay[0] / PS
        );
        assert!(
            err_slew < tol(truth.slew[0]),
            "slew d={d} l={l}: pred {} ps vs truth {} ps",
            pred.output_slew / PS,
            truth.slew[0] / PS
        );
    }
}

/// Branch lookups reproduce simulator measurements off-grid, including the
/// left/right asymmetry.
#[test]
fn branch_library_matches_simulation_off_grid() {
    let tech = Technology::nominal_45nm();
    let lib = fast_library();
    let buffers = tech.buffer_library();

    let cfg = StageConfig {
        shaper: &buffers[1],
        l_input_um: 350.0,
        drive: &buffers[1],
        arms: &[(300.0, &buffers[0]), (1000.0, &buffers[2])],
        wire: tech.wire(),
        ramp_slew: 80.0 * PS,
        rising: true,
    };
    let truth = stage(&tech, &cfg).measure(&opts()).unwrap();
    let pred = lib.branch(
        BufferId(1),
        (Load::Buffer(BufferId(0)), Load::Buffer(BufferId(2))),
        truth.input_slew,
        (300.0, 1000.0),
    );

    let tol = |t: f64| (0.15 * t).max(4.0 * PS);
    assert!(
        (pred.left_delay - truth.delay[0]).abs() < tol(truth.delay[0]),
        "left delay: {} vs {} ps",
        pred.left_delay / PS,
        truth.delay[0] / PS
    );
    assert!(
        (pred.right_delay - truth.delay[1]).abs() < tol(truth.delay[1]),
        "right delay: {} vs {} ps",
        pred.right_delay / PS,
        truth.delay[1] / PS
    );
    assert!(
        (pred.left_slew - truth.slew[0]).abs() < tol(truth.slew[0]),
        "left slew: {} vs {} ps",
        pred.left_slew / PS,
        truth.slew[0] / PS
    );
    assert!(
        pred.right_slew > pred.left_slew,
        "asymmetry must be preserved"
    );
}

/// Paper §3.1: on *step-driven* RC lines Elmore overestimates the 50 %
/// delay and the two-moment D2M metric corrects most of that error. (For
/// slow realistic drivers the wire lag approaches m1 — the step response is
/// where the closed-form metrics are defined and compared.)
#[test]
fn model_accuracy_ladder_step_response() {
    use cts_spice::{simulate, Circuit, Waveform};
    let tech = Technology::nominal_45nm();
    let length = 1400.0;
    let load_cap = tech.buffer_library()[1].input_cap(&tech);

    // Direct simulation: near-ideal step into the distributed wire.
    let mut c = Circuit::new(&tech);
    let near = c.add_node("near");
    let far_node = c.add_node("far");
    c.add_wire(near, far_node, length, tech.wire());
    c.add_cap(far_node, load_cap);
    c.drive(
        near,
        Waveform::from_samples(vec![0.0, 1.0 * FS], vec![0.0, tech.vdd()]),
    );
    let res = simulate(&c, &opts()).unwrap();
    let truth = res.waveform(far_node).t50(tech.vdd()).unwrap();

    // Closed-form metrics on the same RC tree.
    let mut rc = RcTree::new(0.0);
    let far = rc.add_wire(
        rc.root(),
        tech.wire().resistance(length),
        tech.wire().capacitance(length),
        32,
    );
    rc.add_cap(far, load_cap);
    let (m1, m2) = rc.m1_m2(far);

    let err_elmore = (metrics::elmore_delay(m1) - truth).abs();
    let err_d2m = (metrics::d2m_delay(m1, m2) - truth).abs();
    assert!(
        metrics::elmore_delay(m1) > truth,
        "Elmore must overestimate the step 50% delay: {} vs {} ps",
        metrics::elmore_delay(m1) / PS,
        truth / PS
    );
    assert!(
        err_d2m < err_elmore,
        "D2M ({} ps err) must beat Elmore ({} ps err)",
        err_d2m / PS,
        err_elmore / PS
    );
}

/// With a realistic (resistive, slewing) driver the closed-form story
/// breaks down — exactly the paper's argument for characterization: the
/// library's wire-delay prediction tracks simulation within a couple of ps
/// where the step-calibrated D2M no longer describes the measurement.
#[test]
fn library_beats_step_metrics_under_realistic_drive() {
    let tech = Technology::nominal_45nm();
    let lib = fast_library();
    let buffers = tech.buffer_library();
    let length = 1400.0;

    let cfg = StageConfig {
        shaper: &buffers[1],
        l_input_um: 400.0,
        drive: &buffers[1],
        arms: &[(length, &buffers[1])],
        wire: tech.wire(),
        ramp_slew: 80.0 * PS,
        rising: true,
    };
    let truth = stage(&tech, &cfg).measure(&opts()).unwrap();

    let mut rc = RcTree::new(buffers[1].output_cap(&tech));
    let far = rc.add_wire(
        rc.root(),
        tech.wire().resistance(length),
        tech.wire().capacitance(length),
        32,
    );
    rc.add_cap(far, buffers[1].input_cap(&tech));
    let (m1, m2) = rc.m1_m2(far);

    let err_d2m = (metrics::d2m_delay(m1, m2) - truth.delay[0]).abs();
    let pred = lib.single_wire(
        BufferId(1),
        Load::Buffer(BufferId(1)),
        truth.input_slew,
        length,
    );
    let err_lib = (pred.wire_delay - truth.delay[0]).abs();
    assert!(
        err_lib < err_d2m,
        "library ({} ps err) must beat D2M ({} ps err) under realistic drive",
        err_lib / PS,
        err_d2m / PS
    );
    assert!(err_lib < 3.0 * PS, "library err = {} ps", err_lib / PS);
}

/// The PERI slew composition approximates simulated output slews at the
/// right order of magnitude but with visible error — the motivation for
/// characterizing slew instead of composing it.
#[test]
fn peri_slew_is_rough() {
    let tech = Technology::nominal_45nm();
    let buffers = tech.buffer_library();
    let length = 1000.0;
    let cfg = StageConfig {
        shaper: &buffers[1],
        l_input_um: 400.0,
        drive: &buffers[2],
        arms: &[(length, &buffers[1])],
        wire: tech.wire(),
        ramp_slew: 80.0 * PS,
        rising: true,
    };
    let truth = stage(&tech, &cfg).measure(&opts()).unwrap();

    let mut rc = RcTree::new(buffers[2].output_cap(&tech));
    let far = rc.add_wire(
        rc.root(),
        tech.wire().resistance(length),
        tech.wire().capacitance(length),
        32,
    );
    rc.add_cap(far, buffers[1].input_cap(&tech));
    let (m1, m2) = rc.m1_m2(far);
    // Slew at the buffer output feeds the wire; approximate it by the
    // measured output slew minus the wire's own spread is unavailable in
    // closed form — use the measured input slew as PERI would.
    let step = metrics::step_slew_s2m(m1, m2);
    let peri = metrics::peri_ramp_slew(step, truth.input_slew);
    // Same order of magnitude...
    assert!(peri > 0.2 * truth.slew[0] && peri < 5.0 * truth.slew[0]);
}
