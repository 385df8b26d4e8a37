//! Integration tests checking that the simulator reproduces the *physical
//! phenomena* the paper's delay-modeling chapter is built on. If any of
//! these fail, the delay library and the CTS flow above it are meaningless.

use cts_spice::stages::{stage, StageConfig};
use cts_spice::units::*;
use cts_spice::{simulate, Circuit, SimOptions, Technology, Waveform};

/// Paper §1 / Fig. 1.1: wire output slew grows dramatically with wire
/// length, and upsizing the driver from 20X to 30X gives only a slight
/// improvement — sizing alone cannot fix slew, buffers must be inserted
/// along wires.
#[test]
fn fig_1_1_sizing_alone_cannot_control_slew() {
    let tech = Technology::nominal_45nm();
    let lib = tech.buffer_library();
    let (buf20, buf30) = (&lib[1], &lib[2]);

    let slew_for = |drive: &cts_spice::BufferType, len: f64| -> f64 {
        let cfg = StageConfig {
            shaper: buf20,
            l_input_um: 200.0,
            drive,
            arms: &[(len, buf20)],
            wire: tech.wire(),
            ramp_slew: 80.0 * PS,
            rising: true,
        };
        stage(&tech, &cfg)
            .measure(&SimOptions::default_for(6.0 * NS))
            .expect("stage must simulate")
            .slew[0]
    };

    let lengths = [500.0, 1500.0, 3000.0];
    let s20: Vec<f64> = lengths.iter().map(|&l| slew_for(buf20, l)).collect();
    let s30: Vec<f64> = lengths.iter().map(|&l| slew_for(buf30, l)).collect();

    // Slew explodes with length...
    assert!(s20[2] > 3.0 * s20[0], "20X slews: {:?} ps", ps_vec(&s20));
    // ...the 30X buffer helps but only modestly...
    for i in 0..lengths.len() {
        assert!(s30[i] < s20[i], "bigger buffer must not be worse");
    }
    assert!(
        s30[2] > 0.55 * s20[2],
        "30X should NOT rescue the slew at 3 mm: {} vs {} ps",
        s30[2] / PS,
        s20[2] / PS
    );
    // ...and at 3 mm even the 30X buffer is far beyond the 100 ps limit.
    assert!(
        s30[2] > 100.0 * PS,
        "3 mm slew with 30X = {} ps",
        s30[2] / PS
    );
}

/// Paper §3.1 / Fig. 3.2: a curved (buffer-shaped) input and an ideal ramp
/// with the *same 10–90 % slew* produce output waveforms shifted by tens of
/// ps. (The paper measures a 32 ps shift for a 150 ps slew.)
#[test]
fn fig_3_2_curve_vs_ramp_shifts_output() {
    let tech = Technology::nominal_45nm();
    let lib = tech.buffer_library();
    let drive = &lib[1];

    // First build the curved waveform: a buffer + wire shaping chain. The
    // long shaping wire produces a strongly curved ~150 ps edge like the
    // paper's experiment.
    let shaping_cfg = StageConfig {
        shaper: &lib[0],
        l_input_um: 2200.0,
        drive,
        arms: &[(600.0, &lib[1])],
        wire: tech.wire(),
        ramp_slew: 150.0 * PS,
        rising: true,
    };
    let shaping = stage(&tech, &shaping_cfg);
    let res = simulate(&shaping.circuit, &SimOptions::default_for(6.0 * NS)).expect("shaping sim");
    let curved_in = res.waveform(shaping.probes.drive_in);
    let curved_slew = curved_in.slew_10_90(tech.vdd()).expect("curved slew");
    let out_from_curve = res.waveform(shaping.probes.load_in[0]);
    let t50_curve_in = curved_in.t50(tech.vdd()).unwrap();
    let t50_curve_out = out_from_curve.t50(tech.vdd()).unwrap();

    // Now apply an ideal ramp of the same 10-90 % slew to an identical
    // Bdrive + wire + Bload back end. The paper applies both waveforms
    // starting at the same instant, so we align the ramp's 10 % crossing
    // with the curve's 10 % crossing and compare output 50 % times — shape
    // alone then accounts for any shift.
    let rising = curved_in.is_rising();
    let lvl10 = if rising { 0.1 } else { 0.9 } * tech.vdd();
    let t10_curve = curved_in.first_crossing(lvl10, rising).unwrap();

    let mut c = Circuit::new(&tech);
    let din = c.add_node("drive_in");
    let dout = c.add_node("drive_out");
    c.add_buffer(din, dout, drive);
    let lin = c.add_node("load_in");
    c.add_wire(dout, lin, 600.0, tech.wire());
    let lout = c.add_node("load_out");
    c.add_buffer(lin, lout, &lib[1]);
    let ramp0 = if rising {
        Waveform::rising_ramp_10_90(100.0 * PS, curved_slew, tech.vdd())
    } else {
        Waveform::falling_ramp_10_90(100.0 * PS, curved_slew, tech.vdd())
    };
    let t10_ramp = ramp0.first_crossing(lvl10, rising).unwrap();
    let ramp = ramp0.shifted(t10_curve - t10_ramp);
    c.drive(din, ramp.clone());
    let res2 = simulate(&c, &SimOptions::default_for(6.0 * NS)).expect("ramp sim");
    let out_from_ramp = res2.waveform(lin);

    // Same slew, same edge start, different shape: output 50 % crossings
    // shift by tens of ps (the paper reports 32 ps at 150 ps slew).
    let shift = (t50_curve_out - out_from_ramp.t50(tech.vdd()).unwrap()).abs();
    assert!(
        shift > 10.0 * PS,
        "curve vs ramp shift should be tens of ps, got {} ps \
         (slew {} ps, curve in t50 {} ps)",
        shift / PS,
        curved_slew / PS,
        t50_curve_in / PS
    );
}

/// Paper §1: "buffer intrinsic delay is especially sensitive to input slew
/// ... for a 10X buffer, the intrinsic delay can vary up to 10 ps in the
/// 45 nm technology".
#[test]
fn intrinsic_delay_depends_on_input_slew() {
    let tech = Technology::nominal_45nm();
    let lib = tech.buffer_library();
    let mut delays = Vec::new();
    for &l_input in &[50.0, 600.0, 1500.0] {
        let cfg = StageConfig {
            shaper: &lib[0],
            l_input_um: l_input,
            drive: &lib[0], // 10X
            arms: &[(400.0, &lib[1])],
            wire: tech.wire(),
            ramp_slew: 60.0 * PS,
            rising: true,
        };
        let m = stage(&tech, &cfg)
            .measure(&SimOptions::default_for(6.0 * NS))
            .expect("sim");
        delays.push((m.input_slew, m.intrinsic_delay));
    }
    // Input slews must actually differ substantially across the sweep.
    assert!(delays[2].0 > 2.0 * delays[0].0);
    let spread = delays.iter().map(|d| d.1).fold(f64::NEG_INFINITY, f64::max)
        - delays.iter().map(|d| d.1).fold(f64::INFINITY, f64::min);
    assert!(
        spread > 5.0 * PS,
        "intrinsic delay must vary by several ps across slews, got {} ps",
        spread / PS
    );
}

/// Wire delay grows superlinearly (≈ quadratically) with length — the
/// distributed RC behaviour the Elmore model captures and a lumped model
/// would not.
#[test]
fn wire_delay_grows_superlinearly() {
    let tech = Technology::nominal_45nm();
    let lib = tech.buffer_library();
    let delay_for = |len: f64| -> f64 {
        let cfg = StageConfig {
            shaper: &lib[1],
            l_input_um: 200.0,
            drive: &lib[2],
            arms: &[(len, &lib[0])],
            wire: tech.wire(),
            ramp_slew: 80.0 * PS,
            rising: true,
        };
        stage(&tech, &cfg)
            .measure(&SimOptions::default_for(8.0 * NS))
            .expect("sim")
            .delay[0]
    };
    let d1 = delay_for(1000.0);
    let d2 = delay_for(2000.0);
    assert!(
        d2 > 2.2 * d1,
        "doubling length should more than double wire delay: {} -> {} ps",
        d1 / PS,
        d2 / PS
    );
}

/// Falling edges behave symmetrically enough to measure (the library
/// characterizes the worst case of both polarities).
#[test]
fn falling_edges_measurable() {
    let tech = Technology::nominal_45nm();
    let lib = tech.buffer_library();
    let cfg = StageConfig {
        shaper: &lib[1],
        l_input_um: 300.0,
        drive: &lib[1],
        arms: &[(500.0, &lib[1])],
        wire: tech.wire(),
        ramp_slew: 80.0 * PS,
        rising: false,
    };
    let m = stage(&tech, &cfg)
        .measure(&SimOptions::default_for(6.0 * NS))
        .expect("sim");
    assert!(m.input_slew > 0.0 && m.slew[0] > 0.0);
    assert!(m.intrinsic_delay > 0.0 && m.delay[0] > 0.0);
}

fn ps_vec(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| (x / PS * 10.0).round() / 10.0).collect()
}
