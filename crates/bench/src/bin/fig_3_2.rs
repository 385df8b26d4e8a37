//! Regenerates **Figure 3.2**: the curve-vs-ramp experiment — two input
//! waveforms with the *same 10–90 % slew* but different shapes shift the
//! buffer output by tens of ps (the paper measures 32 ps at 150 ps slew).
//!
//! ```sh
//! cargo run --release -p cts-bench --bin fig_3_2
//! ```

use cts::spice::stages::{stage, StageConfig};
use cts::spice::units::{NS, PS};
use cts::spice::{simulate, Circuit, SimOptions, Waveform};
use cts::Technology;

fn main() {
    let tech = Technology::nominal_45nm();
    let buffers = tech.buffer_library();
    let drive = &buffers[1];
    let opts = SimOptions::default_for(8.0 * NS);

    println!("== Figure 3.2: curve vs ramp input, same 10-90% slew ==\n");
    println!(
        "{:>16} {:>14} {:>12} {:>12} {:>10}",
        "shaping L (µm)", "slew (ps)", "curve t50", "ramp t50", "shift"
    );

    for &l_shape in &[1200.0, 1800.0, 2400.0] {
        // Build the curved waveform through a buffer + long wire.
        let cfg = StageConfig {
            shaper: &buffers[0],
            l_input_um: l_shape,
            drive,
            arms: &[(600.0, &buffers[1])],
            wire: tech.wire(),
            ramp_slew: 150.0 * PS,
            rising: true,
        };
        let shaping = stage(&tech, &cfg);
        let res = simulate(&shaping.circuit, &opts).expect("shaping sim");
        let curved = res.waveform(shaping.probes.drive_in);
        let slew = curved.slew_10_90(tech.vdd()).expect("curved slew");
        let out_curve = res.waveform(shaping.probes.load_in[0]);
        let t50_curve = out_curve.t50(tech.vdd()).expect("curve output edge");

        // Ideal ramp with identical slew, aligned at the 10 % crossing.
        let t10_curve = curved.first_crossing(0.1 * tech.vdd(), true).expect("t10");
        let ramp0 = Waveform::rising_ramp_10_90(100.0 * PS, slew, tech.vdd());
        let t10_ramp = ramp0.first_crossing(0.1 * tech.vdd(), true).expect("t10");
        let ramp = ramp0.shifted(t10_curve - t10_ramp);

        let mut c = Circuit::new(&tech);
        let din = c.add_node("drive_in");
        let dout = c.add_node("drive_out");
        c.add_buffer(din, dout, drive);
        let lin = c.add_node("load_in");
        c.add_wire(dout, lin, 600.0, tech.wire());
        let lout = c.add_node("load_out");
        c.add_buffer(lin, lout, &buffers[1]);
        c.drive(din, ramp);
        let res2 = simulate(&c, &opts).expect("ramp sim");
        let t50_ramp = res2
            .waveform(lin)
            .t50(tech.vdd())
            .expect("ramp output edge");

        println!(
            "{:>16.0} {:>14.1} {:>9.1} ps {:>9.1} ps {:>7.1} ps",
            l_shape,
            slew / PS,
            t50_curve / PS,
            t50_ramp / PS,
            (t50_curve - t50_ramp).abs() / PS
        );
    }
    println!(
        "\npaper's observation: at 150 ps slew the output shifted by 32 ps — waveform \
         *shape* matters, which is why the library is characterized with real buffer \
         output waveforms instead of ramps."
    );
}
