//! Regenerates **Figure 1.1**: wire output slew vs wire length for 20X and
//! 30X driving buffers — the motivation that buffer *sizing* alone cannot
//! control slew on long wires.
//!
//! ```sh
//! cargo run --release -p cts-bench --bin fig_1_1
//! ```

use cts::spice::stages::{stage, StageConfig};
use cts::spice::units::{NS, PS};
use cts::spice::SimOptions;
use cts::Technology;

fn main() {
    let tech = Technology::nominal_45nm();
    let buffers = tech.buffer_library();
    let (buf20, buf30) = (&buffers[1], &buffers[2]);
    let opts = SimOptions::default_for(10.0 * NS);

    println!("== Figure 1.1: wire output slew vs wire length (SPICE sweep) ==");
    println!(
        "{:>12} {:>14} {:>14} {:>16}",
        "length (µm)", "20X slew (ps)", "30X slew (ps)", "30X improvement"
    );
    for &len in &[250.0, 500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0] {
        let slew = |drive| {
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
                .measure(&opts)
                .expect("sweep point must simulate")
                .slew[0]
        };
        let (s20, s30) = (slew(buf20), slew(buf30));
        println!(
            "{:>12.0} {:>14.1} {:>14.1} {:>15.1} %",
            len,
            s20 / PS,
            s30 / PS,
            100.0 * (s20 - s30) / s20
        );
    }
    println!(
        "\npaper's observation: slew grows dramatically with length; upsizing 20X->30X \
         gives only a slight improvement, so long wires need buffers *along* them."
    );
}
