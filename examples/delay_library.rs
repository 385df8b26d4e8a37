//! Delay-library tour: characterize buffers and wires against the circuit
//! simulator, inspect the fitted surfaces (the Fig. 3.4 data), and measure
//! the fit error on a held-out point.
//!
//! Run with:
//! ```sh
//! cargo run --release --example delay_library
//! ```

use cts::spice::stages::{stage, StageConfig};
use cts::spice::units::{NS, PS};
use cts::spice::SimOptions;
use cts::timing::{BufferId, CharacterizeConfig, Load};
use cts::Technology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = Technology::nominal_45nm();
    let cfg = CharacterizeConfig::fast();
    println!(
        "characterizing {} buffers over {} slews x {} lengths (+ branch grids)...",
        tech.buffer_library().len(),
        cfg.input_wire_lengths_um.len(),
        cfg.wire_lengths_um.len()
    );
    let library = cts::timing::characterize(&tech, &cfg)?;
    println!("built {library}");

    // A Fig. 3.4-style slice: 20X buffer intrinsic delay vs input slew at
    // two wire lengths.
    let drive = BufferId(1);
    let load = Load::Buffer(BufferId(1));
    println!("\nBUF20X intrinsic delay (ps) from the fitted surface:");
    println!("{:>12} {:>12} {:>12}", "slew (ps)", "L=300 µm", "L=1200 µm");
    for slew_ps in [20.0, 40.0, 60.0, 90.0, 120.0] {
        let d1 = library.single_wire(drive, load, slew_ps * PS, 300.0);
        let d2 = library.single_wire(drive, load, slew_ps * PS, 1200.0);
        println!(
            "{:>12.0} {:>12.2} {:>12.2}",
            slew_ps,
            d1.buffer_delay / PS,
            d2.buffer_delay / PS
        );
    }

    // Held-out accuracy check: simulate an off-grid configuration.
    let buffers = tech.buffer_library();
    let probe = StageConfig {
        shaper: &buffers[1],
        l_input_um: 650.0,
        drive: &buffers[1],
        arms: &[(777.0, &buffers[1])],
        wire: tech.wire(),
        ramp_slew: 80.0 * PS,
        rising: true,
    };
    let truth = stage(&tech, &probe).measure(&SimOptions::default_for(5.0 * NS))?;
    let pred = library.single_wire(drive, load, truth.input_slew, 777.0);
    println!(
        "\nheld-out point (777 µm, measured slew {:.1} ps):",
        truth.input_slew / PS
    );
    println!(
        "  wire delay: simulated {:.2} ps vs library {:.2} ps",
        truth.delay[0] / PS,
        pred.wire_delay / PS
    );
    println!(
        "  wire slew:  simulated {:.2} ps vs library {:.2} ps",
        truth.slew[0] / PS,
        pred.output_slew / PS
    );
    Ok(())
}
