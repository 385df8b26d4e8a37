//! Regenerates **Figure 3.4**: buffer intrinsic delay as a function of
//! input slew and load wire length — raw characterization samples next to
//! the fitted polynomial surface, with fit residuals.
//!
//! ```sh
//! cargo run --release -p cts-bench --bin fig_3_4
//! ```

use cts::spice::units::PS;
use cts::timing::{sweep, BufferId, Load};
use cts::Technology;
use cts_bench::{library, library_config};

fn main() {
    let tech = Technology::nominal_45nm();
    let lib = library(&tech);
    // Sweep with the library's own config: the residuals are its fit's.
    let (_, cfg) = library_config();

    // The paper plots one (drive, load) combination; use 20X -> 20X.
    let (drive, load) = (1usize, 1usize);
    println!(
        "== Figure 3.4: {} intrinsic delay vs (input slew, wire length) ==\n",
        tech.buffer_library()[drive].name()
    );
    println!("-- raw characterization samples (SPICE sweep) --");
    println!(
        "{:>14} {:>14} {:>16}",
        "slew (ps)", "length (µm)", "intrinsic (ps)"
    );
    let samples = sweep(&tech, drive, &[load], &cfg.wire_lengths_um, &cfg).expect("sweep");
    for s in &samples {
        println!(
            "{:>14.1} {:>14.0} {:>16.2}",
            s.measured.input_slew / PS,
            s.arm_lengths_um[0],
            s.measured.intrinsic_delay / PS
        );
    }

    println!("\n-- fitted surface (delay library), with residual vs samples --");
    println!(
        "{:>14} {:>14} {:>13} {:>12}",
        "slew (ps)", "length (µm)", "fit (ps)", "residual"
    );
    let mut worst: f64 = 0.0;
    for s in &samples {
        let (m, length_um) = (&s.measured, s.arm_lengths_um[0]);
        let fit = lib
            .single_wire(
                BufferId(drive),
                Load::Buffer(BufferId(load)),
                m.input_slew,
                length_um,
            )
            .buffer_delay;
        let resid = (fit - m.intrinsic_delay).abs();
        worst = worst.max(resid);
        if length_um > 500.0 && length_um < 1600.0 {
            println!(
                "{:>14.1} {:>14.0} {:>13.2} {:>9.2} ps",
                m.input_slew / PS,
                length_um,
                fit / PS,
                resid / PS
            );
        }
    }
    println!("\nworst residual over the sweep: {:.2} ps", worst / PS);
    println!(
        "paper's observation: intrinsic delay varies by several ps across input slews \
         (\"up to 10 ps for a 10X buffer\"), so the surface must be slew-indexed."
    );
}
