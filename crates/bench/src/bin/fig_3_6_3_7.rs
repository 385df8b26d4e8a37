//! Regenerates **Figures 3.6 and 3.7**: branch wire delays of the left and
//! right branch as functions of the two branch lengths — the hyperplane
//! fits of the branch characterization.
//!
//! ```sh
//! cargo run --release -p cts-bench --bin fig_3_6_3_7
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
    let (drive, ll, lr) = (1usize, 1usize, 1usize);
    let slew = 80.0 * PS;

    println!(
        "== Figures 3.6/3.7: {} branch wire delays vs (l_left, l_right) at {} ps input slew ==\n",
        tech.buffer_library()[drive].name(),
        slew / PS
    );

    let lengths = [100.0, 500.0, 900.0, 1300.0];
    println!("-- Figure 3.6: LEFT branch delay (ps), fitted volume --");
    print!("{:>12}", "l_l \\ l_r");
    for &lr_um in &lengths {
        print!("{lr_um:>10.0}");
    }
    println!();
    for &ll_um in &lengths {
        print!("{ll_um:>12.0}");
        for &lr_um in &lengths {
            let t = lib.branch(
                BufferId(drive),
                (Load::Buffer(BufferId(ll)), Load::Buffer(BufferId(lr))),
                slew,
                (ll_um, lr_um),
            );
            print!("{:>10.2}", t.left_delay / PS);
        }
        println!();
    }

    println!("\n-- Figure 3.7: RIGHT branch delay (ps), fitted volume --");
    print!("{:>12}", "l_l \\ l_r");
    for &lr_um in &lengths {
        print!("{lr_um:>10.0}");
    }
    println!();
    for &ll_um in &lengths {
        print!("{ll_um:>12.0}");
        for &lr_um in &lengths {
            let t = lib.branch(
                BufferId(drive),
                (Load::Buffer(BufferId(ll)), Load::Buffer(BufferId(lr))),
                slew,
                (ll_um, lr_um),
            );
            print!("{:>10.2}", t.right_delay / PS);
        }
        println!();
    }

    // Residuals against a fresh simulation sweep.
    println!("\n-- fit residuals vs direct simulation (sampled) --");
    let samples =
        sweep(&tech, drive, &[ll, lr], &cfg.branch_lengths_um, &cfg).expect("branch sweep");
    let mut worst_l: f64 = 0.0;
    let mut worst_r: f64 = 0.0;
    for s in &samples {
        let m = &s.measured;
        let t = lib.branch(
            BufferId(drive),
            (Load::Buffer(BufferId(ll)), Load::Buffer(BufferId(lr))),
            m.input_slew,
            (s.arm_lengths_um[0], s.arm_lengths_um[1]),
        );
        worst_l = worst_l.max((t.left_delay - m.delay[0]).abs());
        worst_r = worst_r.max((t.right_delay - m.delay[1]).abs());
    }
    println!(
        "worst residual: left {:.2} ps, right {:.2} ps over {} samples",
        worst_l / PS,
        worst_r / PS,
        samples.len()
    );
    println!(
        "\npaper's observation: each branch's delay depends on BOTH lengths (resistive \
         shielding), so the fits live in the joint (slew, l_left, l_right) space."
    );
}
