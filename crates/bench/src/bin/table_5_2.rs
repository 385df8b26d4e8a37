//! Regenerates **Table 5.2**: ISPD 2009 benchmarks — SPICE-verified worst
//! slew, skew, and max latency, plus each row's slew-limit check and the
//! paper's "skew within 3 % of latency" observation.
//!
//! ```sh
//! cargo run --release -p cts-bench --bin table_5_2            # f11..f22
//! cargo run --release -p cts-bench --bin table_5_2 -- --full  # all seven
//! ```

use cts::benchmarks::ispd_suite;
use cts::{CtsOptions, Technology};
use cts_bench::{
    full_run_requested, library, print_flow_header, print_flow_row, print_shape_check, run_suite,
};

/// Paper Table 5.2: (bench, sinks, worst slew ps, skew ps, latency ns).
const PAPER: [(&str, usize, f64, f64, f64); 7] = [
    ("f11", 121, 99.2, 45.2, 2.26),
    ("f12", 117, 83.6, 45.8, 1.92),
    ("f21", 117, 99.2, 51.1, 2.16),
    ("f22", 91, 100.0, 42.4, 1.62),
    ("f31", 273, 98.1, 65.1, 4.22),
    ("f32", 190, 85.2, 52.3, 3.38),
    ("fnb1", 330, 80.0, 68.6, 4.67),
];

fn main() {
    let tech = Technology::nominal_45nm();
    let lib = library(&tech);
    let full = full_run_requested();
    let mut suite = ispd_suite();
    if !full {
        suite.truncate(4);
        println!("(quick mode: f11..f22; pass --full for all seven)\n");
    }

    println!("== Table 5.2: ISPD'09 benchmarks (this reproduction) ==");
    // Sharded batch run with overlapped SPICE verification.
    let rows = run_suite(&lib, &tech, CtsOptions::default(), &suite);
    print_flow_header();
    for row in &rows {
        print_flow_row(row);
    }

    println!("\n== Table 5.2: paper values ==");
    println!(
        "{:<6} {:>7} {:>11} {:>9} {:>9} {:>12}",
        "bench", "#sinks", "worst slew", "skew", "latency", "skew/latency"
    );
    for (name, sinks, slew, skew, lat) in PAPER {
        println!(
            "{:<6} {:>7} {:>8.1} ps {:>6.1} ps {:>6.2} ns {:>10.1} %",
            name,
            sinks,
            slew,
            skew,
            lat,
            0.1 * skew / lat
        );
    }

    println!("\n== shape checks (paper: skew within 3 % of latency) ==");
    for row in &rows {
        let pct = 100.0 * row.skew / row.max_latency;
        print_shape_check(row, format_args!("skew at {pct:.1} % of latency"));
    }
}
