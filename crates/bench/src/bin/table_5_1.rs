//! Regenerates **Table 5.1**: GSRC benchmarks r1–r5 — SPICE-verified worst
//! slew, skew, and max latency, next to the paper's reported values and
//! prior-work skews.
//!
//! ```sh
//! cargo run --release -p cts-bench --bin table_5_1            # r1..r3 (quick)
//! cargo run --release -p cts-bench --bin table_5_1 -- --full  # all five
//! ```

use cts::benchmarks::gsrc_suite;
use cts::spice::units::PS;
use cts::{CtsOptions, Technology};
use cts_bench::{
    full_run_requested, library, print_flow_header, print_flow_row, print_shape_check, run_suite,
};

/// One paper row of Table 5.1: (bench, sinks, worst slew ps, skew ps,
/// latency ns, skew of \[6\], skew of \[8\], skew of \[16\]).
type PaperRow = (&'static str, usize, f64, f64, f64, f64, f64, f64);

const PAPER: [PaperRow; 5] = [
    ("r1", 267, 89.5, 69.7, 1.30, 100.0, 57.0, 37.0),
    ("r2", 598, 89.3, 59.9, 1.69, 96.0, 87.4, 59.5),
    ("r3", 862, 89.7, 64.2, 1.95, 101.0, 59.6, 49.5),
    ("r4", 1903, 100.0, 107.1, 2.75, 176.0, 98.6, 59.8),
    ("r5", 3101, 98.3, 89.4, 3.00, 110.0, 86.9, 50.6),
];

fn main() {
    let tech = Technology::nominal_45nm();
    let lib = library(&tech);
    let full = full_run_requested();
    let mut suite = gsrc_suite();
    if !full {
        suite.truncate(3);
        println!("(quick mode: r1–r3; pass --full for r4/r5)\n");
    }

    println!("== Table 5.1: GSRC benchmarks (this reproduction) ==");
    // The whole suite goes through the sharded batch driver: instances
    // spread over the cores, SPICE verification overlapped with synthesis.
    let rows = run_suite(&lib, &tech, CtsOptions::default(), &suite);
    print_flow_header();
    for row in &rows {
        print_flow_row(row);
    }

    println!("\n== Table 5.1: paper values (ps / ns) and prior-work skews ==");
    println!(
        "{:<6} {:>7} {:>11} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "bench", "#sinks", "worst slew", "skew", "latency", "[6]", "[8]", "[16]"
    );
    for (name, sinks, slew, skew, lat, s6, s8, s16) in PAPER {
        println!(
            "{:<6} {:>7} {:>8.1} ps {:>6.1} ps {:>6.2} ns {:>6.1} {:>9.1} {:>9.1}",
            name, sinks, slew, skew, lat, s6, s8, s16
        );
    }

    println!("\n== shape checks ==");
    for row in &rows {
        let paper = PAPER.iter().find(|p| p.0 == row.name).expect("known");
        let ratio = (row.skew / PS) / paper.3;
        print_shape_check(row, format_args!("skew at {ratio:.1}x the paper's"));
    }
}
