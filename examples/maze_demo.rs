//! Maze-routing demo (paper Figs. 4.3/4.4): route one merge between two
//! far-apart sub-trees and print the buffered paths the bi-directional
//! router committed.
//!
//! Run with:
//! ```sh
//! cargo run --release --example maze_demo
//! ```

use cts::core::maze::{MazeRouter, MergeSide};
use cts::geom::Point;
use cts::spice::units::PS;
use cts::timing::Load;
use cts::CtsOptions;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let library = cts::timing::fast_library();
    let options = CtsOptions::default();
    let router = MazeRouter::new(library, &options);

    // Two sub-tree roots 7 mm apart; side A is 40 ps slower.
    let a = MergeSide {
        root_point: Point::new(0.0, 0.0),
        root_load: Load::Sink { cap: 30e-15 },
        subtree_delay: 40.0 * PS,
        unbuffered_depth_um: 0.0,
    };
    let b = MergeSide {
        root_point: Point::new(7000.0, 500.0),
        root_load: Load::Sink { cap: 30e-15 },
        subtree_delay: 0.0,
        unbuffered_depth_um: 0.0,
    };

    let plan = router.route(&a, &b)?;
    println!("merge point: {}", plan.merge_point);
    for (label, side, root) in [
        ("A", &plan.sides[0], a.root_point),
        ("B", &plan.sides[1], b.root_point),
    ] {
        println!(
            "\nside {label}: {} buffers, committed delay {:.1} ps, arrival estimate {:.1} ps",
            side.buffers.len(),
            side.committed_delay / PS,
            side.arrival_estimate / PS
        );
        let mut at = root;
        for (i, buf) in side.buffers.iter().enumerate() {
            println!(
                "  [{i}] {} after {:.0} µm of wire at {}",
                library.buffer(buf.buffer).name(),
                buf.wire_below_um,
                buf.position
            );
            at = buf.position;
        }
        println!(
            "  top wire: {:.0} µm from {} to the merge point",
            side.top_wire_um, at
        );
    }
    println!(
        "\narrival difference at the merge: {:.2} ps (binary search trims the rest)",
        (plan.sides[0].arrival_estimate - plan.sides[1].arrival_estimate).abs() / PS
    );
    Ok(())
}
