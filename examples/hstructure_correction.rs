//! H-structure correction demo (paper §4.1.2, Table 5.3): synthesize the
//! same instance with correction off, with re-estimation (Method 1), and
//! with full correction (Method 2), and compare skews and flip counts.
//!
//! Run with:
//! ```sh
//! cargo run --release --example hstructure_correction
//! ```

use cts::benchmarks::generate_custom;
use cts::spice::units::PS;
use cts::{CtsOptions, HCorrection, Synthesizer, Technology, VerifyOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let instance = generate_custom("hdemo", 48, 6000.0, 20260610);
    println!("instance: {instance}");

    let tech = Technology::nominal_45nm();
    let library = cts::timing::fast_library();

    let mut original_skew = None;
    println!(
        "\n{:<16} {:>10} {:>10} {:>10} {:>10}",
        "mode", "skew", "ratio", "flippings", "buffers"
    );
    for mode in [
        HCorrection::Off,
        HCorrection::ReEstimate,
        HCorrection::Correct,
    ] {
        let options = CtsOptions::builder().h_correction(mode).build()?;
        let synth = Synthesizer::new(library, options);
        let result = synth.synthesize(&instance)?;
        let verified = cts::verify_tree(
            &result.tree,
            result.source,
            &tech,
            &VerifyOptions::default(),
        )?;
        let ratio = match original_skew {
            None => {
                original_skew = Some(verified.skew);
                "—".to_string()
            }
            Some(base) => format!("{:+.2} %", 100.0 * (verified.skew - base) / base),
        };
        println!(
            "{:<16} {:>7.1} ps {:>10} {:>10} {:>10}",
            mode.to_string(),
            verified.skew / PS,
            ratio,
            result.flippings,
            result.buffers
        );
    }
    println!("\n(negative ratios mean the correction improved the tree, as in Table 5.3)");
    Ok(())
}
