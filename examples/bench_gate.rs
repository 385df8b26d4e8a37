//! CI gate over the verify-throughput smoke bench: reads the fresh
//! `BENCH_ci.json` the criterion shim just wrote and enforces
//!
//! 1. the warm-cache verify of the 512-sink tree, and a fresh peer of
//!    that warm verifier, are each at least **5x** faster than the cold
//!    verify (the incremental stage store must actually be serving, and
//!    serving every verifier that shares it), and
//! 2. against an optional committed baseline, none of the cold, warm and
//!    peer medians regressed by more than **20%**, after normalizing both
//!    sides by the run's own `calibration` entry (a fixed pure-FP
//!    workload), so a slower CI runner is not misread as a code
//!    regression.
//!
//! ```sh
//! cargo run --release --example bench_gate -- BENCH_ci.json [BENCH_baseline.json]
//! ```
//!
//! When the fresh file also carries `synth_scale` entries (the scale
//! bench ran), two more rules apply:
//!
//! 3. the grid-indexed matcher must pair 100k roots at least **10x**
//!    faster than the retained brute scan (this PR's headline claim —
//!    both medians come from the same run, no normalization needed), and
//! 4. the 10k/100k synthesis tiers must not regress more than **50%**
//!    vs the baseline, calibration-normalized (a looser ceiling than the
//!    verify rule because the scale tiers are one-shot measurements).
//!
//! A missing baseline file (first run on a branch) or a baseline without
//! the verify entries (predating the bench) passes rule 2 with a notice,
//! and so does a baseline without the peer entry, for that entry alone;
//! a fresh file without `synth_scale` entries (a verify-only run) passes
//! rules 3–4 with a notice; a malformed fresh file always fails.

use cts::net::Json;
use std::process::ExitCode;

/// Minimum speedup over cold the warm and peer verifies must deliver.
const MIN_WARM_SPEEDUP: f64 = 5.0;
/// Maximum tolerated growth of a calibration-normalized median.
const MAX_REGRESSION: f64 = 1.20;
/// Minimum brute/spatial pairing speedup at 100k roots.
const MIN_MATCHING_SPEEDUP: f64 = 10.0;
/// Regression ceiling for the one-shot scale tiers (noisier than the
/// sampled verify medians, so a looser bound).
const SCALE_MAX_REGRESSION: f64 = 1.50;

const COLD: &str = "verify_512sinks/cold";
const WARM: &str = "verify_512sinks/warm";
const PEER: &str = "verify_512sinks/peer";
const CALIBRATION: &str = "verify_512sinks/calibration";
const MATCH_BRUTE: &str = "synth_scale/matching_100k_brute";
const MATCH_SPATIAL: &str = "synth_scale/matching_100k_spatial";
const SCALE_CALIBRATION: &str = "synth_scale/calibration";
const SCALE_TIERS: [&str; 2] = ["synth_scale/synth_10000", "synth_scale/synth_100000"];

/// `median_ns` of the entry with `id`, if present.
fn median_ns(entries: &Json, id: &str) -> Option<f64> {
    let Json::Arr(items) = entries else {
        return None;
    };
    items
        .iter()
        .find(|e| e.get("id").and_then(Json::as_str) == Some(id))
        .and_then(|e| e.get("median_ns"))
        .and_then(Json::as_f64)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(fresh_path) = args.next() else {
        eprintln!("usage: bench_gate <fresh BENCH_ci.json> [baseline BENCH_ci.json]");
        return ExitCode::FAILURE;
    };
    let baseline_path = args.next();

    let fresh = match load(&fresh_path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (Some(cold), Some(warm), Some(peer), Some(calib)) = (
        median_ns(&fresh, COLD),
        median_ns(&fresh, WARM),
        median_ns(&fresh, PEER),
        median_ns(&fresh, CALIBRATION),
    ) else {
        eprintln!(
            "bench_gate: {fresh_path} lacks the verify bench entries \
             ({COLD}, {WARM}, {PEER}, {CALIBRATION}) — did `cargo bench --bench verify` run?"
        );
        return ExitCode::FAILURE;
    };

    for (label, cached) in [("warm", warm), ("peer", peer)] {
        let speedup = cold / cached;
        println!(
            "bench_gate: cold {:.1} ms, {label} {:.2} ms — {label} speedup {speedup:.1}x \
             (floor {MIN_WARM_SPEEDUP}x)",
            cold / 1e6,
            cached / 1e6
        );
        if speedup < MIN_WARM_SPEEDUP {
            eprintln!(
                "bench_gate: FAIL — {label} verify must be at least {MIN_WARM_SPEEDUP}x cold"
            );
            return ExitCode::FAILURE;
        }
    }

    // Rule 3: the scale bench's pairing speedup, when that bench ran.
    match (
        median_ns(&fresh, MATCH_BRUTE),
        median_ns(&fresh, MATCH_SPATIAL),
    ) {
        (Some(brute), Some(spatial)) => {
            let pairing = brute / spatial;
            println!(
                "bench_gate: matching at 100k roots: brute {:.2} s, spatial {:.1} ms — \
                 {pairing:.0}x speedup (floor {MIN_MATCHING_SPEEDUP}x)",
                brute / 1e9,
                spatial / 1e6
            );
            if pairing < MIN_MATCHING_SPEEDUP {
                eprintln!(
                    "bench_gate: FAIL — indexed matching must pair 100k roots at least \
                     {MIN_MATCHING_SPEEDUP}x faster than the brute scan"
                );
                return ExitCode::FAILURE;
            }
        }
        _ => println!(
            "bench_gate: {fresh_path} lacks the {MATCH_BRUTE}/{MATCH_SPATIAL} entries \
             (verify-only run); skipping the matching-speedup floor"
        ),
    }

    let Some(baseline_path) = baseline_path else {
        println!("bench_gate: no baseline given; skipping the regression check");
        return ExitCode::SUCCESS;
    };
    let baseline = match load(&baseline_path) {
        Ok(j) => j,
        Err(e) => {
            println!("bench_gate: {e}; treating this as a first run — no regression check");
            return ExitCode::SUCCESS;
        }
    };
    let (Some(b_cold), Some(b_warm), Some(b_calib)) = (
        median_ns(&baseline, COLD),
        median_ns(&baseline, WARM),
        median_ns(&baseline, CALIBRATION),
    ) else {
        println!("bench_gate: {baseline_path} predates the verify bench; no regression check");
        return ExitCode::SUCCESS;
    };

    let mut checked = vec![("cold", cold, b_cold), ("warm", warm, b_warm)];
    match median_ns(&baseline, PEER) {
        Some(b_peer) => checked.push(("peer", peer, b_peer)),
        None => println!(
            "bench_gate: {baseline_path} predates the {PEER} entry; no regression check for it"
        ),
    }
    let mut ok = true;
    for (label, now, was) in checked {
        // Normalize by each run's own calibration so runner speed cancels.
        let ratio = (now / calib) / (was / b_calib);
        println!(
            "bench_gate: {label} calibration-normalized ratio vs baseline: {ratio:.3} \
             (ceiling {MAX_REGRESSION})"
        );
        if ratio > MAX_REGRESSION {
            eprintln!(
                "bench_gate: FAIL — {label} verify throughput regressed more than \
                 {:.0}% vs the committed baseline",
                (MAX_REGRESSION - 1.0) * 100.0
            );
            ok = false;
        }
    }
    // Rule 4: scale-tier regression, when both runs carry the entries.
    match (
        median_ns(&fresh, SCALE_CALIBRATION),
        median_ns(&baseline, SCALE_CALIBRATION),
    ) {
        (Some(s_calib), Some(bs_calib)) => {
            for tier in SCALE_TIERS {
                let (Some(now), Some(was)) = (median_ns(&fresh, tier), median_ns(&baseline, tier))
                else {
                    println!("bench_gate: {tier} missing on one side; skipping");
                    continue;
                };
                let ratio = (now / s_calib) / (was / bs_calib);
                println!(
                    "bench_gate: {tier} calibration-normalized ratio vs baseline: {ratio:.3} \
                     (ceiling {SCALE_MAX_REGRESSION})"
                );
                if ratio > SCALE_MAX_REGRESSION {
                    eprintln!(
                        "bench_gate: FAIL — {tier} synthesis throughput regressed more than \
                         {:.0}% vs the committed baseline",
                        (SCALE_MAX_REGRESSION - 1.0) * 100.0
                    );
                    ok = false;
                }
            }
        }
        _ => println!(
            "bench_gate: {SCALE_CALIBRATION} missing on one side; \
             skipping the scale-tier regression check"
        ),
    }

    if ok {
        println!("bench_gate: benchmark throughput within bounds ✓");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
