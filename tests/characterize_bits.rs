//! Bit pins for the delay-library characterization.
//!
//! The fast library is cached on disk under a name keyed by the technology
//! and the characterization config, not by the code, so a cached file
//! hides any drift in what the sweeps and fits compute. These tests
//! characterize afresh, bypassing the cache.
//!
//! * `sweep_and_fit_bits_are_pinned` (tier 1): FNV-1a over every sample of
//!   one single-wire and one branch sweep at the fast config, then over
//!   the fitted surfaces' records.
//! * `fresh_fast_library_bits_are_pinned` (`#[ignore]`d, ~5 s in release):
//!   FNV-1a over the text serialization of a fresh fast characterization.
//!   Run it with
//!   `cargo test --release --test characterize_bits -- --ignored`.

use cts::spice::Technology;
use cts_timing::{characterize, fit_sweep, save_library_string, sweep, CharacterizeConfig, Sample};

/// Plain 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn f64s(&mut self, values: impl IntoIterator<Item = f64>) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// Every sample in sweep order — input slew, arm lengths, intrinsic delay,
/// arm delays, arm slews — then the fitted surfaces in the order
/// intrinsic, arm delays, arm slews.
#[test]
fn sweep_and_fit_bits_are_pinned() {
    let tech = Technology::nominal_45nm();
    let cfg = CharacterizeConfig::fast();
    let cases = [
        (
            &[1][..],
            &cfg.wire_lengths_um,
            cfg.surface_order,
            12,
            0x0b37_8743_2fc3_6016,
            "single-wire sweep (drive 1, load 1)",
        ),
        (
            &[0, 2][..],
            &cfg.branch_lengths_um,
            cfg.volume_order,
            27,
            0x646b_2f78_0137_3a43,
            "branch sweep (drive 1, loads 0/2)",
        ),
    ];
    for (loads, lengths, order, n, bits, what) in cases {
        let samples = sweep(&tech, 1, loads, lengths, &cfg).unwrap();
        assert_eq!(samples.len(), n);
        let mut h = Fnv::new();
        for Sample {
            arm_lengths_um,
            measured: m,
        } in &samples
        {
            h.f64s([m.input_slew]);
            h.f64s(arm_lengths_um.iter().copied());
            h.f64s([m.intrinsic_delay]);
            h.f64s(m.delay.iter().chain(&m.slew).copied());
        }
        for fit in fit_sweep(&samples, order).unwrap() {
            h.f64s(fit.to_record());
        }
        assert_eq!(h.0, bits, "{what} drifted");
    }
}

/// The whole fast library, characterized afresh, as the bytes
/// `save_library_string` writes (69,362 bytes).
#[test]
#[ignore = "characterizes the whole fast library (~5 s in release)"]
fn fresh_fast_library_bits_are_pinned() {
    let lib = characterize(&Technology::nominal_45nm(), &CharacterizeConfig::fast()).unwrap();
    let text = save_library_string(&lib);
    assert_eq!(text.len(), 69_362);
    let mut h = Fnv::new();
    h.bytes(text.as_bytes());
    assert_eq!(
        h.0, 0x71e1_e486_c7e4_9c36,
        "fresh fast characterization drifted"
    );
}
