//! Delay and slew modeling for buffered clock tree synthesis.
//!
//! This crate implements Chapter 3 of the paper: the reasons simple models
//! fail, and the SPICE-characterized polynomial library that replaces them.
//!
//! * [`RcTree`] + [`metrics`] — the baselines: Elmore delay, response
//!   moments, the two-moment D2M delay metric and PERI ramp extensions.
//!   These are what the paper implemented, measured, and found insufficient
//!   (§3.1); the workspace keeps them for DME-style merge computation and
//!   for accuracy ablations.
//! * [`mod@characterize`] — one path for both of the paper's
//!   characterization circuits, which are one [`cts_spice::stages`] stage
//!   with `k` load arms (Fig. 3.3 single wire, `k = 1`; Fig. 3.5 branch,
//!   `k = 2`): [`sweep`] simulates it across input slew and arm lengths,
//!   [`fit_sweep`] fits its `1 + 2k` surfaces, and [`fn@characterize`]
//!   runs both for every buffer combination.
//! * [`fit`] — least-squares polynomial surfaces/volumes over the sweep
//!   data (the MATLAB surface fits of Figs. 3.4/3.6/3.7), in at most three
//!   variables ([`fit::MAX_DIMS`]), so evaluation standardizes a query into
//!   a stack array and never allocates.
//! * [`DelaySlewLibrary`] — the queryable library: buffer intrinsic delay,
//!   wire delay, and wire output slew as functions of input slew and
//!   length(s), per (driving buffer, load buffer) combination, with sink
//!   loads mapped to the nearest buffer by capacitance.
//!
//! # Hot-path queries
//!
//! The synthesis flow queries the library millions of times from inside
//! the maze router's wavefront. A caller that reads one field of a
//! single-wire stage should ask for that field alone:
//! [`DelaySlewLibrary::single_wire_delay`] and
//! [`DelaySlewLibrary::single_wire_slew`] evaluate one fitted surface
//! instead of the three behind [`DelaySlewLibrary::single_wire`], and
//! return the same bits as the matching [`StageTiming`] field.
//! * [`save_library_string`] / [`load_library_str`] — the exact plain-text
//!   format, and [`cached_library`] / [`fast_library`] — on-disk caches in
//!   it, named by a fingerprint of the technology and the config, so the
//!   (expensive) characterization runs once per machine.
//! * [`variation`] — deterministic process-variation corners: seeded
//!   perturbation of a characterized library plus a keyed derivation
//!   cache, the substrate of the workspace's Monte Carlo axis.
//!
//! # Example
//!
//! ```no_run
//! use cts_spice::Technology;
//! use cts_timing::{characterize, BufferId, CharacterizeConfig, Load};
//!
//! let tech = Technology::nominal_45nm();
//! let lib = characterize(&tech, &CharacterizeConfig::fast())?;
//! let timing = lib.single_wire(
//!     BufferId(0),
//!     Load::Buffer(BufferId(0)),
//!     60e-12, // 60 ps input slew
//!     800.0,  // 800 µm of wire
//! );
//! assert!(timing.output_slew > 0.0);
//! # Ok::<(), cts_timing::CharacterizeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod characterize;
pub mod fit;
mod io;
mod library;
mod linalg;
pub mod metrics;
mod rctree;
pub mod variation;

pub use characterize::{
    characterize, fit_sweep, sweep, CharacterizeConfig, CharacterizeError, Sample,
};
pub use io::{
    load_library_file, load_library_str, save_library_file, save_library_string, ParseLibraryError,
};
pub use library::{
    BranchFns, BranchTiming, BufferId, DelaySlewLibrary, Load, SingleWireFns, StageTiming,
    WireDelayCurve,
};
pub use rctree::{RcNodeId, RcTree};
pub use variation::{
    corner_seed, library_fingerprint, perturb_library, CornerLibraryCache, PerturbSigma,
};

use cts_spice::Technology;
use cts_util::Fnv1a;
use std::sync::OnceLock;

/// Revision embedded in [`cached_library`]'s file names. The name also
/// embeds a fingerprint of the technology and the characterization config,
/// so *numeric* drift in either invalidates a cache automatically. Drift in
/// what the characterization **code** (stage circuits, sweeps, fits)
/// computes does not change the name; `tests/characterize_bits.rs` pins
/// the bits of a fresh characterization so such drift fails there, and the
/// change that causes it bumps this revision.
const LIB_CACHE_REV: &str = "v1";

/// Returns the delay/slew library of `tech` characterized with `cfg`,
/// cached on disk as `{stem}.v1-{fingerprint:016x}.txt` under the
/// workspace `target/` directory (or `CARGO_TARGET_DIR` when set), so the
/// many test and benchmark binaries pay the characterization cost once per
/// machine instead of once per process. The fingerprint is FNV-1a over
/// the revision and the debug renderings of `tech` and `cfg`. The text
/// serialization is exact (17-significant-digit floats), so cached and
/// freshly characterized libraries answer queries identically; a stale or
/// corrupt file is regenerated, and a concurrent writer never exposes a
/// torn one (write, then rename).
///
/// Set `CTS_NO_LIB_CACHE` to any non-empty value other than `0` to bypass
/// the disk cache and characterize in-process — the manual escape hatch
/// for validating cache-vs-fresh equivalence or working around a damaged
/// `target/` directory.
///
/// # Errors
///
/// Returns a description if characterization fails. A file that cannot be
/// written is only warned about.
pub fn cached_library(
    stem: &str,
    tech: &Technology,
    cfg: &CharacterizeConfig,
) -> Result<DelaySlewLibrary, String> {
    let cache_disabled = std::env::var("CTS_NO_LIB_CACHE")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    if cache_disabled {
        return characterize(tech, cfg).map_err(|e| e.to_string());
    }
    let target_dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target"));
    let mut h = Fnv1a::default();
    h.bytes(format!("{LIB_CACHE_REV}|{tech:?}|{cfg:?}").as_bytes());
    let path = target_dir.join(format!("{stem}.{LIB_CACHE_REV}-{:016x}.txt", h.finish64()));
    if let Ok(lib) = load_library_file(&path) {
        return Ok(lib);
    }
    let lib = characterize(tech, cfg).map_err(|e| e.to_string())?;
    let _ = std::fs::create_dir_all(&target_dir);
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let cached = save_library_file(&lib, &tmp)
        .map_err(|e| e.to_string())
        .and_then(|()| {
            std::fs::rename(&tmp, &path).map_err(|e| {
                let _ = std::fs::remove_file(&tmp);
                format!("renaming {} into place: {e}", tmp.display())
            })
        });
    if let Err(e) = cached {
        eprintln!(
            "warning: could not cache library at {}: {e}",
            path.display()
        );
    }
    Ok(lib)
}

/// Returns a process-wide delay/slew library for
/// [`Technology::nominal_45nm`], characterized with
/// [`CharacterizeConfig::fast`] on first use and cached thereafter: in
/// memory per process, and on disk through [`cached_library`] as
/// `ctslib_fast.v1-<fingerprint>.txt`.
///
/// Flows that need the full-resolution library should ask
/// [`cached_library`] for [`CharacterizeConfig::standard`] themselves (the
/// benchmark binaries do, under `CTS_STANDARD_LIB=1`).
///
/// # Panics
///
/// Panics if characterization fails — with the nominal technology and fast
/// config this indicates a broken build, not a recoverable condition.
pub fn fast_library() -> &'static DelaySlewLibrary {
    static LIB: OnceLock<DelaySlewLibrary> = OnceLock::new();
    LIB.get_or_init(|| {
        let tech = Technology::nominal_45nm();
        cached_library("ctslib_fast", &tech, &CharacterizeConfig::fast())
            .expect("fast characterization of the nominal technology must succeed")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_library_is_cached_and_consistent() {
        let a = fast_library() as *const _;
        let b = fast_library() as *const _;
        assert_eq!(a, b, "must return the same cached instance");
        let lib = fast_library();
        assert_eq!(lib.buffers().len(), 3);
        assert!((lib.vdd() - 1.1).abs() < 1e-12);
    }
}
