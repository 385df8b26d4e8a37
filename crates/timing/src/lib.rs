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
//! * [`mod@characterize`] — sweeps the Fig. 3.3 (single-wire) and Fig. 3.5
//!   (branch) circuits on the [`cts_spice`] simulator across input slew and
//!   wire lengths for every buffer combination.
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
//! * [`save_library_string`] / [`load_library_str`] — plain-text caching so
//!   the (expensive) characterization runs once.
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
    characterize, sweep_branch, sweep_single_wire, BranchSample, CharacterizeConfig,
    CharacterizeError, SingleWireSample,
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

/// Cache-file revision for [`fast_library`]'s on-disk cache. The file name
/// also embeds a fingerprint hash of the fast config and the nominal
/// technology parameters, so *numeric* drift in either invalidates the
/// cache automatically; bump this only when the characterization
/// **pipeline code** (sweeps, fits, stage circuits) changes behavior
/// without touching those parameters.
const FAST_LIB_CACHE_REV: &str = "v1";

/// FNV-1a over the debug renderings of the characterization inputs — the
/// staleness key embedded in the cache file name.
fn fast_lib_fingerprint(tech: &Technology, cfg: &CharacterizeConfig) -> u64 {
    let mut h = Fnv1a::default();
    h.bytes(format!("{FAST_LIB_CACHE_REV}|{tech:?}|{cfg:?}").as_bytes());
    h.finish64()
}

/// Returns a process-wide delay/slew library for
/// [`Technology::nominal_45nm`], characterized with
/// [`CharacterizeConfig::fast`] on first use and cached thereafter — in
/// memory per process, and on disk under the workspace `target/` directory
/// so the many test binaries of a `cargo test` run pay the characterization
/// cost once per machine instead of once per binary. The text serialization
/// is exact (17-significant-digit floats), so cached and freshly
/// characterized libraries answer queries identically.
///
/// Set `CTS_NO_LIB_CACHE` to any non-empty value other than `0` to bypass
/// the disk cache and characterize in-process — the manual escape hatch
/// for validating cache-vs-fresh equivalence or working around a damaged
/// `target/` directory. The cache honors `CARGO_TARGET_DIR` when set and
/// falls back to the workspace-relative `target/` otherwise.
///
/// Flows that need the full-resolution library should run [`fn@characterize`]
/// with [`CharacterizeConfig::standard`] themselves (the benchmark binaries
/// cache it on disk).
///
/// # Panics
///
/// Panics if characterization fails — with the nominal technology and fast
/// config this indicates a broken build, not a recoverable condition.
pub fn fast_library() -> &'static DelaySlewLibrary {
    static LIB: OnceLock<DelaySlewLibrary> = OnceLock::new();
    LIB.get_or_init(|| {
        let tech = Technology::nominal_45nm();
        let cfg = CharacterizeConfig::fast();
        let cache_disabled = std::env::var("CTS_NO_LIB_CACHE")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        if cache_disabled {
            return characterize(&tech, &cfg)
                .expect("fast characterization of the nominal technology must succeed");
        }
        let target_dir = std::env::var_os("CARGO_TARGET_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| {
                std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target")
            });
        let path = target_dir.join(format!(
            "ctslib_fast.{FAST_LIB_CACHE_REV}-{:016x}.txt",
            fast_lib_fingerprint(&tech, &cfg)
        ));
        load_or_characterize(&path, &tech, &cfg)
            .expect("fast characterization of the nominal technology must succeed")
    })
}

/// Loads a delay/slew library from `path`, or characterizes one with the
/// given config and caches it there. Examples and the benchmark binaries
/// use this so the multi-minute standard characterization runs once per
/// machine.
///
/// # Errors
///
/// Returns a description if characterization fails; a *stale or corrupt*
/// cache file is regenerated rather than reported.
pub fn load_or_characterize(
    path: impl AsRef<std::path::Path>,
    tech: &Technology,
    cfg: &CharacterizeConfig,
) -> Result<DelaySlewLibrary, String> {
    let path = path.as_ref();
    if let Ok(lib) = load_library_file(path) {
        return Ok(lib);
    }
    let lib = characterize(tech, cfg).map_err(|e| e.to_string())?;
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    // Write-then-rename so concurrent processes sharing the cache (test
    // and bench runs against one `target/`) never observe a torn file.
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let cached = save_library_file(&lib, &tmp)
        .map_err(|e| e.to_string())
        .and_then(|()| {
            std::fs::rename(&tmp, path).map_err(|e| {
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
