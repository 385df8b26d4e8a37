//! Process-variation corners: deterministic perturbation of a
//! characterized [`DelaySlewLibrary`] plus a keyed derivation cache.
//!
//! Monte Carlo corner analysis reduces to "evaluate the same instance
//! under N perturbed libraries" (sampling-based buffer insertion under
//! variability, arXiv:1705.04990). This module supplies the library
//! half of that axis:
//!
//! - [`corner_seed`] mixes a user seed with a corner index into an
//!   independent per-corner stream seed (pinned — see the unit tests).
//! - [`perturb_library`] derives a perturbed copy of a base library by
//!   scaling every fitted surface with a factor `1 + sigma * u`,
//!   `u ~ U(-1, 1)` drawn from the workspace's pinned xoshiro stream.
//! - [`CornerLibraryCache`] memoizes derivations keyed by
//!   `(base fingerprint, corner seed, sigma bits)` so a service
//!   evaluating hundreds of corners per instance derives each corner
//!   library once.
//!
//! Determinism contract: the perturbation draw order is fixed (single
//! fits in index order, three draws each; branch fits in stored order,
//! five draws each), every draw happens even when its sigma is zero
//! (stream alignment), and `sigma == 0` multiplies by exactly `1.0`,
//! reproducing the base library bit-for-bit. The cache is a pure
//! memoizer — hit or miss, the returned library is identical.

use crate::io::save_library_string;
use crate::library::DelaySlewLibrary;
use cts_util::Fnv1a;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Relative perturbation half-widths for one corner draw.
///
/// Each fitted surface is scaled by `1 + sigma * u` with `u ~ U(-1, 1)`,
/// so a sigma of `0.1` means "up to ±10 % on that parameter class".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerturbSigma {
    /// Half-width applied to buffer intrinsic-delay surfaces.
    pub buffer_delay: f64,
    /// Half-width applied to wire-delay surfaces.
    pub wire_delay: f64,
    /// Half-width applied to slew surfaces.
    pub slew: f64,
}

impl PerturbSigma {
    /// The cache-key rendering: exact IEEE-754 bits of each sigma, so
    /// two configs share a cache slot iff their sigmas are bit-equal.
    fn key_bits(&self) -> [u64; 3] {
        [
            self.buffer_delay.to_bits(),
            self.wire_delay.to_bits(),
            self.slew.to_bits(),
        ]
    }
}

/// Mixes a user-facing variation seed and a corner index into the
/// per-corner stream seed fed to [`perturb_library`].
///
/// SplitMix64-style finalizer: adjacent `(seed, corner)` pairs land on
/// decorrelated streams. The mapping is part of the determinism
/// contract and pinned by a unit test — changing it invalidates golden
/// corner values everywhere.
pub fn corner_seed(seed: u64, corner: u64) -> u64 {
    let mut z = seed ^ corner.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a ([`Fnv1a::finish64`]) of a library's exact serialized text —
/// the "base library" component of the corner-cache key.
///
/// Uses the same hash (and the same serialization,
/// [`crate::save_library_string`]) as the on-disk fast-library cache,
/// so bit-identical libraries fingerprint identically across processes.
pub fn library_fingerprint(lib: &DelaySlewLibrary) -> u64 {
    let mut h = Fnv1a::default();
    h.bytes(save_library_string(lib).as_bytes());
    h.finish64()
}

/// Derives the perturbed library for one corner.
///
/// One [`StdRng`] is seeded from `corner_seed` (see [`corner_seed`] for
/// the mixing) and consumed in a fixed order: every single-wire fit in
/// index order draws three factors (intrinsic → `sigma.buffer_delay`,
/// wire delay → `sigma.wire_delay`, wire slew → `sigma.slew`), then
/// every branch fit in stored order draws five (intrinsic, left/right
/// delay, left/right slew). Draws happen even at sigma zero so the
/// stream stays aligned across sigma configurations; a zero sigma
/// yields a factor of exactly `1.0` and reproduces the base surface
/// bit-for-bit.
///
/// Scaled surfaces stay finite for finite sigma, and the library's
/// query-time clamps (`max(0.0)` on delays, `max(1e-15)` on slews) keep
/// perturbed timing physical even for large sigmas.
pub fn perturb_library(
    base: &DelaySlewLibrary,
    corner_seed: u64,
    sigma: &PerturbSigma,
) -> DelaySlewLibrary {
    let mut rng = StdRng::seed_from_u64(corner_seed);
    let mut factor = |s: f64| 1.0 + s * rng.gen_range(-1.0..1.0);

    let single = base
        .single_slice()
        .iter()
        .map(|fns| crate::SingleWireFns {
            intrinsic: fns.intrinsic.scaled(factor(sigma.buffer_delay)),
            wire_delay: fns.wire_delay.scaled(factor(sigma.wire_delay)),
            wire_slew: fns.wire_slew.scaled(factor(sigma.slew)),
        })
        .collect();
    let branch = base
        .branch_slice()
        .iter()
        .map(|(key, fns)| {
            (
                *key,
                crate::BranchFns {
                    intrinsic: fns.intrinsic.scaled(factor(sigma.buffer_delay)),
                    left_delay: fns.left_delay.scaled(factor(sigma.wire_delay)),
                    right_delay: fns.right_delay.scaled(factor(sigma.wire_delay)),
                    left_slew: fns.left_slew.scaled(factor(sigma.slew)),
                    right_slew: fns.right_slew.scaled(factor(sigma.slew)),
                },
            )
        })
        .collect();
    DelaySlewLibrary::from_parts(
        base.vdd(),
        base.wire(),
        base.buffers().to_vec(),
        single,
        branch,
    )
}

/// Cache key: (base library fingerprint, corner seed, sigma bits).
type CornerKey = (u64, u64, [u64; 3]);

/// Memoizes [`perturb_library`] derivations across corners, instances
/// and worker threads.
///
/// Keyed by `(base fingerprint, corner seed, sigma bits)`; values are
/// shared via [`Arc`] so concurrent shards evaluating the same corner
/// reuse one derivation. The cache is bounded: once `capacity` entries
/// are resident, further misses derive without inserting (still
/// counted as misses), so memory stays bounded while results remain
/// exactly the derivation output either way.
#[derive(Debug)]
pub struct CornerLibraryCache {
    entries: Mutex<HashMap<CornerKey, Arc<DelaySlewLibrary>>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for CornerLibraryCache {
    fn default() -> Self {
        CornerLibraryCache::new()
    }
}

impl CornerLibraryCache {
    /// Default capacity: enough for a few hundred distinct corners.
    const DEFAULT_CAPACITY: usize = 512;

    /// A cache with the default capacity.
    pub fn new() -> CornerLibraryCache {
        CornerLibraryCache::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A cache bounded to at most `capacity` resident derivations.
    pub fn with_capacity(capacity: usize) -> CornerLibraryCache {
        CornerLibraryCache {
            entries: Mutex::new(HashMap::new()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The perturbed library for `(base_fp, corner_seed, sigma)`,
    /// derived on first request and memoized thereafter.
    ///
    /// `base_fp` must be [`library_fingerprint`]`(base)` — the caller
    /// computes it once per base library rather than per corner.
    pub fn get_or_derive(
        &self,
        base: &DelaySlewLibrary,
        base_fp: u64,
        corner_seed: u64,
        sigma: &PerturbSigma,
    ) -> Arc<DelaySlewLibrary> {
        let key = (base_fp, corner_seed, sigma.key_bits());
        if let Some(hit) = self.entries.lock().expect("corner cache lock").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        // Derive outside the lock: derivation is pure, so a racing
        // thread deriving the same key produces an identical library.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let derived = Arc::new(perturb_library(base, corner_seed, sigma));
        let mut entries = self.entries.lock().expect("corner cache lock");
        if let Some(winner) = entries.get(&key) {
            return Arc::clone(winner);
        }
        if entries.len() < self.capacity {
            entries.insert(key, Arc::clone(&derived));
        }
        derived
    }

    /// Lookups served from a resident entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to derive (whether or not the result was
    /// inserted).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Resident derivations.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("corner cache lock").len()
    }

    /// True when no derivation is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::tests_support::synthetic_library;
    use crate::{BufferId, Load};

    const SIGMA: PerturbSigma = PerturbSigma {
        buffer_delay: 0.1,
        wire_delay: 0.08,
        slew: 0.08,
    };

    #[test]
    fn corner_seed_is_pinned() {
        // Golden values: the per-corner stream mapping must never move.
        assert_eq!(corner_seed(0, 0), 0);
        assert_eq!(corner_seed(2010, 0), 0x625b_aac0_ce81_0d1b);
        assert_eq!(corner_seed(2010, 1), 0xdfcc_78c8_674d_57f6);
        assert_eq!(corner_seed(2011, 1), 0x90f3_aaed_67a2_4c36);
    }

    #[test]
    fn sigma_zero_reproduces_base_exactly() {
        let base = synthetic_library();
        let zero = PerturbSigma {
            buffer_delay: 0.0,
            wire_delay: 0.0,
            slew: 0.0,
        };
        let p = perturb_library(&base, corner_seed(7, 3), &zero);
        assert_eq!(p, base);
    }

    #[test]
    fn same_seed_same_library_distinct_seeds_distinct() {
        let base = synthetic_library();
        let a = perturb_library(&base, corner_seed(7, 3), &SIGMA);
        let b = perturb_library(&base, corner_seed(7, 3), &SIGMA);
        let c = perturb_library(&base, corner_seed(8, 3), &SIGMA);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, base);
    }

    #[test]
    fn perturbed_queries_stay_physical() {
        let base = synthetic_library();
        let p = perturb_library(&base, corner_seed(42, 11), &SIGMA);
        let t = p.single_wire(BufferId(0), Load::Buffer(BufferId(1)), 40e-12, 700.0);
        assert!(t.buffer_delay.is_finite() && t.buffer_delay >= 0.0);
        assert!(t.wire_delay.is_finite() && t.wire_delay >= 0.0);
        assert!(t.output_slew.is_finite() && t.output_slew > 0.0);
    }

    #[test]
    fn fingerprint_distinguishes_libraries() {
        let base = synthetic_library();
        let fp = library_fingerprint(&base);
        assert_eq!(fp, library_fingerprint(&base));
        let p = perturb_library(&base, corner_seed(1, 1), &SIGMA);
        assert_ne!(fp, library_fingerprint(&p));
    }

    #[test]
    fn cache_memoizes_and_counts() {
        let base = synthetic_library();
        let fp = library_fingerprint(&base);
        let cache = CornerLibraryCache::new();
        let s = corner_seed(9, 0);
        let first = cache.get_or_derive(&base, fp, s, &SIGMA);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 1, 1));
        let second = cache.get_or_derive(&base, fp, s, &SIGMA);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(*first, perturb_library(&base, s, &SIGMA));
    }

    #[test]
    fn cache_capacity_bounds_residency_without_changing_results() {
        let base = synthetic_library();
        let fp = library_fingerprint(&base);
        let cache = CornerLibraryCache::with_capacity(2);
        for corner in 0..5u64 {
            let s = corner_seed(3, corner);
            let got = cache.get_or_derive(&base, fp, s, &SIGMA);
            assert_eq!(*got, perturb_library(&base, s, &SIGMA));
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 5);
        // Evicted-by-capacity corners keep missing; resident ones hit.
        cache.get_or_derive(&base, fp, corner_seed(3, 0), &SIGMA);
        assert_eq!(cache.hits(), 1);
        cache.get_or_derive(&base, fp, corner_seed(3, 4), &SIGMA);
        assert_eq!(cache.misses(), 6);
    }
}
