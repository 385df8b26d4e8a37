//! The delay/slew library: the paper's pre-characterized timing model
//! (§3.2.3), queried millions of times by the CTS flow.

use crate::fit::{PinnedFit, PolyFit};
use cts_spice::{BufferType, WireParams};
use std::fmt;

/// Index of a buffer type within a library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufferId(pub usize);

impl fmt::Display for BufferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "buf#{}", self.0)
    }
}

/// What terminates a wire: another buffer's input, or a clock sink.
///
/// The paper approximates sink-terminated components "by a component ending
/// with a buffer of similar load capacitance" (§3.2.1); [`Load::Sink`] is
/// resolved the same way via [`DelaySlewLibrary::nearest_buffer_by_cap`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// The input of a library buffer.
    Buffer(BufferId),
    /// A clock sink with the given input capacitance (farads).
    Sink {
        /// Sink input capacitance (F).
        cap: f64,
    },
}

/// Timing of a single-wire component: a driving buffer plus its output wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTiming {
    /// Driving buffer intrinsic delay (s).
    pub buffer_delay: f64,
    /// Wire 50 %-to-50 % delay (s).
    pub wire_delay: f64,
    /// 10–90 % slew at the far end of the wire (s).
    pub output_slew: f64,
}

impl StageTiming {
    /// Total stage delay: buffer plus wire (s).
    pub fn total_delay(&self) -> f64 {
        self.buffer_delay + self.wire_delay
    }
}

/// Timing of a branch component: a driving buffer plus two output wires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchTiming {
    /// Driving buffer intrinsic delay (s).
    pub buffer_delay: f64,
    /// Left wire delay (s).
    pub left_delay: f64,
    /// Left far-end slew (s).
    pub left_slew: f64,
    /// Right wire delay (s).
    pub right_delay: f64,
    /// Right far-end slew (s).
    pub right_slew: f64,
}

/// Fitted functions for one (drive, load) single-wire combination, each over
/// `(input slew [s], wire length [µm])`.
#[derive(Debug, Clone, PartialEq)]
pub struct SingleWireFns {
    /// Buffer intrinsic delay surface.
    pub intrinsic: PolyFit,
    /// Wire delay surface.
    pub wire_delay: PolyFit,
    /// Wire output slew surface.
    pub wire_slew: PolyFit,
}

/// Fitted functions for one (drive, load_left, load_right) branch
/// combination, each over `(input slew [s], l_left [µm], l_right [µm])`.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchFns {
    /// Buffer intrinsic delay volume.
    pub intrinsic: PolyFit,
    /// Left wire delay volume.
    pub left_delay: PolyFit,
    /// Right wire delay volume.
    pub right_delay: PolyFit,
    /// Left slew volume.
    pub left_slew: PolyFit,
    /// Right slew volume.
    pub right_slew: PolyFit,
}

/// The pre-characterized delay/slew library.
///
/// Holds, for every buffer combination, polynomial models of buffer
/// intrinsic delay, wire delay and wire slew, fitted to simulations of the
/// Fig. 3.3/3.5 circuits. Build one with [`crate::characterize()`] (or load a
/// cached one via [`crate::load_library_str`]); query with
/// [`DelaySlewLibrary::single_wire`] and [`DelaySlewLibrary::branch`], or,
/// on hot paths that read one field, with the single-surface
/// [`DelaySlewLibrary::single_wire_delay`] and
/// [`DelaySlewLibrary::single_wire_slew`].
#[derive(Debug, Clone, PartialEq)]
pub struct DelaySlewLibrary {
    vdd: f64,
    wire: WireParams,
    buffers: Vec<BufferType>,
    /// Indexed `drive * nb + load`.
    single: Vec<SingleWireFns>,
    /// Keyed by canonical (drive, min load, max load).
    branch: Vec<((usize, usize, usize), BranchFns)>,
}

impl DelaySlewLibrary {
    /// Assembles a library from fitted parts (used by [`crate::characterize()`]
    /// and the loader).
    ///
    /// # Panics
    ///
    /// Panics if `single` does not contain exactly `buffers.len()²` entries,
    /// a single-wire fit is not over `(slew, length)`, or `branch` lacks a
    /// canonical triple.
    pub fn from_parts(
        vdd: f64,
        wire: WireParams,
        buffers: Vec<BufferType>,
        single: Vec<SingleWireFns>,
        branch: Vec<((usize, usize, usize), BranchFns)>,
    ) -> DelaySlewLibrary {
        let nb = buffers.len();
        assert!(nb > 0, "library needs at least one buffer");
        assert_eq!(single.len(), nb * nb, "single-wire fits incomplete");
        assert!(
            single
                .iter()
                .flat_map(|f| [&f.intrinsic, &f.wire_delay, &f.wire_slew])
                .all(|fit| fit.dims() == 2),
            "single-wire fits must be 2-D"
        );
        for d in 0..nb {
            for ll in 0..nb {
                for lr in ll..nb {
                    assert!(
                        branch.iter().any(|(k, _)| *k == (d, ll, lr)),
                        "missing branch fit ({d},{ll},{lr})"
                    );
                }
            }
        }
        DelaySlewLibrary {
            vdd,
            wire,
            buffers,
            single,
            branch,
        }
    }

    /// Supply voltage the library was characterized at (V).
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Wire parasitics the library was characterized with.
    pub fn wire(&self) -> WireParams {
        self.wire
    }

    /// The buffer types, indexable by [`BufferId`].
    pub fn buffers(&self) -> &[BufferType] {
        &self.buffers
    }

    /// A specific buffer type.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn buffer(&self, id: BufferId) -> &BufferType {
        &self.buffers[id.0]
    }

    /// All buffer ids, smallest first.
    pub fn buffer_ids(&self) -> impl Iterator<Item = BufferId> {
        (0..self.buffers.len()).map(BufferId)
    }

    /// The buffer whose input capacitance is closest to `cap` — the paper's
    /// sink-as-buffer approximation (the smallest such buffer on a tie).
    pub fn nearest_buffer_by_cap(&self, cap: f64) -> BufferId {
        let err = |id: BufferId| (self.input_cap(id) - cap).abs();
        self.buffer_ids()
            .min_by(|&a, &b| err(a).total_cmp(&err(b)))
            .expect("a library holds at least one buffer")
    }

    /// The input capacitance (F) a buffer presents to the wire driving
    /// it, by the cap-matching convention `stage1_size × cg_1x`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn input_cap(&self, id: BufferId) -> f64 {
        self.buffer(id).stage1_size() * CG_1X_FOR_MATCHING
    }

    /// The library buffer a load is timed as: a buffer load is itself, a
    /// sink is the buffer nearest its capacitance
    /// ([`DelaySlewLibrary::nearest_buffer_by_cap`]).
    ///
    /// # Panics
    ///
    /// Panics if a buffer load is out of range.
    pub fn resolve(&self, load: Load) -> BufferId {
        match load {
            Load::Buffer(id) => {
                assert!(id.0 < self.buffers.len(), "load buffer out of range");
                id
            }
            Load::Sink { cap } => self.nearest_buffer_by_cap(cap),
        }
    }

    fn single_fns(&self, drive: BufferId, load: BufferId) -> &SingleWireFns {
        assert!(drive.0 < self.buffers.len(), "drive buffer out of range");
        &self.single[drive.0 * self.buffers.len() + load.0]
    }

    /// Timing of a single-wire component: `drive` buffer, `length_um` of
    /// wire, terminated by `load`, with the given input slew (s) at the
    /// driving buffer.
    ///
    /// Queries outside the characterized (slew, length) domain are clamped.
    /// Callers that read one field should use
    /// [`DelaySlewLibrary::single_wire_delay`] or
    /// [`DelaySlewLibrary::single_wire_slew`], which evaluate only that
    /// surface and return the same bits.
    ///
    /// # Panics
    ///
    /// Panics if `drive` (or a buffer load) is out of range.
    pub fn single_wire(
        &self,
        drive: BufferId,
        load: Load,
        input_slew: f64,
        length_um: f64,
    ) -> StageTiming {
        let fns = self.single_fns(drive, self.resolve(load));
        let x = [input_slew, length_um];
        StageTiming {
            buffer_delay: delay_of(fns.intrinsic.eval(&x)),
            wire_delay: delay_of(fns.wire_delay.eval(&x)),
            output_slew: slew_of(fns.wire_slew.eval(&x)),
        }
    }

    /// [`StageTiming::total_delay`] of [`DelaySlewLibrary::single_wire`],
    /// evaluating only the intrinsic and wire-delay surfaces.
    ///
    /// # Panics
    ///
    /// Panics if `drive` (or a buffer load) is out of range.
    pub fn single_wire_total_delay(
        &self,
        drive: BufferId,
        load: Load,
        input_slew: f64,
        length_um: f64,
    ) -> f64 {
        let fns = self.single_fns(drive, self.resolve(load));
        let x = [input_slew, length_um];
        delay_of(fns.intrinsic.eval(&x)) + delay_of(fns.wire_delay.eval(&x))
    }

    /// [`StageTiming::wire_delay`] of [`DelaySlewLibrary::single_wire`],
    /// evaluating only the wire-delay surface.
    ///
    /// # Panics
    ///
    /// Panics if `drive` (or a buffer load) is out of range.
    pub fn single_wire_delay(
        &self,
        drive: BufferId,
        load: Load,
        input_slew: f64,
        length_um: f64,
    ) -> f64 {
        let fns = self.single_fns(drive, self.resolve(load));
        delay_of(fns.wire_delay.eval(&[input_slew, length_um]))
    }

    /// [`DelaySlewLibrary::single_wire_delay`] as a curve over wire length,
    /// with the drive, load and input slew fixed: the slew is clamped,
    /// standardized and raised to its powers once, here, instead of on
    /// every query. `curve.eval(len)` returns exactly
    /// `single_wire_delay(drive, Load::Buffer(load), input_slew, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `drive` or `load` is out of range.
    pub fn wire_delay_curve(
        &self,
        drive: BufferId,
        load: BufferId,
        input_slew: f64,
    ) -> WireDelayCurve {
        let fns = self.single_fns(drive, self.resolve(Load::Buffer(load)));
        WireDelayCurve(fns.wire_delay.pinned(input_slew))
    }

    /// [`StageTiming::output_slew`] of [`DelaySlewLibrary::single_wire`],
    /// evaluating only the wire-slew surface.
    ///
    /// # Panics
    ///
    /// Panics if `drive` (or a buffer load) is out of range.
    pub fn single_wire_slew(
        &self,
        drive: BufferId,
        load: Load,
        input_slew: f64,
        length_um: f64,
    ) -> f64 {
        let fns = self.single_fns(drive, self.resolve(load));
        slew_of(fns.wire_slew.eval(&[input_slew, length_um]))
    }

    /// Timing of a branch component: `drive` buffer into two wires of
    /// lengths `(l_left, l_right)` µm terminated by `loads`.
    ///
    /// Load pairs are resolved to the canonical (sorted) characterized
    /// combination, swapping left/right as needed.
    ///
    /// # Panics
    ///
    /// Panics if `drive` (or a buffer load) is out of range.
    pub fn branch(
        &self,
        drive: BufferId,
        loads: (Load, Load),
        input_slew: f64,
        lengths_um: (f64, f64),
    ) -> BranchTiming {
        assert!(drive.0 < self.buffers.len(), "drive buffer out of range");
        let l0 = self.resolve(loads.0);
        let l1 = self.resolve(loads.1);
        let swapped = l0.0 > l1.0;
        let (ca, cb) = if swapped { (l1.0, l0.0) } else { (l0.0, l1.0) };
        let (la, lb) = if swapped {
            (lengths_um.1, lengths_um.0)
        } else {
            (lengths_um.0, lengths_um.1)
        };
        let fns = &self
            .branch
            .iter()
            .find(|(k, _)| *k == (drive.0, ca, cb))
            .expect("canonical branch fit present (checked at construction)")
            .1;
        let x = [input_slew, la, lb];
        let (d_a, s_a) = (
            delay_of(fns.left_delay.eval(&x)),
            slew_of(fns.left_slew.eval(&x)),
        );
        let (d_b, s_b) = (
            delay_of(fns.right_delay.eval(&x)),
            slew_of(fns.right_slew.eval(&x)),
        );
        let buffer_delay = delay_of(fns.intrinsic.eval(&x));
        if swapped {
            BranchTiming {
                buffer_delay,
                left_delay: d_b,
                left_slew: s_b,
                right_delay: d_a,
                right_slew: s_a,
            }
        } else {
            BranchTiming {
                buffer_delay,
                left_delay: d_a,
                left_slew: s_a,
                right_delay: d_b,
                right_slew: s_b,
            }
        }
    }

    /// The characterized `(slew, length)` domain of a single-wire
    /// combination: `((slew_lo, slew_hi), (len_lo, len_hi))`.
    pub fn single_domain(&self, drive: BufferId, load: Load) -> ((f64, f64), (f64, f64)) {
        let load = self.resolve(load);
        let d = self.single_fns(drive, load).wire_slew.domain();
        (d[0], d[1])
    }

    /// The characterized per-arm length domain `(len_lo, len_hi)` of the
    /// branch fits (identical across combinations by construction).
    pub fn branch_length_domain(&self) -> (f64, f64) {
        let d = self.branch[0].1.left_slew.domain();
        // dims: (slew, l_left, l_right); arm domains are symmetric.
        (d[1].0.min(d[2].0), d[1].1.max(d[2].1))
    }

    /// Longest wire (µm) a `drive` buffer can drive into `load` while
    /// keeping the far-end slew at or below `slew_limit`, for a given input
    /// slew. Found by bisection on the fitted slew surface; returns the
    /// domain maximum if even that respects the limit, or `None` if no
    /// characterized length does.
    pub fn max_wire_length_for_slew(
        &self,
        drive: BufferId,
        load: Load,
        input_slew: f64,
        slew_limit: f64,
    ) -> Option<f64> {
        let ((_, _), (len_lo, len_hi)) = self.single_domain(drive, load);
        let slew_at = |len: f64| self.single_wire_slew(drive, load, input_slew, len);
        if slew_at(len_lo) > slew_limit {
            return None;
        }
        if slew_at(len_hi) <= slew_limit {
            return Some(len_hi);
        }
        let (mut lo, mut hi) = (len_lo, len_hi);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if slew_at(mid) <= slew_limit {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }

    /// A restricted library holding only the first `k` buffer types.
    ///
    /// Buffer ids `0..k` keep their meaning (the truncation preserves
    /// ordering), so trees synthesized against a subset evaluate
    /// identically under the full library. Single-wire fits are
    /// re-indexed to the `k × k` grid and branch fits are filtered to
    /// canonical triples whose indices all fall below `k`; both are
    /// bit-copies of the originals, so timing queries that stay within
    /// the subset return byte-identical results.
    ///
    /// Returns `None` when `k` is zero or exceeds the buffer count —
    /// callers surface that as an options error rather than a panic.
    pub fn subset(&self, k: usize) -> Option<DelaySlewLibrary> {
        let nb = self.buffers.len();
        if k == 0 || k > nb {
            return None;
        }
        if k == nb {
            return Some(self.clone());
        }
        let buffers = self.buffers[..k].to_vec();
        let mut single = Vec::with_capacity(k * k);
        for drive in 0..k {
            for load in 0..k {
                single.push(self.single[drive * nb + load].clone());
            }
        }
        let branch = self
            .branch
            .iter()
            .filter(|((d, ll, lr), _)| *d < k && *ll < k && *lr < k)
            .cloned()
            .collect();
        Some(DelaySlewLibrary::from_parts(
            self.vdd, self.wire, buffers, single, branch,
        ))
    }

    // -- accessors for serialization ---------------------------------------

    pub(crate) fn single_slice(&self) -> &[SingleWireFns] {
        &self.single
    }

    pub(crate) fn branch_slice(&self) -> &[((usize, usize, usize), BranchFns)] {
        &self.branch
    }
}

/// A delay surface's raw value, clamped: fitted delays never go negative.
fn delay_of(raw: f64) -> f64 {
    raw.max(0.0)
}

/// A slew surface's raw value, clamped: fitted slews stay strictly
/// positive.
fn slew_of(raw: f64) -> f64 {
    raw.max(1e-15)
}

/// One (drive, load, input slew) wire-delay surface as a curve over wire
/// length ([`DelaySlewLibrary::wire_delay_curve`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WireDelayCurve(PinnedFit);

impl WireDelayCurve {
    /// The wire delay (s) over `length_um` µm: bit-identical to the
    /// [`DelaySlewLibrary::single_wire_delay`] query the curve pins.
    pub fn eval(&self, length_um: f64) -> f64 {
        delay_of(self.0.eval(length_um))
    }
}

/// 1× gate capacitance used when matching sink caps to buffer input caps.
/// Matches [`cts_spice::Technology::nominal_45nm`]'s `cg_1x`; kept local so
/// the library stays self-contained after deserialization.
const CG_1X_FOR_MATCHING: f64 = 1.2e-15;

impl fmt::Display for DelaySlewLibrary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "delay/slew library[{} buffers, {} single fits, {} branch fits]",
            self.buffers.len(),
            self.single.len(),
            self.branch.len()
        )
    }
}

/// Test-only helpers shared by this crate's test modules.
#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use crate::fit::PolyFit;

    /// Builds a tiny synthetic library with linear fits so query mechanics
    /// can be tested without running characterization.
    pub(crate) fn synthetic_library() -> DelaySlewLibrary {
        let buffers = vec![BufferType::new("A", 10.0), BufferType::new("B", 20.0)];
        let grid: Vec<Vec<f64>> = (0..4)
            .flat_map(|i| (0..4).map(move |j| vec![i as f64 * 40e-12, j as f64 * 700.0]))
            .collect();
        let lin2 = |a: f64, b: f64, c: f64| {
            let vals: Vec<f64> = grid.iter().map(|p| a + b * p[0] + c * p[1]).collect();
            PolyFit::fit(2, 1, &grid, &vals).unwrap()
        };
        let single_for = |scale: f64| SingleWireFns {
            intrinsic: lin2(20e-12 * scale, 0.1, 0.0),
            wire_delay: lin2(0.0, 0.0, 1e-15 * scale),
            wire_slew: lin2(10e-12, 0.5, 50e-15 * scale),
        };
        let single = vec![
            single_for(1.0),
            single_for(1.1),
            single_for(0.6),
            single_for(0.7),
        ];

        let grid3: Vec<Vec<f64>> = (0..3)
            .flat_map(|i| {
                (0..3).flat_map(move |j| {
                    (0..3).map(move |k| vec![i as f64 * 40e-12, j as f64 * 700.0, k as f64 * 700.0])
                })
            })
            .collect();
        let lin3 = |a: f64, b: (f64, f64, f64)| {
            let vals: Vec<f64> = grid3
                .iter()
                .map(|p| a + b.0 * p[0] + b.1 * p[1] + b.2 * p[2])
                .collect();
            PolyFit::fit(3, 1, &grid3, &vals).unwrap()
        };
        let branch_for = || BranchFns {
            intrinsic: lin3(25e-12, (0.1, 0.0, 0.0)),
            left_delay: lin3(0.0, (0.0, 2e-15, 1e-15)),
            right_delay: lin3(0.0, (0.0, 1e-15, 2e-15)),
            left_slew: lin3(15e-12, (0.5, 60e-15, 20e-15)),
            right_slew: lin3(15e-12, (0.5, 20e-15, 60e-15)),
        };
        let mut branch = Vec::new();
        for d in 0..2 {
            for ll in 0..2 {
                for lr in ll..2 {
                    branch.push(((d, ll, lr), branch_for()));
                }
            }
        }
        DelaySlewLibrary::from_parts(1.1, WireParams::gsrc_10x(), buffers, single, branch)
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::synthetic_library;
    use super::*;

    #[test]
    fn single_wire_query_evaluates_fits() {
        let lib = synthetic_library();
        let t = lib.single_wire(BufferId(0), Load::Buffer(BufferId(0)), 40e-12, 700.0);
        assert!((t.buffer_delay - (20e-12 + 0.1 * 40e-12)).abs() < 1e-15);
        assert!((t.wire_delay - 0.7e-12).abs() < 1e-16);
        assert!(t.output_slew > 0.0);
        assert!((t.total_delay() - t.buffer_delay - t.wire_delay).abs() < 1e-18);
    }

    #[test]
    fn branch_swap_symmetry() {
        let lib = synthetic_library();
        let fwd = lib.branch(
            BufferId(0),
            (Load::Buffer(BufferId(1)), Load::Buffer(BufferId(0))),
            40e-12,
            (700.0, 1400.0),
        );
        let rev = lib.branch(
            BufferId(0),
            (Load::Buffer(BufferId(0)), Load::Buffer(BufferId(1))),
            40e-12,
            (1400.0, 700.0),
        );
        assert!((fwd.left_delay - rev.right_delay).abs() < 1e-18);
        assert!((fwd.right_slew - rev.left_slew).abs() < 1e-18);
        assert!((fwd.buffer_delay - rev.buffer_delay).abs() < 1e-18);
    }

    #[test]
    fn sink_resolves_to_nearest_buffer() {
        let lib = synthetic_library();
        // Buffer A: stage1 = 10/3 x -> ~4 fF; buffer B: 20/3 x -> ~8 fF.
        let small = lib.nearest_buffer_by_cap(3.0e-15);
        let big = lib.nearest_buffer_by_cap(9.0e-15);
        assert_eq!(small, BufferId(0));
        assert_eq!(big, BufferId(1));
        // Sink loads route through the same tables as buffer loads.
        let via_sink = lib.single_wire(BufferId(0), Load::Sink { cap: 3.0e-15 }, 40e-12, 700.0);
        let via_buf = lib.single_wire(BufferId(0), Load::Buffer(small), 40e-12, 700.0);
        assert_eq!(via_sink, via_buf);
    }

    #[test]
    fn max_length_bisection_respects_limit() {
        let lib = synthetic_library();
        let drive = BufferId(0);
        let load = Load::Buffer(BufferId(0));
        let slew_in = 20e-12;
        let limit = 60e-12;
        let len = lib
            .max_wire_length_for_slew(drive, load, slew_in, limit)
            .expect("limit reachable");
        let at = lib.single_wire(drive, load, slew_in, len).output_slew;
        assert!(at <= limit * (1.0 + 1e-9), "slew at found length: {at}");
        // A slightly longer wire must exceed the limit (when not clamped).
        let beyond = lib
            .single_wire(drive, load, slew_in, len + 10.0)
            .output_slew;
        let ((_, _), (_, len_hi)) = lib.single_domain(drive, load);
        if len + 10.0 < len_hi {
            assert!(beyond > limit);
        }
        // An impossible limit returns None.
        assert!(lib
            .max_wire_length_for_slew(drive, load, slew_in, 1e-15)
            .is_none());
    }

    #[test]
    fn queries_clamp_to_domain() {
        let lib = synthetic_library();
        let inside = lib.single_wire(BufferId(0), Load::Buffer(BufferId(0)), 120e-12, 2100.0);
        let outside = lib.single_wire(BufferId(0), Load::Buffer(BufferId(0)), 10.0, 1e9);
        assert_eq!(inside, outside);
    }

    #[test]
    fn subset_preserves_ids_and_fits() {
        let lib = synthetic_library();
        let sub = lib.subset(1).expect("1 <= k <= nb");
        assert_eq!(sub.buffers().len(), 1);
        assert_eq!(sub.buffers()[0], lib.buffers()[0]);
        // Queries within the subset are bit-identical to the full library.
        let full = lib.single_wire(BufferId(0), Load::Buffer(BufferId(0)), 40e-12, 700.0);
        let cut = sub.single_wire(BufferId(0), Load::Buffer(BufferId(0)), 40e-12, 700.0);
        assert_eq!(full, cut);
        let fullb = lib.branch(
            BufferId(0),
            (Load::Buffer(BufferId(0)), Load::Buffer(BufferId(0))),
            40e-12,
            (700.0, 900.0),
        );
        let cutb = sub.branch(
            BufferId(0),
            (Load::Buffer(BufferId(0)), Load::Buffer(BufferId(0))),
            40e-12,
            (700.0, 900.0),
        );
        assert_eq!(fullb, cutb);
        // Full-width subset is the identity; out-of-range is refused.
        assert_eq!(lib.subset(2).unwrap(), lib);
        assert!(lib.subset(0).is_none());
        assert!(lib.subset(3).is_none());
    }

    #[test]
    fn single_surface_queries_are_bit_exact_over_the_fast_library() {
        let lib = crate::fast_library();
        let ((slew_lo, slew_hi), (len_lo, len_hi)) =
            lib.single_domain(BufferId(0), Load::Buffer(BufferId(0)));
        // Interior points plus points beyond every edge, so the clamped
        // paths are covered too.
        let span = |lo: f64, hi: f64| -> Vec<f64> {
            (-2..=12)
                .map(|i| lo + (hi - lo) * f64::from(i) / 10.0)
                .chain([0.0, -1.0, 1e9])
                .collect()
        };
        let (slews, lens) = (span(slew_lo, slew_hi), span(len_lo, len_hi));
        let nb = lib.buffers().len();
        for drive in lib.buffer_ids() {
            let loads = lib
                .buffer_ids()
                .map(Load::Buffer)
                .chain([Load::Sink { cap: 25e-15 }]);
            for load in loads {
                for &s in &slews {
                    for &l in &lens {
                        let full = lib.single_wire(drive, load, s, l);
                        let delay = lib.single_wire_delay(drive, load, s, l);
                        let slew = lib.single_wire_slew(drive, load, s, l);
                        assert_eq!(delay.to_bits(), full.wire_delay.to_bits());
                        assert_eq!(slew.to_bits(), full.output_slew.to_bits());
                    }
                }
            }
            for load in 0..nb {
                let fns = &lib.single_slice()[drive.0 * nb + load];
                for fit in [&fns.intrinsic, &fns.wire_delay, &fns.wire_slew] {
                    for &s in &slews {
                        for &l in &lens {
                            let x = [s, l];
                            assert_eq!(fit.eval(&x).to_bits(), fit.eval_reference(&x).to_bits());
                        }
                    }
                }
            }
        }
        for (_, fns) in lib.branch_slice() {
            for fit in [
                &fns.intrinsic,
                &fns.left_delay,
                &fns.right_delay,
                &fns.left_slew,
                &fns.right_slew,
            ] {
                for &s in slews.iter().step_by(2) {
                    for &a in lens.iter().step_by(2) {
                        for &b in lens.iter().step_by(3) {
                            let x = [s, a, b];
                            assert_eq!(fit.eval(&x).to_bits(), fit.eval_reference(&x).to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn wire_delay_curves_equal_the_query_bit_for_bit() {
        let sigma = crate::PerturbSigma {
            buffer_delay: 0.1,
            wire_delay: 0.08,
            slew: 0.08,
        };
        let corner =
            crate::perturb_library(crate::fast_library(), crate::corner_seed(7, 3), &sigma);
        for lib in [crate::fast_library(), &corner] {
            for drive in lib.buffer_ids() {
                for load in lib.buffer_ids() {
                    let ((slew_lo, slew_hi), (_, len_hi)) =
                        lib.single_domain(drive, Load::Buffer(load));
                    let slews = [
                        slew_lo,
                        0.5 * (slew_lo + slew_hi),
                        slew_hi,
                        0.0,
                        2.0 * slew_hi,
                    ];
                    let lens = [1.0, 0.37 * len_hi, len_hi, 1.5 * len_hi, 1e9];
                    for s in slews {
                        let curve = lib.wire_delay_curve(drive, load, s);
                        for len in lens {
                            assert_eq!(
                                curve.eval(len).to_bits(),
                                lib.single_wire_delay(drive, Load::Buffer(load), s, len)
                                    .to_bits(),
                                "({drive}, {load}) at slew {s}, length {len}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn total_delay_query_is_bit_exact() {
        let lib = crate::fast_library();
        for drive in lib.buffer_ids() {
            for load in lib.buffer_ids().map(Load::Buffer) {
                for (s, len) in [(40e-12, 1.0), (60e-12, 700.0), (1.0, 1e9)] {
                    assert_eq!(
                        lib.single_wire_total_delay(drive, load, s, len).to_bits(),
                        lib.single_wire(drive, load, s, len).total_delay().to_bits()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "single-wire fits must be 2-D")]
    fn from_parts_rejects_single_fits_of_the_wrong_dimension() {
        let lib = synthetic_library();
        let pts: Vec<Vec<f64>> = (0..8).map(|i| vec![f64::from(i)]).collect();
        let flat = PolyFit::fit(1, 1, &pts, &[0.0; 8]).unwrap();
        let mut single = lib.single_slice().to_vec();
        single[0].wire_delay = flat;
        let _bad = DelaySlewLibrary::from_parts(
            lib.vdd(),
            lib.wire(),
            lib.buffers().to_vec(),
            single,
            lib.branch_slice().to_vec(),
        );
    }

    #[test]
    #[should_panic(expected = "single-wire fits incomplete")]
    fn from_parts_validates() {
        let lib = synthetic_library();
        let _bad = DelaySlewLibrary::from_parts(
            1.1,
            WireParams::gsrc_10x(),
            lib.buffers().to_vec(),
            Vec::new(),
            Vec::new(),
        );
    }
}
