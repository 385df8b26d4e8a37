//! Bi-directional maze routing with slew-driven buffer insertion and
//! intelligent buffer sizing (paper §4.2.2, Figs. 4.3/4.4).
//!
//! Routing for a merge starts from *both* sub-tree roots simultaneously.
//! Each side runs a Dijkstra wavefront over the routing grid whose cost is
//! the estimated arrival time (sub-tree delay + committed buffered stages +
//! the pending, not-yet-driven wire segment). While a wavefront expands,
//! the wire segment since the last buffer grows; when its far-end slew
//! would exceed the synthesis target, a buffer is inserted as late as
//! possible with the type whose slew lands closest to the target from
//! below — the paper's "intelligent buffer insertion" that evaluates
//! multiple types at and ahead of the expansion cell.
//!
//! After both wavefronts cover the grid, the cell minimizing the arrival
//! difference (skew) is picked as the tentative merge location, the two
//! cell paths are re-walked exactly (committing buffer sites and stage
//! delays), and the result is handed to the binary-search stage.

use crate::options::{Buffering, CtsError, CtsOptions};
use cts_geom::{CellId, Point, RoutingGrid};
use cts_timing::{BufferId, DelaySlewLibrary, Load, WireDelayCurve};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

// Buffering-mode spans (attr = path point count): which insertion
// algorithm a committed path went through. Telemetry only.
static SPAN_BUFFER_GREEDY: cts_obs::Name = cts_obs::Name::new("buffer.greedy");
static SPAN_BUFFER_VG: cts_obs::Name = cts_obs::Name::new("buffer.van_ginneken");

/// One side of a merge: a sub-tree root waiting to be connected.
#[derive(Debug, Clone, Copy)]
pub struct MergeSide {
    /// Root location (µm).
    pub root_point: Point,
    /// What the routing wire sees when it reaches the root.
    pub root_load: Load,
    /// Delay from the root down to its sinks (s), as estimated by the
    /// timing engine under the bottom-up slew assumption.
    pub subtree_delay: f64,
    /// Unbuffered wire depth already hanging below the root (µm); the first
    /// routed segment's slew budget is reduced by this much (the driver has
    /// to push through it before reaching a restoring buffer).
    pub unbuffered_depth_um: f64,
}

/// A buffer committed along one routed path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferSite {
    /// Placement (µm).
    pub position: Point,
    /// Library buffer type.
    pub buffer: BufferId,
    /// Routed wire length from this buffer down to the previous site (or
    /// the sub-tree root), µm.
    pub wire_below_um: f64,
}

/// The routed plan for one side of a merge.
#[derive(Debug, Clone, PartialEq)]
pub struct SidePlan {
    /// Buffers in order from the sub-tree root toward the merge point.
    pub buffers: Vec<BufferSite>,
    /// Wire length from the last buffer (or the root, if unbuffered) up to
    /// the merge point (µm).
    pub top_wire_um: f64,
    /// Estimated delay of the committed stages, root side (s) — excludes
    /// the top (pending) wire, which belongs to the next level's stage.
    pub committed_delay: f64,
    /// Estimated arrival (sub-tree + committed + pending wire) at the merge
    /// point (s), used for reporting and tests.
    pub arrival_estimate: f64,
}

impl SidePlan {
    /// The position of the last fixed node: the topmost buffer, or `root`
    /// when the path is unbuffered — the `v1`/`v2` of the paper's binary
    /// search stage (§4.2.3).
    pub fn last_fixed_position(&self, root: Point) -> Point {
        self.buffers.last().map(|b| b.position).unwrap_or(root)
    }
}

/// A complete merge-routing result.
#[derive(Debug, Clone, PartialEq)]
pub struct MergePlan {
    /// Tentative merge location (refined later by binary search).
    pub merge_point: Point,
    /// Plans for the two sides, in the order the roots were given.
    pub sides: [SidePlan; 2],
}

/// The maze router.
#[derive(Debug, Clone)]
pub struct MazeRouter<'a> {
    pub(crate) lib: &'a DelaySlewLibrary,
    pub(crate) options: &'a CtsOptions,
    /// [`max_segment`] per buffer id, derived once from the library and
    /// slew target (or the error deriving it hit).
    limits: Result<Vec<f64>, CtsError>,
    /// The virtual driver's wire-delay curve at the slew target, per load
    /// buffer id: what [`MazeRouter::pending_delay`] evaluates on every
    /// wavefront step. Empty when the virtual driver is not a library
    /// buffer (the synthesizer rejects that before routing).
    pending: Vec<WireDelayCurve>,
}

/// Reusable buffers for [`MazeRouter::route_with`]: per-cell label stores,
/// the wavefront heap, and the routing-grid dimension cache.
///
/// A scratch holds allocations only, so it is valid under any (library,
/// options) context; it belongs to one worker at a time. Reusing it across
/// the merges a worker processes is what removes the per-merge allocation
/// churn of the original router.
#[derive(Debug, Default, Clone)]
pub struct MazeScratch {
    labels: [Vec<Option<Label>>; 2],
    heap: BinaryHeap<QueueEntry>,
    /// Grid dimensions memoized by routed-region size and resolution.
    /// Merge spans repeat heavily within a topology level (matched pairs
    /// have similar extents, and H-correction re-routes the same pair
    /// repeatedly), so a small linear-scan cache hits often.
    grid_dims: Vec<(GridKey, (u32, u32))>,
}

/// Cache key of [`MazeScratch::grid_dims`]: the routed region's width and
/// height bit patterns (exact match, no quantization — the dims are a pure
/// function of exactly these) and the default resolution in effect.
type GridKey = (u64, u64, u32);

/// Entries kept in [`MazeScratch::grid_dims`] before the (rarely hit)
/// wholesale reset; spans within one level cluster tightly, so a handful of
/// slots covers them.
const GRID_DIMS_CACHE_CAP: usize = 32;

impl MazeScratch {
    /// [`RoutingGrid::between`] through the dimension cache: the dynamic
    /// resolution growth is a pure function of the routed region's exact
    /// width/height ([`RoutingGrid::dims_for_region`]), so cached
    /// (cols, rows) rebuild a bit-identical grid without re-deriving them.
    pub(crate) fn grid_between(&mut self, a: Point, b: Point, resolution: u32) -> RoutingGrid {
        let region = RoutingGrid::region_between(a, b);
        let key = (
            region.width().to_bits(),
            region.height().to_bits(),
            resolution,
        );
        let dims = self
            .grid_dims
            .iter()
            .find(|&&(k, _)| k == key)
            .map(|&(_, dims)| dims);
        let (cols, rows) = dims.unwrap_or_else(|| {
            let dims = RoutingGrid::dims_for_region(region, resolution);
            if self.grid_dims.len() >= GRID_DIMS_CACHE_CAP {
                self.grid_dims.clear();
            }
            self.grid_dims.push((key, dims));
            dims
        });
        RoutingGrid::over_region(region, cols, rows)
    }
}

#[derive(Debug, Clone, Copy)]
struct Label {
    arrival: f64,
    committed: f64,
    seg_len: f64,
    load: BufferId, // resolved load of the pending segment
    prev: Option<CellId>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct QueueEntry {
    arrival: f64,
    cell: CellId,
}

impl Eq for QueueEntry {}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on arrival (BinaryHeap is a max-heap).
        other
            .arrival
            .partial_cmp(&self.arrival)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.cell.cmp(&other.cell))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Longest pending segment `lib` can drive into `load` at the slew
/// `target`, maximized over buffer types (since the eventual driver is
/// chosen at insertion time).
///
/// # Errors
///
/// [`CtsError::SlewUnachievable`] if no buffer can drive even the minimum
/// characterized length.
fn max_segment(lib: &DelaySlewLibrary, target: f64, load: BufferId) -> Result<f64, CtsError> {
    let mut best: Option<f64> = None;
    for drive in lib.buffer_ids() {
        if let Some(l) = lib.max_wire_length_for_slew(drive, Load::Buffer(load), target, target) {
            best = Some(best.map_or(l, |b: f64| b.max(l)));
        }
    }
    best.ok_or_else(|| CtsError::SlewUnachievable {
        context: format!("no buffer can drive load {load} at the slew target"),
    })
}

impl<'a> MazeRouter<'a> {
    /// Creates a router, deriving its per-buffer segment limits and
    /// pending-delay curves.
    pub fn new(lib: &'a DelaySlewLibrary, options: &'a CtsOptions) -> MazeRouter<'a> {
        let limits = lib
            .buffer_ids()
            .map(|b| max_segment(lib, options.slew_target, b))
            .collect();
        let driver = options.virtual_driver;
        let pending = if driver.0 < lib.buffers().len() {
            lib.buffer_ids()
                .map(|load| lib.wire_delay_curve(driver, load, options.slew_target))
                .collect()
        } else {
            Vec::new()
        };
        MazeRouter {
            lib,
            options,
            limits,
            pending,
        }
    }

    /// The per-buffer segment limits derived in [`MazeRouter::new`] — the
    /// expansion loop consults them on every step.
    ///
    /// # Errors
    ///
    /// [`CtsError::SlewUnachievable`] if no buffer can drive some load at
    /// the slew target.
    pub(crate) fn limits(&self) -> Result<&[f64], CtsError> {
        self.limits.as_deref().map_err(Clone::clone)
    }

    /// Intelligent sizing: the buffer type whose far-end slew over a
    /// `seg_len` µm wire into `load` is closest to the target *without
    /// exceeding it* (Fig. 4.4). Falls back to the strongest buffer if none
    /// qualifies (the caller bounds `seg_len` so this is defensive).
    pub(crate) fn best_buffer_for(&self, load: BufferId, seg_len: f64) -> BufferId {
        let target = self.options.slew_target;
        let mut best: Option<(BufferId, f64)> = None;
        let mut strongest: Option<(BufferId, f64)> = None;
        for drive in self.lib.buffer_ids() {
            let slew =
                self.lib
                    .single_wire_slew(drive, Load::Buffer(load), target, seg_len.max(1.0));
            if slew <= target {
                // closest to target from below = largest qualifying slew
                if best.is_none_or(|(_, s)| slew > s) {
                    best = Some((drive, slew));
                }
            }
            if strongest.is_none_or(|(_, s)| slew < s) {
                strongest = Some((drive, slew));
            }
        }
        best.or(strongest).expect("non-empty buffer library").0
    }

    /// Delay of a committed stage: a buffer of type `drive` feeding
    /// `seg_len` µm of wire into `load`, under the slew-target input
    /// assumption.
    fn stage_delay(&self, drive: BufferId, load: BufferId, seg_len: f64) -> f64 {
        self.lib.single_wire_total_delay(
            drive,
            Load::Buffer(load),
            self.options.slew_target,
            seg_len.max(1.0),
        )
    }

    /// Pending-wire delay estimate: the not-yet-driven top segment,
    /// evaluated under the virtual driver at the slew target.
    ///
    /// # Panics
    ///
    /// Panics if the virtual driver or `load` is not a library buffer.
    pub(crate) fn pending_delay(&self, load: BufferId, seg_len: f64) -> f64 {
        if seg_len <= 0.0 {
            return 0.0;
        }
        self.pending
            .get(load.0)
            .expect("virtual driver and pending load are library buffers")
            .eval(seg_len.max(1.0))
    }

    /// Runs one side's wavefront, filling `labels` (one slot per grid
    /// cell) using the caller's reusable buffers.
    fn expand_side_into(
        &self,
        grid: &RoutingGrid,
        side: &MergeSide,
        labels: &mut Vec<Option<Label>>,
        heap: &mut BinaryHeap<QueueEntry>,
    ) -> Result<(), CtsError> {
        let limits = self.limits()?;
        let root_load = self.lib.resolve(side.root_load);
        let start = grid.nearest_cell(side.root_point);
        let start_seg =
            grid.cell_center(start).manhattan_dist(side.root_point) + side.unbuffered_depth_um;

        labels.clear();
        labels.resize(grid.cell_count(), None);
        heap.clear();
        let init = Label {
            arrival: side.subtree_delay + self.pending_delay(root_load, start_seg),
            committed: 0.0,
            seg_len: start_seg,
            load: root_load,
            prev: None,
        };
        labels[grid.linear_index(start)] = Some(init);
        heap.push(QueueEntry {
            arrival: init.arrival,
            cell: start,
        });

        while let Some(QueueEntry { arrival, cell }) = heap.pop() {
            let label = labels[grid.linear_index(cell)].expect("queued cells have labels");
            if arrival > label.arrival {
                continue; // stale entry
            }
            let max_seg = limits[label.load.0];
            // The buffer committed here, and its stage delay, depend only on
            // the popped label: sized once, on the first neighbour step that
            // needs it.
            let mut insertion: Option<(BufferId, f64)> = None;
            for next in grid.neighbors(cell) {
                let step = grid.cell_dist(cell, next);
                let mut committed = label.committed;
                let mut seg = label.seg_len + step;
                let mut load = label.load;
                // Slew control: if the grown segment exceeds what the best
                // buffer can drive, a buffer is committed at the *current*
                // cell (as late as possible) before stepping.
                if seg > max_seg {
                    let (buf, stage) = *insertion.get_or_insert_with(|| {
                        let buf = self.best_buffer_for(load, label.seg_len);
                        (buf, self.stage_delay(buf, load, label.seg_len))
                    });
                    committed += stage;
                    load = buf;
                    seg = step;
                }
                let arrival = side.subtree_delay + committed + self.pending_delay(load, seg);
                let idx = grid.linear_index(next);
                if labels[idx].is_none_or(|l| arrival < l.arrival) {
                    labels[idx] = Some(Label {
                        arrival,
                        committed,
                        seg_len: seg,
                        load,
                        prev: Some(cell),
                    });
                    heap.push(QueueEntry {
                        arrival,
                        cell: next,
                    });
                }
            }
        }
        Ok(())
    }

    /// Reconstructs the cell path root→`to` from backpointers.
    fn cell_path(grid: &RoutingGrid, labels: &[Option<Label>], to: CellId) -> Vec<CellId> {
        let mut path = vec![to];
        let mut at = to;
        while let Some(prev) = labels[grid.linear_index(at)].and_then(|l| l.prev) {
            path.push(prev);
            at = prev;
        }
        path.reverse();
        path
    }

    /// Exact re-walk of a geometric path from the root to the merge point:
    /// commits buffer sites late-as-possible with intelligent sizing and
    /// returns the side plan.
    fn commit_path(&self, points: &[Point], side: &MergeSide) -> Result<SidePlan, CtsError> {
        if self.options.buffering == Buffering::VanGinneken {
            let _span = cts_obs::span_with(&SPAN_BUFFER_VG, points.len() as u64);
            return crate::vanginneken::commit_path_vg(self, points, side);
        }
        let _span = cts_obs::span_with(&SPAN_BUFFER_GREEDY, points.len() as u64);
        let limits = self.limits()?;
        let mut load = self.lib.resolve(side.root_load);
        // The pre-existing unbuffered depth below the root consumes part of
        // the first segment's slew budget but is not new wire.
        let mut phantom = side.unbuffered_depth_um;
        let mut seg = 0.0f64;
        let mut committed = 0.0f64;
        let mut buffers = Vec::new();
        let mut at = side.root_point;

        for &next in points {
            let step = at.manhattan_dist(next);
            if step == 0.0 {
                continue;
            }
            let max_seg = limits[load.0];
            if phantom + seg + step > max_seg && phantom + seg > 0.0 {
                let buf = self.best_buffer_for(load, phantom + seg);
                buffers.push(BufferSite {
                    position: at,
                    buffer: buf,
                    wire_below_um: seg,
                });
                // The phantom wire's delay is already inside the sub-tree
                // delay; only the new wire's share is committed here.
                let t = self.lib.single_wire(
                    buf,
                    Load::Buffer(load),
                    self.options.slew_target,
                    (phantom + seg).max(1.0),
                );
                let new_share = if phantom + seg > 0.0 {
                    seg / (phantom + seg)
                } else {
                    1.0
                };
                committed += t.buffer_delay + t.wire_delay * new_share;
                load = buf;
                seg = 0.0;
                phantom = 0.0;
            }
            // A single step longer than max_seg (coarse grid) still must be
            // taken; the slew overshoot is bounded by one pitch and the
            // margin between target and limit absorbs it.
            seg += step;
            at = next;
        }

        let arrival = side.subtree_delay + committed + self.pending_delay(load, seg);
        Ok(SidePlan {
            buffers,
            top_wire_um: seg,
            committed_delay: committed,
            arrival_estimate: arrival,
        })
    }

    /// Routes a merge between two sides and returns the plan.
    ///
    /// Convenience wrapper over [`MazeRouter::route_with`] that allocates
    /// fresh scratch; hot paths should hold a [`MazeScratch`] instead.
    ///
    /// # Errors
    ///
    /// [`CtsError::SlewUnachievable`] when the buffer library cannot meet
    /// the slew target at all.
    pub fn route(&self, a: &MergeSide, b: &MergeSide) -> Result<MergePlan, CtsError> {
        self.route_with(&mut MazeScratch::default(), a, b)
    }

    /// Routes a merge between two sides using the caller's reusable
    /// buffers.
    ///
    /// # Errors
    ///
    /// [`CtsError::SlewUnachievable`] when the buffer library cannot meet
    /// the slew target at all.
    pub fn route_with(
        &self,
        scratch: &mut MazeScratch,
        a: &MergeSide,
        b: &MergeSide,
    ) -> Result<MergePlan, CtsError> {
        let grid = scratch.grid_between(a.root_point, b.root_point, self.options.grid_resolution);
        let MazeScratch {
            labels: [la, lb],
            heap,
            ..
        } = scratch;
        self.expand_side_into(&grid, a, la, heap)?;
        self.expand_side_into(&grid, b, lb, heap)?;
        let (la, lb): (&[Option<Label>], &[Option<Label>]) = (la, lb);

        // Merge cell: minimum |arrival difference|, then minimum total.
        let mut best: Option<(f64, f64, CellId)> = None;
        for row in 0..grid.rows() {
            for col in 0..grid.cols() {
                let cell = CellId::new(col, row);
                let idx = grid.linear_index(cell);
                if let (Some(x), Some(y)) = (la[idx], lb[idx]) {
                    let diff = (x.arrival - y.arrival).abs();
                    let total = x.arrival + y.arrival;
                    if best.is_none_or(|(d, t, _)| {
                        diff < d - 1e-18 || (diff <= d + 1e-18 && total < t)
                    }) {
                        best = Some((diff, total, cell));
                    }
                }
            }
        }
        let (_, _, merge_cell) = best.expect("grid covers both roots");
        let merge_point = grid.cell_center(merge_cell);

        let plan_side = |labels: &[Option<Label>], side: &MergeSide| {
            let cells = Self::cell_path(&grid, labels, merge_cell);
            let mut points: Vec<Point> = cells.iter().map(|&c| grid.cell_center(c)).collect();
            // Snap endpoints: the path leaves the exact root and ends at the
            // exact merge point.
            if let Some(last) = points.last_mut() {
                *last = merge_point;
            }
            self.commit_path(&points, side)
        };
        let sa = plan_side(la, a)?;
        let sb = plan_side(lb, b)?;
        Ok(MergePlan {
            merge_point,
            sides: [sa, sb],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_spice::units::PS;
    use cts_timing::fast_library;

    fn options() -> CtsOptions {
        CtsOptions::default()
    }

    fn side(x: f64, y: f64, delay_ps: f64) -> MergeSide {
        MergeSide {
            root_point: Point::new(x, y),
            root_load: Load::Sink { cap: 20e-15 },
            subtree_delay: delay_ps * PS,
            unbuffered_depth_um: 0.0,
        }
    }

    #[test]
    fn short_merge_needs_no_buffers() {
        let lib = fast_library();
        let opts = options();
        let router = MazeRouter::new(lib, &opts);
        let plan = router
            .route(&side(0.0, 0.0, 0.0), &side(300.0, 0.0, 0.0))
            .unwrap();
        assert!(plan.sides[0].buffers.is_empty());
        assert!(plan.sides[1].buffers.is_empty());
        // Merge lands roughly midway for symmetric sides.
        assert!(
            (plan.merge_point.x - 150.0).abs() < 80.0,
            "merge at {}",
            plan.merge_point
        );
    }

    #[test]
    fn long_merge_inserts_buffers_along_paths() {
        let lib = fast_library();
        let opts = options();
        let router = MazeRouter::new(lib, &opts);
        // 6 mm apart: far beyond any single buffered segment.
        let plan = router
            .route(&side(0.0, 0.0, 0.0), &side(6000.0, 0.0, 0.0))
            .unwrap();
        let total: usize = plan.sides.iter().map(|s| s.buffers.len()).sum();
        assert!(total >= 2, "expected along-path buffers, got {total}");
        // Every committed segment respects the slew target by construction:
        // check that no wire below a buffer exceeds the best max segment.
        for s in &plan.sides {
            for b in &s.buffers {
                let max_any = lib
                    .buffer_ids()
                    .filter_map(|d| {
                        lib.max_wire_length_for_slew(
                            d,
                            Load::Buffer(b.buffer),
                            opts.slew_target,
                            opts.slew_target,
                        )
                    })
                    .fold(0.0f64, f64::max);
                assert!(
                    b.wire_below_um <= max_any * 1.05 + 130.0,
                    "segment {} µm exceeds drivable {} µm",
                    b.wire_below_um,
                    max_any
                );
            }
        }
    }

    #[test]
    fn merge_point_shifts_toward_slower_side() {
        let lib = fast_library();
        let opts = options();
        let router = MazeRouter::new(lib, &opts);
        // Side A carries a few ps more sub-tree delay — within the range
        // the merge position can compensate over 1.2 mm of wire. (Larger
        // imbalances are the balance stage's job, not the router's.)
        let plan = router
            .route(&side(0.0, 0.0, 3.0), &side(1200.0, 0.0, 0.0))
            .unwrap();
        assert!(
            plan.merge_point.x < 600.0,
            "merge at {} should lean toward the slow side",
            plan.merge_point
        );
        // And the chosen cell should roughly balance arrivals.
        let diff = (plan.sides[0].arrival_estimate - plan.sides[1].arrival_estimate).abs();
        let balanced = router
            .route(&side(0.0, 0.0, 0.0), &side(1200.0, 0.0, 0.0))
            .unwrap();
        let base_diff =
            (balanced.sides[0].arrival_estimate - balanced.sides[1].arrival_estimate).abs();
        assert!(
            diff < 3.0 * PS + base_diff,
            "arrival diff {} ps (baseline {} ps)",
            diff / PS,
            base_diff / PS
        );
    }

    #[test]
    fn pending_delay_is_the_virtual_driver_query() {
        let lib = fast_library();
        let opts = options();
        let router = MazeRouter::new(lib, &opts);
        for load in lib.buffer_ids() {
            assert_eq!(router.pending_delay(load, 0.0), 0.0);
            for seg in [0.25f64, 1.0, 130.0, 777.7, 1e9] {
                let query = lib.single_wire_delay(
                    opts.virtual_driver,
                    Load::Buffer(load),
                    opts.slew_target,
                    seg.max(1.0),
                );
                assert_eq!(router.pending_delay(load, seg).to_bits(), query.to_bits());
            }
        }
    }

    #[test]
    fn new_accepts_a_virtual_driver_outside_the_library() {
        // The synthesizer rejects such options up front; a direct caller
        // still gets a router, and only a pending-delay query would panic.
        let lib = fast_library();
        let mut opts = options();
        opts.virtual_driver = BufferId(lib.buffers().len());
        let router = MazeRouter::new(lib, &opts);
        assert!(router.limits().is_ok());
        assert_eq!(router.pending_delay(BufferId(0), 0.0), 0.0);
    }

    #[test]
    fn long_route_plan_bits_are_pinned() {
        // A 6 mm merge crosses segment limits inside the wavefront, so
        // this pins the insertion decision as well as the pending-delay
        // arithmetic. The constant was computed before the pending-delay
        // curves and the hoisted insertion decision landed.
        let lib = fast_library();
        let opts = options();
        let router = MazeRouter::new(lib, &opts);
        let plan = router
            .route(&side(0.0, 0.0, 0.0), &side(6000.0, 900.0, 4.0))
            .unwrap();
        let mut words = vec![plan.merge_point.x.to_bits(), plan.merge_point.y.to_bits()];
        for s in &plan.sides {
            for b in &s.buffers {
                words.extend([
                    b.position.x.to_bits(),
                    b.position.y.to_bits(),
                    b.buffer.0 as u64,
                    b.wire_below_um.to_bits(),
                ]);
            }
            words.extend([
                s.top_wire_um.to_bits(),
                s.committed_delay.to_bits(),
                s.arrival_estimate.to_bits(),
            ]);
        }
        let h = words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!(h, 0x00bb_f9f4_dd7a_0ccd, "plan bits moved: got {h:#018x}");
    }

    #[test]
    fn grid_cache_does_not_change_plans() {
        // Same-span pairs at different die positions must route to the
        // same plans whether the grid dims come from the cache or from a
        // fresh `between` derivation.
        let lib = fast_library();
        let opts = options();
        let router = MazeRouter::new(lib, &opts);
        let mut warm = MazeScratch::default();
        let pairs = [
            (side(0.0, 0.0, 0.0), side(2600.0, 700.0, 0.0)),
            (side(4000.0, 1000.0, 0.0), side(6600.0, 1700.0, 0.0)), // same span
            (side(100.0, 50.0, 2.0), side(2700.0, 750.0, 0.0)),     // same span
        ];
        for (a, b) in &pairs {
            let cached = router.route_with(&mut warm, a, b).unwrap();
            let fresh = router
                .route_with(&mut MazeScratch::default(), a, b)
                .unwrap();
            assert_eq!(cached, fresh);
        }
    }

    #[test]
    fn side_plan_last_fixed_position() {
        let lib = fast_library();
        let opts = options();
        let router = MazeRouter::new(lib, &opts);
        let a = side(0.0, 0.0, 0.0);
        let b = side(5000.0, 0.0, 0.0);
        let plan = router.route(&a, &b).unwrap();
        for (s, root) in plan.sides.iter().zip([a.root_point, b.root_point]) {
            let v = s.last_fixed_position(root);
            if s.buffers.is_empty() {
                assert_eq!(v, root);
            } else {
                assert_eq!(v, s.buffers.last().unwrap().position);
            }
        }
    }

    #[test]
    fn wirelength_is_conserved_by_commit() {
        let lib = fast_library();
        let opts = options();
        let router = MazeRouter::new(lib, &opts);
        let a = side(0.0, 0.0, 0.0);
        let b = side(4000.0, 300.0, 0.0);
        let plan = router.route(&a, &b).unwrap();
        for (s, root) in plan.sides.iter().zip([a.root_point, b.root_point]) {
            let path_len: f64 =
                s.buffers.iter().map(|bs| bs.wire_below_um).sum::<f64>() + s.top_wire_um;
            // The routed length can exceed the straight-line Manhattan
            // distance (detours) but never undershoot it (minus grid snap).
            let direct = root.manhattan_dist(plan.merge_point);
            assert!(
                path_len >= direct - 300.0,
                "path {path_len} µm vs direct {direct} µm"
            );
        }
    }
}
