//! SPICE verification of synthesized clock trees.
//!
//! The paper's reported numbers (worst slew, skew, max latency; §5.1) come
//! from SPICE simulation of the synthesized netlist, not from the delay
//! library. This module reproduces that: the tree is simulated stage by
//! stage on [`cts_spice`], propagating *actual waveforms* (not slews)
//! across buffer boundaries, and the measurements are taken on the
//! simulated voltages.
//!
//! Stage decomposition is exact for our device model: a CMOS gate loads its
//! input purely capacitively, so cutting at buffer inputs and carrying the
//! full input waveform forward loses nothing.
//!
//! # Incremental re-verification
//!
//! The stage cut also makes verification *incremental*. A stage's simulated
//! output depends on exactly two things: the stage's own netlist (driver
//! buffer, downstream wires/caps up to the next buffer inputs) and its
//! input waveform — which is itself fully determined by the chain of stages
//! above it. [`Verifier`] keys every stage by a fingerprint chaining those
//! two, caches each stage's measurements and output waveforms, and on
//! re-verification re-simulates only stages whose key changed: edit one
//! wire and exactly the stage containing it (plus its downstream cone,
//! whose input waveforms change) re-runs; every other stage replays from
//! the cache. Cached and fresh results are bit-identical — the cache stores
//! the exact waveform objects the fresh path would propagate.

use crate::options::CtsError;
use crate::tree::{ClockTree, NodeKind, TreeNodeId};
use cts_spice::units::{NS, PS};
use cts_spice::{
    simulate_observed_with, Circuit, NodeId, SimOptions, SolverContext, Technology, Waveform,
};
use cts_util::Fnv1a;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

// Span taxonomy for verification: one span per [`Verifier::verify`] call
// (attr = tree size) and one per stage, split by whether the stage was
// freshly simulated or replayed from the incremental cache (attr = load
// count). Telemetry only.
static SPAN_VERIFY: cts_obs::Name = cts_obs::Name::new("verify.tree");
static SPAN_STAGE_SIMULATE: cts_obs::Name = cts_obs::Name::new("verify.stage_simulate");
static SPAN_STAGE_REUSE: cts_obs::Name = cts_obs::Name::new("verify.stage_reuse");

/// Options for tree verification.
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// 10–90 % slew of the ideal ramp applied at the source input (s).
    pub input_slew: f64,
    /// Per-stage simulation window (s). Must exceed any single stage's
    /// delay plus settling; 3 ns is ample for ps-scale stages.
    pub stage_window: f64,
    /// Transient timestep (s).
    pub dt: f64,
}

impl Default for VerifyOptions {
    fn default() -> VerifyOptions {
        VerifyOptions {
            input_slew: 80.0 * PS,
            stage_window: 3.0 * NS,
            dt: 0.5 * PS,
        }
    }
}

/// SPICE-verified timing of a clock tree.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifiedTiming {
    /// Largest 10–90 % slew observed at any node of the tree (s).
    pub worst_slew: f64,
    /// Skew: max − min sink arrival (s).
    pub skew: f64,
    /// Max sink arrival measured from the source input edge (s).
    pub max_latency: f64,
    /// Arrival time per sink node (s).
    pub sink_arrivals: Vec<(TreeNodeId, f64)>,
}

/// Counters describing how much work verification actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Stages that were assembled, stamped and transient-simulated.
    pub stages_simulated: u64,
    /// Stages replayed from the incremental cache without simulating.
    pub stages_reused: u64,
    /// Simulations that reused a cached solve plan (symbolic
    /// factorization / elimination order) from the solver context.
    pub symbolic_hits: u64,
    /// Simulations that had to build a solve plan.
    pub symbolic_misses: u64,
}

/// Bound on the records one stage store holds. Each record holds the
/// stage's output waveforms, so this also bounds store memory.
const STAGE_CACHE_CAP: usize = 4096;

/// Per-load cached data: the 50 % crossing, and for buffer loads the
/// re-base time and the exact shifted waveform handed to the next stage.
struct LoadRec {
    t50: f64,
    t_base: f64,
    wave: Option<Arc<Waveform>>,
}

struct StageRecord {
    worst_slew: f64,
    t50_in: f64,
    loads: Vec<LoadRec>,
}

/// Stage records shared by a verifier and its peers, bounded by `cap`.
///
/// Every lookup and insert stamps the record with the store's clock; when
/// an insert finds the store full, the least recently used quarter goes.
/// The rule reads only the stamps, so it treats every peer's records
/// alike.
struct StageStore {
    records: HashMap<u128, (Arc<StageRecord>, u64)>,
    clock: u64,
    cap: usize,
}

impl StageStore {
    fn new(cap: usize) -> StageStore {
        StageStore {
            records: HashMap::new(),
            clock: 0,
            cap: cap.max(1),
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn get(&mut self, key: u128) -> Option<Arc<StageRecord>> {
        let now = self.tick();
        let (record, used) = self.records.get_mut(&key)?;
        *used = now;
        Some(Arc::clone(record))
    }

    fn insert(&mut self, key: u128, record: Arc<StageRecord>) {
        if self.records.len() >= self.cap && !self.records.contains_key(&key) {
            // Stamps are distinct, so exactly `evict` records are at or
            // below the cut.
            let evict = self.cap.div_ceil(4);
            let mut stamps: Vec<u64> = self.records.values().map(|&(_, used)| used).collect();
            let cut = *stamps.select_nth_unstable(evict - 1).1;
            self.records.retain(|_, &mut (_, used)| used > cut);
        }
        let now = self.tick();
        self.records.insert(key, (record, now));
    }
}

/// Incremental, cache-carrying tree verifier.
///
/// A `Verifier` carries two caches across [`Verifier::verify`] calls:
///
/// * its own [`SolverContext`] of solve plans (partition, elimination
///   order, symbolic factorization), reused whenever any two stage
///   circuits share a topology — within one tree, across repeated
///   verifies, and across *different* trees of the same design;
/// * a handle to a stage store keyed by a fingerprint chaining each
///   stage's netlist content with its input-waveform lineage, letting
///   re-verification of an edited tree skip every stage the edit cannot
///   affect. [`Verifier::peer`] hands the same store to another verifier,
///   so a stage simulated by one is replayed by all.
///
/// Results are bit-identical whether a stage is simulated or replayed:
/// `Verifier::new().verify(...)` equals [`verify_tree`] exactly, and
/// re-verifying an unchanged tree — on this verifier or any peer — returns
/// the identical `VerifiedTiming` while simulating zero stages. The
/// per-verifier counters ([`VerifyStats`]) expose how much work was
/// skipped.
///
/// The solver context and the counters belong to one verifier (`verify`
/// takes `&mut self`); a pool of worker threads gives each worker its own
/// [`Verifier::peer`] of one verifier. The store is locked only to look a
/// stage up or to file one, never while a stage simulates.
pub struct Verifier {
    ctx: SolverContext,
    store: Arc<Mutex<StageStore>>,
    stages_simulated: u64,
    stages_reused: u64,
}

impl Default for Verifier {
    fn default() -> Verifier {
        Verifier::with_stage_cap(STAGE_CACHE_CAP)
    }
}

impl Verifier {
    /// Creates a verifier with empty caches and a store of its own.
    pub fn new() -> Verifier {
        Verifier::default()
    }

    fn with_stage_cap(cap: usize) -> Verifier {
        Verifier {
            ctx: SolverContext::new(),
            store: Arc::new(Mutex::new(StageStore::new(cap))),
            stages_simulated: 0,
            stages_reused: 0,
        }
    }

    /// A verifier over the same stage store, with a fresh solver context
    /// and zeroed counters: a stage either of them simulates, the other
    /// replays.
    pub fn peer(&self) -> Verifier {
        Verifier {
            ctx: SolverContext::new(),
            store: Arc::clone(&self.store),
            stages_simulated: 0,
            stages_reused: 0,
        }
    }

    /// Work counters accumulated over this verifier's lifetime.
    pub fn stats(&self) -> VerifyStats {
        VerifyStats {
            stages_simulated: self.stages_simulated,
            stages_reused: self.stages_reused,
            symbolic_hits: self.ctx.symbolic_hits(),
            symbolic_misses: self.ctx.symbolic_misses(),
        }
    }

    /// The shared store. Records go in whole, so a lock poisoned by a
    /// panicking peer still guards a consistent map.
    fn store(&self) -> MutexGuard<'_, StageStore> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Simulates the tree stage by stage, replaying cached stages whose
    /// netlist and input lineage are unchanged since a previous call.
    ///
    /// # Errors
    ///
    /// As for [`verify_tree`].
    pub fn verify(
        &mut self,
        tree: &ClockTree,
        source: TreeNodeId,
        tech: &Technology,
        opts: &VerifyOptions,
    ) -> Result<VerifiedTiming, CtsError> {
        let _span = cts_obs::span_with(&SPAN_VERIFY, tree.len() as u64);
        let driver = match tree.node(source).kind {
            NodeKind::Source { driver } => driver,
            ref k => {
                return Err(CtsError::Verify(format!(
                    "verification must start at a source node, got {k:?}"
                )))
            }
        };
        let vdd = tech.vdd();
        let buffers = tech.buffer_library();

        // Root of the stage-key chain: everything global that shapes stage
        // simulations — technology (devices, wire parasitics, buffer
        // library) and the simulation/stimulus options.
        let ctx_key = {
            let mut f = Fnv1a::default();
            f.bytes(format!("{tech:?}").as_bytes());
            f.word(opts.input_slew.to_bits());
            f.word(opts.stage_window.to_bits());
            f.word(opts.dt.to_bits());
            f.finish128()
        };

        // Work queue of stages: (tree node of the driving buffer, its input
        // waveform in local time, global time offset of local t = 0, key of
        // the input-waveform lineage).
        struct StageJob {
            node: TreeNodeId,
            driver: cts_timing::BufferId,
            wave: Arc<Waveform>,
            offset: f64,
            input_key: u128,
        }
        let mut queue = VecDeque::new();
        queue.push_back(StageJob {
            node: source,
            driver,
            wave: Arc::new(Waveform::rising_ramp_10_90(
                100.0 * PS,
                opts.input_slew,
                vdd,
            )),
            offset: -100.0 * PS, // measure latency from the source edge start
            input_key: ctx_key,
        });

        let mut worst_slew: f64 = 0.0;
        let mut sink_arrivals = Vec::new();
        let mut stages = 0usize;
        // Global 50 % time of the source input edge; arrivals are measured
        // relative to it (the paper's source-to-sink delay).
        let mut source_edge: Option<f64> = None;

        while let Some(job) = queue.pop_front() {
            stages += 1;
            if stages > 4 * tree.len() + 16 {
                return Err(CtsError::Verify("stage queue runaway".into()));
            }

            // Build the stage circuit: driver buffer + downstream wire tree
            // up to the next buffer inputs / sinks. The same walk feeds the
            // stage fingerprint, so cached replay sees loads in the exact
            // order simulation would produce them.
            let mut key = Fnv1a::default();
            key.word128(job.input_key);
            key.word(job.driver.0 as u64);
            let mut c = Circuit::new(tech);
            let cin = c.add_node("stage_in");
            let cout = c.add_node("stage_out");
            let btype = &buffers[job.driver.0];
            c.add_buffer(cin, cout, btype);

            // Walk the tree below the driver, mirroring it into the circuit.
            // `loads` collects (tree node, circuit node) for buffers/sinks.
            let mut loads: Vec<(TreeNodeId, NodeId, bool)> = Vec::new(); // bool: is_buffer
            let mut measured: Vec<NodeId> = vec![cout];
            let mut stack: Vec<(TreeNodeId, NodeId)> = tree
                .node(job.node)
                .children
                .iter()
                .map(|&ch| (ch, cout))
                .collect();
            key.word(stack.len() as u64);
            while let Some((tnode, upstream)) = stack.pop() {
                let cnode = c.add_node(format!("{tnode}"));
                measured.push(cnode);
                let len = tree.node(tnode).wire_to_parent_um;
                key.word(len.to_bits());
                if len >= 0.5 {
                    c.add_wire(upstream, cnode, len, tech.wire());
                } else {
                    // Co-located attachment: a tiny series resistance keeps
                    // the two circuit nodes distinct without parasitics.
                    c.add_resistor(upstream, cnode, 1e-3);
                }
                match tree.node(tnode).kind {
                    NodeKind::Sink { cap, .. } => {
                        key.word(1);
                        key.word(cap.to_bits());
                        c.add_cap(cnode, cap);
                        loads.push((tnode, cnode, false));
                    }
                    NodeKind::Buffer { buffer } => {
                        key.word(2);
                        key.word(buffer.0 as u64);
                        // The next stage's gate: purely capacitive here.
                        c.add_cap(cnode, buffers[buffer.0].input_cap(tech));
                        loads.push((tnode, cnode, true));
                    }
                    NodeKind::Joint => {
                        key.word(3);
                        key.word(tree.node(tnode).children.len() as u64);
                        stack.extend(tree.node(tnode).children.iter().map(|&ch| (ch, cnode)));
                    }
                    NodeKind::Source { .. } => {
                        return Err(CtsError::Verify("source below a driver".into()))
                    }
                }
            }
            let stage_key = key.finish128();

            // Cached replay: the stage's netlist and input lineage are
            // unchanged, so its simulated outputs are too.
            let cached = self.store().get(stage_key);
            let hit = cached.filter(|r| {
                r.loads.len() == loads.len()
                    && r.loads
                        .iter()
                        .zip(&loads)
                        .all(|(lr, &(_, _, buf))| lr.wave.is_some() == buf)
            });

            let record = if let Some(hit) = hit {
                let _span = cts_obs::span_with(&SPAN_STAGE_REUSE, loads.len() as u64);
                self.stages_reused += 1;
                hit
            } else {
                let _span = cts_obs::span_with(&SPAN_STAGE_SIMULATE, loads.len() as u64);
                self.stages_simulated += 1;
                let sim_opts = {
                    let mut o = SimOptions::default_for(opts.stage_window);
                    o.dt = opts.dt;
                    o
                };
                c.drive(cin, Waveform::clone(&job.wave));
                let res = simulate_observed_with(&mut self.ctx, &c, &sim_opts, &measured)
                    .map_err(|e| CtsError::Verify(format!("stage at {}: {e}", job.node)))?;

                // Worst slew across every tree-visible node in this stage.
                let mut stage_worst: f64 = 0.0;
                for &n in &measured {
                    let w = res.waveform(n);
                    let slew = w.slew_10_90(vdd).ok_or_else(|| {
                        CtsError::Verify(format!(
                            "node {} never completed its transition (stage at {})",
                            c.node_name(n),
                            job.node
                        ))
                    })?;
                    stage_worst = stage_worst.max(slew);
                }

                // The stage's reference edge: driver input's 50 % crossing.
                let t50_in = job
                    .wave
                    .t50(vdd)
                    .ok_or_else(|| CtsError::Verify("driver input has no edge".into()))?;

                let mut load_recs = Vec::with_capacity(loads.len());
                for &(tnode, cnode, is_buffer) in &loads {
                    let w = res.waveform(cnode);
                    let t50 = w.t50(vdd).ok_or_else(|| {
                        CtsError::Verify(format!("load {tnode} never crossed 50%"))
                    })?;
                    if is_buffer {
                        // Re-base the waveform so the edge sits near the
                        // start of the next window; the cut time is carried
                        // into the offset when the job is queued below.
                        let t_base = (t50 - 300.0 * PS).max(0.0);
                        load_recs.push(LoadRec {
                            t50,
                            t_base,
                            wave: Some(Arc::new(w.shifted(-t_base))),
                        });
                    } else {
                        load_recs.push(LoadRec {
                            t50,
                            t_base: 0.0,
                            wave: None,
                        });
                    }
                }
                let record = Arc::new(StageRecord {
                    worst_slew: stage_worst,
                    t50_in,
                    loads: load_recs,
                });
                self.store().insert(stage_key, Arc::clone(&record));
                record
            };

            worst_slew = worst_slew.max(record.worst_slew);
            if source_edge.is_none() {
                source_edge = Some(job.offset + record.t50_in);
            }
            let t_source = source_edge.expect("set on first stage");

            for (ordinal, (&(tnode, _, is_buffer), lr)) in
                loads.iter().zip(&record.loads).enumerate()
            {
                if is_buffer {
                    let next_driver = match tree.node(tnode).kind {
                        NodeKind::Buffer { buffer } => buffer,
                        _ => unreachable!(),
                    };
                    let input_key = {
                        let mut f = Fnv1a::default();
                        f.word128(stage_key);
                        f.word(ordinal as u64);
                        f.finish128()
                    };
                    queue.push_back(StageJob {
                        node: tnode,
                        driver: next_driver,
                        wave: Arc::clone(lr.wave.as_ref().expect("buffer load has a waveform")),
                        offset: job.offset + lr.t_base,
                        input_key,
                    });
                } else {
                    sink_arrivals.push((tnode, job.offset + lr.t50 - t_source));
                }
            }
        }

        if sink_arrivals.is_empty() {
            return Err(CtsError::Verify("tree has no sinks".into()));
        }
        let max_latency = sink_arrivals
            .iter()
            .map(|&(_, t)| t)
            .fold(f64::NEG_INFINITY, f64::max);
        let min_arrival = sink_arrivals
            .iter()
            .map(|&(_, t)| t)
            .fold(f64::INFINITY, f64::min);

        Ok(VerifiedTiming {
            worst_slew,
            skew: max_latency - min_arrival,
            max_latency,
            sink_arrivals,
        })
    }
}

/// Simulates the synthesized tree and measures worst slew, skew and
/// latency — the paper's Table 5.1/5.2 columns.
///
/// Each call starts from cold caches; use a persistent [`Verifier`] to
/// amortize solve plans and reuse unchanged stages across calls.
///
/// # Errors
///
/// [`CtsError::Verify`] if any stage fails to simulate or a node never
/// completes its transition within the stage window (which indicates a
/// grossly illegal tree).
pub fn verify_tree(
    tree: &ClockTree,
    source: TreeNodeId,
    tech: &Technology,
    opts: &VerifyOptions,
) -> Result<VerifiedTiming, CtsError> {
    Verifier::new().verify(tree, source, tech, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Synthesizer;
    use crate::instance::{Instance, Sink};
    use crate::options::CtsOptions;
    use cts_geom::Point;
    use cts_timing::fast_library;

    fn tech() -> Technology {
        Technology::nominal_45nm()
    }

    #[test]
    fn verifies_a_hand_built_tree() {
        let mut t = ClockTree::new();
        let a = t.add_sink(0, &Sink::new("a", Point::new(0.0, 0.0), 20e-15));
        let b = t.add_sink(1, &Sink::new("b", Point::new(800.0, 0.0), 20e-15));
        let m = t.add_joint(Point::new(400.0, 0.0));
        t.attach(m, a, 400.0);
        t.attach(m, b, 400.0);
        let src = t.add_source(m, cts_timing::BufferId(2));
        let v = verify_tree(&t, src, &tech(), &VerifyOptions::default()).unwrap();
        assert_eq!(v.sink_arrivals.len(), 2);
        assert!(v.worst_slew > 0.0 && v.worst_slew < 200.0 * PS);
        assert!(v.skew < 2.0 * PS, "symmetric tree skew {} ps", v.skew / PS);
        assert!(v.max_latency > 0.0 && v.max_latency < 2.0 * NS);
    }

    #[test]
    fn verified_skew_of_unbalanced_tree_is_positive() {
        let mut t = ClockTree::new();
        let a = t.add_sink(0, &Sink::new("a", Point::new(0.0, 0.0), 20e-15));
        let b = t.add_sink(1, &Sink::new("b", Point::new(1500.0, 0.0), 20e-15));
        let m = t.add_joint(Point::new(200.0, 0.0));
        t.attach(m, a, 200.0);
        t.attach(m, b, 1300.0);
        let src = t.add_source(m, cts_timing::BufferId(2));
        let v = verify_tree(&t, src, &tech(), &VerifyOptions::default()).unwrap();
        assert!(v.skew > 5.0 * PS, "skew {} ps", v.skew / PS);
    }

    #[test]
    fn verify_synthesized_tree_end_to_end() {
        let synth = Synthesizer::new(fast_library(), CtsOptions::default());
        let sinks = vec![
            Sink::new("a", Point::new(0.0, 0.0), 25e-15),
            Sink::new("b", Point::new(2500.0, 200.0), 25e-15),
            Sink::new("c", Point::new(300.0, 2200.0), 25e-15),
            Sink::new("d", Point::new(2400.0, 2500.0), 25e-15),
            Sink::new("e", Point::new(1200.0, 1200.0), 25e-15),
        ];
        let inst = Instance::new("five", sinks);
        let r = synth.synthesize(&inst).unwrap();
        let v = verify_tree(&r.tree, r.source, &tech(), &VerifyOptions::default()).unwrap();
        assert_eq!(v.sink_arrivals.len(), 5);
        // The paper's headline: verified slew within the 100 ps limit.
        assert!(
            v.worst_slew <= synth.options().slew_limit,
            "verified slew {} ps breaks the limit",
            v.worst_slew / PS
        );
        // Verified skew should be a small fraction of latency (<= 3% is the
        // paper's ISPD observation; allow headroom for the fast library).
        assert!(
            v.skew <= 0.15 * v.max_latency,
            "skew {} ps vs latency {} ps",
            v.skew / PS,
            v.max_latency / PS
        );
    }

    #[test]
    fn verification_requires_source() {
        let mut t = ClockTree::new();
        let a = t.add_sink(0, &Sink::new("a", Point::new(0.0, 0.0), 20e-15));
        let err = verify_tree(&t, a, &tech(), &VerifyOptions::default()).unwrap_err();
        assert!(matches!(err, CtsError::Verify(_)));
    }

    fn synthesized_tree() -> (crate::flow::CtsResult, Technology) {
        let synth = Synthesizer::new(fast_library(), CtsOptions::default());
        let sinks = vec![
            Sink::new("a", Point::new(0.0, 0.0), 25e-15),
            Sink::new("b", Point::new(2500.0, 200.0), 25e-15),
            Sink::new("c", Point::new(300.0, 2200.0), 25e-15),
            Sink::new("d", Point::new(2400.0, 2500.0), 25e-15),
            Sink::new("e", Point::new(1200.0, 1200.0), 25e-15),
        ];
        let r = synth.synthesize(&Instance::new("five", sinks)).unwrap();
        (r, tech())
    }

    #[test]
    fn warm_verifier_is_bit_identical_to_cold() {
        let (r, t) = synthesized_tree();
        let opts = VerifyOptions::default();
        let cold = verify_tree(&r.tree, r.source, &t, &opts).unwrap();
        let mut v = Verifier::new();
        let first = v.verify(&r.tree, r.source, &t, &opts).unwrap();
        let second = v.verify(&r.tree, r.source, &t, &opts).unwrap();
        assert_eq!(cold, first, "fresh verifier must match verify_tree");
        assert_eq!(cold, second, "cached replay must be bit-identical");
        let stats = v.stats();
        assert!(stats.stages_simulated > 0);
        assert_eq!(
            stats.stages_reused, stats.stages_simulated,
            "second verify must replay every stage from cache"
        );
    }

    #[test]
    fn incremental_reverify_resimulates_only_touched_stages() {
        let (mut r, t) = synthesized_tree();
        let opts = VerifyOptions::default();
        let mut v = Verifier::new();
        v.verify(&r.tree, r.source, &t, &opts).unwrap();
        let base = v.stats();

        // Nudge one sink's wire: exactly the one stage whose netlist
        // contains that wire must re-simulate (a sink is a stage leaf, so
        // no downstream cone).
        let sink = r
            .tree
            .ids()
            .find(|&id| matches!(r.tree.node(id).kind, NodeKind::Sink { .. }))
            .unwrap();
        let old_len = r.tree.node(sink).wire_to_parent_um;
        r.tree.set_wire_to_parent(sink, old_len + 1.0);
        v.verify(&r.tree, r.source, &t, &opts).unwrap();
        let after_edit = v.stats();
        assert_eq!(
            after_edit.stages_simulated - base.stages_simulated,
            1,
            "one edited stage must re-simulate"
        );

        // Revert: the original record is still cached, so nothing at all
        // re-simulates.
        r.tree.set_wire_to_parent(sink, old_len);
        let reverted = v.verify(&r.tree, r.source, &t, &opts).unwrap();
        assert_eq!(
            v.stats().stages_simulated,
            after_edit.stages_simulated,
            "reverting must be a full cache replay"
        );
        let fresh = verify_tree(&r.tree, r.source, &t, &opts).unwrap();
        assert_eq!(reverted, fresh, "replayed result must match cold verify");
    }

    #[test]
    fn peer_of_warm_verifier_replays_every_stage() {
        let (r, t) = synthesized_tree();
        let opts = VerifyOptions::default();
        let cold = verify_tree(&r.tree, r.source, &t, &opts).unwrap();
        let mut warm = Verifier::new();
        warm.verify(&r.tree, r.source, &t, &opts).unwrap();
        let mut peer = warm.peer();
        assert_eq!(
            peer.stats(),
            VerifyStats::default(),
            "counters start at zero"
        );
        let replayed = peer.verify(&r.tree, r.source, &t, &opts).unwrap();
        assert_eq!(replayed, cold, "a peer's replay must be bit-identical");
        let stats = peer.stats();
        assert_eq!(stats.stages_simulated, 0, "the peer re-simulates nothing");
        assert_eq!(stats.stages_reused, warm.stats().stages_simulated);
    }

    #[test]
    fn store_stays_under_its_cap() {
        let (mut r, t) = synthesized_tree();
        let opts = VerifyOptions::default();
        let stages = {
            let mut probe = Verifier::new();
            probe.verify(&r.tree, r.source, &t, &opts).unwrap();
            probe.stats().stages_simulated as usize
        };
        assert!(stages >= 4, "the tree must overflow the store");
        let cap = stages / 2;
        let mut v = Verifier::with_stage_cap(cap);
        let mut peer = v.peer();
        let sink = r
            .tree
            .ids()
            .find(|&id| matches!(r.tree.node(id).kind, NodeKind::Sink { .. }))
            .unwrap();
        let base_len = r.tree.node(sink).wire_to_parent_um;
        for round in 0..6 {
            r.tree
                .set_wire_to_parent(sink, base_len + (round % 3) as f64);
            let verifier = if round % 2 == 0 { &mut v } else { &mut peer };
            let got = verifier.verify(&r.tree, r.source, &t, &opts).unwrap();
            assert!(v.store().records.len() <= cap, "round {round} overflowed");
            let fresh = verify_tree(&r.tree, r.source, &t, &opts).unwrap();
            assert_eq!(got, fresh, "round {round} differs from a cold verify");
        }
    }

    #[test]
    fn store_evicts_least_recently_used() {
        let record = || {
            Arc::new(StageRecord {
                worst_slew: 0.0,
                t50_in: 0.0,
                loads: Vec::new(),
            })
        };
        let mut store = StageStore::new(4);
        for key in 1..=4 {
            store.insert(key, record());
        }
        assert!(store.get(1).is_some());
        store.insert(5, record());
        let mut kept: Vec<u128> = store.records.keys().copied().collect();
        kept.sort_unstable();
        assert_eq!(kept, [1, 3, 4, 5], "the oldest untouched record goes");
    }

    #[test]
    fn solver_plans_are_shared_across_stages() {
        let (r, t) = synthesized_tree();
        let mut v = Verifier::new();
        v.verify(&r.tree, r.source, &t, &VerifyOptions::default())
            .unwrap();
        let stats = v.stats();
        assert_eq!(
            stats.symbolic_hits + stats.symbolic_misses,
            stats.stages_simulated,
            "every simulated stage consults the plan cache"
        );
    }
}
