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
//! # Stage horizons
//!
//! [`VerifyOptions::stage_window`] is the *reference* window: the results
//! are those of simulating every stage over all of it. But a stage is only
//! simulated up to its *horizon*, which is found on demand:
//!
//! * **Stop rule.** A stage is finished when every node it measures has
//!   its latest sample at or above 90 % of the supply, starting below 10 %
//!   (so its 10 / 50 / 90 % first crossings lie inside the samples), and
//!   every child stage is finished. From then on the first crossings, the
//!   50 % times, the 10–90 % slews and the edge direction (which reads the
//!   last sample) are what the full window gives. A node that never
//!   completes runs to the window and fails as it always did.
//! * **Input rule.** A transient is causal: its samples up to time `t`
//!   depend only on its input up to `t`. So a stage may take a step at `t`
//!   only when its parent's output already has a sample at or after `t`,
//!   or the parent has reached the window; the source ramp counts as
//!   complete. A stage that needs more input asks its parent to extend,
//!   which may ask its own parent, up to the source.
//! * **Order.** Stages are simulated depth-first, keeping the runs of the
//!   current stage's ancestors live so that extending them is a resumed
//!   step loop; the result is then assembled in breadth-first stage order,
//!   the order [`VerifiedTiming::sink_arrivals`] has always had.
//!
//! # Incremental re-verification
//!
//! The stage cut also makes verification *incremental*. A stage's simulated
//! output depends on exactly two things: the stage's own netlist (driver
//! buffer, downstream wires/caps up to the next buffer inputs) and its
//! input waveform — which is itself fully determined by the chain of stages
//! above it. [`Verifier`] keys every stage by a fingerprint chaining those
//! two, found by a walk of the tree that builds no netlist, and files each
//! stage's measurements, its buffer loads' output waveforms up to the
//! horizon it reached, and its solver end state there. Re-verification
//! simulates only stages whose key changed: edit one wire and exactly the
//! stage containing it (plus its downstream cone, whose input waveforms
//! change) re-runs; every other stage replays from its record. A replayed
//! record that a new child outgrows is *resumed* from its end state, never
//! re-simulated, and re-filed with its longer horizon; a record is never
//! shortened. Replayed and fresh results are bit-identical.

use crate::options::CtsError;
use crate::tree::{ClockTree, NodeKind, TreeNodeId};
use cts_spice::units::{NS, PS};
use cts_spice::{
    BufferType, Circuit, EndState, NodeId, SimOptions, SolverContext, Technology, Transient,
    Waveform,
};
use cts_timing::BufferId;
use cts_util::Fnv1a;
use std::collections::HashMap;
use std::ops::Range;
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
    /// Reference simulation window per stage (s), and the cap on a stage's
    /// horizon: results are those of simulating every stage over this
    /// whole window, but a stage stops at its horizon, once its own
    /// measurements and its children's input are complete (see the module
    /// docs). Must exceed any single stage's delay plus settling; 3 ns is
    /// ample for ps-scale stages.
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
    /// Replayed stages resumed from their end state because a child
    /// needed more of their output than their record held.
    pub stages_extended: u64,
    /// Transient timesteps taken, extensions of replayed stages included.
    pub steps_simulated: u64,
    /// Plan-cache hits: stage runs, started or resumed, that reused a
    /// cached solve plan (partition and elimination order) from the
    /// solver context.
    pub symbolic_hits: u64,
    /// Plan-cache misses: stage runs, started or resumed, that had to
    /// build a solve plan.
    pub symbolic_misses: u64,
}

/// Bound on the records one stage store holds. Each record holds the
/// stage's output waveforms, so this also bounds store memory.
const STAGE_CACHE_CAP: usize = 4096;

/// Steps a stage takes between checks of its stop rule, and the margin a
/// parent runs ahead when a child needs more of its output. Any value is
/// exact; with this one a cold verify of GSRC r1–r3 takes about 3 % more
/// steps than it would with every stage's horizon known in advance.
const CHUNK: usize = 16;

/// Per-load record: the 50 % crossing, and for buffer loads the re-base
/// time and the shifted output waveform handed to the next stage, up to
/// the record's horizon.
#[derive(Clone)]
struct LoadRec {
    t50: f64,
    t_base: f64,
    wave: Option<Waveform>,
}

/// What a stage's simulation leaves for replay: its measurements, final
/// once its stop rule held, and its buffer loads' outputs and run state
/// at the horizon it reached.
#[derive(Clone)]
struct StageRecord {
    worst_slew: f64,
    loads: Vec<LoadRec>,
    /// Where the stage's run stands at its horizon.
    end: EndState,
}

impl StageRecord {
    /// The last step the record's waveforms reach.
    fn horizon(&self) -> usize {
        self.end.step()
    }
}

/// Stage records shared by a verifier and its peers, bounded by `cap`.
///
/// Every lookup and insert stamps the record with the store's clock; when
/// an insert finds the store full, the least recently used quarter goes.
/// The rule reads only the stamps, so it treats every peer's records
/// alike. A record is replaced only by one reaching further, so a record
/// is never shortened.
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
        let now = self.tick();
        if let Some((held, used)) = self.records.get_mut(&key) {
            *used = now;
            if held.horizon() < record.horizon() {
                *held = record;
            }
            return;
        }
        if self.records.len() >= self.cap {
            // Stamps are distinct, so exactly `evict` records are at or
            // below the cut.
            let evict = self.cap.div_ceil(4);
            let mut stamps: Vec<u64> = self.records.values().map(|&(_, used)| used).collect();
            let cut = *stamps.select_nth_unstable(evict - 1).1;
            self.records.retain(|_, &mut (_, used)| used > cut);
        }
        self.records.insert(key, (record, now));
    }
}

/// A tree node of a stage, in the order the stage walk reaches it. Its
/// circuit node is `measured[at]` in [`Net::circuit`]'s list, where the
/// driver's output is `measured[0]` and element `i` of the stage is at
/// `i + 1`.
struct Elem {
    tnode: TreeNodeId,
    /// Where the node it hangs from is.
    upstream: usize,
}

/// A load of a stage: a sink or the input of a buffer.
struct Load {
    tnode: TreeNodeId,
    /// Where its circuit node is, as for [`Elem`].
    at: usize,
    /// The stage the buffer drives; `None` for a sink.
    child: Option<usize>,
}

/// One stage of the tree: a driving buffer and the wires and caps below
/// it, up to the next buffer inputs and the sinks.
struct Stage {
    node: TreeNodeId,
    driver: BufferId,
    /// The stage driving this one and this stage's ordinal among its loads;
    /// `None` for the source stage.
    parent: Option<(usize, usize)>,
    /// Fingerprint of the netlist and the input lineage.
    key: u128,
    elems: Range<usize>,
    loads: Vec<Load>,
}

/// A tree cut into stages, in breadth-first order, plus what simulating a
/// stage needs.
struct Net<'a> {
    tree: &'a ClockTree,
    tech: &'a Technology,
    buffers: Vec<BufferType>,
    sim: SimOptions,
    /// The ideal ramp driving the source stage.
    ramp: Waveform,
    stages: Vec<Stage>,
    elems: Vec<Elem>,
}

impl<'a> Net<'a> {
    /// Cuts the tree below `source` into stages and keys each one, without
    /// building any netlist. `root_key` fingerprints everything global
    /// that shapes stage simulations.
    fn walk(
        tree: &'a ClockTree,
        source: TreeNodeId,
        driver: BufferId,
        tech: &'a Technology,
        opts: &VerifyOptions,
        root_key: u128,
    ) -> Result<Net<'a>, CtsError> {
        let mut stages = vec![Stage {
            node: source,
            driver,
            parent: None,
            key: 0,
            elems: 0..0,
            loads: Vec::new(),
        }];
        let mut elems = Vec::new();
        let mut head = 0;
        while head < stages.len() {
            if head >= 4 * tree.len() + 16 {
                return Err(CtsError::Verify("stage queue runaway".into()));
            }
            let input_key = match stages[head].parent {
                None => root_key,
                Some((parent, ordinal)) => {
                    let mut f = Fnv1a::default();
                    f.word128(stages[parent].key);
                    f.word(ordinal as u64);
                    f.finish128()
                }
            };
            let mut key = Fnv1a::default();
            key.word128(input_key);
            key.word(stages[head].driver.0 as u64);
            let start = elems.len();
            let mut loads = Vec::new();
            let mut stack: Vec<(TreeNodeId, usize)> = tree
                .node(stages[head].node)
                .children
                .iter()
                .map(|&ch| (ch, 0))
                .collect();
            key.word(stack.len() as u64);
            while let Some((tnode, upstream)) = stack.pop() {
                elems.push(Elem { tnode, upstream });
                let at = elems.len() - start;
                let node = tree.node(tnode);
                key.word(node.wire_to_parent_um.to_bits());
                match node.kind {
                    NodeKind::Sink { cap, .. } => {
                        key.word(1);
                        key.word(cap.to_bits());
                        loads.push(Load {
                            tnode,
                            at,
                            child: None,
                        });
                    }
                    NodeKind::Buffer { buffer } => {
                        key.word(2);
                        key.word(buffer.0 as u64);
                        let child = stages.len();
                        stages.push(Stage {
                            node: tnode,
                            driver: buffer,
                            parent: Some((head, loads.len())),
                            key: 0,
                            elems: 0..0,
                            loads: Vec::new(),
                        });
                        loads.push(Load {
                            tnode,
                            at,
                            child: Some(child),
                        });
                    }
                    NodeKind::Joint => {
                        key.word(3);
                        key.word(node.children.len() as u64);
                        stack.extend(node.children.iter().map(|&ch| (ch, at)));
                    }
                    NodeKind::Source { .. } => {
                        return Err(CtsError::Verify("source below a driver".into()))
                    }
                }
            }
            let stage = &mut stages[head];
            stage.key = key.finish128();
            stage.elems = start..elems.len();
            stage.loads = loads;
            head += 1;
        }
        let vdd = tech.vdd();
        let mut sim = SimOptions::default_for(opts.stage_window);
        sim.dt = opts.dt;
        Ok(Net {
            tree,
            tech,
            buffers: tech.buffer_library(),
            sim,
            ramp: Waveform::rising_ramp_10_90(100.0 * PS, opts.input_slew, vdd),
            stages,
            elems,
        })
    }

    /// The stage's circuit driven by `input`: the driver buffer and the
    /// wire tree below it, with the buffer inputs below it as caps. Returns
    /// the circuit, its input node and the measured nodes (the driver
    /// output, then one per element).
    fn circuit(&self, stage: &Stage, input: Waveform) -> (Circuit, NodeId, Vec<NodeId>) {
        let tech = self.tech;
        let mut c = Circuit::new(tech);
        let cin = c.add_node("stage_in");
        let cout = c.add_node("stage_out");
        c.add_buffer(cin, cout, &self.buffers[stage.driver.0]);
        let mut measured = Vec::with_capacity(1 + stage.elems.len());
        measured.push(cout);
        for elem in &self.elems[stage.elems.clone()] {
            let cnode = c.add_node(format!("{}", elem.tnode));
            let upstream = measured[elem.upstream];
            measured.push(cnode);
            let node = self.tree.node(elem.tnode);
            let len = node.wire_to_parent_um;
            if len >= 0.5 {
                c.add_wire(upstream, cnode, len, tech.wire());
            } else {
                // Co-located attachment: a tiny series resistance keeps
                // the two circuit nodes distinct without parasitics.
                c.add_resistor(upstream, cnode, 1e-3);
            }
            match node.kind {
                NodeKind::Sink { cap, .. } => c.add_cap(cnode, cap),
                // The next stage's gate: purely capacitive here.
                NodeKind::Buffer { buffer } => {
                    c.add_cap(cnode, self.buffers[buffer.0].input_cap(tech))
                }
                NodeKind::Joint | NodeKind::Source { .. } => {}
            }
        }
        c.drive(cin, input);
        (c, cin, measured)
    }

    /// Measures a stage whose run has reached its own horizon (or the
    /// window's end), on the samples in place: the worst slew of its
    /// nodes, each load's 50 % crossing, and each buffer load's output
    /// re-based for the stage it drives.
    fn measure(&self, stage: &Stage, sr: &StageRun) -> Result<StageRecord, CtsError> {
        let vdd = self.tech.vdd();
        let res = sr.run.result();
        let mut worst_slew: f64 = 0.0;
        for &n in &sr.measured {
            let slew = res.view(n).slew_10_90(vdd).ok_or_else(|| {
                CtsError::Verify(format!(
                    "node {} never completed its transition (stage at {})",
                    sr.circuit.node_name(n),
                    stage.node
                ))
            })?;
            worst_slew = worst_slew.max(slew);
        }
        let mut loads = Vec::with_capacity(stage.loads.len());
        for load in &stage.loads {
            let n = sr.measured[load.at];
            let t50 = res.view(n).t50(vdd).ok_or_else(|| {
                CtsError::Verify(format!("load {} never crossed 50%", load.tnode))
            })?;
            let (t_base, wave) = match load.child {
                None => (0.0, None),
                Some(_) => {
                    // Re-base the waveform so the edge sits near the start
                    // of the next window; the cut time is carried into the
                    // child's offset when the tree is assembled.
                    let t_base = (t50 - 300.0 * PS).max(0.0);
                    let shift = -t_base;
                    let times = res.times().iter().map(|t| t + shift).collect();
                    let wave = Waveform::from_samples(times, res.samples(n).to_vec());
                    (t_base, Some(wave))
                }
            };
            loads.push(LoadRec { t50, t_base, wave });
        }
        Ok(StageRecord {
            worst_slew,
            loads,
            end: sr.run.end_state(),
        })
    }
}

/// A stage's transient run, kept while the stage is on the walk's path.
struct StageRun {
    circuit: Circuit,
    cin: NodeId,
    run: Transient,
    /// The nodes the run records, as [`Net::circuit`] lists them.
    measured: Vec<NodeId>,
}

/// A stage on the walk's path from the source.
struct Live {
    stage: usize,
    /// The stage's record once its measurements are final; its waveforms
    /// grow with the run.
    rec: Option<Arc<StageRecord>>,
    /// The run, once the stage simulates or extends here; a stage with a
    /// run has a record to file.
    run: Option<StageRun>,
    /// The next load to descend into.
    next: usize,
}

impl Live {
    /// The last step the stage has reached.
    fn horizon(&self) -> usize {
        match (&self.run, &self.rec) {
            (Some(sr), _) => sr.run.step(),
            (None, Some(rec)) => rec.horizon(),
            (None, None) => 0,
        }
    }

    /// The output waveform buffer load `ordinal` hands its stage.
    fn wave(&self, ordinal: usize) -> &Waveform {
        self.rec
            .as_ref()
            .expect("measured before its children run")
            .loads[ordinal]
            .wave
            .as_ref()
            .expect("buffer load has a waveform")
    }
}

/// Incremental, cache-carrying tree verifier.
///
/// A `Verifier` carries two caches across [`Verifier::verify`] calls:
///
/// * its own [`SolverContext`] of solve plans (partition and elimination
///   order), reused whenever any two stage circuits share a topology —
///   within one tree, across repeated verifies, and across *different*
///   trees of the same design;
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
    stages_extended: u64,
    steps_simulated: u64,
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
        Verifier::over(Arc::new(Mutex::new(StageStore::new(cap))))
    }

    fn over(store: Arc<Mutex<StageStore>>) -> Verifier {
        Verifier {
            ctx: SolverContext::new(),
            store,
            stages_simulated: 0,
            stages_reused: 0,
            stages_extended: 0,
            steps_simulated: 0,
        }
    }

    /// A verifier over the same stage store, with a fresh solver context
    /// and zeroed counters: a stage either of them simulates, the other
    /// replays.
    pub fn peer(&self) -> Verifier {
        Verifier::over(Arc::clone(&self.store))
    }

    /// Work counters accumulated over this verifier's lifetime.
    pub fn stats(&self) -> VerifyStats {
        VerifyStats {
            stages_simulated: self.stages_simulated,
            stages_reused: self.stages_reused,
            stages_extended: self.stages_extended,
            steps_simulated: self.steps_simulated,
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

        // Root of the stage-key chain: everything global that shapes stage
        // simulations — technology (devices, wire parasitics, buffer
        // library) and the simulation/stimulus options.
        let root_key = {
            let mut f = Fnv1a::default();
            f.word128(tech.fingerprint());
            f.word(opts.input_slew.to_bits());
            f.word(opts.stage_window.to_bits());
            f.word(opts.dt.to_bits());
            f.finish128()
        };
        let net = Net::walk(tree, source, driver, tech, opts, root_key)?;
        net.sim
            .validate()
            .map_err(|e| CtsError::Verify(format!("stage at {source}: {e}")))?;

        // Depth-first: a stage is finished once all of its children are.
        let mut records: Vec<Option<Arc<StageRecord>>> = vec![None; net.stages.len()];
        let mut chain = Vec::new();
        self.open(&net, &mut chain, 0)?;
        while let Some(top) = chain.last_mut() {
            let loads = &net.stages[top.stage].loads;
            let child = loads[top.next..].iter().position(|l| l.child.is_some());
            if let Some(skip) = child {
                top.next += skip + 1;
                let child = loads[top.next - 1].child.expect("found above");
                self.open(&net, &mut chain, child)?;
            } else {
                let live = chain.pop().expect("non-empty");
                let s = live.stage;
                records[s] = Some(self.close(&net, live));
            }
        }

        // Assemble in breadth-first stage order. Arrivals are measured from
        // the global 50 % time of the source input edge (the paper's
        // source-to-sink delay); latency counts from the edge start.
        let mut offsets = vec![0.0; net.stages.len()];
        offsets[0] = -100.0 * PS;
        let t_source = offsets[0]
            + net
                .ramp
                .t50(vdd)
                .ok_or_else(|| CtsError::Verify("driver input has no edge".into()))?;
        let mut worst_slew: f64 = 0.0;
        let mut sink_arrivals = Vec::new();
        for (s, stage) in net.stages.iter().enumerate() {
            let record = records[s].as_ref().expect("every stage finished");
            worst_slew = worst_slew.max(record.worst_slew);
            for (load, lr) in stage.loads.iter().zip(&record.loads) {
                match load.child {
                    Some(child) => offsets[child] = offsets[s] + lr.t_base,
                    None => {
                        sink_arrivals.push((load.tnode, offsets[s] + lr.t50 - t_source));
                    }
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

    /// Puts stage `s` on the path below `chain`'s last stage: replays its
    /// record, or simulates it until its own stop rule holds and measures
    /// it.
    fn open(&mut self, net: &Net, chain: &mut Vec<Live>, s: usize) -> Result<(), CtsError> {
        let stage = &net.stages[s];
        let hit = self.store().get(stage.key).filter(|r| {
            r.loads.len() == stage.loads.len()
                && r.loads
                    .iter()
                    .zip(&stage.loads)
                    .all(|(lr, l)| lr.wave.is_some() == l.child.is_some())
        });
        if let Some(rec) = hit {
            let _span = cts_obs::span_with(&SPAN_STAGE_REUSE, stage.loads.len() as u64);
            self.stages_reused += 1;
            chain.push(Live {
                stage: s,
                rec: Some(rec),
                run: None,
                next: 0,
            });
            return Ok(());
        }

        let _span = cts_obs::span_with(&SPAN_STAGE_SIMULATE, stage.loads.len() as u64);
        self.stages_simulated += 1;
        let d = chain.len();
        chain.push(Live {
            stage: s,
            rec: None,
            run: None,
            next: 0,
        });
        // Stop rule: every measured node has completed its edge.
        let vdd = net.tech.vdd();
        let (lo, hi) = (0.1 * vdd, 0.9 * vdd);
        loop {
            let to = chain[d].horizon() + CHUNK;
            self.extend(net, chain, d, to)?;
            let sr = chain[d].run.as_ref().expect("extended above");
            let res = sr.run.result();
            let done = sr.measured.iter().all(|&n| {
                let v = res.samples(n);
                v[0] < lo && v[v.len() - 1] >= hi
            });
            if done || chain[d].horizon() >= net.sim.last_step() {
                break;
            }
        }
        let sr = chain[d].run.as_ref().expect("extended above");
        chain[d].rec = Some(Arc::new(net.measure(stage, sr)?));
        Ok(())
    }

    /// Makes `chain[d]`'s parent cover the input `chain[d]` reads up to
    /// step `to`: a sample at or after that time, or the window's end.
    fn feed(&mut self, net: &Net, chain: &mut [Live], d: usize, to: usize) -> Result<(), CtsError> {
        let Some((_, ordinal)) = net.stages[chain[d].stage].parent else {
            return Ok(()); // the source ramp is complete
        };
        let dt = net.sim.dt;
        let last = net.sim.last_step();
        let t = to as f64 * dt;
        loop {
            let parent = &chain[d - 1];
            let wave = parent.wave(ordinal);
            if parent.horizon() >= last || wave.times()[wave.len() - 1] >= t {
                return Ok(());
            }
            let t_base = parent.rec.as_ref().expect("measured").loads[ordinal].t_base;
            let want = ((t + t_base) / dt).ceil() as usize + CHUNK;
            let at_least = parent.horizon() + 1;
            self.extend(net, chain, d - 1, want.max(at_least))?;
        }
    }

    /// Runs `chain[d]` on to step `to` (at most the window's end), first
    /// extending its ancestors as far as its input needs, and resuming it
    /// from its record's end state if it was replayed.
    fn extend(
        &mut self,
        net: &Net,
        chain: &mut [Live],
        d: usize,
        to: usize,
    ) -> Result<(), CtsError> {
        let to = to.min(net.sim.last_step());
        if chain[d].horizon() >= to {
            return Ok(());
        }
        self.feed(net, chain, d, to)?;
        let (above, rest) = chain.split_at_mut(d);
        let live = &mut rest[0];
        let stage = &net.stages[live.stage];
        let input = match stage.parent {
            None => &net.ramp,
            Some((_, ordinal)) => above[d - 1].wave(ordinal),
        };
        let sr = match &mut live.run {
            Some(sr) => {
                // Hand over whatever the parent has gained since.
                let src = sr.circuit.source_mut(sr.cin).expect("driven input");
                for i in src.len()..input.len() {
                    src.push(input.times()[i], input.values()[i]);
                }
                sr
            }
            None => {
                let (circuit, cin, measured) = net.circuit(stage, input.clone());
                let run = match &live.rec {
                    None => Transient::start(&mut self.ctx, &circuit, &net.sim, &measured),
                    Some(rec) => {
                        self.stages_extended += 1;
                        Transient::resume(&mut self.ctx, &circuit, &net.sim, &measured, &rec.end)
                    }
                }
                .map_err(|e| CtsError::Verify(format!("stage at {}: {e}", stage.node)))?;
                live.run.insert(StageRun {
                    circuit,
                    cin,
                    run,
                    measured,
                })
            }
        };
        let before = sr.run.step();
        sr.run
            .advance(&sr.circuit, to)
            .map_err(|e| CtsError::Verify(format!("stage at {}: {e}", stage.node)))?;
        self.steps_simulated += (sr.run.step() - before) as u64;

        // A measured stage's children read its buffer loads: append the new
        // samples, shifted as the first ones were.
        if let Some(rec) = &mut live.rec {
            let res = sr.run.result();
            let new = res.times().len() - (sr.run.step() - before)..res.times().len();
            let rec = Arc::make_mut(rec);
            for (load, lr) in stage.loads.iter().zip(&mut rec.loads) {
                if let Some(wave) = &mut lr.wave {
                    let shift = -lr.t_base;
                    let samples = res.samples(sr.measured[load.at]);
                    for i in new.clone() {
                        wave.push(res.times()[i] + shift, samples[i]);
                    }
                }
            }
        }
        Ok(())
    }

    /// Takes a finished stage off the path, filing its record if it was
    /// simulated or extended here.
    fn close(&mut self, net: &Net, live: Live) -> Arc<StageRecord> {
        let mut rec = live.rec.expect("a finished stage is measured");
        if let Some(sr) = &live.run {
            Arc::make_mut(&mut rec).end = sr.run.end_state();
            self.store()
                .insert(net.stages[live.stage].key, Arc::clone(&rec));
        }
        rec
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
    fn bad_simulation_options_are_an_error() {
        let (r, t) = synthesized_tree();
        for opts in [
            VerifyOptions {
                stage_window: 0.0,
                ..VerifyOptions::default()
            },
            VerifyOptions {
                dt: -PS,
                ..VerifyOptions::default()
            },
        ] {
            let err = verify_tree(&r.tree, r.source, &t, &opts).unwrap_err();
            assert!(matches!(err, CtsError::Verify(_)), "{opts:?}: {err:?}");
        }
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

    /// Whether `sink`'s stage is driven by a buffer (so it has a parent
    /// stage) and drives no buffer (so it has no children).
    fn in_leaf_stage_below_a_buffer(tree: &ClockTree, sink: TreeNodeId) -> bool {
        let mut driver = tree
            .node(sink)
            .parent
            .expect("a sink hangs below something");
        while matches!(tree.node(driver).kind, NodeKind::Joint) {
            driver = tree
                .node(driver)
                .parent
                .expect("a joint hangs below something");
        }
        let mut stack = tree.node(driver).children.clone();
        while let Some(n) = stack.pop() {
            match tree.node(n).kind {
                NodeKind::Buffer { .. } => return false,
                NodeKind::Joint => stack.extend(tree.node(n).children.iter().copied()),
                NodeKind::Sink { .. } | NodeKind::Source { .. } => {}
            }
        }
        matches!(tree.node(driver).kind, NodeKind::Buffer { .. })
    }

    #[test]
    fn outgrown_parent_record_is_resumed_not_resimulated() {
        let (mut r, t) = synthesized_tree();
        let opts = VerifyOptions::default();
        let mut v = Verifier::new();
        v.verify(&r.tree, r.source, &t, &opts).unwrap();
        let base = v.stats();
        assert_eq!(base.stages_extended, 0, "a cold verify extends nothing");

        // 2 mm more wire slows the sink's stage far past the margin its
        // parent's record was run to.
        let sink = r
            .tree
            .ids()
            .find(|&id| {
                matches!(r.tree.node(id).kind, NodeKind::Sink { .. })
                    && in_leaf_stage_below_a_buffer(&r.tree, id)
            })
            .expect("a sink in a leaf stage below a buffer");
        let len = r.tree.node(sink).wire_to_parent_um;
        r.tree.set_wire_to_parent(sink, len + 2000.0);
        let got = v.verify(&r.tree, r.source, &t, &opts).unwrap();
        let after = v.stats();
        assert_eq!(
            after.stages_simulated - base.stages_simulated,
            1,
            "only the edited stage simulates"
        );
        assert!(
            after.stages_extended > base.stages_extended,
            "the parent's record is resumed"
        );
        let fresh = verify_tree(&r.tree, r.source, &t, &opts).unwrap();
        assert_eq!(got, fresh, "a resumed parent must match a cold verify");

        // The parent was re-filed with its longer horizon: verifying again
        // replays every stage and extends nothing.
        let again = v.verify(&r.tree, r.source, &t, &opts).unwrap();
        assert_eq!(again, fresh);
        let last = v.stats();
        assert_eq!(last.stages_simulated, after.stages_simulated);
        assert_eq!(last.stages_extended, after.stages_extended);
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

    /// The end state of a one-step run of a one-node circuit.
    fn end_state() -> EndState {
        let t = tech();
        let mut c = Circuit::new(&t);
        let a = c.add_node("a");
        c.add_cap(a, 1e-15);
        c.drive(a, Waveform::constant(0.0));
        let opts = SimOptions::default_for(PS);
        let mut run = Transient::start(&mut SolverContext::new(), &c, &opts, &[]).unwrap();
        run.advance(&c, 1).unwrap();
        run.end_state()
    }

    #[test]
    fn store_evicts_least_recently_used() {
        let end = end_state();
        let record = || {
            Arc::new(StageRecord {
                worst_slew: 0.0,
                loads: Vec::new(),
                end: end.clone(),
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
