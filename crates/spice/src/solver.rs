//! Transient analysis: staged Newton solves over tree-structured resistive
//! components, with cached solve plans.
//!
//! CTS circuits are feed-forward: resistive (wire) components are RC trees,
//! and the only couplings between them are unilateral CMOS gates (a gate
//! senses its input voltage and injects current at its output). The solver
//! exploits this:
//!
//! 1. Nodes are partitioned into *components* — connected subgraphs of the
//!    resistor graph. Every component must be a tree, solved in O(n) by
//!    leaf-to-root elimination; a resistor loop is rejected with
//!    [`SimError::ResistorLoop`]. Every circuit of the paper's flow — the
//!    characterization stages and each verified clock-tree stage — adds
//!    one wire or resistor per new node, so it is a forest.
//! 2. Components are ordered topologically along inverter input→output
//!    dependencies and solved in that order at every timestep, so each
//!    gate's input waveform is already known when its output component is
//!    solved.
//! 3. Within a component, Newton iteration handles the square-law driver
//!    nonlinearity; the linear part (wire G, cap companion models) stays
//!    fixed across iterations.
//!
//! The partition and the elimination orders depend only on circuit
//! *topology*, not on element values, so they are computed once per
//! topology and cached in a [`SolverContext`] keyed by
//! [`Circuit::topology_fingerprint`]. Repeated simulations of the same
//! circuit family — a characterization sweep, repeated verification of a
//! clock tree — reuse the plan and only re-stamp numeric values.
//!
//! For tree components whose nonlinear drivers all sit at the elimination
//! root (every circuit the synthesis flow builds has this shape: a buffer
//! output feeding an RC tree), the constant part of the elimination is
//! hoisted out of the Newton loop: the matrix diagonal is eliminated once
//! per transient phase and the right-hand side once per timestep, leaving
//! only a root-diagonal update and the back-substitution per iteration.
//! The hoisted path performs the *same floating-point operations in the
//! same order* as the straightforward per-iteration elimination, so its
//! results are bit-identical.
//!
//! There is one step loop, [`Transient::advance`]. A run can be advanced
//! in pieces, saved ([`Transient::end_state`]) and resumed
//! ([`Transient::resume`]), and its sources may grow between pieces;
//! [`simulate_observed_with`] is one run advanced to its last step. The
//! state a step leaves behind is the step index and the node voltages —
//! the trapezoidal history current is a function of the voltages — so
//! every way of cutting a run into pieces gives the same bits.

use crate::circuit::{Circuit, NodeId};
use crate::error::SimError;
use crate::units::PS;
use crate::waveform::{Waveform, WaveformRef};
use std::collections::HashMap;
use std::sync::Arc;

/// Time integration scheme for the transient solver.
///
/// Backward Euler is unconditionally stable and non-oscillatory but first
/// order (slightly dissipative: it rounds waveform corners). Trapezoidal is
/// second order and preserves slews better at the same step size. The
/// characterization flow uses trapezoidal; backward Euler is kept for
/// robustness comparisons and as an ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// First-order implicit Euler.
    BackwardEuler,
    /// Second-order trapezoidal rule.
    #[default]
    Trapezoidal,
}

/// Options controlling a transient run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Simulation end time (seconds). The run covers `[0, t_stop]`.
    pub t_stop: f64,
    /// Fixed timestep (seconds).
    pub dt: f64,
    /// Integration scheme.
    pub integrator: Integrator,
    /// Newton convergence tolerance on voltage updates (volts).
    pub newton_tol: f64,
    /// Maximum Newton iterations per component per timestep.
    pub max_newton: usize,
}

impl SimOptions {
    /// Reasonable defaults for ps-scale CTS circuits: 0.5 ps trapezoidal
    /// steps (the step of characterization and verification), 1 µV Newton
    /// tolerance.
    pub fn default_for(t_stop: f64) -> SimOptions {
        SimOptions {
            t_stop,
            dt: 0.5 * PS,
            integrator: Integrator::default(),
            newton_tol: 1e-6,
            max_newton: 60,
        }
    }

    /// Index of the last timestep of a run: `ceil(t_stop / dt)`. Step `k`
    /// sits at `k · dt`, and step 0 is the DC operating point.
    pub fn last_step(&self) -> usize {
        (self.t_stop / self.dt).ceil() as usize
    }

    /// Checks the options as every run does before it starts.
    ///
    /// # Errors
    ///
    /// [`SimError::BadOptions`] for a non-positive or non-finite timestep
    /// or end time, a timestep past the end time, or non-positive Newton
    /// parameters.
    pub fn validate(&self) -> Result<(), SimError> {
        if !(self.dt > 0.0 && self.dt.is_finite()) {
            return Err(SimError::BadOptions(format!("dt = {}", self.dt)));
        }
        if !(self.t_stop > 0.0 && self.t_stop.is_finite()) {
            return Err(SimError::BadOptions(format!("t_stop = {}", self.t_stop)));
        }
        if self.dt > self.t_stop {
            return Err(SimError::BadOptions(format!(
                "dt ({}) exceeds t_stop ({})",
                self.dt, self.t_stop
            )));
        }
        if self.max_newton == 0 || !(self.newton_tol > 0.0) {
            return Err(SimError::BadOptions(
                "newton parameters must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Result of a transient run: sampled voltages for the observed nodes
/// (every node for [`simulate`]; the requested subset for
/// [`simulate_observed_with`] and [`Transient`]).
#[derive(Debug, Clone)]
pub struct TransientResult {
    times: Vec<f64>,
    /// One row per observed node, `volts[row][step]`.
    volts: Vec<Vec<f64>>,
    /// Row per global node index; `u32::MAX` for unobserved nodes.
    row_of: Vec<u32>,
}

impl TransientResult {
    /// The shared time axis (seconds). A run started with
    /// [`Transient::start`] begins at `0`; one resumed with
    /// [`Transient::resume`] begins at its end state's step.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Raw voltage samples of a node, parallel to [`TransientResult::times`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or was not observed in this run.
    pub fn samples(&self, node: NodeId) -> &[f64] {
        let row = self.row_of[node.index()];
        assert!(
            row != u32::MAX,
            "node {node} was not among the observed nodes of this simulation"
        );
        &self.volts[row as usize]
    }

    /// The waveform observed at a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or was not observed in this run.
    pub fn waveform(&self, node: NodeId) -> Waveform {
        Waveform::from_samples(self.times.clone(), self.samples(node).to_vec())
    }

    /// The waveform observed at a node, measured in place: the same
    /// measurements as [`TransientResult::waveform`] without copying the
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or was not observed in this run.
    pub fn view(&self, node: NodeId) -> WaveformRef<'_> {
        WaveformRef::new(&self.times, self.samples(node))
    }
}

/// Penalty conductance (S) used to enforce source voltages. Circuit
/// conductances are O(1) S, so the penalty dominates by nine orders of
/// magnitude while staying far from f64 overflow in the elimination.
const DIRICHLET_PENALTY: f64 = 1e9;

/// Newton step damping: voltage updates are clamped to this many volts per
/// iteration to keep the square-law model from overshooting.
const MAX_NEWTON_STEP_V: f64 = 0.4;

/// Plans cached per [`SolverContext`] before the cache is reset. Plans are
/// small (topology-sized), so this mainly bounds pathological workloads
/// that stream unique topologies through one context.
const PLAN_CACHE_CAP: usize = 512;

/// Where a gate reads its input voltage from.
enum DriverInput {
    /// Input node lies in the same component: read the current Newton
    /// iterate.
    Local(usize),
    /// Input node lies upstream: read the committed global solution.
    Global(usize),
}

struct PlanDriver {
    input: DriverInput,
    out_local: usize,
    /// Index into `circuit.inverters` (the size is re-read at stamp time).
    inv_idx: usize,
}

/// One resistive component: a tree rooted at local index 0. Local indices
/// follow breadth-first order from the root, so every node comes after its
/// parent and descending local order is a leaf-first elimination order.
struct PlanComp {
    /// Global node index per local index.
    nodes: Vec<usize>,
    /// Local index of each node's parent (`0`, unused, at the root).
    parent: Vec<usize>,
    /// Index of the resistor to each node's parent (unused at the root).
    res_idx: Vec<usize>,
    drivers: Vec<PlanDriver>,
    /// Local indices of driven (source) nodes, with source table index.
    dirichlet: Vec<(usize, usize)>,
    /// Drivers (if any) all sit at the root: eligible for the
    /// hoisted-factorization transient path.
    fast: bool,
}

/// A cached solve plan: everything about a circuit that depends only on
/// its topology.
struct Plan {
    n: usize,
    res_count: usize,
    inv_count: usize,
    src_count: usize,
    components: Vec<PlanComp>,
    /// Topological order over `components`.
    topo: Vec<usize>,
}

impl Plan {
    /// Cheap structural sanity check guarding against fingerprint
    /// collisions (the fingerprint is already 128 bits wide; this catches
    /// the remaining astronomically-unlikely case loudly instead of
    /// corrupting results).
    fn matches(&self, circuit: &Circuit) -> bool {
        self.n == circuit.node_count()
            && self.res_count == circuit.resistors.len()
            && self.inv_count == circuit.inverters.len()
            && self.src_count == circuit.sources.len()
    }
}

/// Reusable solver state: a cache of solve plans (partition and
/// elimination orders) keyed by circuit topology fingerprint.
///
/// Simulating through a context with [`simulate_observed_with`] or
/// [`Transient`] reuses the plan whenever the same circuit
/// *topology* recurs — element values are re-stamped on every run, so
/// plan reuse never changes results. A characterization sweep or a
/// repeated tree verification hits the cache on all but the first
/// simulation of each topology family.
///
/// Contexts are cheap to create and intended to be thread-local (one per
/// worker); they are `Send` but not `Sync`.
#[derive(Default)]
pub struct SolverContext {
    plans: HashMap<u128, Arc<Plan>>,
    hits: u64,
    misses: u64,
}

impl SolverContext {
    /// Creates an empty context.
    pub fn new() -> SolverContext {
        SolverContext::default()
    }

    /// Plan-cache hits: runs that reused a cached solve plan.
    pub fn symbolic_hits(&self) -> u64 {
        self.hits
    }

    /// Plan-cache misses: runs that had to build a solve plan.
    pub fn symbolic_misses(&self) -> u64 {
        self.misses
    }

    fn plan_for(&mut self, circuit: &Circuit) -> Result<Arc<Plan>, SimError> {
        let key = circuit.topology_fingerprint();
        if let Some(plan) = self.plans.get(&key).filter(|p| p.matches(circuit)) {
            self.hits += 1;
            return Ok(Arc::clone(plan));
        }
        if self.plans.len() >= PLAN_CACHE_CAP && !self.plans.contains_key(&key) {
            self.plans.clear();
        }
        let plan = Arc::new(build_plan(circuit)?);
        self.plans.insert(key, Arc::clone(&plan));
        self.misses += 1;
        Ok(plan)
    }
}

fn build_plan(circuit: &Circuit) -> Result<Plan, SimError> {
    let n = circuit.node_count();
    if n == 0 {
        return Err(SimError::EmptyCircuit);
    }

    // Connected components of the resistor graph. Adjacency carries the
    // resistor index; conductances are re-derived from the circuit at
    // stamp time so a cached plan never embeds element values.
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (ri, r) in circuit.resistors.iter().enumerate() {
        let (a, b) = (r.a.index(), r.b.index());
        adj[a].push((b, ri));
        adj[b].push((a, ri));
    }

    let mut comp_of = vec![usize::MAX; n];
    let mut local_of = vec![usize::MAX; n];
    let mut components: Vec<PlanComp> = Vec::new();
    for start in 0..n {
        if comp_of[start] != usize::MAX {
            continue;
        }
        let cid = components.len();
        // Breadth-first from `start`: the resistor that first reaches a
        // node is its tree edge; any other resistor to a reached node
        // closes a loop.
        let mut comp = PlanComp {
            nodes: vec![start],
            parent: vec![0],
            res_idx: vec![usize::MAX],
            drivers: Vec::new(),
            dirichlet: Vec::new(),
            fast: false,
        };
        comp_of[start] = cid;
        local_of[start] = 0;
        let mut head = 0;
        while head < comp.nodes.len() {
            let u = comp.nodes[head];
            for &(v, ri) in &adj[u] {
                if comp_of[v] == usize::MAX {
                    comp_of[v] = cid;
                    local_of[v] = comp.nodes.len();
                    comp.nodes.push(v);
                    comp.parent.push(head);
                    comp.res_idx.push(ri);
                } else if ri != comp.res_idx[head] {
                    return Err(SimError::ResistorLoop {
                        node: circuit.node_name(NodeId(u as u32)).to_string(),
                    });
                }
            }
            head += 1;
        }
        components.push(comp);
    }

    for (inv_idx, inv) in circuit.inverters.iter().enumerate() {
        let out = inv.output.index();
        let input_global = inv.input.index();
        let cid = comp_of[out];
        let input = if comp_of[input_global] == cid {
            DriverInput::Local(local_of[input_global])
        } else {
            DriverInput::Global(input_global)
        };
        components[cid].drivers.push(PlanDriver {
            input,
            out_local: local_of[out],
            inv_idx,
        });
    }
    for (si, (node, _)) in circuit.sources.iter().enumerate() {
        let g = node.index();
        components[comp_of[g]].dirichlet.push((local_of[g], si));
    }
    for comp in &mut components {
        comp.fast = comp.drivers.iter().all(|d| d.out_local == 0);
    }

    // Topological order over inverter dependencies (Kahn's algorithm).
    let m = components.len();
    let mut indeg = vec![0usize; m];
    let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); m];
    for (cid, comp) in components.iter().enumerate() {
        for d in &comp.drivers {
            if let DriverInput::Global(input_global) = d.input {
                let from = comp_of[input_global];
                out_edges[from].push(cid);
                indeg[cid] += 1;
            }
        }
    }
    let mut queue: Vec<usize> = (0..m).filter(|&c| indeg[c] == 0).collect();
    let mut topo = Vec::with_capacity(m);
    while let Some(c) = queue.pop() {
        topo.push(c);
        for &d in &out_edges[c] {
            indeg[d] -= 1;
            if indeg[d] == 0 {
                queue.push(d);
            }
        }
    }
    if topo.len() != m {
        return Err(SimError::FeedbackLoop);
    }

    Ok(Plan {
        n,
        res_count: circuit.resistors.len(),
        inv_count: circuit.inverters.len(),
        src_count: circuit.sources.len(),
        components,
        topo,
    })
}

/// Solves `A x = rhs` where `A` is the tree matrix of `comp` with diagonal
/// `diag` and off-diagonal `-g_par[i]` between each node and its parent.
/// Overwrites `diag`/`rhs` as scratch; returns voltages in `out`.
fn solve_tree(comp: &PlanComp, g_par: &[f64], diag: &mut [f64], rhs: &mut [f64], out: &mut [f64]) {
    let parent = &comp.parent;
    // Leaf-to-root elimination.
    for i in (1..parent.len()).rev() {
        let p = parent[i];
        let factor = g_par[i] / diag[i];
        diag[p] -= g_par[i] * factor;
        rhs[p] += factor * rhs[i];
    }
    // Root-to-leaf back-substitution (parents first).
    out[0] = rhs[0] / diag[0];
    for (i, &p) in parent.iter().enumerate().skip(1) {
        out[i] = (rhs[i] + g_par[i] * out[p]) / diag[i];
    }
}

/// Per-component numeric state for one run: stamped values, the hoisted
/// transient-phase factorization, and scratch buffers.
struct CompState {
    /// Constant per-node linear conductance: gmin + resistor incidences.
    diag_base: Vec<f64>,
    /// Conductance to the parent (`0.0` at the root).
    g_par: Vec<f64>,
    /// Transient capacitor companion term `cap_scale * C / dt` per local
    /// node (fast components only).
    coh: Vec<f64>,
    /// Fast path: eliminated transient diagonal. For components with
    /// drivers, `ediag[0]` holds the pre-elimination prefix (base + coh
    /// [+ penalty]) — the root is finished per Newton iteration.
    ediag: Vec<f64>,
    /// Fast path: elimination factor `g_par[i] / ediag[i]` per non-root.
    factor: Vec<f64>,
    /// Fast path with drivers: children of the root in elimination order,
    /// whose diagonal/rhs contributions are applied per iteration (after
    /// the driver stamp, matching the straightforward operation order).
    root_kids: Vec<usize>,
    diag: Vec<f64>,
    rhs: Vec<f64>,
    v_iter: Vec<f64>,
    v_next: Vec<f64>,
}

fn build_state(comp: &PlanComp, circuit: &Circuit, cap_scale: f64, dt: f64) -> CompState {
    let cn = comp.nodes.len();
    let parent = &comp.parent;
    let g_par: Vec<f64> = std::iter::once(0.0)
        .chain(
            comp.res_idx[1..]
                .iter()
                .map(|&ri| 1.0 / circuit.resistors[ri].ohms),
        )
        .collect();
    let mut diag_base = vec![circuit.tech().gmin(); cn];
    for i in 1..cn {
        diag_base[i] += g_par[i];
        diag_base[parent[i]] += g_par[i];
    }

    let mut s = CompState {
        diag_base,
        g_par,
        coh: Vec::new(),
        ediag: Vec::new(),
        factor: Vec::new(),
        root_kids: Vec::new(),
        diag: vec![0.0; cn],
        rhs: vec![0.0; cn],
        v_iter: vec![0.0; cn],
        v_next: vec![0.0; cn],
    };

    if comp.fast {
        // Hoist the transient-phase matrix factorization: the diagonal and
        // the elimination factors are iteration- and step-invariant, so
        // compute them once. Operation order mirrors the per-iteration
        // assembly exactly (base + companion term, then the Dirichlet
        // penalty, then leaf-first elimination), keeping results
        // bit-identical to the unhoisted solve.
        s.coh = comp
            .nodes
            .iter()
            .map(|&g| cap_scale * circuit.node_cap[g] / dt)
            .collect();
        s.ediag = (0..cn).map(|li| s.diag_base[li] + s.coh[li]).collect();
        for &(li, _) in &comp.dirichlet {
            s.ediag[li] += DIRICHLET_PENALTY;
        }
        s.factor = vec![0.0; cn];
        let defer_root = !comp.drivers.is_empty();
        for i in (1..cn).rev() {
            let p = parent[i];
            s.factor[i] = s.g_par[i] / s.ediag[i];
            if p == 0 && defer_root {
                // The driver stamp must hit the root diagonal before the
                // children's elimination terms; defer them to the
                // per-iteration root update.
                s.root_kids.push(i);
            } else {
                s.ediag[p] -= s.g_par[i] * s.factor[i];
            }
        }
    }
    s
}

/// Runs transient analysis on a circuit, recording every node.
///
/// The circuit's source waveforms define all stimulus; every node starts at
/// its DC operating point for the sources' `t = 0` values.
///
/// # Errors
///
/// Returns [`SimError`] for empty circuits, invalid options, resistor
/// loops, feedback loops between gate stages, or numerical failure
/// (divergence, non-finite solutions).
pub fn simulate(circuit: &Circuit, opts: &SimOptions) -> Result<TransientResult, SimError> {
    let all: Vec<NodeId> = (0..circuit.node_count() as u32).map(NodeId).collect();
    simulate_observed_with(&mut SolverContext::new(), circuit, opts, &all)
}

/// [`simulate`], reusing cached solve plans from `ctx` and recording only
/// the `observed` nodes — the full circuit is still solved identically,
/// but the result stores (and allocates) waveforms only for the requested
/// nodes. Duplicate entries are recorded once.
///
/// # Errors
///
/// As for [`simulate`].
///
/// # Panics
///
/// Panics if an observed node is out of range for the circuit.
pub fn simulate_observed_with(
    ctx: &mut SolverContext,
    circuit: &Circuit,
    opts: &SimOptions,
    observed: &[NodeId],
) -> Result<TransientResult, SimError> {
    let mut run = Transient::start(ctx, circuit, opts, observed)?;
    run.advance(circuit, opts.last_step())?;
    Ok(run.into_result())
}

/// Where a [`Transient`] stands after a step: the step index and every
/// node's voltage. That is all the state the step loop carries forward
/// (the trapezoidal history current is a function of the voltages), so
/// [`Transient::resume`] continues from it bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct EndState {
    step: usize,
    volts: Vec<f64>,
}

impl EndState {
    /// The step this state was taken after.
    pub fn step(&self) -> usize {
        self.step
    }
}

/// A transient run that can be advanced in pieces.
///
/// [`Transient::start`] validates the options, fetches the solve plan and
/// solves the DC operating point (step 0); [`Transient::advance`] then
/// takes timesteps up to a given step, never past
/// [`SimOptions::last_step`]. [`simulate_observed_with`] is `start` plus
/// one `advance` to the last step, so a run advanced in any number of
/// pieces records the same bits as one call.
///
/// Between advances the caller may **extend** the circuit's source
/// waveforms ([`Circuit::source_mut`]); every other element must stay as
/// it was at `start`. A step at time `t` reads each source only at `t`,
/// so it sees exactly what the complete waveform would give as long as the
/// source already has a sample at or after `t` (past its last sample a
/// waveform holds its last value). Keeping to that is the caller's part.
///
/// [`Transient::end_state`] saves where the run stands and
/// [`Transient::resume`] continues from it, in this or another context.
/// After an error the run must not be advanced again.
pub struct Transient {
    plan: Arc<Plan>,
    opts: SimOptions,
    /// `2` (trapezoidal) or `1` (backward Euler) times each capacitor's
    /// companion conductance.
    cap_scale: f64,
    use_hist: bool,
    state: Vec<CompState>,
    step: usize,
    v_now: Vec<f64>,
    v_prev: Vec<f64>,
    /// Non-capacitive current into each node at the last accepted step
    /// (trapezoidal history).
    i_hist: Vec<f64>,
    /// Global index per observed row.
    obs: Vec<usize>,
    result: TransientResult,
}

impl Transient {
    /// Starts a run: validates `opts`, fetches (or builds) the solve plan
    /// from `ctx` and solves the DC operating point for the sources'
    /// `t = 0` values, recording it as step 0 for the `observed` nodes
    /// (duplicates are recorded once).
    ///
    /// # Errors
    ///
    /// As for [`simulate`].
    ///
    /// # Panics
    ///
    /// Panics if an observed node is out of range for the circuit.
    pub fn start(
        ctx: &mut SolverContext,
        circuit: &Circuit,
        opts: &SimOptions,
        observed: &[NodeId],
    ) -> Result<Transient, SimError> {
        let mut run = Transient::new(ctx, circuit, opts, observed, 0)?;
        // DC runs once; it always takes the straightforward per-iteration
        // assembly (the hoisted factorization is transient-phase only).
        for &cid in &run.plan.topo {
            let comp = &run.plan.components[cid];
            let s = &mut run.state[cid];
            for (li, &g) in comp.nodes.iter().enumerate() {
                s.v_iter[li] = run.v_now[g]; // zero; refined by Newton below
            }
            newton_generic(
                circuit, comp, s, &run.v_now, /*cap_scale=*/ 0.0, opts.dt, 0.0, None, opts,
                400,
            )
            .map_err(|e| promote_divergence(e, 0.0, circuit, comp))?;
            for (li, &g) in comp.nodes.iter().enumerate() {
                run.v_now[g] = s.v_iter[li];
            }
        }
        record_step(&mut run.result, &run.obs, 0.0, &run.v_now);
        update_current_history(circuit, &run.v_now, &mut run.i_hist);
        Ok(run)
    }

    /// Resumes a run from `end`, a state saved by [`Transient::end_state`]
    /// from a run of the same circuit under the same options. The result
    /// records the `observed` nodes from `end`'s step on; every later step
    /// is bit-identical to the run that saved it.
    ///
    /// # Errors
    ///
    /// As for [`simulate`], and [`SimError::BadOptions`] if `end` does not
    /// fit the circuit or lies past the last step.
    ///
    /// # Panics
    ///
    /// Panics if an observed node is out of range for the circuit.
    pub fn resume(
        ctx: &mut SolverContext,
        circuit: &Circuit,
        opts: &SimOptions,
        observed: &[NodeId],
        end: &EndState,
    ) -> Result<Transient, SimError> {
        if end.volts.len() != circuit.node_count() || end.step > opts.last_step() {
            return Err(SimError::BadOptions(format!(
                "end state (step {}, {} nodes) does not fit a {}-node circuit run to step {}",
                end.step,
                end.volts.len(),
                circuit.node_count(),
                opts.last_step()
            )));
        }
        let mut run = Transient::new(ctx, circuit, opts, observed, end.step)?;
        run.v_now.copy_from_slice(&end.volts);
        let t = end.step as f64 * opts.dt;
        record_step(&mut run.result, &run.obs, t, &run.v_now);
        update_current_history(circuit, &run.v_now, &mut run.i_hist);
        Ok(run)
    }

    fn new(
        ctx: &mut SolverContext,
        circuit: &Circuit,
        opts: &SimOptions,
        observed: &[NodeId],
        step: usize,
    ) -> Result<Transient, SimError> {
        opts.validate()?;
        let plan = ctx.plan_for(circuit)?;
        let n = circuit.node_count();
        let mut row_of = vec![u32::MAX; n];
        let mut obs = Vec::with_capacity(observed.len());
        for &id in observed {
            let g = id.index();
            assert!(g < n, "observed node {id} is out of range");
            if row_of[g] == u32::MAX {
                row_of[g] = obs.len() as u32;
                obs.push(g);
            }
        }
        let (cap_scale, use_hist) = match opts.integrator {
            Integrator::BackwardEuler => (1.0, false),
            Integrator::Trapezoidal => (2.0, true),
        };
        let state = plan
            .components
            .iter()
            .map(|comp| build_state(comp, circuit, cap_scale, opts.dt))
            .collect();
        Ok(Transient {
            plan,
            opts: opts.clone(),
            cap_scale,
            use_hist,
            state,
            step,
            v_now: vec![0.0; n],
            v_prev: vec![0.0; n],
            i_hist: vec![0.0; n],
            result: TransientResult {
                times: Vec::new(),
                volts: vec![Vec::new(); obs.len()],
                row_of,
            },
            obs,
        })
    }

    /// Takes timesteps until the run stands at `to_step`, or at
    /// [`SimOptions::last_step`] if that comes first. A run already at or
    /// past `to_step` does nothing.
    ///
    /// # Errors
    ///
    /// As for [`simulate`].
    ///
    /// # Panics
    ///
    /// Panics if `circuit` is not the topology the run was started on.
    pub fn advance(&mut self, circuit: &Circuit, to_step: usize) -> Result<(), SimError> {
        assert!(
            self.plan.matches(circuit),
            "a run advances only the circuit it was started on"
        );
        let to = to_step.min(self.opts.last_step());
        if to <= self.step {
            return Ok(());
        }
        let more = to - self.step;
        self.result.times.reserve(more);
        for row in &mut self.result.volts {
            row.reserve(more);
        }
        let (plan, opts) = (&*self.plan, &self.opts);
        while self.step < to {
            self.step += 1;
            let t = self.step as f64 * opts.dt;
            self.v_prev.copy_from_slice(&self.v_now);
            for &cid in &plan.topo {
                let comp = &plan.components[cid];
                let s = &mut self.state[cid];
                for (li, &g) in comp.nodes.iter().enumerate() {
                    s.v_iter[li] = self.v_prev[g];
                }
                let hist = self.use_hist.then_some(&self.i_hist[..]);
                if comp.fast {
                    newton_fast_tree(circuit, comp, s, &self.v_now, t, hist, opts)
                } else {
                    newton_generic(
                        circuit,
                        comp,
                        s,
                        &self.v_now,
                        self.cap_scale,
                        opts.dt,
                        t,
                        hist,
                        opts,
                        opts.max_newton,
                    )
                }
                .map_err(|e| promote_divergence(e, t, circuit, comp))?;
                for (li, &g) in comp.nodes.iter().enumerate() {
                    self.v_now[g] = s.v_iter[li];
                }
            }
            if self.v_now.iter().any(|v| !v.is_finite()) {
                return Err(SimError::NonFiniteSolution { t });
            }
            record_step(&mut self.result, &self.obs, t, &self.v_now);
            if self.use_hist {
                update_current_history(circuit, &self.v_now, &mut self.i_hist);
            }
        }
        Ok(())
    }

    /// The step the run stands at.
    pub fn step(&self) -> usize {
        self.step
    }

    /// The samples recorded so far.
    pub fn result(&self) -> &TransientResult {
        &self.result
    }

    /// The samples recorded so far, by value.
    pub fn into_result(self) -> TransientResult {
        self.result
    }

    /// Where the run stands, for [`Transient::resume`].
    pub fn end_state(&self) -> EndState {
        EndState {
            step: self.step,
            volts: self.v_now.clone(),
        }
    }
}

/// Marker error used inside the Newton solvers; promoted to a full
/// `SimError::NewtonDiverged` with node context by the caller.
struct Diverged;

fn promote_divergence(_: Diverged, t: f64, circuit: &Circuit, comp: &PlanComp) -> SimError {
    let node = comp
        .nodes
        .first()
        .map(|&g| circuit.node_name(NodeId(g as u32)).to_string())
        .unwrap_or_else(|| "?".into());
    SimError::NewtonDiverged { t, node }
}

/// Reads a gate's input voltage: downstream components read
/// already-committed values; same-component inputs read the current
/// iterate.
fn driver_v_in(input: &DriverInput, v_iter: &[f64], v_global: &[f64]) -> f64 {
    match *input {
        DriverInput::Local(li) => v_iter[li],
        DriverInput::Global(g) => v_global[g],
    }
}

/// One transient timestep of a fast tree component (drivers, if any, all
/// at the elimination root): the diagonal was eliminated once per phase
/// (`build_state`), the right-hand side is eliminated once here, and each
/// Newton iteration only re-stamps the root and back-substitutes. The
/// operation sequence matches `newton_generic` + `solve_tree` exactly, so
/// the two paths produce bit-identical voltages.
fn newton_fast_tree(
    circuit: &Circuit,
    comp: &PlanComp,
    s: &mut CompState,
    v_global: &[f64],
    t: f64,
    i_hist: Option<&[f64]>,
    opts: &SimOptions,
) -> Result<(), Diverged> {
    let tech = circuit.tech();
    let cn = comp.nodes.len();
    let parent = &comp.parent;
    let linear = comp.drivers.is_empty();

    // Per-step right-hand side: companion currents, history, sources.
    for li in 0..cn {
        let g = comp.nodes[li];
        s.rhs[li] = s.coh[li] * v_global[g];
        if let Some(hist) = i_hist {
            s.rhs[li] += hist[g];
        }
    }
    for &(li, si) in &comp.dirichlet {
        let v_forced = circuit.sources[si].1.value_at(t);
        s.rhs[li] += DIRICHLET_PENALTY * v_forced;
    }
    // Leaf-first rhs elimination with the cached factors. With drivers
    // present, contributions into the root are deferred to the iteration
    // loop so they land after the driver stamp (matching the
    // straightforward assembly order).
    for i in (1..cn).rev() {
        let p = parent[i];
        if p == 0 && !linear {
            continue;
        }
        s.rhs[p] += s.factor[i] * s.rhs[i];
    }

    for _iter in 0..opts.max_newton {
        // Finish the root: driver linearization, then the deferred child
        // elimination terms (iteration-invariant values, applied per
        // iteration to preserve the exact operation order).
        let mut d0 = s.ediag[0];
        let mut r0 = s.rhs[0];
        for d in &comp.drivers {
            let v_in = driver_v_in(&d.input, &s.v_iter, v_global);
            let v_out = s.v_iter[d.out_local];
            let (i, didv) = tech.inverter_current(circuit.inverters[d.inv_idx].size, v_in, v_out);
            // Linearize: i(v) ~ i0 + didv (v - v0); didv <= 0 strengthens
            // the diagonal.
            d0 -= didv;
            r0 += i - didv * v_out;
        }
        if !linear {
            for &c in &s.root_kids {
                d0 -= s.g_par[c] * s.factor[c];
                r0 += s.factor[c] * s.rhs[c];
            }
        }

        // Root-to-leaf back-substitution.
        s.v_next[0] = r0 / d0;
        for (i, &p) in parent.iter().enumerate().skip(1) {
            s.v_next[i] = (s.rhs[i] + s.g_par[i] * s.v_next[p]) / s.ediag[i];
        }

        // Damped update + convergence check.
        let mut worst: f64 = 0.0;
        for li in 0..cn {
            worst = worst.max((s.v_next[li] - s.v_iter[li]).abs());
        }
        if !worst.is_finite() {
            return Err(Diverged);
        }
        let scale = if worst > MAX_NEWTON_STEP_V {
            MAX_NEWTON_STEP_V / worst
        } else {
            1.0
        };
        for li in 0..cn {
            s.v_iter[li] += (s.v_next[li] - s.v_iter[li]) * scale;
        }
        if linear || worst < opts.newton_tol {
            return Ok(());
        }
    }
    Err(Diverged)
}

/// Newton iteration on one component at one timestep (or DC when
/// `cap_scale == 0`), assembling the full system every iteration. On entry
/// `s.v_iter` holds the initial guess (previous step); on success it holds
/// the converged solution.
#[allow(clippy::too_many_arguments)]
fn newton_generic(
    circuit: &Circuit,
    comp: &PlanComp,
    s: &mut CompState,
    v_global: &[f64],
    cap_scale: f64,
    dt: f64,
    t: f64,
    i_hist: Option<&[f64]>,
    opts: &SimOptions,
    max_iter: usize,
) -> Result<(), Diverged> {
    let tech = circuit.tech();
    let cn = comp.nodes.len();
    let linear = comp.drivers.is_empty();

    for _iter in 0..max_iter {
        // Assemble diag / rhs for this Newton iterate.
        for li in 0..cn {
            let g = comp.nodes[li];
            let c_over_h = cap_scale * circuit.node_cap[g] / dt;
            s.diag[li] = s.diag_base[li] + c_over_h;
            // `v_global` still holds the previous timestep value for nodes
            // in this component (committed only after convergence).
            s.rhs[li] = c_over_h * v_global[g];
            if let Some(hist) = i_hist {
                s.rhs[li] += hist[g];
            }
        }
        for &(li, si) in &comp.dirichlet {
            let v_forced = circuit.sources[si].1.value_at(t);
            s.diag[li] += DIRICHLET_PENALTY;
            s.rhs[li] += DIRICHLET_PENALTY * v_forced;
        }
        for d in &comp.drivers {
            let v_in = driver_v_in(&d.input, &s.v_iter, v_global);
            let v_out = s.v_iter[d.out_local];
            let (i, didv) = tech.inverter_current(circuit.inverters[d.inv_idx].size, v_in, v_out);
            // Linearize: i(v) ~ i0 + didv (v - v0); didv <= 0 strengthens
            // the diagonal.
            s.diag[d.out_local] -= didv;
            s.rhs[d.out_local] += i - didv * v_out;
        }

        // Solve the linearized system.
        solve_tree(comp, &s.g_par, &mut s.diag, &mut s.rhs, &mut s.v_next);

        // Damped update + convergence check.
        let mut worst: f64 = 0.0;
        for li in 0..cn {
            worst = worst.max((s.v_next[li] - s.v_iter[li]).abs());
        }
        if !worst.is_finite() {
            return Err(Diverged);
        }
        let scale = if worst > MAX_NEWTON_STEP_V {
            MAX_NEWTON_STEP_V / worst
        } else {
            1.0
        };
        for li in 0..cn {
            s.v_iter[li] += (s.v_next[li] - s.v_iter[li]) * scale;
        }
        if linear || worst < opts.newton_tol {
            return Ok(());
        }
    }
    Err(Diverged)
}

/// Recomputes the non-capacitive current into every node (resistors, gmin,
/// inverters, sources' penalty currents excluded) — the trapezoidal history
/// term.
fn update_current_history(circuit: &Circuit, v: &[f64], i_hist: &mut [f64]) {
    let tech = circuit.tech();
    let gmin = tech.gmin();
    for (g, hist) in i_hist.iter_mut().enumerate() {
        *hist = -gmin * v[g];
    }
    for r in &circuit.resistors {
        let (a, b) = (r.a.index(), r.b.index());
        let i_ab = (v[a] - v[b]) / r.ohms;
        i_hist[a] -= i_ab;
        i_hist[b] += i_ab;
    }
    for inv in &circuit.inverters {
        let (i, _) = tech.inverter_current(inv.size, v[inv.input.index()], v[inv.output.index()]);
        i_hist[inv.output.index()] += i;
    }
    // Dirichlet nodes: their "history" is irrelevant because the penalty
    // dominates, but a bogus huge value would pollute the rhs; zero it.
    for (node, _) in &circuit.sources {
        i_hist[node.index()] = 0.0;
    }
}

fn record_step(result: &mut TransientResult, obs: &[usize], t: f64, v: &[f64]) {
    result.times.push(t);
    for (row, &g) in result.volts.iter_mut().zip(obs) {
        row.push(v[g]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Technology;
    use crate::units::*;

    fn tech() -> Technology {
        Technology::nominal_45nm()
    }

    /// v(t) = vdd (1 - exp(-t/RC)) for a driven RC lowpass.
    #[test]
    fn rc_charging_matches_analytic() {
        let t = tech();
        let mut c = Circuit::new(&t);
        let src = c.add_node("src");
        let out = c.add_node("out");
        c.add_resistor(src, out, 1000.0); // 1 kΩ
        c.add_cap(out, 100.0 * FF); // tau = 100 ps
                                    // Effectively a step: 1 fs rise.
        c.drive(
            src,
            Waveform::from_samples(vec![0.0, 1.0 * FS], vec![0.0, 1.0]),
        );
        let res = simulate(&c, &SimOptions::default_for(1.0 * NS)).unwrap();
        let w = res.waveform(out);
        let tau = 100.0 * PS;
        for &frac in &[0.5, 1.0, 2.0, 3.0] {
            let t_probe = frac * tau;
            let expect = 1.0 - (-t_probe / tau).exp();
            let got = w.value_at(t_probe);
            assert!(
                (got - expect).abs() < 0.01,
                "at {frac} tau: got {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn backward_euler_close_to_trapezoidal() {
        let t = tech();
        let mut c = Circuit::new(&t);
        let src = c.add_node("src");
        let out = c.add_node("out");
        c.add_resistor(src, out, 500.0);
        c.add_cap(out, 200.0 * FF);
        c.drive(src, Waveform::rising_ramp_10_90(10.0 * PS, 50.0 * PS, 1.1));

        let mut o1 = SimOptions::default_for(1.0 * NS);
        o1.integrator = Integrator::BackwardEuler;
        let mut o2 = o1.clone();
        o2.integrator = Integrator::Trapezoidal;

        let r1 = simulate(&c, &o1).unwrap();
        let r2 = simulate(&c, &o2).unwrap();
        let d1 = r1.waveform(out).t50(1.1).unwrap();
        let d2 = r2.waveform(out).t50(1.1).unwrap();
        assert!(
            (d1 - d2).abs() < 1.0 * PS,
            "BE and trapezoidal disagree: {} vs {} ps",
            d1 / PS,
            d2 / PS
        );
    }

    #[test]
    fn inverter_inverts_and_stays_in_rails() {
        let t = tech();
        let mut c = Circuit::new(&t);
        let vin = c.add_node("in");
        let out = c.add_node("out");
        c.add_inverter(vin, out, 10.0);
        c.add_cap(out, 20.0 * FF);
        c.drive(
            vin,
            Waveform::rising_ramp_10_90(50.0 * PS, 80.0 * PS, t.vdd()),
        );
        let res = simulate(&c, &SimOptions::default_for(1.0 * NS)).unwrap();
        let w = res.waveform(out);
        // Starts high (input low), ends low.
        assert!(
            w.value_at(0.0) > 0.95 * t.vdd(),
            "DC init failed: {}",
            w.value_at(0.0)
        );
        assert!(w.value_at(1.0 * NS) < 0.05 * t.vdd());
        for &v in w.values() {
            assert!(v > -0.1 && v < t.vdd() + 0.1, "rail violation: {v}");
        }
    }

    #[test]
    fn buffer_is_noninverting_with_positive_delay() {
        let t = tech();
        let buf = &t.buffer_library()[1]; // 20X
        let mut c = Circuit::new(&t);
        let vin = c.add_node("in");
        let out = c.add_node("out");
        c.add_buffer(vin, out, buf);
        let far = c.add_node("far");
        c.add_wire(out, far, 400.0, t.wire());
        let input = Waveform::rising_ramp_10_90(50.0 * PS, 80.0 * PS, t.vdd());
        c.drive(vin, input.clone());
        let res = simulate(&c, &SimOptions::default_for(2.0 * NS)).unwrap();
        let w = res.waveform(far);
        assert!(w.is_rising(), "buffer must not invert");
        let d = w.delay_50_from(&input, t.vdd()).unwrap();
        assert!(d > 1.0 * PS && d < 500.0 * PS, "delay = {} ps", d / PS);
    }

    #[test]
    fn longer_wire_has_larger_slew() {
        let t = tech();
        let buf = &t.buffer_library()[0]; // 10X
        let mut slews = Vec::new();
        for &len in &[200.0, 800.0, 2000.0] {
            let mut c = Circuit::new(&t);
            let vin = c.add_node("in");
            let out = c.add_node("out");
            c.add_buffer(vin, out, buf);
            let far = c.add_node("far");
            c.add_wire(out, far, len, t.wire());
            c.drive(
                vin,
                Waveform::rising_ramp_10_90(50.0 * PS, 80.0 * PS, t.vdd()),
            );
            let res = simulate(&c, &SimOptions::default_for(4.0 * NS)).unwrap();
            slews.push(res.waveform(far).slew_10_90(t.vdd()).unwrap());
        }
        assert!(
            slews[0] < slews[1] && slews[1] < slews[2],
            "slews must grow with length: {:?} ps",
            slews.iter().map(|s| s / PS).collect::<Vec<_>>()
        );
        // The paper's premise: km-scale wires blow way past a 100 ps limit.
        assert!(
            slews[2] > 100.0 * PS,
            "2 mm wire slew = {} ps",
            slews[2] / PS
        );
    }

    #[test]
    fn ring_oscillator_is_rejected() {
        let t = tech();
        let mut c = Circuit::new(&t);
        let a = c.add_node("a");
        let b = c.add_node("b");
        let d = c.add_node("d");
        c.add_inverter(a, b, 2.0);
        c.add_inverter(b, d, 2.0);
        c.add_inverter(d, a, 2.0);
        let err = simulate(&c, &SimOptions::default_for(1.0 * NS)).unwrap_err();
        assert_eq!(err, SimError::FeedbackLoop);
    }

    #[test]
    fn empty_circuit_is_rejected() {
        let t = tech();
        let c = Circuit::new(&t);
        let err = simulate(&c, &SimOptions::default_for(1.0 * NS)).unwrap_err();
        assert_eq!(err, SimError::EmptyCircuit);
    }

    #[test]
    fn bad_options_are_rejected() {
        let t = tech();
        let mut c = Circuit::new(&t);
        let a = c.add_node("a");
        c.add_cap(a, 1.0 * FF);
        let mut opts = SimOptions::default_for(1.0 * NS);
        opts.dt = -1.0;
        assert!(matches!(
            simulate(&c, &opts).unwrap_err(),
            SimError::BadOptions(_)
        ));
        let mut opts = SimOptions::default_for(1.0 * PS);
        opts.dt = 10.0 * PS;
        assert!(matches!(
            simulate(&c, &opts).unwrap_err(),
            SimError::BadOptions(_)
        ));
    }

    #[test]
    fn dc_operating_point_of_inverter_chain() {
        let t = tech();
        let mut c = Circuit::new(&t);
        let a = c.add_node("a");
        let b = c.add_node("b");
        let d = c.add_node("d");
        c.add_inverter(a, b, 4.0);
        c.add_inverter(b, d, 4.0);
        c.drive(a, Waveform::constant(0.0));
        let res = simulate(&c, &SimOptions::default_for(100.0 * PS)).unwrap();
        assert!(res.waveform(b).value_at(0.0) > 0.95 * t.vdd());
        assert!(res.waveform(d).value_at(0.0) < 0.05 * t.vdd());
    }

    /// A buffer + wire circuit where the driver output is *not* the BFS
    /// root of its resistive component: the generic transient path must
    /// still produce the same physics as the fast-path layout.
    #[test]
    fn off_root_driver_takes_generic_path_and_matches() {
        let t = tech();
        // Fast layout: driver output created first (root).
        let mut fast = Circuit::new(&t);
        let vin = fast.add_node("in");
        let out = fast.add_node("out");
        let far = fast.add_node("far");
        fast.add_wire(out, far, 300.0, t.wire());
        fast.add_inverter(vin, out, 10.0);
        fast.drive(
            vin,
            Waveform::rising_ramp_10_90(50.0 * PS, 80.0 * PS, t.vdd()),
        );
        // Off-root layout: an extra leading node makes BFS start elsewhere.
        let mut slow = Circuit::new(&t);
        let far2 = slow.add_node("far");
        let vin2 = slow.add_node("in");
        let out2 = slow.add_node("out");
        slow.add_wire(out2, far2, 300.0, t.wire());
        slow.add_inverter(vin2, out2, 10.0);
        slow.drive(
            vin2,
            Waveform::rising_ramp_10_90(50.0 * PS, 80.0 * PS, t.vdd()),
        );

        let opts = SimOptions::default_for(1.0 * NS);
        let wf = simulate(&fast, &opts).unwrap().waveform(far);
        let ws = simulate(&slow, &opts).unwrap().waveform(far2);
        let df = wf.t50(t.vdd()).unwrap();
        let ds = ws.t50(t.vdd()).unwrap();
        assert!(
            (df - ds).abs() < 0.01 * PS,
            "fast and generic paths disagree: {} vs {} ps",
            df / PS,
            ds / PS
        );
    }

    #[test]
    fn context_reuses_plans_across_value_changes() {
        let t = tech();
        let mut ctx = SolverContext::new();
        let mut waves = Vec::new();
        for &len in &[400.0, 400.0, 400.0] {
            let mut c = Circuit::new(&t);
            let vin = c.add_node("in");
            let out = c.add_node("out");
            c.add_buffer(vin, out, &t.buffer_library()[1]);
            let far = c.add_node("far");
            c.add_wire(out, far, len, t.wire());
            c.drive(
                vin,
                Waveform::rising_ramp_10_90(50.0 * PS, 80.0 * PS, t.vdd()),
            );
            let opts = SimOptions::default_for(1.0 * NS);
            let res = simulate_observed_with(&mut ctx, &c, &opts, &[far]).unwrap();
            waves.push(res.waveform(far));
        }
        assert_eq!(ctx.symbolic_misses(), 1, "one topology family");
        assert_eq!(ctx.symbolic_hits(), 2);
        // Identical circuits through a shared plan give identical samples.
        assert_eq!(waves[0].values(), waves[1].values());
    }

    #[test]
    fn observed_subset_matches_full_recording() {
        let t = tech();
        let mut c = Circuit::new(&t);
        let vin = c.add_node("in");
        let out = c.add_node("out");
        c.add_buffer(vin, out, &t.buffer_library()[0]);
        let far = c.add_node("far");
        c.add_wire(out, far, 900.0, t.wire());
        c.drive(
            vin,
            Waveform::rising_ramp_10_90(50.0 * PS, 80.0 * PS, t.vdd()),
        );
        let opts = SimOptions::default_for(1.0 * NS);
        let full = simulate(&c, &opts).unwrap();
        let mut ctx = SolverContext::new();
        let obs = simulate_observed_with(&mut ctx, &c, &opts, &[far, vin]).unwrap();
        assert_eq!(
            full.samples(far),
            obs.samples(far),
            "recording must not change the solve"
        );
        assert_eq!(full.samples(vin), obs.samples(vin));
    }

    /// A buffer driving 900 µm of wire, observed at its far end and at
    /// the buffer output.
    fn buffered_wire(t: &Technology, input: Waveform) -> (Circuit, NodeId, [NodeId; 2]) {
        let mut c = Circuit::new(t);
        let vin = c.add_node("in");
        let out = c.add_node("out");
        c.add_buffer(vin, out, &t.buffer_library()[0]);
        let far = c.add_node("far");
        c.add_wire(out, far, 900.0, t.wire());
        c.drive(vin, input);
        (c, vin, [out, far])
    }

    fn assert_same_bits(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: sample counts differ");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: sample {i} differs");
        }
    }

    #[test]
    fn chunked_advance_matches_one_call() {
        let t = tech();
        let ramp = Waveform::rising_ramp_10_90(50.0 * PS, 80.0 * PS, t.vdd());
        let (c, _, obs) = buffered_wire(&t, ramp);
        let opts = SimOptions::default_for(1.0 * NS);
        let whole = simulate_observed_with(&mut SolverContext::new(), &c, &opts, &obs).unwrap();

        let mut ctx = SolverContext::new();
        let mut run = Transient::start(&mut ctx, &c, &opts, &obs).unwrap();
        for to in [1, 8, 508, usize::MAX] {
            run.advance(&c, to).unwrap();
        }
        assert_eq!(run.step(), opts.last_step());
        let pieces = run.into_result();
        assert_same_bits(whole.times(), pieces.times(), "times");
        for n in obs {
            assert_same_bits(whole.samples(n), pieces.samples(n), "chunked run");
        }
    }

    #[test]
    fn resumed_run_matches_the_run_that_saved_it() {
        let t = tech();
        let ramp = Waveform::rising_ramp_10_90(50.0 * PS, 80.0 * PS, t.vdd());
        let (c, _, obs) = buffered_wire(&t, ramp);
        let opts = SimOptions::default_for(1.0 * NS);
        let whole = simulate_observed_with(&mut SolverContext::new(), &c, &opts, &obs).unwrap();

        let mut first = Transient::start(&mut SolverContext::new(), &c, &opts, &obs).unwrap();
        first.advance(&c, 300).unwrap();
        let end = first.end_state();
        assert_eq!(end.step(), 300);
        drop(first);
        // A fresh context, observing one node only.
        let mut ctx = SolverContext::new();
        let mut resumed = Transient::resume(&mut ctx, &c, &opts, &obs[1..], &end).unwrap();
        resumed.advance(&c, usize::MAX).unwrap();
        let tail = resumed.into_result();
        assert_same_bits(&whole.times()[300..], tail.times(), "times");
        assert_same_bits(
            &whole.samples(obs[1])[300..],
            tail.samples(obs[1]),
            "resumed run",
        );

        let mut other = Circuit::new(&t);
        other.add_node("lonely");
        assert!(matches!(
            Transient::resume(&mut ctx, &other, &opts, &[], &end),
            Err(SimError::BadOptions(_))
        ));
    }

    #[test]
    fn growing_input_matches_the_full_input() {
        let t = tech();
        let opts = SimOptions::default_for(1.0 * NS);
        // A curved input: the far end of one buffered wire, shifted so its
        // edge starts early, drives a second one.
        let ramp = Waveform::rising_ramp_10_90(50.0 * PS, 80.0 * PS, t.vdd());
        let (up, _, up_obs) = buffered_wire(&t, ramp);
        let source = simulate(&up, &opts)
            .unwrap()
            .waveform(up_obs[1])
            .shifted(-40.0 * PS);
        let (c, vin, obs) = buffered_wire(&t, source.clone());
        let whole = simulate_observed_with(&mut SolverContext::new(), &c, &opts, &obs).unwrap();

        // Feeds the input up to its first sample at or after `to_step`'s
        // time: a run may take that step without outrunning its input.
        let feed = |c: &mut Circuit, have: &mut usize, to_step: usize| {
            let w = c.source_mut(vin).unwrap();
            while *have < source.len() && w.times()[*have - 1] < to_step as f64 * opts.dt {
                w.push(source.times()[*have], source.values()[*have]);
                *have += 1;
            }
        };
        let first = Waveform::from_samples(vec![source.times()[0]], vec![source.values()[0]]);
        let (mut grown, _, _) = buffered_wire(&t, first);
        let mut have = 1;
        feed(&mut grown, &mut have, 0);
        let mut run = Transient::start(&mut SolverContext::new(), &grown, &opts, &obs).unwrap();
        while run.step() < opts.last_step() {
            let to = run.step() + 37;
            feed(&mut grown, &mut have, to);
            run.advance(&grown, to).unwrap();
        }
        assert_eq!(have, source.len(), "the whole input was fed");
        let fed = run.into_result();
        for n in obs {
            assert_same_bits(whole.samples(n), fed.samples(n), "grown input");
        }
    }

    #[test]
    #[should_panic(expected = "not among the observed nodes")]
    fn unobserved_node_panics() {
        let t = tech();
        let mut c = Circuit::new(&t);
        let a = c.add_node("a");
        let b = c.add_node("b");
        c.add_resistor(a, b, 100.0);
        c.add_cap(b, 10.0 * FF);
        c.drive(a, Waveform::constant(1.0));
        let mut ctx = SolverContext::new();
        let res = simulate_observed_with(&mut ctx, &c, &SimOptions::default_for(10.0 * PS), &[a])
            .unwrap();
        let _ = res.samples(b);
    }

    /// A chain is a tree; one more resistor in parallel with an existing
    /// one makes a loop (edges 3 > nodes - 1 = 2), rejected with the node
    /// that closes it.
    #[test]
    fn parallel_edge_is_a_resistor_loop() {
        let t = tech();
        let mut c = Circuit::new(&t);
        let a = c.add_node("a");
        let b = c.add_node("b");
        let d = c.add_node("d");
        c.add_resistor(a, b, 500.0);
        c.add_resistor(b, d, 500.0);
        c.add_cap(d, 20.0 * FF);
        c.drive(a, Waveform::constant(1.0));
        let plan = build_plan(&c).unwrap();
        assert_eq!(plan.components.len(), 1, "a chain is one tree");

        c.add_resistor(a, b, 500.0);
        let err = simulate(&c, &SimOptions::default_for(1.0 * NS)).unwrap_err();
        assert_eq!(err, SimError::ResistorLoop { node: "a".into() });
    }

    /// A circuit of two components, a driven chain (a tree) and a driven
    /// resistor triangle (the smallest loop), is rejected for the
    /// triangle, with a node of the triangle named.
    #[test]
    fn a_loop_beside_a_tree_is_rejected() {
        let t = tech();
        let mut c = Circuit::new(&t);
        // Component 1: driven two-node chain (tree).
        let src = c.add_node("src");
        let leaf = c.add_node("leaf");
        c.add_resistor(src, leaf, 1000.0);
        c.add_cap(leaf, 50.0 * FF);
        c.drive(
            src,
            Waveform::from_samples(vec![0.0, 1.0 * FS], vec![0.0, 1.0]),
        );
        // Component 2: driven resistor triangle (a loop).
        let ta = c.add_node("ta");
        let tb = c.add_node("tb");
        let tc = c.add_node("tc");
        c.add_resistor(ta, tb, 800.0);
        c.add_resistor(tb, tc, 800.0);
        c.add_resistor(tc, ta, 800.0);
        c.add_cap(tc, 30.0 * FF);
        c.drive(
            ta,
            Waveform::from_samples(vec![0.0, 1.0 * FS], vec![0.0, 1.0]),
        );

        match simulate(&c, &SimOptions::default_for(1.0 * NS)) {
            Err(SimError::ResistorLoop { node }) => {
                assert!(["ta", "tb", "tc"].contains(&node.as_str()), "{node}")
            }
            other => panic!("expected a resistor loop, got {other:?}"),
        }
    }
}
