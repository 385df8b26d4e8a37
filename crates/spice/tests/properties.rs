//! Property-based tests for the transient solver: passivity, monotonicity,
//! and discretization robustness on randomized RC trees.

use cts_spice::units::*;
use cts_spice::{simulate, Circuit, NodeId, SimError, SimOptions, Technology, Waveform};
use proptest::prelude::*;

/// A random RC tree description: each node i >= 1 attaches to a random
/// earlier node with a random R and C.
#[derive(Debug, Clone)]
struct RandomTree {
    /// (parent index, resistance ohm, capacitance farad) for nodes 1..n.
    links: Vec<(usize, f64, f64)>,
}

fn random_tree(max_nodes: usize) -> impl Strategy<Value = RandomTree> {
    prop::collection::vec((0usize..1000, 50.0..2000.0f64, 1.0..100.0f64), 1..max_nodes).prop_map(
        |raw| RandomTree {
            links: raw
                .iter()
                .enumerate()
                .map(|(i, &(p, r, c))| (p % (i + 1), r, c * 1e-15))
                .collect(),
        },
    )
}

fn build_circuit(tree: &RandomTree, slew: f64) -> (Circuit, Vec<NodeId>) {
    let tech = Technology::nominal_45nm();
    let mut c = Circuit::new(&tech);
    let root = c.add_node("root");
    let mut nodes = vec![root];
    for (i, &(p, r, cap)) in tree.links.iter().enumerate() {
        let n = c.add_node(format!("n{}", i + 1));
        c.add_resistor(nodes[p], n, r);
        c.add_cap(n, cap);
        nodes.push(n);
    }
    c.drive(
        root,
        Waveform::rising_ramp_10_90(10.0 * PS, slew, tech.vdd()),
    );
    (c, nodes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Passive RC trees driven by a 0→vdd ramp stay within the rails and
    /// eventually settle at vdd everywhere.
    #[test]
    fn passivity_and_settling(tree in random_tree(14), slew in 20.0..150.0f64) {
        let (c, nodes) = build_circuit(&tree, slew * PS);
        let mut opts = SimOptions::default_for(20.0 * NS);
        opts.dt = 1.0 * PS;
        let res = simulate(&c, &opts).unwrap();
        for &n in &nodes {
            let w = res.waveform(n);
            for &v in w.values() {
                prop_assert!((-1e-3..=1.1 + 1e-3).contains(&v),
                    "rail violation at {}: {v}", c.node_name(n));
            }
            let v_end = w.value_at(20.0 * NS);
            prop_assert!((v_end - 1.1).abs() < 1e-2,
                "node {} failed to settle: {v_end}", c.node_name(n));
        }
    }

    /// In a passive RC tree with a monotone input, the backward-Euler
    /// response is strictly monotone (BE is L-stable; trapezoidal is allowed
    /// tiny decaying micro-ringing on very stiff nodes and is checked with a
    /// loose bound).
    #[test]
    fn monotone_response(tree in random_tree(10), slew in 20.0..100.0f64) {
        let (c, nodes) = build_circuit(&tree, slew * PS);
        let mut opts = SimOptions::default_for(10.0 * NS);
        opts.dt = 1.0 * PS;
        opts.integrator = cts_spice::Integrator::BackwardEuler;
        let res = simulate(&c, &opts).unwrap();
        for &n in &nodes {
            let w = res.waveform(n);
            let mut prev = f64::NEG_INFINITY;
            for &v in w.values() {
                prop_assert!(v >= prev - 1e-9, "non-monotone at {}", c.node_name(n));
                prev = v;
            }
        }
        let mut trap = opts.clone();
        trap.integrator = cts_spice::Integrator::Trapezoidal;
        let res = simulate(&c, &trap).unwrap();
        for &n in &nodes {
            let w = res.waveform(n);
            let mut prev = f64::NEG_INFINITY;
            for &v in w.values() {
                prop_assert!(v >= prev - 5e-2, "trapezoidal overshoot at {}", c.node_name(n));
                prev = v.max(prev);
            }
        }
    }

    /// Halving the timestep changes measured delays by less than a step —
    /// the discretization is converged at the default resolution.
    #[test]
    fn timestep_convergence(tree in random_tree(8), slew in 30.0..120.0f64) {
        let (c, nodes) = build_circuit(&tree, slew * PS);
        let leaf = *nodes.last().unwrap();
        let mut coarse = SimOptions::default_for(10.0 * NS);
        coarse.dt = 1.0 * PS;
        let mut fine = coarse.clone();
        fine.dt = 0.5 * PS;
        let t_coarse = simulate(&c, &coarse).unwrap().waveform(leaf).t50(1.1);
        let t_fine = simulate(&c, &fine).unwrap().waveform(leaf).t50(1.1);
        let (a, b) = (t_coarse.unwrap(), t_fine.unwrap());
        prop_assert!((a - b).abs() < 1.0 * PS, "dt sensitivity: {} vs {} ps", a / PS, b / PS);
    }

    /// Deeper nodes in a chain are never earlier than shallower ones.
    #[test]
    fn delay_ordering_along_chain(
        rs in prop::collection::vec(100.0..1500.0f64, 2..10),
        cs in prop::collection::vec(5.0..80.0f64, 2..10),
    ) {
        let tech = Technology::nominal_45nm();
        let mut c = Circuit::new(&tech);
        let root = c.add_node("root");
        let mut prev = root;
        let mut chain = Vec::new();
        for (i, (r, cap)) in rs.iter().zip(cs.iter()).enumerate() {
            let n = c.add_node(format!("c{i}"));
            c.add_resistor(prev, n, *r);
            c.add_cap(n, cap * FF);
            chain.push(n);
            prev = n;
        }
        c.drive(root, Waveform::rising_ramp_10_90(10.0 * PS, 50.0 * PS, tech.vdd()));
        let mut opts = SimOptions::default_for(10.0 * NS);
        opts.dt = 1.0 * PS;
        let res = simulate(&c, &opts).unwrap();
        let mut last = 0.0;
        for &n in &chain {
            let t50 = res.waveform(n).t50(tech.vdd()).unwrap();
            prop_assert!(t50 >= last - 1e-15, "t50 decreased along chain");
            last = t50;
        }
    }

    /// The solver takes resistive trees only: a random RC tree plus one
    /// cross-link between two of its nodes (or a second resistor between
    /// the same pair) is rejected with a node on the loop it closes named,
    /// and the same tree without the link simulates.
    #[test]
    fn a_cross_link_is_rejected_and_the_tree_simulates(
        tree in random_tree(10),
        link in (0usize..1000, 0usize..1000, 200.0..3000.0f64),
        slew in 20.0..120.0f64,
    ) {
        let (mut c, nodes) = build_circuit(&tree, slew * PS);
        let n = nodes.len();
        let (a, b) = (link.0 % n, link.1 % n);
        prop_assume!(a != b);
        let mut opts = SimOptions::default_for(5.0 * NS);
        opts.dt = 1.0 * PS;
        prop_assert!(simulate(&c, &opts).is_ok());

        c.add_resistor(nodes[a], nodes[b], link.2);
        // The loop is the tree path from `a` to `b` closed by the link.
        let up = |mut i: usize| {
            let mut path = vec![i];
            while i > 0 {
                i = tree.links[i - 1].0;
                path.push(i);
            }
            path
        };
        let (pa, pb) = (up(a), up(b));
        let on_loop: Vec<String> = pa
            .iter()
            .filter(|i| !pb.contains(i))
            .chain(pb.iter().filter(|i| !pa.contains(i)))
            .chain(pa.iter().find(|i| pb.contains(i)))
            .map(|&i| c.node_name(nodes[i]).to_string())
            .collect();
        match simulate(&c, &opts) {
            Err(SimError::ResistorLoop { node }) => {
                prop_assert!(on_loop.contains(&node), "{node} is not on the loop {on_loop:?}")
            }
            other => panic!("expected a resistor loop, got {:?}", other.err()),
        }
    }
}
