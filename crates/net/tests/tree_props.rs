//! Property tests for the routed-geometry wire codec: an arbitrary
//! (structurally valid) clock tree, streamed as chunked `tree` events
//! through the textual JSON layer and rebuilt with
//! [`ClockTree::from_nodes`], must come back **bit-for-bit** — every
//! node coordinate, buffer cell id, and wire segment length — for every
//! chunk size; and corrupted node lists must be rejected, never
//! silently patched.

use cts_core::{ClockTree, NodeKind, Sink, TreeNode, TreeNodeId};
use cts_geom::Point;
use cts_net::proto::{decode_event, encode_event, Event, TreeChunkEvent, TreeEvent};
use cts_net::Json;
use cts_timing::BufferId;
use proptest::prelude::*;
use rand::Rng;

/// A random finite coordinate mixing smooth values with exact dyadic
/// tails, so shortest-roundtrip printing is exercised on "ugly" floats.
fn wild_coord(rng: &mut proptest::TestRng) -> f64 {
    let base = rng.gen_range(-5000.0..5000.0f64);
    match rng.gen_range(0..3) {
        0 => base,
        1 => base.trunc() + 0.5,
        _ => base + 2.0f64.powi(-rng.gen_range(20..50)),
    }
}

fn wild_wire(rng: &mut proptest::TestRng) -> f64 {
    wild_coord(rng).abs()
}

/// Builds a random valid clock tree through the arena's own mutator API
/// (so every invariant holds by construction): random sinks, random
/// merge order, buffers sprinkled above random roots, crowned with a
/// source.
struct WildTree {
    max_sinks: usize,
}

impl Strategy for WildTree {
    type Value = ClockTree;
    fn sample(&self, rng: &mut proptest::TestRng) -> ClockTree {
        let sinks = rng.gen_range(1..self.max_sinks + 1);
        let mut tree = ClockTree::new();
        for i in 0..sinks {
            let sink = Sink::new(
                format!("s{i}"),
                Point::new(wild_coord(rng), wild_coord(rng)),
                rng.gen_range(0.0..60.0) * 1e-15,
            );
            tree.add_sink(i, &sink);
        }
        // Merge random pairs of roots until one remains, occasionally
        // interposing a buffer (random library cell) above a root first.
        loop {
            let mut roots = tree.roots();
            if roots.len() < 2 {
                break;
            }
            let a = roots.swap_remove(rng.gen_range(0..roots.len()));
            let b = roots.swap_remove(rng.gen_range(0..roots.len()));
            let wrap = |tree: &mut ClockTree, root, rng: &mut proptest::TestRng| {
                if rng.gen_bool(0.4) {
                    let cell = BufferId(rng.gen_range(0..3));
                    let at = Point::new(wild_coord(rng), wild_coord(rng));
                    let buf = tree.add_buffer(at, cell);
                    tree.attach(buf, root, wild_wire(rng));
                    buf
                } else {
                    root
                }
            };
            let a = wrap(&mut tree, a, rng);
            let b = wrap(&mut tree, b, rng);
            let joint = tree.add_joint(Point::new(wild_coord(rng), wild_coord(rng)));
            tree.attach(joint, a, wild_wire(rng));
            tree.attach(joint, b, wild_wire(rng));
        }
        let root = tree.roots()[0];
        tree.add_source(root, BufferId(rng.gen_range(0..3)));
        tree
    }
}

/// Streams `tree` through the textual wire codec in `chunk`-node events
/// and rebuilds it.
fn wire_roundtrip(tree: &ClockTree, chunk: usize) -> Result<ClockTree, String> {
    let mut collected: Vec<TreeNode> = Vec::new();
    for (k, run) in tree.nodes().chunks(chunk).enumerate() {
        let frame = encode_event(&Event::Tree(TreeEvent::Chunk(TreeChunkEvent {
            id: 42,
            chunk: k as u64,
            nodes: run.to_vec(),
        })));
        // Through text, as on the wire.
        let reparsed = Json::parse(&frame.to_string()).map_err(|e| e.to_string())?;
        match decode_event(&reparsed)? {
            Event::Tree(TreeEvent::Chunk(c)) => collected.extend(c.nodes),
            _ => return Err("chunk decoded as terminal".into()),
        }
    }
    ClockTree::from_nodes(collected).map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn geometry_roundtrips_bit_for_bit(tree in WildTree { max_sinks: 12 }, cut in 1usize..9) {
        let back = wire_roundtrip(&tree, cut).expect("valid tree must round-trip");
        // PartialEq on ClockTree compares every node field — kind
        // (incl. buffer cell ids and sink caps), location, parent link,
        // wire length, and child order — exactly, f64s by bits-for-value.
        prop_assert_eq!(&back, &tree);
        let root = tree.roots()[0];
        prop_assert_eq!(back.validate_under(root), tree.validate_under(root));
        prop_assert_eq!(back.wirelength_under(root), tree.wirelength_under(root));
    }

    #[test]
    fn corrupted_links_are_rejected_not_repaired(tree in WildTree { max_sinks: 6 }, pick in 0.0..1.0f64) {
        let mut nodes = tree.nodes().to_vec();
        let victim = ((nodes.len() as f64) * pick) as usize % nodes.len();
        // Point the victim's parent somewhere inconsistent (or dangling).
        nodes[victim].parent = Some(TreeNodeId::from_index(nodes.len() + 7));
        prop_assert!(ClockTree::from_nodes(nodes).is_err());
    }

    #[test]
    fn dropping_a_node_breaks_the_rebuild(tree in WildTree { max_sinks: 6 }) {
        // Deleting the last node (the source, which always has a child)
        // leaves a dangling child link: a short stream can never rebuild
        // silently. (The client additionally enforces the header's node
        // count before even attempting a rebuild.)
        let mut nodes = tree.nodes().to_vec();
        let dropped = nodes.pop().expect("trees are non-empty");
        prop_assert!(matches!(dropped.kind, NodeKind::Source { .. }));
        prop_assert!(ClockTree::from_nodes(nodes).is_err());
    }
}
