//! The clock tree intermediate representation.
//!
//! A [`ClockTree`] is an arena of nodes. During synthesis it holds a
//! *forest*: every parentless node is the root of a partial sub-tree; the
//! levelized flow repeatedly merges two roots under a new node until one
//! root remains, then crowns it with the clock source. Buffers appear as
//! unary in-line nodes anywhere along an edge path — the paper's central
//! liberty.
//!
//! Edges carry a *routed* wirelength (µm) that may exceed the Manhattan
//! distance between the endpoints' coordinates: maze detours and the
//! balance stage's wire snaking add length without moving endpoints.

use crate::instance::Sink;
use cts_geom::Point;
use cts_timing::{BufferId, DelaySlewLibrary};
use std::fmt;

/// Identifier of a clock tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TreeNodeId(usize);

impl TreeNodeId {
    /// Index into per-node arrays.
    pub fn index(self) -> usize {
        self.0
    }

    /// The id of the node at `index` — the inverse of
    /// [`TreeNodeId::index`], for deserializers rebuilding an arena from
    /// a wire or file representation. An out-of-range id is not itself an
    /// error; every arena method validates on use, and
    /// [`ClockTree::from_nodes`] rejects dangling links up front.
    pub fn from_index(index: usize) -> TreeNodeId {
        TreeNodeId(index)
    }
}

impl fmt::Display for TreeNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// What a tree node is.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// The clock source (root of the finished tree). Modeled as a driver of
    /// the given buffer type.
    Source {
        /// Driver strength of the clock source.
        driver: BufferId,
    },
    /// A clock sink (leaf).
    Sink {
        /// Index into the instance's sink list.
        index: usize,
        /// Sink capacitance (F), denormalized for engine convenience.
        cap: f64,
    },
    /// A merge/branch point or routing joint (no device).
    Joint,
    /// An in-line buffer (unary).
    Buffer {
        /// Which library buffer is instantiated here.
        buffer: BufferId,
    },
}

/// One node of the arena.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeNode {
    /// Node kind.
    pub kind: NodeKind,
    /// Placement (µm).
    pub location: Point,
    /// Parent node, if attached.
    pub parent: Option<TreeNodeId>,
    /// Routed wirelength to the parent (µm); 0 for co-located attachments.
    pub wire_to_parent_um: f64,
    /// Children (at most 2; buffers and the source have exactly 1).
    pub children: Vec<TreeNodeId>,
}

/// An arena-allocated clock tree (or forest, during synthesis).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClockTree {
    nodes: Vec<TreeNode>,
}

/// Why [`ClockTree::from_nodes`] rejected a node list: a description of
/// the first structural violation (dangling link, arity overflow,
/// inconsistent parent/child pointers, non-finite geometry, or a cycle).
#[derive(Debug, Clone, PartialEq)]
pub struct TreeStructureError(String);

impl fmt::Display for TreeStructureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed tree: {}", self.0)
    }
}

impl std::error::Error for TreeStructureError {}

impl ClockTree {
    /// Creates an empty arena.
    pub fn new() -> ClockTree {
        ClockTree::default()
    }

    /// Adds a sink leaf for `sink` (at instance index `index`).
    pub fn add_sink(&mut self, index: usize, sink: &Sink) -> TreeNodeId {
        self.push(TreeNode {
            kind: NodeKind::Sink {
                index,
                cap: sink.cap,
            },
            location: sink.location,
            parent: None,
            wire_to_parent_um: 0.0,
            children: Vec::new(),
        })
    }

    /// Adds an unattached joint at `location`.
    pub fn add_joint(&mut self, location: Point) -> TreeNodeId {
        self.push(TreeNode {
            kind: NodeKind::Joint,
            location,
            parent: None,
            wire_to_parent_um: 0.0,
            children: Vec::new(),
        })
    }

    /// Adds an unattached buffer node at `location`.
    pub fn add_buffer(&mut self, location: Point, buffer: BufferId) -> TreeNodeId {
        self.push(TreeNode {
            kind: NodeKind::Buffer { buffer },
            location,
            parent: None,
            wire_to_parent_um: 0.0,
            children: Vec::new(),
        })
    }

    /// Adds the clock source above `child` (same location, zero wire) and
    /// returns it.
    ///
    /// # Panics
    ///
    /// Panics if `child` already has a parent.
    pub fn add_source(&mut self, child: TreeNodeId, driver: BufferId) -> TreeNodeId {
        let loc = self.node(child).location;
        let src = self.push(TreeNode {
            kind: NodeKind::Source { driver },
            location: loc,
            parent: None,
            wire_to_parent_um: 0.0,
            children: Vec::new(),
        });
        self.attach(src, child, 0.0);
        src
    }

    fn push(&mut self, node: TreeNode) -> TreeNodeId {
        let id = TreeNodeId(self.nodes.len());
        self.nodes.push(node);
        id
    }

    /// Attaches `child` under `parent` with the given routed wirelength.
    ///
    /// # Panics
    ///
    /// Panics if the child already has a parent, the parent already has two
    /// children (or one, for unary kinds), the wirelength is negative, or
    /// `parent == child`.
    pub fn attach(&mut self, parent: TreeNodeId, child: TreeNodeId, wire_um: f64) {
        assert!(parent != child, "cannot attach a node to itself");
        assert!(
            wire_um >= 0.0 && wire_um.is_finite(),
            "wirelength must be non-negative, got {wire_um}"
        );
        assert!(
            self.node(child).parent.is_none(),
            "node {child} already attached"
        );
        let max_children = match self.node(parent).kind {
            NodeKind::Sink { .. } => 0,
            NodeKind::Buffer { .. } | NodeKind::Source { .. } => 1,
            NodeKind::Joint => 2,
        };
        assert!(
            self.node(parent).children.len() < max_children,
            "node {parent} cannot take another child"
        );
        self.nodes[child.0].parent = Some(parent);
        self.nodes[child.0].wire_to_parent_um = wire_um;
        self.nodes[parent.0].children.push(child);
    }

    /// Detaches `child` from its parent (used by H-structure correction to
    /// dissolve tentative merges).
    ///
    /// # Panics
    ///
    /// Panics if the node has no parent.
    pub fn detach(&mut self, child: TreeNodeId) {
        let parent = self.node(child).parent.expect("node has no parent");
        self.nodes[parent.0].children.retain(|&c| c != child);
        self.nodes[child.0].parent = None;
        self.nodes[child.0].wire_to_parent_um = 0.0;
    }

    /// Immutable node access.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: TreeNodeId) -> &TreeNode {
        &self.nodes[id.0]
    }

    /// The whole arena in id order — the export walk serializers iterate
    /// (node `i` is the one [`ClockTree::node`] returns for the id with
    /// index `i`). Together with [`ClockTree::from_nodes`] this is the
    /// round-trip seam: `from_nodes(tree.nodes().to_vec())` rebuilds a
    /// tree equal to `tree`, field for field.
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Rebuilds an arena from raw nodes (a deserialized wire or file
    /// representation), validating every structural invariant the mutator
    /// API would otherwise have enforced: links in range, parent/child
    /// pointers mutually consistent (including child order multiplicity),
    /// arity limits, finite locations and non-negative finite
    /// wirelengths/capacitances, roots carrying zero parent wire, and no
    /// cycles. The node list is stored verbatim, so a valid rebuild is
    /// bit-identical to the exported arena — nothing is renumbered.
    ///
    /// # Errors
    ///
    /// [`TreeStructureError`] describing the first violation.
    pub fn from_nodes(nodes: Vec<TreeNode>) -> Result<ClockTree, TreeStructureError> {
        let total = nodes.len();
        let fail = |msg: String| Err(TreeStructureError(msg));
        for (i, n) in nodes.iter().enumerate() {
            if !n.location.is_finite() {
                return fail(format!("node {i} location is not finite"));
            }
            if !(n.wire_to_parent_um >= 0.0 && n.wire_to_parent_um.is_finite()) {
                return fail(format!(
                    "node {i} parent wire {} is invalid",
                    n.wire_to_parent_um
                ));
            }
            if let NodeKind::Sink { cap, .. } = n.kind {
                if !(cap >= 0.0 && cap.is_finite()) {
                    return fail(format!("sink node {i} capacitance {cap} F is invalid"));
                }
            }
            let max_children = match n.kind {
                NodeKind::Sink { .. } => 0,
                NodeKind::Buffer { .. } | NodeKind::Source { .. } => 1,
                NodeKind::Joint => 2,
            };
            if n.children.len() > max_children {
                return fail(format!(
                    "node {i} has {} children (max {max_children})",
                    n.children.len()
                ));
            }
            match n.parent {
                Some(p) if p.0 >= total => {
                    return fail(format!("node {i} parent {} is out of range", p.0))
                }
                Some(p) if p.0 == i => return fail(format!("node {i} is its own parent")),
                None if n.wire_to_parent_um != 0.0 => {
                    return fail(format!("root node {i} carries a parent wire"))
                }
                _ => {}
            }
            if let Some(&c) = n.children.iter().find(|c| c.0 >= total) {
                return fail(format!("node {i} child {} is out of range", c.0));
            }
        }
        // Mutual link consistency: every child points back, and every
        // parented node appears exactly once in its parent's child list.
        for (i, n) in nodes.iter().enumerate() {
            for &c in &n.children {
                if nodes[c.0].parent != Some(TreeNodeId(i)) {
                    return fail(format!("child {} does not point back to {i}", c.0));
                }
            }
            if let Some(p) = n.parent {
                let listed = nodes[p.0].children.iter().filter(|c| c.0 == i).count();
                if listed != 1 {
                    return fail(format!(
                        "node {i} appears {listed} times in parent {}'s children",
                        p.0
                    ));
                }
            }
        }
        // With links mutually consistent, any node not reachable from a
        // root sits on a parent cycle.
        let mut seen = vec![false; total];
        let mut stack: Vec<usize> = (0..total).filter(|&i| nodes[i].parent.is_none()).collect();
        let mut reached = 0usize;
        while let Some(i) = stack.pop() {
            if seen[i] {
                continue;
            }
            seen[i] = true;
            reached += 1;
            stack.extend(nodes[i].children.iter().map(|c| c.0));
        }
        if reached != total {
            return fail(format!(
                "{} nodes are unreachable from any root (parent cycle)",
                total - reached
            ));
        }
        Ok(ClockTree { nodes })
    }

    /// Sets a node's location (binary search moves merge joints).
    pub fn set_location(&mut self, id: TreeNodeId, location: Point) {
        assert!(location.is_finite());
        self.nodes[id.0].location = location;
    }

    /// Sets the routed wirelength of `child`'s parent edge.
    ///
    /// # Panics
    ///
    /// Panics if the node is unattached or the length is negative.
    pub fn set_wire_to_parent(&mut self, child: TreeNodeId, wire_um: f64) {
        assert!(self.nodes[child.0].parent.is_some(), "node unattached");
        assert!(wire_um >= 0.0 && wire_um.is_finite());
        self.nodes[child.0].wire_to_parent_um = wire_um;
    }

    /// Re-types an existing buffer (the sizing refinement swaps types to
    /// fine-balance delays).
    ///
    /// # Panics
    ///
    /// Panics if the node is not a buffer.
    pub fn set_buffer_type(&mut self, node: TreeNodeId, buffer: BufferId) {
        match &mut self.nodes[node.0].kind {
            NodeKind::Buffer { buffer: b } => *b = buffer,
            other => panic!("set_buffer_type on non-buffer node ({other:?})"),
        }
    }

    /// Number of nodes in the arena.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the arena has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over all node ids.
    pub fn ids(&self) -> impl Iterator<Item = TreeNodeId> {
        (0..self.nodes.len()).map(TreeNodeId)
    }

    /// Current roots (parentless nodes) — the active sub-trees during
    /// synthesis, or the single root of a finished tree.
    pub fn roots(&self) -> Vec<TreeNodeId> {
        self.ids()
            .filter(|&id| self.node(id).parent.is_none())
            .collect()
    }

    /// All sink leaves under `root` (including `root` itself if a sink).
    pub fn sinks_under(&self, root: TreeNodeId) -> Vec<TreeNodeId> {
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if matches!(self.node(id).kind, NodeKind::Sink { .. }) {
                out.push(id);
            }
            stack.extend(self.node(id).children.iter().copied());
        }
        out
    }

    /// Total routed wirelength under `root` (µm), including `root`'s own
    /// parent edge if attached... excluded: only edges *below* `root`.
    pub fn wirelength_under(&self, root: TreeNodeId) -> f64 {
        let mut total = 0.0;
        let mut stack: Vec<TreeNodeId> = self.node(root).children.to_vec();
        while let Some(id) = stack.pop() {
            total += self.node(id).wire_to_parent_um;
            stack.extend(self.node(id).children.iter().copied());
        }
        total
    }

    /// Number of buffers under (and including) `root`.
    pub fn buffer_count_under(&self, root: TreeNodeId) -> usize {
        let mut count = 0;
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if matches!(self.node(id).kind, NodeKind::Buffer { .. }) {
                count += 1;
            }
            stack.extend(self.node(id).children.iter().copied());
        }
        count
    }

    /// Total downstream capacitance below `root`: wire + buffer input +
    /// sink caps of the sub-tree, stopping at buffer inputs (a buffer shields
    /// everything beneath it).
    ///
    /// Wire capacitance comes from `lib`'s wire parameters, buffer input
    /// caps from [`DelaySlewLibrary::input_cap`].
    pub fn shielded_cap_under(&self, root: TreeNodeId, lib: &DelaySlewLibrary) -> f64 {
        let wire_c_per_um = lib.wire().c_per_um();
        let mut total = 0.0;
        let mut stack: Vec<TreeNodeId> = self.node(root).children.to_vec();
        while let Some(id) = stack.pop() {
            total += self.node(id).wire_to_parent_um * wire_c_per_um;
            match self.node(id).kind {
                NodeKind::Buffer { buffer } => total += lib.input_cap(buffer),
                NodeKind::Sink { cap, .. } => total += cap,
                _ => stack.extend(self.node(id).children.iter().copied()),
            }
        }
        total
    }

    /// Maximum unbuffered wire depth under `root` (µm): the longest
    /// accumulated wirelength from `root` down to the first buffer input or
    /// sink on any path. This is the wire a future upstream driver must
    /// drive *through* before reaching a restoring buffer, so merge-routing
    /// budgets it against the slew-legal segment length.
    pub fn unbuffered_depth_um(&self, root: TreeNodeId) -> f64 {
        let mut worst = 0.0f64;
        let mut stack: Vec<(TreeNodeId, f64)> = self
            .node(root)
            .children
            .iter()
            .map(|&c| (c, self.node(c).wire_to_parent_um))
            .collect();
        while let Some((id, depth)) = stack.pop() {
            match self.node(id).kind {
                NodeKind::Buffer { .. } | NodeKind::Sink { .. } => worst = worst.max(depth),
                _ => {
                    worst = worst.max(depth);
                    stack.extend(
                        self.node(id)
                            .children
                            .iter()
                            .map(|&c| (c, depth + self.node(c).wire_to_parent_um)),
                    );
                }
            }
        }
        worst
    }

    /// Copies the sub-trees rooted at `roots` into a fresh, detached arena.
    ///
    /// Nodes are copied in ascending id order (so relative order — and with
    /// it every order-sensitive traversal — is preserved), with parent and
    /// child links remapped into the new arena. The returned map gives, for
    /// each local node id `i`, the original arena id `map[i]`; it is sorted
    /// ascending, so [`ClockTree::local_id`] can binary-search it.
    ///
    /// This is the extraction half of the parallel merge stage: a worker
    /// merges the detached forest in isolation, and
    /// [`ClockTree::graft_forest`] later writes the result back.
    ///
    /// # Panics
    ///
    /// Panics if the sub-trees overlap (a node reachable from two roots).
    pub fn extract_forest(&self, roots: &[TreeNodeId]) -> (ClockTree, Vec<TreeNodeId>) {
        let mut ids: Vec<TreeNodeId> = Vec::new();
        for &root in roots {
            let mut stack = vec![root];
            while let Some(id) = stack.pop() {
                ids.push(id);
                stack.extend(self.node(id).children.iter().copied());
            }
        }
        ids.sort_unstable();
        for w in ids.windows(2) {
            assert!(
                w[0] != w[1],
                "extract_forest: overlapping sub-trees at {}",
                w[0]
            );
        }

        let local = |id: TreeNodeId| -> TreeNodeId {
            TreeNodeId(ids.binary_search(&id).expect("link inside the forest"))
        };
        let nodes = ids
            .iter()
            .map(|&id| {
                let n = self.node(id);
                TreeNode {
                    kind: n.kind.clone(),
                    location: n.location,
                    parent: n.parent.map(local),
                    wire_to_parent_um: n.wire_to_parent_um,
                    children: n.children.iter().map(|&c| local(c)).collect(),
                }
            })
            .collect();
        (ClockTree { nodes }, ids)
    }

    /// The local id (in a forest extracted with `map`) of the original
    /// arena node `global`.
    ///
    /// # Panics
    ///
    /// Panics if `global` was not part of the extraction.
    pub fn local_id(map: &[TreeNodeId], global: TreeNodeId) -> TreeNodeId {
        TreeNodeId(
            map.binary_search(&global)
                .expect("node was part of the extracted forest"),
        )
    }

    /// Writes a forest produced by [`ClockTree::extract_forest`] (and since
    /// mutated — merged, balanced, re-typed) back into this arena.
    ///
    /// The first `map.len()` forest nodes overwrite their originals in
    /// place; nodes beyond that are appended in forest order, so grafting
    /// the per-pair results in matching order reproduces exactly the arena
    /// a serial in-place merge pass would have built. Returns the
    /// local→global id translation for every forest node.
    ///
    /// # Panics
    ///
    /// Panics if the forest has fewer nodes than `map` (extraction never
    /// shrinks) or `map` names an id outside this arena.
    pub fn graft_forest(&mut self, forest: ClockTree, map: &[TreeNodeId]) -> Vec<TreeNodeId> {
        assert!(
            forest.nodes.len() >= map.len(),
            "grafted forest lost nodes ({} < {})",
            forest.nodes.len(),
            map.len()
        );
        let base = self.nodes.len();
        let global: Vec<TreeNodeId> = (0..forest.nodes.len())
            .map(|i| {
                if i < map.len() {
                    map[i]
                } else {
                    TreeNodeId(base + i - map.len())
                }
            })
            .collect();
        for (i, n) in forest.nodes.into_iter().enumerate() {
            let mapped = TreeNode {
                kind: n.kind,
                location: n.location,
                parent: n.parent.map(|p| global[p.0]),
                wire_to_parent_um: n.wire_to_parent_um,
                children: n.children.iter().map(|&c| global[c.0]).collect(),
            };
            if i < map.len() {
                self.nodes[map[i].0] = mapped;
            } else {
                debug_assert_eq!(global[i].0, self.nodes.len());
                self.nodes.push(mapped);
            }
        }
        global
    }

    /// Validates structural invariants of the (sub)tree under `root`:
    /// child/parent links consistent, arity respected, no cycles, sinks are
    /// leaves. Returns the number of nodes visited.
    ///
    /// # Panics
    ///
    /// Panics (with a description) on any violation — this is a debugging
    /// aid used liberally in tests.
    pub fn validate_under(&self, root: TreeNodeId) -> usize {
        let mut visited = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        let mut count = 0;
        while let Some(id) = stack.pop() {
            assert!(!visited[id.0], "cycle detected at {id}");
            visited[id.0] = true;
            count += 1;
            let n = self.node(id);
            let max_children = match n.kind {
                NodeKind::Sink { .. } => 0,
                NodeKind::Buffer { .. } | NodeKind::Source { .. } => 1,
                NodeKind::Joint => 2,
            };
            assert!(
                n.children.len() <= max_children,
                "node {id} has {} children (max {max_children})",
                n.children.len()
            );
            for &c in &n.children {
                assert_eq!(
                    self.node(c).parent,
                    Some(id),
                    "child {c} does not point back to {id}"
                );
                stack.push(c);
            }
        }
        count
    }
}

impl fmt::Display for ClockTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let roots = self.roots();
        write!(f, "clock tree[{} nodes, {} roots]", self.len(), roots.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_geom::Point;

    fn sink(name: &str, x: f64, y: f64) -> Sink {
        Sink::new(name, Point::new(x, y), 20e-15)
    }

    fn two_sink_tree() -> (ClockTree, TreeNodeId, TreeNodeId, TreeNodeId) {
        let mut t = ClockTree::new();
        let a = t.add_sink(0, &sink("a", 0.0, 0.0));
        let b = t.add_sink(1, &sink("b", 200.0, 0.0));
        let m = t.add_joint(Point::new(100.0, 0.0));
        t.attach(m, a, 100.0);
        t.attach(m, b, 100.0);
        (t, a, b, m)
    }

    #[test]
    fn forest_then_tree() {
        let (mut t, _a, _b, m) = two_sink_tree();
        assert_eq!(t.roots(), vec![m]);
        let src = t.add_source(m, BufferId(2));
        assert_eq!(t.roots(), vec![src]);
        assert_eq!(t.validate_under(src), 4);
    }

    #[test]
    fn sinks_and_wirelength() {
        let (t, a, b, m) = two_sink_tree();
        let sinks = t.sinks_under(m);
        assert_eq!(sinks.len(), 2);
        assert!(sinks.contains(&a) && sinks.contains(&b));
        assert_eq!(t.wirelength_under(m), 200.0);
        assert_eq!(t.buffer_count_under(m), 0);
    }

    #[test]
    fn buffers_shield_downstream_cap() {
        let mut t = ClockTree::new();
        let a = t.add_sink(0, &sink("a", 0.0, 0.0));
        let buf = t.add_buffer(Point::new(50.0, 0.0), BufferId(0));
        t.attach(buf, a, 50.0);
        let m = t.add_joint(Point::new(100.0, 0.0));
        t.attach(m, buf, 50.0);

        let lib = cts_timing::fast_library();
        let c_per_um = lib.wire().c_per_um();
        let input_cap = lib.input_cap(BufferId(0));
        let cap = t.shielded_cap_under(m, lib);
        // 50 µm of wire above the buffer + the buffer's input cap; the sink
        // and its wire are shielded.
        assert!((cap - (50.0 * c_per_um + input_cap)).abs() < 1e-21);
    }

    #[test]
    fn detach_restores_root() {
        let (mut t, a, _b, m) = two_sink_tree();
        t.detach(a);
        let roots = t.roots();
        assert!(roots.contains(&a) && roots.contains(&m));
        assert_eq!(t.node(a).wire_to_parent_um, 0.0);
        // m now has a single child; can re-attach.
        t.attach(m, a, 120.0);
        assert_eq!(t.roots(), vec![m]);
    }

    #[test]
    #[should_panic(expected = "cannot take another child")]
    fn joint_arity_enforced() {
        let (mut t, _a, _b, m) = two_sink_tree();
        let c = t.add_sink(2, &sink("c", 50.0, 50.0));
        t.attach(m, c, 10.0);
    }

    #[test]
    #[should_panic(expected = "already attached")]
    fn double_attach_rejected() {
        let (mut t, a, _b, _m) = two_sink_tree();
        let j = t.add_joint(Point::new(0.0, 50.0));
        t.attach(j, a, 10.0);
    }

    #[test]
    #[should_panic(expected = "cannot take another child")]
    fn sink_cannot_have_children() {
        let mut t = ClockTree::new();
        let a = t.add_sink(0, &sink("a", 0.0, 0.0));
        let b = t.add_sink(1, &sink("b", 10.0, 0.0));
        t.attach(a, b, 10.0);
    }

    #[test]
    fn validate_counts_nodes() {
        let (t, _, _, m) = two_sink_tree();
        assert_eq!(t.validate_under(m), 3);
    }

    #[test]
    fn extract_then_graft_roundtrips_and_appends() {
        // Arena: two single-sink roots plus an unrelated third sink that
        // must stay untouched by the extraction.
        let mut t = ClockTree::new();
        let a = t.add_sink(0, &sink("a", 0.0, 0.0));
        let other = t.add_sink(1, &sink("x", 9.0, 9.0));
        let b = t.add_sink(2, &sink("b", 400.0, 0.0));

        let (mut forest, map) = t.extract_forest(&[a, b]);
        assert_eq!(map, vec![a, b]);
        assert_eq!(forest.len(), 2);
        let la = ClockTree::local_id(&map, a);
        let lb = ClockTree::local_id(&map, b);
        assert_eq!(forest.node(la).location, t.node(a).location);

        // Merge the two locally: new joint above both.
        let j = forest.add_joint(Point::new(200.0, 0.0));
        forest.attach(j, la, 200.0);
        forest.attach(j, lb, 200.0);

        let global = t.graft_forest(forest, &map);
        let gj = global[j.index()];
        assert_eq!(t.node(gj).children, vec![a, b]);
        assert_eq!(t.node(a).parent, Some(gj));
        assert_eq!(t.node(a).wire_to_parent_um, 200.0);
        assert!(t.node(other).parent.is_none(), "bystander node disturbed");
        assert_eq!(t.validate_under(gj), 3);
        let mut roots = t.roots();
        roots.sort_unstable();
        assert_eq!(roots, vec![other, gj]);
    }

    #[test]
    fn extract_preserves_structure_and_relative_order() {
        let (t, a, b, m) = two_sink_tree();
        let (forest, map) = t.extract_forest(&[m]);
        assert_eq!(map, vec![a, b, m]);
        let lm = ClockTree::local_id(&map, m);
        assert_eq!(forest.sinks_under(lm).len(), 2);
        assert_eq!(forest.wirelength_under(lm), t.wirelength_under(m));
        forest.validate_under(lm);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn extract_rejects_overlapping_roots() {
        let (t, a, _b, m) = two_sink_tree();
        let _ = t.extract_forest(&[m, a]);
    }

    #[test]
    fn from_nodes_roundtrips_bit_for_bit() {
        let (mut t, _a, _b, m) = two_sink_tree();
        let buf = t.add_buffer(Point::new(100.0, 40.0), BufferId(1));
        t.attach(buf, m, 40.0);
        let src = t.add_source(buf, BufferId(2));
        let back = ClockTree::from_nodes(t.nodes().to_vec()).expect("valid export");
        assert_eq!(back, t);
        assert_eq!(back.validate_under(src), t.validate_under(src));
    }

    #[test]
    fn from_nodes_rejects_structural_violations() {
        let (t, a, _b, m) = two_sink_tree();
        let good = t.nodes().to_vec();

        // Dangling parent link.
        let mut bad = good.clone();
        bad[a.index()].parent = Some(TreeNodeId(99));
        assert!(ClockTree::from_nodes(bad).is_err());

        // Child that does not point back.
        let mut bad = good.clone();
        bad[a.index()].parent = None;
        bad[a.index()].wire_to_parent_um = 0.0;
        assert!(ClockTree::from_nodes(bad)
            .unwrap_err()
            .to_string()
            .contains("point back"));

        // Sink with children (arity).
        let mut bad = good.clone();
        bad[a.index()].children = vec![m];
        assert!(ClockTree::from_nodes(bad).is_err());

        // Root carrying a parent wire.
        let mut bad = good.clone();
        bad[m.index()].wire_to_parent_um = 7.0;
        assert!(ClockTree::from_nodes(bad).is_err());

        // Non-finite geometry.
        let mut bad = good.clone();
        bad[a.index()].wire_to_parent_um = f64::NAN;
        assert!(ClockTree::from_nodes(bad).is_err());

        // A two-joint parent cycle detached from the real tree.
        let mut bad = good.clone();
        let i = bad.len();
        bad.push(TreeNode {
            kind: NodeKind::Joint,
            location: Point::new(1.0, 1.0),
            parent: Some(TreeNodeId(i + 1)),
            wire_to_parent_um: 1.0,
            children: vec![TreeNodeId(i + 1)],
        });
        bad.push(TreeNode {
            kind: NodeKind::Joint,
            location: Point::new(2.0, 2.0),
            parent: Some(TreeNodeId(i)),
            wire_to_parent_um: 1.0,
            children: vec![TreeNodeId(i)],
        });
        assert!(ClockTree::from_nodes(bad)
            .unwrap_err()
            .to_string()
            .contains("cycle"));
    }
}
