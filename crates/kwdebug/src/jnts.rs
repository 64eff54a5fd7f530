//! Join networks of tuple sets (JNTS).
//!
//! A JNTS is the structural form of one lattice node: a tree whose vertices
//! are *relation copies* (`R_0` = the free tuple set carrying the empty
//! keyword, `R_1..R_{m+1}` = keyword-bindable copies) and whose edges are
//! key/foreign-key joins from the schema graph. The SQL query of a lattice
//! node is fully determined by its JNTS plus the runtime keyword binding.

use relengine::{ColId, Database, FkId, TableId};

use crate::schema_graph::Incidence;

/// Copy index of a relation inside the lattice. Copy `0` is the free copy —
/// the tuple set bound to the empty keyword; copies `1..=maxJoins+1` are
/// keyword-bindable.
pub type CopyIdx = u8;

/// A relation copy: one vertex of a JNTS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleSet {
    /// Underlying table.
    pub table: TableId,
    /// Copy index; `0` means free.
    pub copy: CopyIdx,
}

impl TupleSet {
    /// Creates a tuple set.
    pub fn new(table: TableId, copy: CopyIdx) -> Self {
        TupleSet { table, copy }
    }

    /// Whether this is a free copy (bound to the empty keyword).
    pub fn is_free(&self) -> bool {
        self.copy == 0
    }
}

/// One join edge of a JNTS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JntsEdge {
    /// Endpoint vertex index.
    pub a: u8,
    /// Endpoint vertex index.
    pub b: u8,
    /// The foreign key realizing the join.
    pub fk: FkId,
    /// Whether vertex `a` is on the referencing (`from`) side of `fk`.
    /// Needed to distinguish the two orientations of a self-relationship
    /// (e.g. `cites.citing` vs `cites.cited`).
    pub a_is_from: bool,
}

impl JntsEdge {
    /// The join columns of vertex `a` and of vertex `b` in `db`.
    pub fn join_cols(&self, db: &Database) -> (ColId, ColId) {
        let fk = db.foreign_key(self.fk);
        if self.a_is_from { (fk.from_col, fk.to_col) } else { (fk.to_col, fk.from_col) }
    }
}

/// A join network of tuple sets: a tree of relation copies.
///
/// Constructed via [`Jnts::single`] and [`Jnts::extend`], both of which
/// preserve tree-ness by construction, so no separate validation is needed on
/// the hot path ([`Jnts::validate`] exists for tests).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Jnts {
    nodes: Vec<TupleSet>,
    edges: Vec<JntsEdge>,
}

impl Jnts {
    /// A single-vertex network (a base-level lattice node).
    pub fn single(ts: TupleSet) -> Self {
        Jnts { nodes: vec![ts], edges: Vec::new() }
    }

    /// Extends the network by joining a new vertex `(incidence.other, copy)`
    /// to the existing vertex `at` along `incidence`.
    pub fn extend(&self, at: usize, incidence: Incidence, copy: CopyIdx) -> Self {
        debug_assert!(at < self.nodes.len());
        let mut nodes = self.nodes.clone();
        let mut edges = self.edges.clone();
        let new_idx = nodes.len() as u8;
        nodes.push(TupleSet::new(incidence.other, copy));
        edges.push(JntsEdge {
            a: at as u8,
            b: new_idx,
            fk: incidence.fk,
            a_is_from: incidence.local_is_from,
        });
        Jnts { nodes, edges }
    }

    /// Reassembles a network from raw vertices and edges (deserialization),
    /// returning `None` unless they form a valid tree.
    pub fn from_parts(nodes: Vec<TupleSet>, edges: Vec<JntsEdge>) -> Option<Self> {
        let j = Jnts { nodes, edges };
        j.validate().then_some(j)
    }

    /// The vertices.
    pub fn nodes(&self) -> &[TupleSet] {
        &self.nodes
    }

    /// The edges.
    pub fn edges(&self) -> &[JntsEdge] {
        &self.edges
    }

    /// Number of vertices. Equals the lattice level of this network.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of joins.
    pub fn join_count(&self) -> usize {
        self.edges.len()
    }

    /// Heap bytes held by this network's vertex and edge vectors (capacity,
    /// not length) — used by [`crate::lattice::Lattice::memory_footprint`].
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<TupleSet>()
            + self.edges.capacity() * std::mem::size_of::<JntsEdge>()
    }

    /// Degree of vertex `i`.
    pub fn degree(&self, i: usize) -> usize {
        self.edges
            .iter()
            .filter(|e| e.a as usize == i || e.b as usize == i)
            .count()
    }

    /// Whether the network contains the given relation copy.
    pub fn contains(&self, ts: TupleSet) -> bool {
        self.nodes.contains(&ts)
    }

    /// Whether vertex `at` already uses foreign key `fk` from its
    /// referencing side. Extending such a vertex with the same key again
    /// would force two neighbour tuples to be identical (the referencing
    /// column holds a single value), a degenerate network that DISCOVER-style
    /// candidate generation excludes.
    pub fn uses_fk_from(&self, at: usize, fk: FkId) -> bool {
        self.edges.iter().any(|e| {
            e.fk == fk
                && ((e.a as usize == at && e.a_is_from) || (e.b as usize == at && !e.a_is_from))
        })
    }

    /// Indices of vertices whose removal keeps the network connected
    /// (degree-1 vertices; all vertices for a single-vertex network).
    pub fn leaves(&self) -> Vec<usize> {
        if self.nodes.len() == 1 {
            return vec![0];
        }
        (0..self.nodes.len()).filter(|&i| self.degree(i) == 1).collect()
    }

    /// The network with leaf vertex `leaf` removed (indices re-packed).
    ///
    /// # Panics
    /// Panics if `leaf` is not a leaf or the network has a single vertex —
    /// both indicate internal misuse, not user input.
    pub fn remove_leaf(&self, leaf: usize) -> Self {
        assert!(self.nodes.len() > 1, "cannot remove the only vertex");
        assert_eq!(self.degree(leaf), 1, "vertex {leaf} is not a leaf");
        let mut nodes = Vec::with_capacity(self.nodes.len() - 1);
        let mut remap = vec![u8::MAX; self.nodes.len()];
        for (i, ts) in self.nodes.iter().enumerate() {
            if i != leaf {
                remap[i] = nodes.len() as u8;
                nodes.push(*ts);
            }
        }
        let edges = self
            .edges
            .iter()
            .filter(|e| e.a as usize != leaf && e.b as usize != leaf)
            .map(|e| JntsEdge {
                a: remap[e.a as usize],
                b: remap[e.b as usize],
                fk: e.fk,
                a_is_from: e.a_is_from,
            })
            .collect();
        Jnts { nodes, edges }
    }

    /// Checks tree invariants; used by tests and property checks.
    pub fn validate(&self) -> bool {
        if self.nodes.is_empty() || self.edges.len() != self.nodes.len() - 1 {
            return false;
        }
        let n = self.nodes.len();
        let mut adj = vec![Vec::new(); n];
        for e in &self.edges {
            let (a, b) = (e.a as usize, e.b as usize);
            if a >= n || b >= n || a == b {
                return false;
            }
            adj[a].push(b);
            adj[b].push(a);
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0];
        seen[0] = true;
        let mut cnt = 1;
        while let Some(v) = stack.pop() {
            for &u in &adj[v] {
                if !seen[u] {
                    seen[u] = true;
                    cnt += 1;
                    stack.push(u);
                }
            }
        }
        cnt == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inc(fk: FkId, other: TableId, local_is_from: bool) -> Incidence {
        Incidence { fk, other, local_is_from }
    }

    #[test]
    fn single_and_extend() {
        let j = Jnts::single(TupleSet::new(0, 1));
        assert_eq!(j.node_count(), 1);
        assert_eq!(j.join_count(), 0);
        assert!(j.validate());
        let j2 = j.extend(0, inc(0, 1, true), 0);
        assert_eq!(j2.node_count(), 2);
        assert_eq!(j2.join_count(), 1);
        assert!(j2.validate());
        assert!(j2.contains(TupleSet::new(1, 0)));
        assert!(!j2.contains(TupleSet::new(1, 1)));
    }

    #[test]
    fn leaves_and_degree() {
        // path: v0 - v1 - v2
        let j = Jnts::single(TupleSet::new(0, 1))
            .extend(0, inc(0, 1, true), 0)
            .extend(1, inc(1, 2, true), 1);
        assert_eq!(j.degree(0), 1);
        assert_eq!(j.degree(1), 2);
        assert_eq!(j.leaves(), vec![0, 2]);
        // star: v0 center
        let s = Jnts::single(TupleSet::new(0, 0))
            .extend(0, inc(0, 1, true), 1)
            .extend(0, inc(1, 2, true), 1);
        assert_eq!(s.leaves(), vec![1, 2]);
    }

    #[test]
    fn single_vertex_is_its_own_leaf() {
        assert_eq!(Jnts::single(TupleSet::new(3, 0)).leaves(), vec![0]);
    }

    #[test]
    fn remove_leaf_repacks_indices() {
        let j = Jnts::single(TupleSet::new(0, 1))
            .extend(0, inc(0, 1, true), 0)
            .extend(1, inc(1, 2, true), 1);
        let r = j.remove_leaf(0);
        assert_eq!(r.node_count(), 2);
        assert!(r.validate());
        assert_eq!(r.nodes()[0], TupleSet::new(1, 0));
        assert_eq!(r.nodes()[1], TupleSet::new(2, 1));
        assert_eq!(r.edges()[0].a, 0);
        assert_eq!(r.edges()[0].b, 1);
    }

    #[test]
    #[should_panic(expected = "not a leaf")]
    fn remove_non_leaf_panics() {
        let j = Jnts::single(TupleSet::new(0, 1))
            .extend(0, inc(0, 1, true), 0)
            .extend(1, inc(1, 2, true), 1);
        let _ = j.remove_leaf(1);
    }

    #[test]
    fn uses_fk_from_detects_degenerate_extension() {
        // writes(person_id, pub_id): vertex W joined to person via fk 0 where
        // W is the from side.
        let j = Jnts::single(TupleSet::new(2, 0)).extend(0, inc(0, 0, true), 1);
        assert!(j.uses_fk_from(0, 0)); // W already references person via fk 0
        assert!(!j.uses_fk_from(0, 1)); // different fk is fine
        assert!(!j.uses_fk_from(1, 0)); // person side is the "to" side
    }

    #[test]
    fn free_copy_flag() {
        assert!(TupleSet::new(0, 0).is_free());
        assert!(!TupleSet::new(0, 1).is_free());
    }

    #[test]
    fn validate_rejects_broken_graphs() {
        let good = Jnts::single(TupleSet::new(0, 0)).extend(0, inc(0, 1, true), 0);
        assert!(good.validate());
        // Forge a self-loop.
        let bad = Jnts {
            nodes: vec![TupleSet::new(0, 0), TupleSet::new(1, 0)],
            edges: vec![JntsEdge { a: 0, b: 0, fk: 0, a_is_from: true }],
        };
        assert!(!bad.validate());
        // Wrong edge count.
        let bad = Jnts { nodes: vec![TupleSet::new(0, 0), TupleSet::new(1, 0)], edges: vec![] };
        assert!(!bad.validate());
    }
}
