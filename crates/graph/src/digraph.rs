//! Directed graphs with the reciprocal/directed edge decomposition of the
//! paper's §IV (following Seshadhri et al.'s directed-closure model).

use crate::Graph;

/// A directed graph stored as paired out-/in-adjacency CSR structures.
///
/// Both neighbor rows are sorted and duplicate-free. [`DiGraph::num_arcs`]
/// counts adjacency-matrix non-zeros (each directed arc once; a reciprocal
/// pair contributes two; a self loop one).
#[derive(Clone, PartialEq, Eq)]
pub struct DiGraph {
    out_offsets: Vec<usize>,
    out_neighbors: Vec<u32>,
    in_offsets: Vec<usize>,
    in_neighbors: Vec<u32>,
    num_arcs: u64,
    num_self_loops: u64,
}

impl DiGraph {
    /// A digraph with `n` vertices and no arcs.
    pub fn empty(n: usize) -> Self {
        Self {
            out_offsets: vec![0; n + 1],
            out_neighbors: Vec::new(),
            in_offsets: vec![0; n + 1],
            in_neighbors: Vec::new(),
            num_arcs: 0,
            num_self_loops: 0,
        }
    }

    /// Build from an arc iterator `(src, dst)`; duplicates are merged.
    ///
    /// # Panics
    /// Panics if an endpoint is `>= n`.
    pub fn from_arcs<I>(n: usize, arcs: I) -> Self
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let mut pairs: Vec<(u32, u32)> = arcs
            .into_iter()
            .inspect(|&(u, v)| {
                assert!(
                    (u as usize) < n && (v as usize) < n,
                    "arc ({u},{v}) out of bounds for {n} vertices"
                );
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();

        let mut out_offsets = vec![0usize; n + 1];
        let mut in_offsets = vec![0usize; n + 1];
        let mut loops = 0u64;
        for &(u, v) in &pairs {
            out_offsets[u as usize + 1] += 1;
            in_offsets[v as usize + 1] += 1;
            if u == v {
                loops += 1;
            }
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
            in_offsets[i + 1] += in_offsets[i];
        }
        let out_neighbors: Vec<u32> = pairs.iter().map(|&(_, v)| v).collect();
        let mut in_neighbors = vec![0u32; pairs.len()];
        let mut next = in_offsets.clone();
        for &(u, v) in &pairs {
            in_neighbors[next[v as usize]] = u;
            next[v as usize] += 1;
        }
        Self {
            out_offsets,
            out_neighbors,
            in_offsets,
            in_neighbors,
            num_arcs: pairs.len() as u64,
            num_self_loops: loops,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of stored arcs (adjacency non-zeros).
    #[inline]
    pub fn num_arcs(&self) -> u64 {
        self.num_arcs
    }

    /// Number of self loops.
    #[inline]
    pub fn num_self_loops(&self) -> u64 {
        self.num_self_loops
    }

    /// Out-neighbors of `v` (sorted).
    #[inline]
    pub fn out_row(&self, v: u32) -> &[u32] {
        &self.out_neighbors[self.out_offsets[v as usize]..self.out_offsets[v as usize + 1]]
    }

    /// In-neighbors of `v` (sorted).
    #[inline]
    pub fn in_row(&self, v: u32) -> &[u32] {
        &self.in_neighbors[self.in_offsets[v as usize]..self.in_offsets[v as usize + 1]]
    }

    /// Out-degree `(A·1)_v` — counts a self loop.
    #[inline]
    pub fn out_degree(&self, v: u32) -> u64 {
        self.out_row(v).len() as u64
    }

    /// In-degree `(Aᵗ·1)_v` — counts a self loop.
    #[inline]
    pub fn in_degree(&self, v: u32) -> u64 {
        self.in_row(v).len() as u64
    }

    /// Whether the arc `u→v` exists.
    #[inline]
    pub fn has_arc(&self, u: u32, v: u32) -> bool {
        self.out_row(u).binary_search(&v).is_ok()
    }

    /// Iterate over all arcs `(src, dst)`.
    pub fn arcs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_vertices() as u32)
            .flat_map(move |u| self.out_row(u).iter().copied().map(move |v| (u, v)))
    }

    /// Whether every arc is reciprocated (the adjacency matrix is symmetric).
    pub fn is_symmetric(&self) -> bool {
        self.arcs().all(|(u, v)| self.has_arc(v, u))
    }

    /// The reciprocal part `A_r = Aᵗ ∘ A` as an *undirected* graph
    /// (Def. 9). Self loops are reciprocal by definition.
    pub fn reciprocal_part(&self) -> Graph {
        Graph::from_edges(
            self.num_vertices(),
            self.arcs().filter(|&(u, v)| u <= v && self.has_arc(v, u)),
        )
    }

    /// The directed (non-reciprocated) part `A_d = A − A_r` (Def. 9).
    pub fn directed_part(&self) -> DiGraph {
        DiGraph::from_arcs(
            self.num_vertices(),
            self.arcs().filter(|&(u, v)| !self.has_arc(v, u)),
        )
    }

    /// The undirected version `A_u = A + A_dᵗ` (Def. 9): forget directions.
    pub fn undirected_closure(&self) -> Graph {
        Graph::from_edges(self.num_vertices(), self.arcs())
    }

    /// Build a digraph from an undirected graph (every edge reciprocal).
    pub fn from_undirected(g: &Graph) -> Self {
        Self::from_arcs(g.num_vertices(), g.adjacency_entries())
    }

    /// Verify structural invariants (sortedness, out/in consistency).
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.num_vertices();
        if self.in_offsets.len() != n + 1 {
            return Err("out/in vertex count mismatch".into());
        }
        if self.out_neighbors.len() != self.in_neighbors.len() {
            return Err("out/in nnz mismatch".into());
        }
        if self.num_arcs != self.out_neighbors.len() as u64 {
            return Err("arc count mismatch".into());
        }
        let mut loops = 0u64;
        for v in 0..n as u32 {
            for row in [self.out_row(v), self.in_row(v)] {
                for w in row.windows(2) {
                    if w[0] >= w[1] {
                        return Err(format!("row {v} not strictly increasing"));
                    }
                }
                if let Some(&last) = row.last() {
                    if last as usize >= n {
                        return Err(format!("row {v} neighbor out of bounds"));
                    }
                }
            }
            if self.out_row(v).binary_search(&v).is_ok() {
                loops += 1;
            }
            for &u in self.out_row(v) {
                if self.in_row(u).binary_search(&v).is_err() {
                    return Err(format!("arc ({v},{u}) missing from in-adjacency"));
                }
            }
        }
        if loops != self.num_self_loops {
            return Err("self-loop count mismatch".into());
        }
        Ok(())
    }
}

impl std::fmt::Debug for DiGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DiGraph(n={}, arcs={}, loops={})",
            self.num_vertices(),
            self.num_arcs,
            self.num_self_loops
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0→1, 1→0 (reciprocal pair), 1→2, 2→0, loop at 3.
    fn sample() -> DiGraph {
        DiGraph::from_arcs(4, [(0, 1), (1, 0), (1, 2), (2, 0), (3, 3)])
    }

    #[test]
    fn counts_and_rows() {
        let g = sample();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_arcs(), 5);
        assert_eq!(g.num_self_loops(), 1);
        assert_eq!(g.out_row(1), &[0, 2]);
        assert_eq!(g.in_row(0), &[1, 2]);
        assert_eq!(g.out_degree(1), 2);
        assert_eq!(g.in_degree(0), 2);
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn decomposition_partitions_arcs() {
        let g = sample();
        let r = g.reciprocal_part();
        let d = g.directed_part();
        // A = A_r + A_d with disjoint patterns (Def. 9)
        assert_eq!(
            2 * r.num_edges() + r.num_self_loops() + d.num_arcs(),
            g.num_arcs()
        );
        assert!(r.has_edge(0, 1));
        assert!(r.has_self_loop(3));
        assert!(d.has_arc(1, 2) && !d.has_arc(2, 1));
        assert!(d.has_arc(2, 0));
        assert_eq!(d.num_self_loops(), 0);
        // directed part has no reciprocal pair
        for (u, v) in d.arcs() {
            assert!(!d.has_arc(v, u) || u == v);
        }
    }

    #[test]
    fn undirected_closure_forgets_direction() {
        let g = sample();
        let u = g.undirected_closure();
        assert_eq!(u.num_edges(), 3); // {0,1},{1,2},{0,2}
        assert_eq!(u.num_self_loops(), 1);
        assert!(u.has_edge(0, 2));
    }

    #[test]
    fn from_undirected_is_symmetric() {
        let ug = Graph::from_edges(3, [(0, 1), (1, 2), (2, 2)]);
        let dg = DiGraph::from_undirected(&ug);
        assert!(dg.is_symmetric());
        assert_eq!(dg.num_arcs(), ug.nnz());
        assert_eq!(dg.undirected_closure(), ug);
    }

    #[test]
    fn duplicates_merge() {
        let g = DiGraph::from_arcs(2, [(0, 1), (0, 1), (0, 1)]);
        assert_eq!(g.num_arcs(), 1);
    }

    #[test]
    fn empty() {
        let g = DiGraph::empty(3);
        assert_eq!(g.num_arcs(), 0);
        assert!(g.is_symmetric());
        assert!(g.check_invariants().is_ok());
    }
}
