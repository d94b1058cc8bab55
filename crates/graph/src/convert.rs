//! Lossless conversion between graphs and `kron_sparse::CsrMatrix`.
//!
//! Every statistic in the workspace is checked against its linear-algebra
//! definition; these conversions are the bridge.

use crate::{DiGraph, Graph};
use kron_sparse::CsrMatrix;

impl Graph {
    /// The adjacency matrix with unit values (`A ∈ 𝔹^{n×n}` in the paper).
    pub fn to_csr(&self) -> CsrMatrix<u64> {
        let n = self.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for v in 0..n as u32 {
            offsets.push(offsets.last().unwrap() + self.adj_row(v).len());
        }
        CsrMatrix::try_from_parts(
            n,
            n,
            offsets,
            self.neighbor_array().to_vec(),
            vec![1; self.neighbor_array().len()],
        )
        .expect("graph adjacency is valid CSR")
    }

    /// Reconstruct a graph from a symmetric 0/1 pattern.
    ///
    /// # Panics
    /// Panics if the matrix is not square or not symmetric in pattern.
    pub fn from_csr<T: kron_sparse::Scalar>(m: &CsrMatrix<T>) -> Self {
        assert_eq!(m.nrows(), m.ncols(), "adjacency must be square");
        let mut edges = Vec::with_capacity(m.nnz());
        for (i, j, _) in m.iter() {
            assert!(m.get(j, i) != T::ZERO, "pattern not symmetric at ({i},{j})");
            if i <= j {
                edges.push((i as u32, j as u32));
            }
        }
        Graph::from_edges(m.nrows(), edges)
    }
}

impl DiGraph {
    /// The (possibly nonsymmetric) adjacency matrix with unit values.
    pub fn to_csr(&self) -> CsrMatrix<u64> {
        CsrMatrix::from_triplets(
            self.num_vertices(),
            self.num_vertices(),
            self.arcs().map(|(u, v)| (u as usize, v as usize, 1u64)),
        )
    }

    /// Reconstruct a digraph from any non-zero pattern.
    pub fn from_csr<T: kron_sparse::Scalar>(m: &CsrMatrix<T>) -> Self {
        assert_eq!(m.nrows(), m.ncols(), "adjacency must be square");
        DiGraph::from_arcs(m.nrows(), m.iter().map(|(i, j, _)| (i as u32, j as u32)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_roundtrip() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (3, 3)]);
        let m = g.to_csr();
        assert_eq!(m.nnz() as u64, g.nnz());
        assert!(m.is_symmetric());
        assert_eq!(Graph::from_csr(&m), g);
    }

    #[test]
    fn degree_matches_matrix_row_sums_after_loop_removal() {
        let g = Graph::from_edges(3, [(0, 0), (0, 1), (1, 2)]);
        let m = g.to_csr();
        // d_A = (A − I∘A)·1
        let d = m.drop_diagonal().row_sums();
        assert_eq!(d, g.degree_vector());
    }

    #[test]
    fn digraph_roundtrip() {
        let d = DiGraph::from_arcs(3, [(0, 1), (1, 0), (1, 2)]);
        let m = d.to_csr();
        assert_eq!(m.nnz() as u64, d.num_arcs());
        assert!(!m.is_symmetric());
        assert_eq!(DiGraph::from_csr(&m), d);
    }

    #[test]
    fn reciprocal_part_matches_hadamard_transpose() {
        // A_r = Aᵗ ∘ A (Def. 9)
        let d = DiGraph::from_arcs(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (0, 3)]);
        let a = d.to_csr();
        let ar = a.transpose().hadamard_mul(&a);
        assert_eq!(ar, d.reciprocal_part().to_csr());
        // A_d = A − A_r: check pattern partition
        let ad = d.directed_part().to_csr();
        assert_eq!(ar.add(&ad), a);
    }

    #[test]
    #[should_panic(expected = "not symmetric")]
    fn asymmetric_pattern_rejected() {
        let m = CsrMatrix::<u64>::from_triplets(2, 2, [(0, 1, 1)]);
        let _ = Graph::from_csr(&m);
    }
}
