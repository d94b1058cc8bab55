//! Vertex-labeled graphs (the paper's §V: `G(V, E, L, f)`).

use crate::Graph;

/// A vertex label ("color" in the paper's Fig. 6). Labels are dense
/// `0..num_labels`.
pub type Label = u16;

/// An undirected graph whose vertices carry labels from `0..num_labels`.
///
/// The labeled Kronecker construction of §V inherits labels from the left
/// factor: `f_C(p) = f_A(α(p))`; see `kron::labeled`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabeledGraph {
    graph: Graph,
    labels: Vec<Label>,
    num_labels: usize,
}

impl LabeledGraph {
    /// Attach labels to a graph.
    ///
    /// # Panics
    /// Panics if `labels.len() != n` or any label is `>= num_labels`.
    pub fn new(graph: Graph, labels: Vec<Label>, num_labels: usize) -> Self {
        assert_eq!(
            labels.len(),
            graph.num_vertices(),
            "one label per vertex required"
        );
        assert!(
            labels.iter().all(|&l| (l as usize) < num_labels),
            "label out of range"
        );
        Self {
            graph,
            labels,
            num_labels,
        }
    }

    /// The underlying unlabeled graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of distinct labels `|L|`.
    #[inline]
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// The label (color) of vertex `v` — the paper's `f(v)`.
    #[inline]
    pub fn label(&self, v: u32) -> Label {
        self.labels[v as usize]
    }

    /// The full label vector.
    #[inline]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Histogram of label usage (length `num_labels`).
    pub fn label_histogram(&self) -> Vec<u64> {
        let mut h = vec![0u64; self.num_labels];
        for &l in &self.labels {
            h[l as usize] += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LabeledGraph {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]);
        LabeledGraph::new(g, vec![0, 1, 2, 1], 3)
    }

    #[test]
    fn basic_access() {
        let lg = sample();
        assert_eq!(lg.num_labels(), 3);
        assert_eq!(lg.label(2), 2);
        assert_eq!(lg.labels(), &[0, 1, 2, 1]);
        assert_eq!(lg.graph().num_edges(), 4);
    }

    #[test]
    fn filter_support() {
        let lg = sample();
        assert_eq!(lg.label_histogram(), vec![1, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "one label per vertex")]
    fn length_checked() {
        let g = Graph::from_edges(2, [(0, 1)]);
        let _ = LabeledGraph::new(g, vec![0], 1);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn range_checked() {
        let g = Graph::from_edges(2, [(0, 1)]);
        let _ = LabeledGraph::new(g, vec![0, 5], 3);
    }
}
