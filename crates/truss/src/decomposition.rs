//! The result type shared by both truss algorithms.

use std::collections::BTreeMap;

/// A complete truss decomposition: every non-loop edge with its trussness
/// (the largest `κ` such that the edge lies in a `κ`-truss; minimum 2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrussDecomposition {
    /// Undirected edges as `(u, v)` with `u < v`, sorted lexicographically.
    pub edges: Vec<(u32, u32)>,
    /// `trussness[i]` is the trussness of `edges[i]`.
    pub trussness: Vec<u32>,
}

impl TrussDecomposition {
    /// The trussness of a specific edge (either orientation), if present.
    pub fn trussness_of(&self, u: u32, v: u32) -> Option<u32> {
        let key = (u.min(v), u.max(v));
        self.edges
            .binary_search(&key)
            .ok()
            .map(|i| self.trussness[i])
    }

    /// The largest trussness present (2 for a triangle-free graph with
    /// edges; 0 for an edgeless graph).
    pub fn max_trussness(&self) -> u32 {
        self.trussness.iter().copied().max().unwrap_or(0)
    }

    /// Edges belonging to the `κ`-truss, i.e. `T^(κ)` of Def. 7
    /// (trussness ≥ κ).
    pub fn edges_in_truss(&self, k: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.edges
            .iter()
            .zip(&self.trussness)
            .filter(move |&(_, &t)| t >= k)
            .map(|(&e, _)| e)
    }

    /// Histogram of exact trussness values.
    pub fn histogram(&self) -> BTreeMap<u32, usize> {
        let mut h = BTreeMap::new();
        for &t in &self.trussness {
            *h.entry(t).or_insert(0) += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrussDecomposition {
        TrussDecomposition {
            edges: vec![(0, 1), (0, 2), (1, 2), (2, 3)],
            trussness: vec![3, 3, 3, 2],
        }
    }

    #[test]
    fn lookup_both_orientations() {
        let d = sample();
        assert_eq!(d.trussness_of(0, 1), Some(3));
        assert_eq!(d.trussness_of(1, 0), Some(3));
        assert_eq!(d.trussness_of(3, 2), Some(2));
        assert_eq!(d.trussness_of(0, 3), None);
    }

    #[test]
    fn truss_membership() {
        let d = sample();
        assert_eq!(d.max_trussness(), 3);
        assert_eq!(d.edges_in_truss(3).count(), 3);
        assert_eq!(d.edges_in_truss(2).count(), 4);
        assert_eq!(d.edges_in_truss(4).count(), 0);
        assert_eq!(d.histogram()[&2], 1);
    }

    #[test]
    fn empty() {
        let d = TrussDecomposition {
            edges: vec![],
            trussness: vec![],
        };
        assert_eq!(d.max_trussness(), 0);
        assert_eq!(d.edges_in_truss(2).count(), 0);
    }
}
