//! Shared workload builders for the `expt_*` experiment binaries (one
//! per table/figure of the paper, each named after it:
//! `src/bin/expt_table1.rs`, `expt_fig7.rs`, …).

use kron_graph::{DiGraph, Graph, Label, LabeledGraph};
use rand::prelude::*;

/// The standard web-like factor, the `web-NotreDame` stand-in:
/// Holme–Kim with `m = 3`, `p_t = 0.75`, fixed seed.
pub fn web_factor(n: usize) -> Graph {
    kron_gen::holme_kim(n, 3, 0.75, 2018)
}

/// A directed web-like factor: orient the edges of [`web_factor`], keeping
/// `p_recip` of them reciprocal.
pub fn directed_web_factor(n: usize, p_recip: f64, seed: u64) -> DiGraph {
    let base = web_factor(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arcs = Vec::with_capacity(2 * base.num_edges() as usize);
    for (u, v) in base.edges() {
        if rng.gen_bool(p_recip) {
            arcs.push((u, v));
            arcs.push((v, u));
        } else if rng.gen_bool(0.5) {
            arcs.push((u, v));
        } else {
            arcs.push((v, u));
        }
    }
    DiGraph::from_arcs(base.num_vertices(), arcs)
}

/// A labeled web-like factor with `l` uniformly assigned labels.
pub fn labeled_web_factor(n: usize, l: usize, seed: u64) -> LabeledGraph {
    let base = web_factor(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let labels = (0..n).map(|_| rng.gen_range(0..l as Label)).collect();
    LabeledGraph::new(base, labels, l)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factories_are_deterministic() {
        assert_eq!(web_factor(200), web_factor(200));
        assert_eq!(
            directed_web_factor(200, 0.4, 1).num_arcs(),
            directed_web_factor(200, 0.4, 1).num_arcs()
        );
        assert_eq!(
            labeled_web_factor(200, 3, 2).labels(),
            labeled_web_factor(200, 3, 2).labels()
        );
    }
}
