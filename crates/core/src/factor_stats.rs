//! Per-factor statistics backing the Kronecker formulas.
//!
//! The general (both-factors-loopy) formulas of §III-B/§III-C combine, per
//! factor `X`, four per-vertex terms and the slot-aligned `X ∘ X²`. All of
//! them come from one pass over the factor's adjacency: each stored pair
//! `{i, j}` is intersected once, by the `kron_triangles::slice` merge
//! kernel, and the count fills both slots `(i, j)` and `(j, i)`;
//! `diag(X³)` is the row sum of those intersections. No matrix
//! product is ever formed on the factors here (the `kron-sparse`
//! evaluation of the same quantities is kept as a test oracle in
//! `kron-triangles::matrix_oracle`).

use kron_graph::Graph;
use kron_triangles::slice::merge_by;
use rayon::prelude::*;

/// The terms of one factor `X` that the general formulas consume. The
/// vertex formula is
/// `t_C = ½[diag(A³)⊗diag(B³) − 2·diag(A²D_A)⊗diag(B²D_B)
///          − diag(A D_A A)⊗diag(B D_B B) + 2·diag(D_A)⊗diag(D_B)]`,
/// the edge formula
/// `Δ_C = (A∘A²)⊗(B∘B²) − (D_A A)⊗(D_B B) − (A D_A)⊗(B D_B)
///        + 2·D_A⊗D_B − (D_A∘A²)⊗(D_B∘B²)`.
/// Of the edge terms only `(X ∘ X²)` needs precomputation; the other four
/// are O(1) functions of the loop indicators at query time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct FactorTerms {
    /// Slot-aligned `|row(i) ∩ row(j)|` (= `(X ∘ X²)` on the stored
    /// pattern, loops included).
    pub had2: Vec<u64>,
    /// `diag(X³)_i` — closed 3-walks, loop walks included: the sum of
    /// `had2` over row `i`.
    pub diag3: Vec<u64>,
    /// `diag(X² D_X)_i = s_i · rowlen_i`.
    pub v2: Vec<u64>,
    /// `diag(X D_X X)_i` — adjacency entries of `i` that carry a loop.
    pub v3: Vec<u64>,
    /// `diag(D_X)_i` — 1 iff `i` has a self loop.
    pub s: Vec<u64>,
    /// Adjacency-row length (degree + loop).
    pub rowlen: Vec<u64>,
}

impl FactorTerms {
    pub fn compute(g: &Graph) -> Self {
        let n = g.num_vertices() as u32;
        let offsets = g.offsets();
        // `|row(i) ∩ row(j)|` is symmetric: merge each stored pair once,
        // for the entries `j ≥ i` of each row, in slot order…
        let upper: Vec<u64> = (0..n)
            .into_par_iter()
            .flat_map_iter(|i| {
                let ri = g.adj_row(i);
                ri[ri.partition_point(|&j| j < i)..].iter().map(move |&j| {
                    let mut common = 0;
                    merge_by(ri, g.adj_row(j), u32::cmp, |_, _| common += 1);
                    common
                })
            })
            .collect();
        // …and mirror each into slot `(j, i)`. Row `j`'s entries below `j`
        // are exactly the `i < j` met here, in ascending order, so a
        // cursor per row finds their slots.
        let mut had2 = vec![0; g.neighbor_array().len()];
        let mut below = offsets[..n as usize].to_vec();
        let mut counts = upper.into_iter();
        for i in 0..n {
            let ri = g.adj_row(i);
            let diag = ri.partition_point(|&j| j < i);
            for (k, &j) in ri.iter().enumerate().skip(diag) {
                let common = counts.next().expect("one count per upper entry");
                had2[offsets[i as usize] + k] = common;
                if j != i {
                    had2[below[j as usize]] = common;
                    below[j as usize] += 1;
                }
            }
        }
        let diag3 = (0..n as usize)
            .map(|i| had2[offsets[i]..offsets[i + 1]].iter().sum())
            .collect();
        let s: Vec<u64> = (0..n).map(|i| u64::from(g.has_self_loop(i))).collect();
        let rowlen: Vec<u64> = (0..n).map(|i| g.adj_row(i).len() as u64).collect();
        let v2 = s.iter().zip(&rowlen).map(|(s, r)| s * r).collect();
        let v3 = (0..n)
            .map(|i| g.adj_row(i).iter().map(|&j| s[j as usize]).sum())
            .collect();
        Self {
            had2,
            diag3,
            v2,
            v3,
            s,
            rowlen,
        }
    }

    /// Sums of the vertex terms, for the closed-form `τ(C)`.
    pub fn sums(&self) -> (u128, u128, u128, u128) {
        let f = |v: &[u64]| v.iter().map(|&x| x as u128).sum();
        (f(&self.diag3), f(&self.v2), f(&self.v3), f(&self.s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_triangles::matrix_oracle;

    fn check(g: &Graph) {
        let terms = FactorTerms::compute(g);
        // diag(X³) against the SpGEMM oracle
        assert_eq!(terms.diag3, matrix_oracle::diag_cubed(g));
        // v2 = diag(X²)∘s, with diag(X²)_i = rowlen_i for symmetric X
        for i in 0..g.num_vertices() as u32 {
            let expect = if g.has_self_loop(i) {
                g.adj_row(i).len() as u64
            } else {
                0
            };
            assert_eq!(terms.v2[i as usize], expect);
        }
        // had2 against the masked-SpGEMM oracle
        let oracle = matrix_oracle::hadamard_squared(g);
        for (i, j) in g.adjacency_entries() {
            let slot = g.edge_slot(i, j).unwrap();
            assert_eq!(
                terms.had2[slot],
                oracle.get(i as usize, j as usize),
                "(X∘X²)({i},{j})"
            );
        }
    }

    /// A random graph on 2..18 vertices: each pair an edge with
    /// probability 0.4, each vertex looped with probability `loops`.
    fn random_graph(rng: &mut rand::rngs::StdRng, loops: f64) -> Graph {
        use rand::prelude::*;
        let n = rng.gen_range(2..18);
        let mut edges: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j)))
            .filter(|_| rng.gen_bool(0.4))
            .collect();
        for v in 0..n as u32 {
            if rng.gen_bool(loops) {
                edges.push((v, v));
            }
        }
        Graph::from_edges(n, edges)
    }

    #[test]
    fn matches_matrix_oracle_on_random_graphs() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(51);
        for _ in 0..12 {
            check(&random_graph(&mut rng, 0.4));
        }
    }

    #[test]
    fn each_pair_merged_once_fills_every_slot_as_a_merge_per_slot_does() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(52);
        for loops in [0.0, 0.5, 1.0] {
            for _ in 0..16 {
                let g = random_graph(&mut rng, loops);
                let per_slot: Vec<u64> = (0..g.num_vertices() as u32)
                    .flat_map(|i| {
                        let ri = g.adj_row(i);
                        ri.iter().map(|&j| {
                            let mut common = 0;
                            merge_by(ri, g.adj_row(j), u32::cmp, |_, _| common += 1);
                            common
                        })
                    })
                    .collect();
                let terms = FactorTerms::compute(&g);
                assert_eq!(terms.had2, per_slot, "loops {loops}: {g:?}");
                let offsets = g.offsets();
                for (i, &d) in terms.diag3.iter().enumerate() {
                    assert_eq!(d, per_slot[offsets[i]..offsets[i + 1]].iter().sum());
                }
            }
        }
    }

    #[test]
    fn looped_clique_closed_forms() {
        // J_n: diag(J³) = n², v2 = n, v3 = n, s = 1
        let n = 6usize;
        let j = Graph::from_edges(
            n,
            (0..n as u32).flat_map(|i| (i..n as u32).map(move |j| (i, j))),
        );
        let t = FactorTerms::compute(&j);
        assert!(t.diag3.iter().all(|&x| x == (n * n) as u64));
        assert!(t.v2.iter().all(|&x| x == n as u64));
        assert!(t.v3.iter().all(|&x| x == n as u64));
        assert!(t.s.iter().all(|&x| x == 1));
        assert!(t.rowlen.iter().all(|&x| x == n as u64));
    }

    #[test]
    fn loop_free_terms_vanish() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]);
        let t = FactorTerms::compute(&g);
        assert!(t.v2.iter().all(|&x| x == 0));
        assert!(t.v3.iter().all(|&x| x == 0));
        assert!(t.s.iter().all(|&x| x == 0));
        // diag(X³) = 2·t for loop-free graphs
        assert_eq!(t.diag3, vec![2, 2, 2, 0]);
    }
}
