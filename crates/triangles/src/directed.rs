//! Directed triangle participation: the fifteen vertex types (Def. 10,
//! Fig. 4) and fifteen edge types (Def. 11, Fig. 5) of the paper.
//!
//! ## Convention
//!
//! The paper's Def. 10/11 give a matrix formula per type; we treat those
//! formulas as **normative**: they define the types. Each vertex type `τ` has a
//! *primary combo* `(X, Y, Z)` with `X, Y, Z ∈ {A_d, A_dᵗ, A_r}` such that
//! `t^(τ) = diag(X·Y·Z)` — halved for the three reversal-symmetric types —
//! where `diag(X·Y·Z)_i` counts closed walks `i → j → k → i` with
//! `X` relating `(i,j)`, `Y` relating `(j,k)`, `Z` relating `(k,i)`.
//!
//! A triangle corner produces two closed walks (one per traversal
//! direction) whose combos are mutual reversals `(X,Y,Z) ↔ (Zᵗ,Yᵗ,Xᵗ)`.
//! Exactly one of each pair appears in Def. 10 (both coincide for the
//! self-reversed types `sso`, `uuo`, `tto`, which carry the `½`). The
//! enumeration classifier below therefore counts a walk iff its combo is
//! primary, then halves the symmetric types — reproducing the formulas
//! bit-for-bit, which the tests verify against actual `kron-sparse` matrix
//! products.
//!
//! All functions require the digraph to be self-loop-free (`diag(A) = 0`),
//! the standing assumption of §IV.

use crate::slice::merge_by;
use kron_graph::{DiGraph, Graph};
use kron_sparse::{masked_spgemm, CsrMatrix};

/// How an ordered pair `(p, q)` relates to the arc set: `A_d(p,q) = 1`
/// ([`Rel::D`]), `A_dᵗ(p,q) = 1` ([`Rel::Dt`]), or `A_r(p,q) = 1`
/// ([`Rel::R`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rel {
    /// Directed forward: `p → q` only.
    D,
    /// Directed backward: `q → p` only.
    Dt,
    /// Reciprocal: both arcs present.
    R,
}

/// The fifteen directed-triangle types at a *vertex* (Fig. 4), named after
/// the paper's labels (`p` = `+`, `m` = `−`, `o` = `o`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum DirVertexType {
    SSp,
    SSo,
    SUp,
    SUo,
    SUm,
    STp,
    STo,
    STm,
    UUp,
    UUo,
    UTp,
    UTo,
    UTm,
    TTp,
    TTo,
}

impl DirVertexType {
    /// All fifteen types in a fixed order (the index order of the count
    /// arrays).
    pub const ALL: [Self; 15] = [
        Self::SSp,
        Self::SSo,
        Self::SUp,
        Self::SUo,
        Self::SUm,
        Self::STp,
        Self::STo,
        Self::STm,
        Self::UUp,
        Self::UUo,
        Self::UTp,
        Self::UTo,
        Self::UTm,
        Self::TTp,
        Self::TTo,
    ];

    /// Index into [`DirVertexType::ALL`].
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&t| t == self).unwrap()
    }

    /// The paper's label for the type.
    pub fn label(self) -> &'static str {
        match self {
            Self::SSp => "ss+",
            Self::SSo => "sso",
            Self::SUp => "su+",
            Self::SUo => "suo",
            Self::SUm => "su-",
            Self::STp => "st+",
            Self::STo => "sto",
            Self::STm => "st-",
            Self::UUp => "uu+",
            Self::UUo => "uuo",
            Self::UTp => "ut+",
            Self::UTo => "uto",
            Self::UTm => "ut-",
            Self::TTp => "tt+",
            Self::TTo => "tt-/tto",
        }
    }

    /// The primary combo `(X, Y, Z)` of the type's Def. 10 formula
    /// `diag(X·Y·Z)`.
    pub fn combo(self) -> (Rel, Rel, Rel) {
        use Rel::*;
        match self {
            Self::SSp => (Dt, D, D),  // diag(A_dᵗ A_d²)
            Self::SSo => (Dt, R, D),  // ½ diag(A_dᵗ A_r A_d)
            Self::SUp => (R, D, D),   // diag(A_r A_d²)
            Self::SUo => (R, R, D),   // diag(A_r² A_d)
            Self::SUm => (R, Dt, D),  // diag(A_r A_dᵗ A_d)
            Self::STp => (D, D, D),   // diag(A_d³)
            Self::STo => (D, R, D),   // diag(A_d A_r A_d)
            Self::STm => (D, Dt, D),  // diag(A_d A_dᵗ A_d)
            Self::UUp => (R, D, R),   // diag(A_r A_d A_r)
            Self::UUo => (R, R, R),   // ½ diag(A_r³)
            Self::UTp => (D, D, R),   // diag(A_d² A_r)
            Self::UTo => (D, R, R),   // diag(A_d A_r²)
            Self::UTm => (D, Dt, R),  // diag(A_d A_dᵗ A_r)
            Self::TTp => (D, Dt, Dt), // diag(A_d (A_dᵗ)²)
            Self::TTo => (D, R, Dt),  // ½ diag(A_d A_r A_dᵗ)
        }
    }

    /// Whether the Def. 10 formula carries a `½` (the combo is its own
    /// reversal, so both closed walks of a corner match it).
    pub fn halved(self) -> bool {
        matches!(self, Self::SSo | Self::UUo | Self::TTo)
    }
}

/// The fifteen directed-triangle types at an *edge* (Fig. 5): the first
/// character is the central edge (`+` directed, `o` reciprocal), the next
/// two the wedge arcs through the third vertex.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum DirEdgeType {
    Ppp,
    Ppm,
    Ppo,
    Pmp,
    Pmm,
    Pmo,
    Pop,
    Pom,
    Poo,
    Opp,
    Opm,
    Opo,
    Omp,
    Omo,
    Ooo,
}

impl DirEdgeType {
    /// All fifteen types in a fixed order.
    pub const ALL: [Self; 15] = [
        Self::Ppp,
        Self::Ppm,
        Self::Ppo,
        Self::Pmp,
        Self::Pmm,
        Self::Pmo,
        Self::Pop,
        Self::Pom,
        Self::Poo,
        Self::Opp,
        Self::Opm,
        Self::Opo,
        Self::Omp,
        Self::Omo,
        Self::Ooo,
    ];

    /// Index into [`DirEdgeType::ALL`].
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&t| t == self).unwrap()
    }

    /// The paper's label.
    pub fn label(self) -> &'static str {
        match self {
            Self::Ppp => "+++",
            Self::Ppm => "++-",
            Self::Ppo => "++o",
            Self::Pmp => "+-+",
            Self::Pmm => "+--",
            Self::Pmo => "+-o",
            Self::Pop => "+o+",
            Self::Pom => "+o-",
            Self::Poo => "+oo",
            Self::Opp => "o++",
            Self::Opm => "o+-",
            Self::Opo => "o+o",
            Self::Omp => "o-+",
            Self::Omo => "o-o",
            Self::Ooo => "ooo",
        }
    }

    /// `(central, wedge₁, wedge₂)` of the Def. 11 formula
    /// `central ∘ (wedge₁ · wedge₂)`, with `central ∈ {A_d, A_r}` encoded
    /// as `Rel::D` / `Rel::R`.
    pub fn combo(self) -> (Rel, Rel, Rel) {
        use Rel::*;
        match self {
            Self::Ppp => (D, D, D),   // A_d ∘ (A_d²)
            Self::Ppm => (D, Dt, D),  // A_d ∘ (A_dᵗ A_d)
            Self::Ppo => (D, R, D),   // A_d ∘ (A_r A_d)
            Self::Pmp => (D, D, Dt),  // A_d ∘ (A_d A_dᵗ)
            Self::Pmm => (D, Dt, Dt), // A_d ∘ (A_dᵗ)²
            Self::Pmo => (D, R, Dt),  // A_d ∘ (A_r A_dᵗ)
            Self::Pop => (D, D, R),   // A_d ∘ (A_d A_r)
            Self::Pom => (D, Dt, R),  // A_d ∘ (A_dᵗ A_r)
            Self::Poo => (D, R, R),   // A_d ∘ (A_r²)
            Self::Opp => (R, D, D),   // A_r ∘ (A_d²)
            Self::Opm => (R, Dt, D),  // A_r ∘ (A_dᵗ A_d)
            Self::Opo => (R, R, D),   // A_r ∘ (A_r A_d)
            Self::Omp => (R, D, Dt),  // A_r ∘ (A_d A_dᵗ)
            Self::Omo => (R, R, Dt),  // A_r ∘ (A_r A_dᵗ)
            Self::Ooo => (R, R, R),   // A_r ∘ (A_r²)
        }
    }
}

/// Per-vertex counts for all fifteen directed vertex types.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirVertexCounts {
    counts: Vec<Vec<u64>>,
}

impl DirVertexCounts {
    /// The count vector `t^(τ)` for one type.
    pub fn get(&self, ty: DirVertexType) -> &[u64] {
        &self.counts[ty.index()]
    }

    /// Sum over all vertices of one type's counts.
    pub fn total(&self, ty: DirVertexType) -> u64 {
        self.get(ty).iter().sum()
    }

    /// Sum over *all* types and vertices — equals `3·τ(A_u)`.
    pub fn grand_total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }
}

/// Per-edge matrices for all fifteen directed edge types.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirEdgeCounts {
    mats: Vec<CsrMatrix<u64>>,
}

impl DirEdgeCounts {
    /// The matrix `Δ^(τ)` for one type.
    pub fn get(&self, ty: DirEdgeType) -> &CsrMatrix<u64> {
        &self.mats[ty.index()]
    }

    /// Sum of all entries of one type's matrix.
    pub fn total(&self, ty: DirEdgeType) -> u64 {
        self.get(ty).values().iter().sum()
    }
}

/// Classify the ordered pair `(p, q)` against `g`'s arcs. `None` if no arc
/// either way.
fn rel(g: &DiGraph, p: u32, q: u32) -> Option<Rel> {
    match (g.has_arc(p, q), g.has_arc(q, p)) {
        (true, true) => Some(Rel::R),
        (true, false) => Some(Rel::D),
        (false, true) => Some(Rel::Dt),
        (false, false) => None,
    }
}

fn primary_vertex_type(combo: (Rel, Rel, Rel)) -> Option<DirVertexType> {
    DirVertexType::ALL.into_iter().find(|t| t.combo() == combo)
}

fn assert_loop_free(g: &DiGraph) {
    assert_eq!(
        g.num_self_loops(),
        0,
        "directed triangle taxonomy requires diag(A) = 0 (paper §IV); \
         strip self loops first"
    );
}

/// Directed triangle participation at vertices by graph enumeration: for
/// every triangle of the undirected closure and every corner, classify both
/// closed walks against the primary combos (module docs).
pub fn directed_vertex_participation(g: &DiGraph) -> DirVertexCounts {
    assert_loop_free(g);
    let n = g.num_vertices();
    let au: Graph = g.undirected_closure();
    let mut counts = vec![vec![0u64; n]; 15];
    crate::count::for_each_triangle(&au, |a, b, c| {
        for (x, y, z) in [(a, b, c), (b, c, a), (c, a, b)] {
            // corner x, walks x→y→z→x and x→z→y→x
            for (j, k) in [(y, z), (z, y)] {
                let combo = (
                    rel(g, x, j).expect("triangle edge exists"),
                    rel(g, j, k).expect("triangle edge exists"),
                    rel(g, k, x).expect("triangle edge exists"),
                );
                if let Some(ty) = primary_vertex_type(combo) {
                    counts[ty.index()][x as usize] += 1;
                }
            }
        }
    });
    for ty in DirVertexType::ALL {
        if ty.halved() {
            for c in counts[ty.index()].iter_mut() {
                debug_assert_eq!(*c % 2, 0, "symmetric type must double count");
                *c /= 2;
            }
        }
    }
    DirVertexCounts { counts }
}

/// Directed triangle participation at vertices by the Def. 10 matrix
/// formulas, evaluated with `kron-sparse` (the independent oracle).
pub fn directed_vertex_participation_formula(g: &DiGraph) -> DirVertexCounts {
    assert_loop_free(g);
    let ar = g.reciprocal_part().to_csr();
    let ad = g.directed_part().to_csr();
    let adt = ad.transpose();
    let pick = |r: Rel| match r {
        Rel::D => &ad,
        Rel::Dt => &adt,
        Rel::R => &ar,
    };
    let counts = DirVertexType::ALL
        .into_iter()
        .map(|ty| {
            let (x, y, z) = ty.combo();
            let mut d = diag_of_triple(pick(x), pick(y), pick(z));
            if ty.halved() {
                for v in d.iter_mut() {
                    debug_assert_eq!(*v % 2, 0);
                    *v /= 2;
                }
            }
            d
        })
        .collect();
    DirVertexCounts { counts }
}

/// `diag(X·Y·Z)` without forming the full triple product.
fn diag_of_triple(x: &CsrMatrix<u64>, y: &CsrMatrix<u64>, z: &CsrMatrix<u64>) -> Vec<u64> {
    let xy = x.spgemm(y);
    let zt = z.transpose();
    (0..xy.nrows())
        .map(|i| {
            let (ai, av) = xy.row(i);
            let (bi, bv) = zt.row(i);
            let (mut p, mut q) = (0, 0);
            let mut acc = 0u64;
            while p < ai.len() && q < bi.len() {
                match ai[p].cmp(&bi[q]) {
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                    std::cmp::Ordering::Equal => {
                        acc += av[p] * bv[q];
                        p += 1;
                        q += 1;
                    }
                }
            }
            acc
        })
        .collect()
}

/// Directed triangle participation at edges by graph enumeration.
///
/// For every stored entry `(i, j)` of the central matrix (`A_d` for the
/// `+…` types, `A_r` for the `o…` types) and every common neighbor `k` of
/// the undirected closure, the wedge combo `(rel(i,k), rel(k,j))` selects
/// the type; wedge combos whose type is listed only as a duplicate in
/// Def. 11 (`o−−`, `oo+`, `oo−`) are skipped — the mirrored entry `(j, i)`
/// accounts for them, exactly as in the paper's formulas.
pub fn directed_edge_participation(g: &DiGraph) -> DirEdgeCounts {
    assert_loop_free(g);
    let n = g.num_vertices();
    let au = g.undirected_closure();
    let mut trip: Vec<Vec<(usize, usize, u64)>> = vec![Vec::new(); 15];
    for (i, j) in g.arcs() {
        let central = rel(g, i, j).unwrap();
        // common neighbors of i and j in the undirected closure
        let ri = au.adj_row(i);
        merge_by(ri, au.adj_row(j), u32::cmp, |p, _| {
            let k = ri[p];
            if k == i || k == j {
                return;
            }
            let combo = (central, rel(g, i, k).unwrap(), rel(g, k, j).unwrap());
            if let Some(ty) = DirEdgeType::ALL.into_iter().find(|t| t.combo() == combo) {
                trip[ty.index()].push((i as usize, j as usize, 1));
            }
        });
    }
    DirEdgeCounts {
        mats: trip
            .into_iter()
            .map(|t| CsrMatrix::from_triplets(n, n, t))
            .collect(),
    }
}

/// Directed triangle participation at edges by the Def. 11 matrix formulas
/// (`central ∘ (W₁·W₂)` via masked SpGEMM).
pub fn directed_edge_participation_formula(g: &DiGraph) -> DirEdgeCounts {
    assert_loop_free(g);
    let ar = g.reciprocal_part().to_csr();
    let ad = g.directed_part().to_csr();
    let adt = ad.transpose();
    let pick = |r: Rel| match r {
        Rel::D => &ad,
        Rel::Dt => &adt,
        Rel::R => &ar,
    };
    DirEdgeCounts {
        mats: DirEdgeType::ALL
            .into_iter()
            .map(|ty| {
                let (c, w1, w2) = ty.combo();
                masked_spgemm(pick(c), pick(w1), pick(w2))
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn random_digraph(rng: &mut StdRng, n: usize, p: f64) -> DiGraph {
        DiGraph::from_arcs(
            n,
            (0..n as u32)
                .flat_map(|i| (0..n as u32).map(move |j| (i, j)))
                .filter(|&(i, j)| i != j && rng.gen_bool(p)),
        )
    }

    #[test]
    fn fifteen_distinct_primary_combos_each() {
        use std::collections::HashSet;
        let v: HashSet<_> = DirVertexType::ALL.iter().map(|t| t.combo()).collect();
        assert_eq!(v.len(), 15);
        let e: HashSet<_> = DirEdgeType::ALL.iter().map(|t| t.combo()).collect();
        assert_eq!(e.len(), 15);
        // the three halved vertex types are exactly the self-reversed combos
        for t in DirVertexType::ALL {
            let (x, y, z) = t.combo();
            let rev = |r: Rel| match r {
                Rel::D => Rel::Dt,
                Rel::Dt => Rel::D,
                Rel::R => Rel::R,
            };
            let self_reversed = (rev(z), rev(y), rev(x)) == (x, y, z);
            assert_eq!(self_reversed, t.halved(), "{t:?}");
        }
    }

    #[test]
    fn directed_three_cycle() {
        // 0→1→2→0: one st+ triangle at every vertex, nothing else.
        let g = DiGraph::from_arcs(3, [(0, 1), (1, 2), (2, 0)]);
        let c = directed_vertex_participation(&g);
        assert_eq!(c.get(DirVertexType::STp), &[1, 1, 1]);
        for ty in DirVertexType::ALL {
            if ty != DirVertexType::STp {
                assert_eq!(c.total(ty), 0, "{ty:?}");
            }
        }
        assert_eq!(c.grand_total(), 3);
    }

    #[test]
    fn reciprocal_triangle() {
        // all-reciprocal triangle: one uuo per vertex.
        let g = DiGraph::from_arcs(3, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)]);
        let c = directed_vertex_participation(&g);
        assert_eq!(c.get(DirVertexType::UUo), &[1, 1, 1]);
        assert_eq!(c.grand_total(), 3);
        // edge types: ooo everywhere, stored at both orientations
        let e = directed_edge_participation(&g);
        assert_eq!(e.total(DirEdgeType::Ooo), 6);
        for ty in DirEdgeType::ALL {
            if ty != DirEdgeType::Ooo {
                assert_eq!(e.total(ty), 0, "{ty:?}");
            }
        }
    }

    #[test]
    fn mixed_triangle_hand_classified() {
        // 0↔1 reciprocal, 1→2, 0→2.
        let g = DiGraph::from_arcs(3, [(0, 1), (1, 0), (1, 2), (0, 2)]);
        let c = directed_vertex_participation(&g);
        assert_eq!(c.get(DirVertexType::UTm), &[1, 1, 0]);
        assert_eq!(c.get(DirVertexType::SSo), &[0, 0, 1]);
        assert_eq!(c.grand_total(), 3);
    }

    #[test]
    fn enumeration_matches_matrix_formulas_vertices() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..15 {
            let n = rng.gen_range(3..14);
            let g = random_digraph(&mut rng, n, 0.4);
            let a = directed_vertex_participation(&g);
            let b = directed_vertex_participation_formula(&g);
            for ty in DirVertexType::ALL {
                assert_eq!(a.get(ty), b.get(ty), "{ty:?}");
            }
        }
    }

    #[test]
    fn enumeration_matches_matrix_formulas_edges() {
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..15 {
            let n = rng.gen_range(3..14);
            let g = random_digraph(&mut rng, n, 0.4);
            let a = directed_edge_participation(&g);
            let b = directed_edge_participation_formula(&g);
            for ty in DirEdgeType::ALL {
                assert_eq!(a.get(ty), b.get(ty), "{ty:?}");
            }
        }
    }

    #[test]
    fn grand_total_is_three_tau() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..10 {
            let n = rng.gen_range(3..16);
            let g = random_digraph(&mut rng, n, 0.4);
            let au = g.undirected_closure();
            let tau = crate::count_triangles(&au).triangles;
            let c = directed_vertex_participation(&g);
            assert_eq!(c.grand_total(), 3 * tau);
        }
    }

    #[test]
    fn symmetric_digraph_reduces_to_undirected() {
        // all edges reciprocal: only uu types possible; uuo = t_A.
        let mut rng = StdRng::seed_from_u64(24);
        let n = 10;
        let edges: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j)))
            .filter(|_| rng.gen_bool(0.45))
            .collect();
        let ug = Graph::from_edges(n, edges);
        let dg = DiGraph::from_undirected(&ug);
        let c = directed_vertex_participation(&dg);
        assert_eq!(
            c.get(DirVertexType::UUo),
            &crate::vertex_participation(&ug)[..]
        );
        for ty in DirVertexType::ALL {
            if ty != DirVertexType::UUo {
                assert_eq!(c.total(ty), 0, "{ty:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn loops_rejected() {
        let g = DiGraph::from_arcs(2, [(0, 0), (0, 1)]);
        let _ = directed_vertex_participation(&g);
    }
}
