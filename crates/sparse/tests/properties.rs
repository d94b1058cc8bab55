//! Property-based tests for the sparse substrate: structural invariants
//! and the algebraic identities of the paper's §II (Props. 1–2) on
//! proptest-generated matrices.

use kron_sparse::{masked_spgemm, CsrMatrix};
use proptest::prelude::*;

/// An arbitrary small i64 matrix with the given maximum dimensions.
fn arb_matrix(max_dim: usize) -> impl Strategy<Value = CsrMatrix<i64>> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec((0..r, 0..c, -3i64..=3), 0..=(r * c))
            .prop_map(move |trip| CsrMatrix::from_triplets(r, c, trip))
    })
}

/// A same-shape pair of small matrices.
fn arb_matrix_pair(max_dim: usize) -> impl Strategy<Value = (CsrMatrix<i64>, CsrMatrix<i64>)> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        let entries = proptest::collection::vec((0..r, 0..c, -3i64..=3), 0..=(r * c));
        (entries.clone(), entries).prop_map(move |(t1, t2)| {
            (
                CsrMatrix::from_triplets(r, c, t1),
                CsrMatrix::from_triplets(r, c, t2),
            )
        })
    })
}

/// A multiplication-compatible pair (`a.ncols() == b.nrows()`).
fn arb_mul_pair(max_dim: usize) -> impl Strategy<Value = (CsrMatrix<i64>, CsrMatrix<i64>)> {
    (1..=max_dim, 1..=max_dim, 1..=max_dim).prop_flat_map(|(r, k, c)| {
        (
            proptest::collection::vec((0..r, 0..k, -3i64..=3), 0..=(r * k)),
            proptest::collection::vec((0..k, 0..c, -3i64..=3), 0..=(k * c)),
        )
            .prop_map(move |(t1, t2)| {
                (
                    CsrMatrix::from_triplets(r, k, t1),
                    CsrMatrix::from_triplets(k, c, t2),
                )
            })
    })
}

/// An arbitrary small square symmetric 0/1 matrix (an adjacency matrix).
fn arb_adjacency(max_dim: usize) -> impl Strategy<Value = CsrMatrix<i64>> {
    (1..=max_dim).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..=(n * n)).prop_map(move |pairs| {
            // one triplet per entry, so no value sums past 1
            let entries: std::collections::BTreeSet<_> = pairs
                .into_iter()
                .flat_map(|(i, j)| [(i, j), (j, i)])
                .collect();
            CsrMatrix::from_triplets(n, n, entries.into_iter().map(|(i, j)| (i, j, 1i64)))
        })
    })
}

fn dense_mul(a: &CsrMatrix<i64>, b: &CsrMatrix<i64>) -> Vec<Vec<i64>> {
    let (da, db) = (a.to_dense(), b.to_dense());
    let mut c = vec![vec![0i64; b.ncols()]; a.nrows()];
    for i in 0..a.nrows() {
        for k in 0..a.ncols() {
            if da[i][k] == 0 {
                continue;
            }
            for j in 0..b.ncols() {
                c[i][j] += da[i][k] * db[k][j];
            }
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn construction_upholds_invariants(m in arb_matrix(8)) {
        prop_assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn transpose_is_involution(m in arb_matrix(8)) {
        prop_assert_eq!(m.transpose().transpose(), m.clone());
        prop_assert_eq!(m.transpose().nnz(), m.nnz());
    }

    #[test]
    fn spgemm_matches_dense((a, b) in arb_mul_pair(7)) {
        let expect = dense_mul(&a, &b);
        prop_assert_eq!(a.spgemm(&b).to_dense(), expect);
    }

    #[test]
    fn masked_equals_full_then_hadamard(a in arb_adjacency(7)) {
        let full = a.spgemm(&a).hadamard_mul(&a);
        prop_assert_eq!(masked_spgemm(&a, &a, &a), full);
    }

    /// Prop. 1(c): (A ⊗ B)ᵗ = Aᵗ ⊗ Bᵗ.
    #[test]
    fn kron_transposition(a in arb_matrix(5), b in arb_matrix(5)) {
        prop_assert_eq!(
            a.kron(&b).transpose(),
            a.transpose().kron(&b.transpose())
        );
    }

    /// Prop. 1(d): (A₁ ⊗ A₂)(A₃ ⊗ A₄) = (A₁A₃) ⊗ (A₂A₄).
    #[test]
    fn kron_mixed_product(a in arb_adjacency(4), b in arb_adjacency(4)) {
        let lhs = a.kron(&b).spgemm(&a.kron(&b));
        let rhs = a.spgemm(&a).kron(&b.spgemm(&b));
        prop_assert_eq!(lhs, rhs);
    }

    /// Prop. 2(e): (A₁ ⊗ A₂) ∘ (A₃ ⊗ A₄) = (A₁ ∘ A₃) ⊗ (A₂ ∘ A₄).
    #[test]
    fn kron_hadamard_distributivity(
        (a1, a3) in arb_matrix_pair(4),
        (a2, a4) in arb_matrix_pair(4)
    ) {
        let lhs = a1.kron(&a2).hadamard_mul(&a3.kron(&a4));
        let rhs = a1.hadamard_mul(&a3).kron(&a2.hadamard_mul(&a4));
        prop_assert_eq!(lhs, rhs);
    }

    /// Prop. 2(f): diag(A₁ ⊗ A₂) = diag(A₁) ⊗ diag(A₂).
    #[test]
    fn kron_diag_distributivity(a in arb_adjacency(5), b in arb_adjacency(5)) {
        let (x, y) = (a.diag(), b.diag());
        let x_kron_y: Vec<i64> =
            x.iter().flat_map(|&xi| y.iter().map(move |&yk| xi * yk)).collect();
        prop_assert_eq!(a.kron(&b).diag(), x_kron_y);
    }

    /// Addition is commutative and cancellation removes storage.
    #[test]
    fn add_properties((a, b) in arb_matrix_pair(6)) {
        prop_assert_eq!(a.add(&b), b.add(&a));
        let neg = a.zip_union(&a, |v, _| -v);
        prop_assert_eq!(a.add(&neg).nnz(), 0);
    }

    /// diag + drop_diagonal partitions the matrix.
    #[test]
    fn diagonal_partition(a in arb_adjacency(6)) {
        let d = CsrMatrix::from_diag(&a.diag());
        prop_assert_eq!(a.drop_diagonal().add(&d), a.clone());
        prop_assert!(a.drop_diagonal().diag().iter().all(|&x| x == 0));
    }

    /// Row sums equal `A·1`, the product with a one-column matrix of ones.
    #[test]
    fn row_sums_are_matvec_ones(a in arb_matrix(6)) {
        let ones = CsrMatrix::from_dense(&vec![vec![1i64]; a.ncols()]);
        let a_ones: Vec<i64> = a.spgemm(&ones).to_dense().into_iter().map(|r| r[0]).collect();
        prop_assert_eq!(a.row_sums(), a_ones);
    }
}
