//! The explicit Kronecker product (Def. 1 of the paper) for *small*
//! matrices, used to materialize products in tests and validation.
//!
//! The production path never calls this — the whole point of the paper is
//! that `C = A ⊗ B` is represented implicitly by its factors (see the
//! `kron` core crate). This module exists so every Kronecker formula in the
//! workspace can be checked against a brute-force materialization.

use crate::{CsrMatrix, Scalar};

impl<T: Scalar> CsrMatrix<T> {
    /// The Kronecker product `A ⊗ B` (Def. 1): with 0-based indices,
    /// `(A ⊗ B)[i·mB + k, j·nB + l] = A[i,j] · B[k,l]`.
    ///
    /// Memory is `O(nnz(A)·nnz(B))` — materialize only small products.
    ///
    /// # Panics
    /// Panics if the output dimensions would overflow `u32` columns.
    pub fn kron(&self, other: &Self) -> Self {
        let nrows = self.nrows() * other.nrows();
        let ncols = self.ncols() * other.ncols();
        assert!(
            ncols <= u32::MAX as usize,
            "explicit Kronecker product too large to index; use the implicit \
             representation in the `kron` core crate"
        );
        let nnz = self.nnz() * other.nnz();
        let mut offsets = Vec::with_capacity(nrows + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        offsets.push(0);
        let nb_cols = other.ncols() as u32;
        for i in 0..self.nrows() {
            let (ai, av) = self.row(i);
            for k in 0..other.nrows() {
                let (bi, bv) = other.row(k);
                for (&j, &va) in ai.iter().zip(av) {
                    let base = j * nb_cols;
                    for (&l, &vb) in bi.iter().zip(bv) {
                        indices.push(base + l);
                        values.push(va.mul(vb));
                    }
                }
                offsets.push(indices.len());
            }
        }
        // Zero products (possible with signed/float scalars: no — product of
        // two non-zeros can only be zero for floats under over/underflow;
        // filter defensively) are removed by rebuilding if present.
        if values.contains(&T::ZERO) {
            let mut trip = Vec::with_capacity(values.len());
            let mut row = 0usize;
            for (pos, (&j, &v)) in indices.iter().zip(values.iter()).enumerate() {
                while offsets[row + 1] <= pos {
                    row += 1;
                }
                if v != T::ZERO {
                    trip.push((row, j as usize, v));
                }
            }
            return Self::from_triplets(nrows, ncols, trip);
        }
        Self::try_from_parts(nrows, ncols, offsets, indices, values)
            .expect("kron output is valid CSR")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(n: usize) -> CsrMatrix<i64> {
        CsrMatrix::from_triplets(n, n, (0..n).flat_map(|i| (0..n).map(move |j| (i, j, 1))))
    }

    fn k(n: usize) -> CsrMatrix<i64> {
        j(n).drop_diagonal()
    }

    #[test]
    fn matches_definition_entrywise() {
        // a is 2x2, b is 3x2 (rectangular on purpose).
        let a = CsrMatrix::<i64>::from_dense(&[vec![1, 2], vec![0, 3]]);
        let b = CsrMatrix::<i64>::from_dense(&[vec![0, 5], vec![6, 0], vec![7, 8]]);
        let c = a.kron(&b);
        assert_eq!(c.nrows(), 2 * 3);
        assert_eq!(c.ncols(), 2 * 2);
        for i in 0..2 {
            for jj in 0..2 {
                for kk in 0..3 {
                    for l in 0..2 {
                        assert_eq!(
                            c.get(i * 3 + kk, jj * 2 + l),
                            a.get(i, jj) * b.get(kk, l),
                            "mismatch at ({i},{jj})x({kk},{l})"
                        );
                    }
                }
            }
        }
        assert!(c.check_invariants().is_ok());
    }

    #[test]
    fn nnz_is_product() {
        let a = k(4);
        let b = k(3);
        assert_eq!(a.kron(&b).nnz(), a.nnz() * b.nnz());
    }

    #[test]
    fn prop1d_mixed_product_property() {
        // (A1 ⊗ A2)(A3 ⊗ A4) = (A1·A3) ⊗ (A2·A4)  [Prop. 1(d)]
        let a1 = k(3);
        let a2 = k(2);
        let lhs = a1.kron(&a2).spgemm(&a1.kron(&a2));
        let rhs = a1.spgemm(&a1).kron(&a2.spgemm(&a2));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn prop2e_hadamard_kron_distributivity() {
        // (A1 ⊗ A2) ∘ (A3 ⊗ A4) = (A1 ∘ A3) ⊗ (A2 ∘ A4)  [Prop. 2(e)]
        let a1 = k(3);
        let a3 = j(3);
        let a2 = k(2);
        let a4 = j(2);
        let lhs = a1.kron(&a2).hadamard_mul(&a3.kron(&a4));
        let rhs = a1.hadamard_mul(&a3).kron(&a2.hadamard_mul(&a4));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn prop2f_diag_kron_distributivity() {
        // diag(A1 ⊗ A2) = diag(A1) ⊗ diag(A2)  [Prop. 2(f)]
        let a = j(3);
        let b = j(4);
        let lhs = a.kron(&b).diag();
        let (x, y) = (a.diag(), b.diag());
        let rhs: Vec<i64> = x
            .iter()
            .flat_map(|&xi| y.iter().map(move |&yk| xi * yk))
            .collect();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn transposition_property() {
        // (A ⊗ B)ᵗ = Aᵗ ⊗ Bᵗ  [Prop. 1(c)]
        let a = CsrMatrix::<i64>::from_dense(&[vec![1, 2], vec![0, 3]]);
        let b = CsrMatrix::<i64>::from_dense(&[vec![0, 1], vec![4, 0]]);
        assert_eq!(a.kron(&b).transpose(), a.transpose().kron(&b.transpose()));
    }

    #[test]
    fn clique_kron_clique_example_1c() {
        // Ex. 1(c): (J_nA ⊗ J_nB) − I = K_{nA·nB}
        let c = j(3).kron(&j(4));
        let kc = c.drop_diagonal();
        assert_eq!(kc, k(12));
    }
}
