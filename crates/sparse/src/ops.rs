//! Elementwise and structural operations: transpose, union/intersection
//! combinators, Hadamard product, diagonal operators, row sums.

use crate::{CsrMatrix, Scalar};

impl<T: Scalar> CsrMatrix<T> {
    /// The transpose `Aᵗ` (Prop. 1(c) of the paper). `O(nnz + nrows + ncols)`.
    pub fn transpose(&self) -> Self {
        let mut counts = vec![0usize; self.ncols() + 1];
        for &j in self.indices() {
            counts[j as usize + 1] += 1;
        }
        for j in 0..self.ncols() {
            counts[j + 1] += counts[j];
        }
        let offsets = counts.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![T::ZERO; self.nnz()];
        let mut next = counts;
        for i in 0..self.nrows() {
            for (&j, &v) in self.row_indices(i).iter().zip(self.row_values(i)) {
                let pos = next[j as usize];
                indices[pos] = i as u32;
                values[pos] = v;
                next[j as usize] += 1;
            }
        }
        // Rows of the transpose come out sorted because we scan source rows
        // in increasing row order.
        Self::try_from_parts(self.ncols(), self.nrows(), offsets, indices, values)
            .expect("transpose preserves invariants")
    }

    /// Combine two equally-shaped matrices entry-wise over the *union* of
    /// their patterns. `f` receives `(a_ij, b_ij)` with zeros filled in;
    /// results equal to zero are dropped.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_union<U, V, F>(&self, other: &CsrMatrix<U>, f: F) -> CsrMatrix<V>
    where
        U: Scalar,
        V: Scalar,
        F: Fn(T, U) -> V,
    {
        assert_eq!(self.nrows(), other.nrows(), "row mismatch");
        assert_eq!(self.ncols(), other.ncols(), "col mismatch");
        let mut offsets = Vec::with_capacity(self.nrows() + 1);
        let mut indices = Vec::with_capacity(self.nnz().max(other.nnz()));
        let mut values = Vec::with_capacity(indices.capacity());
        offsets.push(0);
        for i in 0..self.nrows() {
            let (ai, av) = self.row(i);
            let (bi, bv) = other.row(i);
            let (mut p, mut q) = (0, 0);
            while p < ai.len() || q < bi.len() {
                let (j, r) = if q >= bi.len() || (p < ai.len() && ai[p] < bi[q]) {
                    let r = f(av[p], U::ZERO);
                    let j = ai[p];
                    p += 1;
                    (j, r)
                } else if p >= ai.len() || bi[q] < ai[p] {
                    let r = f(T::ZERO, bv[q]);
                    let j = bi[q];
                    q += 1;
                    (j, r)
                } else {
                    let r = f(av[p], bv[q]);
                    let j = ai[p];
                    p += 1;
                    q += 1;
                    (j, r)
                };
                if r != V::ZERO {
                    indices.push(j);
                    values.push(r);
                }
            }
            offsets.push(indices.len());
        }
        CsrMatrix::try_from_parts(self.nrows(), self.ncols(), offsets, indices, values)
            .expect("zip_union preserves invariants")
    }

    /// Matrix sum `A + B`.
    pub fn add(&self, other: &Self) -> Self {
        self.zip_union(other, |a, b| a.add(b))
    }

    /// The Hadamard (entrywise) product `A ∘ B` (Def. 2 of the paper).
    /// Only the intersection of the patterns is touched.
    pub fn hadamard<U, V, F>(&self, other: &CsrMatrix<U>, f: F) -> CsrMatrix<V>
    where
        U: Scalar,
        V: Scalar,
        F: Fn(T, U) -> V,
    {
        assert_eq!(self.nrows(), other.nrows(), "row mismatch");
        assert_eq!(self.ncols(), other.ncols(), "col mismatch");
        let mut offsets = Vec::with_capacity(self.nrows() + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        offsets.push(0);
        for i in 0..self.nrows() {
            let (ai, av) = self.row(i);
            let (bi, bv) = other.row(i);
            let (mut p, mut q) = (0, 0);
            while p < ai.len() && q < bi.len() {
                match ai[p].cmp(&bi[q]) {
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                    std::cmp::Ordering::Equal => {
                        let r = f(av[p], bv[q]);
                        if r != V::ZERO {
                            indices.push(ai[p]);
                            values.push(r);
                        }
                        p += 1;
                        q += 1;
                    }
                }
            }
            offsets.push(indices.len());
        }
        CsrMatrix::try_from_parts(self.nrows(), self.ncols(), offsets, indices, values)
            .expect("hadamard preserves invariants")
    }

    /// `A ∘ B` with plain multiplication.
    pub fn hadamard_mul(&self, other: &Self) -> Self {
        self.hadamard(other, |a, b| a.mul(b))
    }

    /// The diagonal as a dense vector: `diag(A)` in the paper's Def. 4.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn diag(&self) -> Vec<T> {
        assert_eq!(self.nrows(), self.ncols(), "diag of non-square matrix");
        (0..self.nrows()).map(|i| self.get(i, i)).collect()
    }

    /// Structurally remove the diagonal: `A − I ∘ A` (Rem. 3 of the paper).
    pub fn drop_diagonal(&self) -> Self {
        assert_eq!(self.nrows(), self.ncols(), "drop_diagonal of non-square");
        let mut offsets = Vec::with_capacity(self.nrows() + 1);
        let mut indices = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        offsets.push(0);
        for i in 0..self.nrows() {
            for (&j, &v) in self.row_indices(i).iter().zip(self.row_values(i)) {
                if j as usize != i {
                    indices.push(j);
                    values.push(v);
                }
            }
            offsets.push(indices.len());
        }
        Self::try_from_parts(self.nrows(), self.ncols(), offsets, indices, values)
            .expect("drop_diagonal preserves invariants")
    }

    /// Row sums `A·1` — the out-degree vector for an adjacency matrix.
    pub fn row_sums(&self) -> Vec<T> {
        (0..self.nrows())
            .map(|i| {
                self.row_values(i)
                    .iter()
                    .fold(T::ZERO, |acc, &v| acc.add(v))
            })
            .collect()
    }

    /// Whether `A == Aᵗ` (pattern and values).
    pub fn is_symmetric(&self) -> bool {
        self.nrows() == self.ncols() && *self == self.transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix<i64> {
        CsrMatrix::from_dense(&[vec![1, 0, 2], vec![0, 3, 0], vec![4, 0, 5]])
    }

    #[test]
    fn transpose_roundtrip() {
        let a = small();
        let t = a.transpose();
        assert_eq!(t.get(0, 2), 4);
        assert_eq!(t.get(2, 0), 2);
        assert_eq!(t.transpose(), a);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn transpose_rectangular() {
        let a = CsrMatrix::<u64>::from_triplets(2, 4, [(0, 3, 7), (1, 0, 9)]);
        let t = a.transpose();
        assert_eq!(t.nrows(), 4);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.get(3, 0), 7);
        assert_eq!(t.get(0, 1), 9);
    }

    #[test]
    fn add_and_cancellation() {
        let a = small();
        let b = CsrMatrix::from_dense(&[vec![-1, 0, -2], vec![0, -3, 0], vec![-4, 0, -5]]);
        let s = a.add(&b);
        assert_eq!(s.nnz(), 0);
    }

    #[test]
    fn hadamard_intersects() {
        let a = CsrMatrix::<u64>::from_dense(&[vec![1, 2, 0], vec![0, 0, 3]]);
        let b = CsrMatrix::<u64>::from_dense(&[vec![5, 0, 7], vec![0, 0, 2]]);
        let h = a.hadamard_mul(&b);
        assert_eq!(h.to_dense(), vec![vec![5, 0, 0], vec![0, 0, 6]]);
    }

    #[test]
    fn diag_ops() {
        let a = small();
        assert_eq!(a.diag(), vec![1, 3, 5]);
        let d = CsrMatrix::from_diag(&a.diag());
        assert_eq!(d.nnz(), 3);
        let nod = a.drop_diagonal();
        assert_eq!(nod.diag(), vec![0, 0, 0]);
        assert_eq!(nod.nnz(), 2);
        // A == (A − D) + D
        assert_eq!(nod.add(&d), a);
    }

    #[test]
    fn row_sums_and_matvec() {
        let a = small();
        assert_eq!(a.row_sums(), vec![3, 3, 9]);
        // A·x as the product with a one-column matrix
        let matvec = |x: [i64; 3]| a.spgemm(&CsrMatrix::from_dense(&x.map(|v| vec![v])));
        assert_eq!(matvec([1, 1, 1]).to_dense(), [[3], [3], [9]]);
        assert_eq!(matvec([1, 0, 0]).to_dense(), [[1], [0], [4]]);
    }

    #[test]
    fn symmetry_check() {
        let sym = CsrMatrix::<u64>::from_triplets(2, 2, [(0, 1, 3), (1, 0, 3)]);
        assert!(sym.is_symmetric());
        let asym = CsrMatrix::<u64>::from_triplets(2, 2, [(0, 1, 3)]);
        assert!(!asym.is_symmetric());
    }

    #[test]
    fn zip_union_subtraction() {
        let a = CsrMatrix::<i64>::from_dense(&[vec![5, 1], vec![0, 2]]);
        let b = CsrMatrix::<i64>::from_dense(&[vec![5, 0], vec![3, 0]]);
        let d = a.zip_union(&b, |x, y| x - y);
        assert_eq!(d.to_dense(), vec![vec![0, 1], vec![-3, 2]]);
    }
}
