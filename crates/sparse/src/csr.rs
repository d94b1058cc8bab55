//! The core compressed-sparse-row matrix type.

use crate::Scalar;

/// A sparse matrix in compressed sparse row (CSR) format.
///
/// Invariants (checked by [`CsrMatrix::check_invariants`] and upheld by every
/// constructor):
///
/// * `offsets.len() == nrows + 1`, `offsets[0] == 0`, monotonically
///   non-decreasing, `offsets[nrows] == indices.len() == values.len()`;
/// * within each row, column indices are strictly increasing (sorted and
///   deduplicated);
/// * every stored value is non-zero (`v != T::ZERO`); explicit zeros are
///   dropped at construction time.
///
/// Column indices are `u32`: the factor matrices of a Kronecker product are
/// "medium-sized" by design (the whole point of the paper is that the factors
/// fit in memory while `C = A ⊗ B` does not), so four-billion columns is
/// ample, and halving index memory measurably speeds up SpGEMM.
#[derive(Clone, PartialEq, Eq)]
pub struct CsrMatrix<T> {
    nrows: usize,
    ncols: usize,
    offsets: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// An empty (all-zero) matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            offsets: vec![0; nrows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Self {
            nrows: n,
            ncols: n,
            offsets: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            values: vec![T::ONE; n],
        }
    }

    /// A diagonal matrix from a dense vector; zero entries are dropped.
    pub fn from_diag(diag: &[T]) -> Self {
        let n = diag.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        offsets.push(0);
        for (i, &v) in diag.iter().enumerate() {
            if v != T::ZERO {
                indices.push(i as u32);
                values.push(v);
            }
            offsets.push(indices.len());
        }
        Self {
            nrows: n,
            ncols: n,
            offsets,
            indices,
            values,
        }
    }

    /// Build from `(row, col, value)` triplets, summing duplicates and
    /// dropping zeros.
    ///
    /// # Panics
    /// Panics if any coordinate is out of bounds.
    pub fn from_triplets<I>(nrows: usize, ncols: usize, triplets: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize, T)>,
    {
        let mut trip: Vec<(usize, u32, T)> = triplets
            .into_iter()
            .map(|(r, c, v)| {
                assert!(r < nrows, "row {r} out of bounds for {nrows} rows");
                assert!(c < ncols, "col {c} out of bounds for {ncols} cols");
                (r, c as u32, v)
            })
            .collect();
        trip.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let mut offsets = vec![0usize; nrows + 1];
        let mut indices = Vec::with_capacity(trip.len());
        let mut values = Vec::with_capacity(trip.len());
        let mut iter = trip.into_iter().peekable();
        while let Some((r, c, mut v)) = iter.next() {
            while let Some(&(r2, c2, v2)) = iter.peek() {
                if r2 == r && c2 == c {
                    v = v.add(v2);
                    iter.next();
                } else {
                    break;
                }
            }
            if v != T::ZERO {
                indices.push(c);
                values.push(v);
                offsets[r + 1] += 1;
            }
        }
        for i in 0..nrows {
            offsets[i + 1] += offsets[i];
        }
        let m = Self {
            nrows,
            ncols,
            offsets,
            indices,
            values,
        };
        debug_assert!(m.check_invariants().is_ok());
        m
    }

    /// Build directly from raw CSR parts.
    ///
    /// # Errors
    /// Returns a description of the first violated invariant, if any.
    pub fn try_from_parts(
        nrows: usize,
        ncols: usize,
        offsets: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<T>,
    ) -> Result<Self, String> {
        let m = Self {
            nrows,
            ncols,
            offsets,
            indices,
            values,
        };
        m.check_invariants()?;
        Ok(m)
    }

    /// Verify the CSR invariants documented on the type.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.offsets.len() != self.nrows + 1 {
            return Err(format!(
                "offsets length {} != nrows+1 {}",
                self.offsets.len(),
                self.nrows + 1
            ));
        }
        if self.offsets[0] != 0 {
            return Err("offsets[0] != 0".into());
        }
        if *self.offsets.last().unwrap() != self.indices.len() {
            return Err("offsets[last] != indices.len()".into());
        }
        if self.indices.len() != self.values.len() {
            return Err("indices.len() != values.len()".into());
        }
        for i in 0..self.nrows {
            if self.offsets[i] > self.offsets[i + 1] {
                return Err(format!("offsets not monotone at row {i}"));
            }
            let row = &self.indices[self.offsets[i]..self.offsets[i + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("row {i} indices not strictly increasing"));
                }
            }
            if let Some(&last) = row.last() {
                if last as usize >= self.ncols {
                    return Err(format!("row {i} column {last} out of bounds"));
                }
            }
        }
        if self.values.contains(&T::ZERO) {
            return Err("explicit zero stored".into());
        }
        Ok(())
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored (non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The raw row-offset array (length `nrows + 1`).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw column-index array.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The raw value array.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// The column indices of row `i` (sorted, unique).
    #[inline]
    pub fn row_indices(&self, i: usize) -> &[u32] {
        &self.indices[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The values of row `i`, parallel to [`Self::row_indices`].
    #[inline]
    pub fn row_values(&self, i: usize) -> &[T] {
        &self.values[self.offsets[i]..self.offsets[i + 1]]
    }

    /// `(indices, values)` of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[T]) {
        (self.row_indices(i), self.row_values(i))
    }

    /// The value at `(i, j)`, or `T::ZERO` if not stored: a binary search
    /// of row `i`.
    pub fn get(&self, i: usize, j: usize) -> T {
        let row = self.row_indices(i);
        match row.binary_search(&(j as u32)) {
            Ok(pos) => self.row_values(i)[pos],
            Err(_) => T::ZERO,
        }
    }

    /// Iterate over all stored entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.nrows).flat_map(move |i| {
            self.row_indices(i)
                .iter()
                .zip(self.row_values(i))
                .map(move |(&j, &v)| (i, j as usize, v))
        })
    }

    /// Dense `Vec<Vec<T>>` representation — test helper for small matrices.
    pub fn to_dense(&self) -> Vec<Vec<T>> {
        let mut d = vec![vec![T::ZERO; self.ncols]; self.nrows];
        for (i, j, v) in self.iter() {
            d[i][j] = v;
        }
        d
    }

    /// Build from a dense row-major representation — test helper.
    pub fn from_dense(rows: &[Vec<T>]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        Self::from_triplets(
            nrows,
            ncols,
            rows.iter().enumerate().flat_map(|(i, r)| {
                assert_eq!(r.len(), ncols, "ragged dense input");
                r.iter()
                    .enumerate()
                    .filter(|(_, v)| **v != T::ZERO)
                    .map(move |(j, &v)| (i, j, v))
            }),
        )
    }
}

impl<T: Scalar> std::fmt::Debug for CsrMatrix<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CsrMatrix({}x{}, nnz={})",
            self.nrows,
            self.ncols,
            self.nnz()
        )?;
        if self.nrows <= 16 && self.ncols <= 16 {
            for i in 0..self.nrows {
                write!(f, "\n  [")?;
                for j in 0..self.ncols {
                    write!(f, " {:?}", self.get(i, j))?;
                }
                write!(f, " ]")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape() {
        let m = CsrMatrix::<u64>::zeros(3, 5);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 5);
        assert_eq!(m.nnz(), 0);
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn identity_diag() {
        let m = CsrMatrix::<u64>::identity(4);
        assert_eq!(m.nnz(), 4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m.get(i, j), u64::from(i == j));
            }
        }
    }

    #[test]
    fn triplets_sum_duplicates_and_drop_zeros() {
        let m = CsrMatrix::<i64>::from_triplets(
            2,
            2,
            [(0, 0, 2), (0, 0, 3), (1, 1, 5), (1, 1, -5), (1, 0, 7)],
        );
        assert_eq!(m.get(0, 0), 5);
        assert_eq!(m.get(1, 1), 0); // cancelled to zero, dropped
        assert_eq!(m.get(1, 0), 7);
        assert_eq!(m.nnz(), 2);
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn rows_are_sorted() {
        let m = CsrMatrix::<u64>::from_triplets(1, 5, [(0, 4, 1), (0, 1, 1), (0, 3, 1)]);
        assert_eq!(m.row_indices(0), &[1, 3, 4]);
    }

    #[test]
    fn dense_roundtrip() {
        let d = vec![vec![0u64, 2, 0], vec![1, 0, 3]];
        let m = CsrMatrix::from_dense(&d);
        assert_eq!(m.to_dense(), d);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn from_diag_drops_zeros() {
        let m = CsrMatrix::<u64>::from_diag(&[1, 0, 3]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0), 1);
        assert_eq!(m.get(1, 1), 0);
        assert_eq!(m.get(2, 2), 3);
    }

    #[test]
    fn try_from_parts_rejects_bad() {
        // unsorted row
        let r = CsrMatrix::<u64>::try_from_parts(1, 3, vec![0, 2], vec![2, 1], vec![1, 1]);
        assert!(r.is_err());
        // out-of-bounds column
        let r = CsrMatrix::<u64>::try_from_parts(1, 2, vec![0, 1], vec![5], vec![1]);
        assert!(r.is_err());
        // stored zero
        let r = CsrMatrix::<u64>::try_from_parts(1, 2, vec![0, 1], vec![0], vec![0]);
        assert!(r.is_err());
        // good
        let r = CsrMatrix::<u64>::try_from_parts(1, 2, vec![0, 1], vec![1], vec![9]);
        assert!(r.is_ok());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn triplets_bounds_checked() {
        let _ = CsrMatrix::<u64>::from_triplets(1, 1, [(0, 1, 1)]);
    }

    #[test]
    fn iter_visits_all() {
        let m = CsrMatrix::<u64>::from_triplets(2, 3, [(0, 2, 4), (1, 0, 5)]);
        let got: Vec<_> = m.iter().collect();
        assert_eq!(got, vec![(0, 2, 4), (1, 0, 5)]);
    }
}
