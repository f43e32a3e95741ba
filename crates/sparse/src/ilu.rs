//! Incomplete LU factorization with zero fill-in (ILU(0)).

use crate::{CsrMatrix, SparseError};
use vaem_numeric::Scalar;

/// ILU(0) preconditioner: an approximate factorization `A ≈ L·U` that keeps
/// exactly the sparsity pattern of `A`.
///
/// Used to precondition [`crate::BiCgStab`] on the coupled FVM systems.
///
/// # Example
/// ```
/// use vaem_sparse::{CsrMatrix, Ilu0};
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)]);
/// let ilu = Ilu0::new(&a)?;
/// let z = ilu.apply(&[1.0, 1.0]);
/// // For a 2x2 matrix ILU(0) is exact, so A·z = [1, 1].
/// let az = a.matvec(&z);
/// assert!((az[0] - 1.0).abs() < 1e-12 && (az[1] - 1.0).abs() < 1e-12);
/// # Ok::<(), vaem_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Ilu0<T: Scalar = f64> {
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<T>,
    diag_pos: Vec<usize>,
    n: usize,
}

impl<T: Scalar> Ilu0<T> {
    /// Computes the ILU(0) factorization of a square matrix.
    ///
    /// # Errors
    /// * [`SparseError::DimensionMismatch`] for non-square matrices.
    /// * [`SparseError::MissingDiagonal`] when a row lacks a structural
    ///   diagonal entry.
    /// * [`SparseError::ZeroPivot`] when a pivot becomes exactly zero.
    // vaem-lint: cold preconditioner construction, once per sparsity pattern
    pub fn new(a: &CsrMatrix<T>) -> Result<Self, SparseError> {
        if a.rows() != a.cols() {
            return Err(SparseError::DimensionMismatch {
                detail: format!(
                    "ILU(0) requires a square matrix, got {}x{}",
                    a.rows(),
                    a.cols()
                ),
            });
        }
        a.require_diagonal()?;
        let n = a.rows();
        let row_ptr = a.row_ptr().to_vec();
        let col_idx = a.col_idx().to_vec();
        let mut values = a.values().to_vec();

        // Locate the diagonal position of each row.
        let mut diag_pos = vec![0usize; n];
        for r in 0..n {
            for k in row_ptr[r]..row_ptr[r + 1] {
                if col_idx[k] == r {
                    diag_pos[r] = k;
                    break;
                }
            }
        }

        // IKJ-variant factorization restricted to the original pattern.
        // `pos_of_col[c]` maps a column index to its position in the current
        // row (usize::MAX when the column is not present).
        let mut pos_of_col = vec![usize::MAX; n];
        for i in 0..n {
            for k in row_ptr[i]..row_ptr[i + 1] {
                pos_of_col[col_idx[k]] = k;
            }
            // Eliminate entries left of the diagonal.
            for kp in row_ptr[i]..diag_pos[i] {
                let k = col_idx[kp];
                let pivot = values[diag_pos[k]];
                if pivot.modulus() == 0.0 {
                    return Err(SparseError::ZeroPivot { index: k });
                }
                let lik = values[kp] / pivot;
                values[kp] = lik;
                for kk in (diag_pos[k] + 1)..row_ptr[k + 1] {
                    let j = col_idx[kk];
                    let pos = pos_of_col[j];
                    if pos != usize::MAX {
                        let update = lik * values[kk];
                        values[pos] -= update;
                    }
                }
            }
            if values[diag_pos[i]].modulus() == 0.0 {
                return Err(SparseError::ZeroPivot { index: i });
            }
            for k in row_ptr[i]..row_ptr[i + 1] {
                pos_of_col[col_idx[k]] = usize::MAX;
            }
        }

        Ok(Self {
            row_ptr,
            col_idx,
            values,
            diag_pos,
            n,
        })
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Applies the preconditioner: returns `z ≈ A⁻¹·r` by solving
    /// `L·U·z = r` with the incomplete factors.
    ///
    /// # Panics
    /// Panics if `r.len()` differs from the dimension.
    // vaem-lint: cold allocating convenience wrapper; hot callers use apply_into
    pub fn apply(&self, r: &[T]) -> Vec<T> {
        let mut z = vec![T::zero(); self.n];
        self.apply_into(r, &mut z);
        z
    }

    /// Applies the preconditioner into a caller-provided buffer (`r` and `z`
    /// must not alias) — the allocation-free inner-loop variant used by the
    /// Krylov solver workspaces.
    ///
    /// # Panics
    /// Panics on length mismatches.
    pub fn apply_into(&self, r: &[T], z: &mut [T]) {
        self.apply_cols_into::<1>(r, z);
    }

    /// Applies the preconditioner to `K` column-major vectors in one pass
    /// over the factors (`r` and `z` each hold `K` columns of length
    /// [`Ilu0::dim`] and must not alias).
    ///
    /// Every column is accumulated in exactly [`Ilu0::apply_into`]'s
    /// per-row order, so column `j` of `z` is bit-identical to a
    /// single-vector apply of column `j` of `r`; the triangular sweeps are
    /// bound by per-row latency, which the `K` columns share.
    ///
    /// # Panics
    /// Panics when `r` or `z` does not hold `K·dim()` entries.
    pub fn apply_cols_into<const K: usize>(&self, r: &[T], z: &mut [T]) {
        let n = self.n;
        assert_eq!(r.len(), K * n, "ilu apply: dimension mismatch");
        assert_eq!(z.len(), K * n, "ilu apply: output length mismatch");
        // Forward solve with unit lower-triangular L; the strictly-lower
        // entries only reference already-computed z components, so z can be
        // filled directly from r.
        for i in 0..n {
            let mut acc: [T; K] = std::array::from_fn(|j| r[j * n + i]);
            for k in self.row_ptr[i]..self.diag_pos[i] {
                let (v, c) = (self.values[k], self.col_idx[k]);
                for (j, a) in acc.iter_mut().enumerate() {
                    *a -= v * z[j * n + c];
                }
            }
            for (j, a) in acc.into_iter().enumerate() {
                z[j * n + i] = a;
            }
        }
        // Backward solve with U.
        for i in (0..n).rev() {
            let mut acc: [T; K] = std::array::from_fn(|j| z[j * n + i]);
            for k in (self.diag_pos[i] + 1)..self.row_ptr[i + 1] {
                let (v, c) = (self.values[k], self.col_idx[k]);
                for (j, a) in acc.iter_mut().enumerate() {
                    *a -= v * z[j * n + c];
                }
            }
            let pivot = self.values[self.diag_pos[i]];
            for (j, a) in acc.into_iter().enumerate() {
                z[j * n + i] = a / pivot;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaem_numeric::Complex64;

    fn laplacian_1d(n: usize) -> CsrMatrix<f64> {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    #[test]
    fn tridiagonal_ilu0_is_exact() {
        // For a tridiagonal matrix ILU(0) equals the full LU, so applying the
        // preconditioner solves the system exactly.
        let a = laplacian_1d(10);
        let ilu = Ilu0::new(&a).unwrap();
        let b = vec![1.0; 10];
        let x = ilu.apply(&b);
        let r = a.residual(&x, &b);
        let rnorm: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(rnorm < 1e-12, "residual {rnorm}");
    }

    #[test]
    fn missing_diagonal_is_reported() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)]);
        assert!(matches!(
            Ilu0::new(&a),
            Err(SparseError::MissingDiagonal { row: 0 })
        ));
    }

    #[test]
    fn non_square_is_rejected() {
        let a = CsrMatrix::<f64>::from_triplets(2, 3, &[(0, 0, 1.0), (1, 1, 1.0)]);
        assert!(matches!(
            Ilu0::new(&a),
            Err(SparseError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn complex_tridiagonal_is_exact_too() {
        let j = Complex64::I;
        let mut t = Vec::new();
        let n = 6;
        for i in 0..n {
            t.push((i, i, Complex64::new(3.0, 0.5)));
            if i > 0 {
                t.push((i, i - 1, -Complex64::ONE + j * 0.1));
            }
            if i + 1 < n {
                t.push((i, i + 1, -Complex64::ONE));
            }
        }
        let a = CsrMatrix::from_triplets(n, n, &t);
        let ilu = Ilu0::new(&a).unwrap();
        let b = vec![Complex64::ONE; n];
        let x = ilu.apply(&b);
        let r = a.residual(&x, &b);
        let rnorm: f64 = r.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt();
        assert!(rnorm < 1e-12);
    }

    #[test]
    fn preconditioner_reduces_condition_for_2d_grid() {
        // Build a small 2-D Laplacian (pattern wider than tridiagonal) and
        // check the preconditioned residual is much smaller than the
        // unpreconditioned one for an arbitrary vector.
        let nx = 6;
        let n = nx * nx;
        let mut t = Vec::new();
        let idx = |i: usize, j: usize| i * nx + j;
        for i in 0..nx {
            for j in 0..nx {
                t.push((idx(i, j), idx(i, j), 4.0));
                if i > 0 {
                    t.push((idx(i, j), idx(i - 1, j), -1.0));
                }
                if i + 1 < nx {
                    t.push((idx(i, j), idx(i + 1, j), -1.0));
                }
                if j > 0 {
                    t.push((idx(i, j), idx(i, j - 1), -1.0));
                }
                if j + 1 < nx {
                    t.push((idx(i, j), idx(i, j + 1), -1.0));
                }
            }
        }
        let a = CsrMatrix::from_triplets(n, n, &t);
        let ilu = Ilu0::new(&a).unwrap();
        let b = vec![1.0; n];
        let z = ilu.apply(&b);
        let r = a.residual(&z, &b);
        let rnorm: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        let bnorm: f64 = (n as f64).sqrt();
        // Not exact (fill-in discarded) but clearly better than doing nothing.
        assert!(rnorm < 0.5 * bnorm, "rnorm = {rnorm}, bnorm = {bnorm}");
    }
}
