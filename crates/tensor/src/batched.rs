//! Batched tensor payloads and rayon-parallel batched kernels.
//!
//! A hadron node carries a *batch* of identically-shaped tensors (one per
//! dilution index combination). On a real GPU the batch is dispatched as a
//! single batched GEMM / batched contraction (hipBLAS `gemmBatched`); here
//! the batch dimension is the rayon parallelism axis, which mirrors how the
//! device spreads batch elements across compute units.

use rayon::prelude::*;

use crate::complex::Complex64;
use crate::matrix::{matmul_into, Matrix};
use crate::tensor3::{contract_into, Tensor3};
use crate::TensorError;

/// A batch of dense `n × n` complex matrices in one contiguous allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedMatrix {
    batch: usize,
    n: usize,
    data: Vec<Complex64>,
}

impl BatchedMatrix {
    /// Zero-initialised batch.
    pub fn zeros(batch: usize, n: usize) -> Self {
        BatchedMatrix {
            batch,
            n,
            data: vec![Complex64::ZERO; batch * n * n],
        }
    }

    /// Batch of identity matrices.
    pub fn identity(batch: usize, n: usize) -> Self {
        let mut m = BatchedMatrix::zeros(batch, n);
        for b in 0..batch {
            for i in 0..n {
                m.data[b * n * n + i * n + i] = Complex64::ONE;
            }
        }
        m
    }

    /// Build from a generator over `(batch, row, col)`.
    pub fn from_fn(
        batch: usize,
        n: usize,
        mut f: impl FnMut(usize, usize, usize) -> Complex64,
    ) -> Self {
        let mut data = Vec::with_capacity(batch * n * n);
        for b in 0..batch {
            for i in 0..n {
                for j in 0..n {
                    data.push(f(b, i, j));
                }
            }
        }
        BatchedMatrix { batch, n, data }
    }

    /// Number of batch elements.
    #[inline]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Mode length `n`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Borrow batch element `b` as a slice of length `n*n`.
    #[inline]
    pub fn slab(&self, b: usize) -> &[Complex64] {
        &self.data[b * self.n * self.n..(b + 1) * self.n * self.n]
    }

    /// Copy batch element `b` out as a [`Matrix`].
    pub fn element(&self, b: usize) -> Matrix {
        Matrix::from_fn(self.n, |i, j| self.slab(b)[i * self.n + j])
    }

    /// Overwrite batch element `b` from a [`Matrix`].
    pub fn set_element(&mut self, b: usize, m: &Matrix) {
        assert_eq!(m.dim(), self.n, "set_element dimension mismatch");
        let base = b * self.n * self.n;
        self.data[base..base + self.n * self.n].copy_from_slice(m.as_slice());
    }

    /// Batched GEMM: `C_b = A_b · B_b` for every batch element, parallel
    /// over the batch dimension.
    pub fn matmul(&self, rhs: &BatchedMatrix) -> Result<BatchedMatrix, TensorError> {
        if self.n != rhs.n || self.batch != rhs.batch {
            return Err(TensorError::ShapeMismatch {
                lhs: (self.batch, self.n),
                rhs: (rhs.batch, rhs.n),
            });
        }
        let n = self.n;
        let mut out = BatchedMatrix::zeros(self.batch, n);
        out.data
            .par_chunks_mut(n * n)
            .zip(self.data.par_chunks(n * n))
            .zip(rhs.data.par_chunks(n * n))
            .for_each(|((o, a), b)| matmul_into(a, b, o, n));
        Ok(out)
    }

    /// `Σ_b tr(A_b · B_b)` — the final scalar of a fully-contracted meson
    /// graph. Parallel reduction over the batch.
    pub fn trace_inner(&self, rhs: &BatchedMatrix) -> Result<Complex64, TensorError> {
        if self.n != rhs.n || self.batch != rhs.batch {
            return Err(TensorError::ShapeMismatch {
                lhs: (self.batch, self.n),
                rhs: (rhs.batch, rhs.n),
            });
        }
        let n = self.n;
        let total = self
            .data
            .par_chunks(n * n)
            .zip(rhs.data.par_chunks(n * n))
            .map(|(a, b)| {
                let mut acc = Complex64::ZERO;
                for i in 0..n {
                    for k in 0..n {
                        acc.mul_add_assign(a[i * n + k], b[k * n + i]);
                    }
                }
                acc
            })
            .fold(Complex64::ZERO, |x, y| x + y);
        Ok(total)
    }

    /// Frobenius norm over the whole batch.
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .par_iter()
            .map(|z| z.norm_sqr())
            .sum::<f64>()
            .sqrt()
    }

    /// Element-wise maximum absolute difference (for tests).
    pub fn max_abs_diff(&self, rhs: &BatchedMatrix) -> f64 {
        assert_eq!((self.batch, self.n), (rhs.batch, rhs.n));
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }
}

/// A batch of dense `n × n × n` complex tensors in one contiguous allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedTensor3 {
    batch: usize,
    n: usize,
    data: Vec<Complex64>,
}

impl BatchedTensor3 {
    /// Zero-initialised batch.
    pub fn zeros(batch: usize, n: usize) -> Self {
        BatchedTensor3 {
            batch,
            n,
            data: vec![Complex64::ZERO; batch * n * n * n],
        }
    }

    /// Build from a generator over `(batch, i, j, k)`.
    pub fn from_fn(
        batch: usize,
        n: usize,
        mut f: impl FnMut(usize, usize, usize, usize) -> Complex64,
    ) -> Self {
        let mut data = Vec::with_capacity(batch * n * n * n);
        for b in 0..batch {
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        data.push(f(b, i, j, k));
                    }
                }
            }
        }
        BatchedTensor3 { batch, n, data }
    }

    /// Number of batch elements.
    #[inline]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Mode length `n`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Copy batch element `b` out as a [`Tensor3`].
    pub fn element(&self, b: usize) -> Tensor3 {
        let n = self.n;
        let base = b * n * n * n;
        Tensor3::from_fn(n, |i, j, k| self.data[base + (i * n + j) * n + k])
    }

    /// Batched spectator contraction (see [`Tensor3::contract`]), parallel
    /// over the batch dimension.
    pub fn contract(&self, rhs: &BatchedTensor3) -> Result<BatchedTensor3, TensorError> {
        if self.n != rhs.n || self.batch != rhs.batch {
            return Err(TensorError::ShapeMismatch {
                lhs: (self.batch, self.n),
                rhs: (rhs.batch, rhs.n),
            });
        }
        let n = self.n;
        let vol = n * n * n;
        let mut out = BatchedTensor3::zeros(self.batch, n);
        out.data
            .par_chunks_mut(vol)
            .zip(self.data.par_chunks(vol))
            .zip(rhs.data.par_chunks(vol))
            .for_each(|((o, a), b)| contract_into(a, b, o, n));
        Ok(out)
    }

    /// Batched full scalar contraction (see [`Tensor3::inner`]) summed over
    /// the batch.
    pub fn inner(&self, rhs: &BatchedTensor3) -> Result<Complex64, TensorError> {
        if self.n != rhs.n || self.batch != rhs.batch {
            return Err(TensorError::ShapeMismatch {
                lhs: (self.batch, self.n),
                rhs: (rhs.batch, rhs.n),
            });
        }
        let n = self.n;
        let vol = n * n * n;
        let total = self
            .data
            .par_chunks(vol)
            .zip(rhs.data.par_chunks(vol))
            .map(|(a, b)| {
                let mut acc = Complex64::ZERO;
                for i in 0..n {
                    for j in 0..n {
                        for k in 0..n {
                            acc.mul_add_assign(a[(i * n + j) * n + k], b[(k * n + j) * n + i]);
                        }
                    }
                }
                acc
            })
            .fold(Complex64::ZERO, |x, y| x + y);
        Ok(total)
    }

    /// Frobenius norm over the whole batch.
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .par_iter()
            .map(|z| z.norm_sqr())
            .sum::<f64>()
            .sqrt()
    }

    /// Element-wise maximum absolute difference (for tests).
    pub fn max_abs_diff(&self, rhs: &BatchedTensor3) -> f64 {
        assert_eq!((self.batch, self.n), (rhs.batch, rhs.n));
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bm(batch: usize, n: usize, seed: f64) -> BatchedMatrix {
        BatchedMatrix::from_fn(batch, n, |b, i, j| {
            Complex64::new(
                seed + b as f64 * 0.9 + i as f64 * 0.31 - j as f64 * 0.17,
                b as f64 * 0.11 - i as f64 * 0.07 + j as f64 * 0.23 - seed,
            )
        })
    }

    #[test]
    fn batched_matmul_is_bitwise_identical_to_per_element_naive() {
        let (batch, n) = (4, 128);
        let a = BatchedMatrix::from_fn(batch, n, |b, i, j| {
            Complex64::new(
                (b as f64 + i as f64 * 0.37 - j as f64 * 0.11).sin(),
                (i as f64 + 2.0 * j as f64 - b as f64).cos() * 0.5,
            )
        });
        let m = BatchedMatrix::from_fn(batch, n, |b, i, j| {
            Complex64::new(
                (j as f64 * 0.29 + i as f64 * 0.07 - b as f64).cos(),
                (3.0 * i as f64 - j as f64 + b as f64).sin() * 0.25,
            )
        });
        let c = a.matmul(&m).unwrap();
        let bits = |z: &[Complex64]| -> Vec<(u64, u64)> {
            z.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        for bi in 0..batch {
            let mut naive = vec![Complex64::ZERO; n * n];
            crate::gemm_naive(a.slab(bi), m.slab(bi), &mut naive, n);
            assert_eq!(bits(c.slab(bi)), bits(&naive), "batch element {bi}");
        }
    }

    fn sample_bt(batch: usize, n: usize, seed: f64) -> BatchedTensor3 {
        BatchedTensor3::from_fn(batch, n, |b, i, j, k| {
            Complex64::new(
                seed + b as f64 * 0.5 + i as f64 * 0.3 - j as f64 * 0.7 + k as f64 * 0.11,
                b as f64 * 0.2 + i as f64 * 0.05 + j as f64 * 0.2 - k as f64 * 0.01,
            )
        })
    }

    #[test]
    fn batched_matmul_matches_per_element() {
        let a = sample_bm(5, 6, 0.4);
        let b = sample_bm(5, 6, -1.1);
        let c = a.matmul(&b).unwrap();
        for bi in 0..5 {
            let expect = a.element(bi).matmul(&b.element(bi)).unwrap();
            assert!(c.element(bi).max_abs_diff(&expect) < 1e-12, "batch {bi}");
        }
    }

    #[test]
    fn batched_identity_neutral() {
        let a = sample_bm(3, 4, 2.0);
        let i = BatchedMatrix::identity(3, 4);
        let c = a.matmul(&i).unwrap();
        assert!(c.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn batched_trace_inner_matches_sum() {
        let a = sample_bm(4, 5, 0.9);
        let b = sample_bm(4, 5, -0.3);
        let fast = a.trace_inner(&b).unwrap();
        let mut slow = Complex64::ZERO;
        for bi in 0..4 {
            slow += a.element(bi).trace_inner(&b.element(bi)).unwrap();
        }
        assert!((fast - slow).abs() < 1e-10);
    }

    #[test]
    fn batched_shape_mismatch() {
        let a = BatchedMatrix::zeros(2, 3);
        let b = BatchedMatrix::zeros(2, 4);
        assert!(a.matmul(&b).is_err());
        let c = BatchedMatrix::zeros(3, 3);
        assert!(a.matmul(&c).is_err());
        assert!(a.trace_inner(&c).is_err());
    }

    #[test]
    fn batched_t3_contract_matches_per_element() {
        let a = sample_bt(3, 4, 0.8);
        let b = sample_bt(3, 4, -0.2);
        let c = a.contract(&b).unwrap();
        for bi in 0..3 {
            let expect = a.element(bi).contract(&b.element(bi)).unwrap();
            assert!(c.element(bi).max_abs_diff(&expect) < 1e-12, "batch {bi}");
        }
    }

    #[test]
    fn batched_t3_inner_matches_sum() {
        let a = sample_bt(4, 3, 1.4);
        let b = sample_bt(4, 3, 0.6);
        let fast = a.inner(&b).unwrap();
        let mut slow = Complex64::ZERO;
        for bi in 0..4 {
            slow += a.element(bi).inner(&b.element(bi)).unwrap();
        }
        assert!((fast - slow).abs() < 1e-10);
    }

    #[test]
    fn batched_t3_shape_mismatch() {
        let a = BatchedTensor3::zeros(2, 3);
        let b = BatchedTensor3::zeros(2, 4);
        assert!(a.contract(&b).is_err());
        assert!(a.inner(&b).is_err());
    }

    #[test]
    fn set_element_roundtrip() {
        let mut a = BatchedMatrix::zeros(2, 3);
        let m = Matrix::identity(3);
        a.set_element(1, &m);
        assert_eq!(a.element(1), m);
        assert_eq!(a.element(0), Matrix::zeros(3));
    }

    #[test]
    fn frobenius_norms() {
        let i = BatchedMatrix::identity(2, 4);
        // two identity matrices: 8 ones
        assert!((i.frobenius_norm() - 8.0_f64.sqrt()).abs() < 1e-12);
        let z = BatchedTensor3::zeros(3, 2);
        assert_eq!(z.frobenius_norm(), 0.0);
    }
}
