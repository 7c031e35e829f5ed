//! Dense square complex matrices (a single batch element of a meson node).

use crate::complex::Complex64;
use crate::TensorError;

/// A dense, row-major `n × n` complex matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    n: usize,
    data: Vec<Complex64>,
}

impl Matrix {
    /// Zero matrix of mode length `n`.
    pub fn zeros(n: usize) -> Self {
        Matrix {
            n,
            data: vec![Complex64::ZERO; n * n],
        }
    }

    /// Identity matrix of mode length `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n);
        for i in 0..n {
            m.data[i * n + i] = Complex64::ONE;
        }
        m
    }

    /// Build from a generator over `(row, col)`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> Complex64) -> Self {
        let mut data = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                data.push(f(i, j));
            }
        }
        Matrix { n, data }
    }

    /// Mode length `n`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Complex64 {
        self.data[i * self.n + j]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn get_mut(&mut self, i: usize, j: usize) -> &mut Complex64 {
        &mut self.data[i * self.n + j]
    }

    /// Raw row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Matrix product `self · rhs`.
    ///
    /// The kernel iterates `i, k, j` so the inner loop streams contiguous
    /// rows of both `rhs` and the output (the classic cache-friendly
    /// ordering; see the Rust Performance Book on iteration order).
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, TensorError> {
        if self.n != rhs.n {
            return Err(TensorError::ShapeMismatch {
                lhs: (1, self.n),
                rhs: (1, rhs.n),
            });
        }
        let n = self.n;
        let mut out = Matrix::zeros(n);
        matmul_into(&self.data, &rhs.data, &mut out.data, n);
        Ok(out)
    }

    /// `tr(self · rhs)` without materialising the product.
    pub fn trace_inner(&self, rhs: &Matrix) -> Result<Complex64, TensorError> {
        if self.n != rhs.n {
            return Err(TensorError::ShapeMismatch {
                lhs: (1, self.n),
                rhs: (1, rhs.n),
            });
        }
        let n = self.n;
        let mut acc = Complex64::ZERO;
        for i in 0..n {
            for k in 0..n {
                acc.mul_add_assign(self.get(i, k), rhs.get(k, i));
            }
        }
        Ok(acc)
    }

    /// Trace `tr(self)`.
    pub fn trace(&self) -> Complex64 {
        (0..self.n).map(|i| self.get(i, i)).sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Conjugate transpose.
    pub fn dagger(&self) -> Matrix {
        Matrix::from_fn(self.n, |i, j| self.get(j, i).conj())
    }

    /// Element-wise maximum absolute difference from `rhs` (for tests).
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f64 {
        assert_eq!(self.n, rhs.n, "max_abs_diff requires equal dims");
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }
}

/// Row-major `n×n` GEMM accumulating into `out` (which must be zeroed by the
/// caller when a fresh product is wanted). Shared by [`Matrix::matmul`] and
/// the batched kernels so they cannot drift apart.
///
/// Runs the register-tiled kernel [`gemm_tiled`], compiled for AVX2 when
/// this CPU has it. Either way the result is **bitwise identical** to
/// [`gemm_naive`]: see [`gemm_tiled`] for why.
#[inline]
pub(crate) fn matmul_into(a: &[Complex64], b: &[Complex64], out: &mut [Complex64], n: usize) {
    if !gemm_avx2(a, b, out, n) {
        gemm_tiled(a, b, out, n);
    }
}

/// The straightforward `i, k, j` kernel (inner loop streams rows of `b` and
/// `out`): the reference every other kernel must match bit for bit. Public
/// for the `kernels` criterion bench; use [`Matrix::matmul`] in real code.
#[doc(hidden)]
pub fn gemm_naive(a: &[Complex64], b: &[Complex64], out: &mut [Complex64], n: usize) {
    for i in 0..n {
        let arow = &a[i * n..(i + 1) * n];
        let orow = &mut out[i * n..(i + 1) * n];
        for (k, &aik) in arow.iter().enumerate() {
            let brow = &b[k * n..(k + 1) * n];
            for (o, &bkj) in orow.iter_mut().zip(brow) {
                o.mul_add_assign(aik, bkj);
            }
        }
    }
}

/// Rows of `out` one micro-kernel call holds in registers.
const MR: usize = 2;
/// Columns of `out` one micro-kernel call holds in registers: the width of
/// a packed panel of `b`.
const NR: usize = 8;

/// [`gemm_tiled`] compiled with AVX2 enabled, when this CPU has AVX2.
/// Returns `false`, having done nothing, when it does not.
#[cfg(target_arch = "x86_64")]
fn gemm_avx2(a: &[Complex64], b: &[Complex64], out: &mut [Complex64], n: usize) -> bool {
    /// # Safety
    ///
    /// The CPU running it must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn tiled(a: &[Complex64], b: &[Complex64], out: &mut [Complex64], n: usize) {
        gemm_tiled(a, b, out, n);
    }
    if !is_x86_feature_detected!("avx2") {
        return false;
    }
    // SAFETY: `is_x86_feature_detected!("avx2")` just returned true, so
    // this CPU supports the one feature `tiled` is compiled for.
    unsafe { tiled(a, b, out, n) };
    true
}

/// Non-x86-64 targets run the portable instantiation only.
#[cfg(not(target_arch = "x86_64"))]
fn gemm_avx2(_: &[Complex64], _: &[Complex64], _: &mut [Complex64], _: usize) -> bool {
    false
}

/// Register-tiled GEMM, accumulating into `out` like [`gemm_naive`].
///
/// `b` is packed into split re/im column panels `NR` wide, one panel at a
/// time into one buffer per call; an `MR × NR` tile of `out` then stays in
/// registers across the whole `k` loop (lanes past column `n` in the last
/// panel are computed but never stored). The tile loops vectorise across
/// `j` only, and every output element still computes exactly
/// `re += a.re·b.re − a.im·b.im`, `im += a.re·b.im + a.im·b.re` over `k`
/// ascending, starting from its incoming value, with no fused
/// multiply-add — so the result is bitwise identical to [`gemm_naive`].
///
/// `#[inline(always)]` so that [`gemm_avx2`]'s copy is compiled with its
/// target features.
#[inline(always)]
fn gemm_tiled(a: &[Complex64], b: &[Complex64], out: &mut [Complex64], n: usize) {
    debug_assert!(a.len() == n * n && b.len() == n * n && out.len() == n * n);
    // panel[k] = [re, im] of b[k][j0..j0 + NR]
    let mut panel = vec![[[0.0f64; NR]; 2]; n];
    // the out tile in the panel's split layout: loaded and stored whole, it
    // lets the compiler vectorise across `j` (moved straight to and from
    // interleaved `out`, LLVM vectorised each (re, im) pair instead, at
    // half the speed)
    let mut acc = [[[0.0f64; NR]; 2]; MR];
    for j0 in (0..n).step_by(NR) {
        let width = NR.min(n - j0);
        for (k, [re, im]) in panel.iter_mut().enumerate() {
            for (j, z) in b[k * n + j0..][..width].iter().enumerate() {
                re[j] = z.re;
                im[j] = z.im;
            }
        }
        let mut i0 = 0;
        while i0 < n {
            let rows = MR.min(n - i0);
            for (r, [re, im]) in acc[..rows].iter_mut().enumerate() {
                for (j, z) in out[(i0 + r) * n + j0..][..width].iter().enumerate() {
                    re[j] = z.re;
                    im[j] = z.im;
                }
            }
            if rows == MR {
                tile::<MR>(a, &panel, &mut acc, n, i0);
            } else {
                tile::<1>(a, &panel, &mut acc, n, i0);
            }
            for (r, [re, im]) in acc[..rows].iter().enumerate() {
                for (j, z) in out[(i0 + r) * n + j0..][..width].iter_mut().enumerate() {
                    *z = Complex64::new(re[j], im[j]);
                }
            }
            i0 += rows;
        }
    }
}

/// `acc[..R] += a[i0..i0 + R] · panel` over the whole `k` range, with the
/// tile held in registers.
#[inline(always)]
fn tile<const R: usize>(
    a: &[Complex64],
    panel: &[[[f64; NR]; 2]],
    acc: &mut [[[f64; NR]; 2]; MR],
    n: usize,
    i0: usize,
) {
    let mut c: [[[f64; NR]; 2]; R] = std::array::from_fn(|r| acc[r]);
    let rows: [&[Complex64]; R] = std::array::from_fn(|r| &a[(i0 + r) * n..][..n]);
    for (k, [br, bi]) in panel.iter().enumerate() {
        for r in 0..R {
            let Complex64 { re: ar, im: ai } = rows[r][k];
            let [re, im] = &mut c[r];
            for j in 0..NR {
                re[j] += ar * br[j] - ai * bi[j];
            }
            for j in 0..NR {
                im[j] += ar * bi[j] + ai * br[j];
            }
        }
    }
    acc[..R].copy_from_slice(&c);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: &[&[(f64, f64)]]) -> Matrix {
        let n = rows.len();
        Matrix::from_fn(n, |i, j| Complex64::new(rows[i][j].0, rows[i][j].1))
    }

    #[test]
    fn identity_is_neutral() {
        let a = mat(&[&[(1.0, 2.0), (0.0, -1.0)], &[(3.0, 0.5), (2.0, 2.0)]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn known_product() {
        // [[1, i], [0, 2]] * [[1, 0], [1, 1]] = [[1+i, i], [2, 2]]
        let a = mat(&[&[(1.0, 0.0), (0.0, 1.0)], &[(0.0, 0.0), (2.0, 0.0)]]);
        let b = mat(&[&[(1.0, 0.0), (0.0, 0.0)], &[(1.0, 0.0), (1.0, 0.0)]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.get(0, 0), Complex64::new(1.0, 1.0));
        assert_eq!(c.get(0, 1), Complex64::new(0.0, 1.0));
        assert_eq!(c.get(1, 0), Complex64::new(2.0, 0.0));
        assert_eq!(c.get(1, 1), Complex64::new(2.0, 0.0));
    }

    #[test]
    fn shape_mismatch_is_error() {
        let a = Matrix::zeros(2);
        let b = Matrix::zeros(3);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::ShapeMismatch { .. })
        ));
        assert!(a.trace_inner(&b).is_err());
    }

    #[test]
    fn trace_inner_matches_product_trace() {
        let a = mat(&[&[(1.0, 1.0), (2.0, 0.0)], &[(0.0, -1.0), (3.0, 0.0)]]);
        let b = mat(&[&[(0.5, 0.0), (1.0, 1.0)], &[(2.0, -2.0), (0.0, 1.0)]]);
        let direct = a.trace_inner(&b).unwrap();
        let via_product = a.matmul(&b).unwrap().trace();
        assert!((direct - via_product).abs() < 1e-12);
    }

    #[test]
    fn dagger_involution() {
        let a = mat(&[&[(1.0, 1.0), (2.0, -3.0)], &[(0.0, 4.0), (5.0, 0.0)]]);
        assert_eq!(a.dagger().dagger(), a);
        assert_eq!(a.dagger().get(0, 1), Complex64::new(0.0, -4.0));
    }

    #[test]
    fn frobenius_norm_of_identity() {
        assert!((Matrix::identity(4).frobenius_norm() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn associativity_numerically() {
        let a = mat(&[&[(1.0, 0.3), (0.2, 1.0)], &[(0.0, -0.7), (1.5, 0.0)]]);
        let b = mat(&[&[(0.9, 0.0), (1.1, -1.0)], &[(2.0, 0.4), (0.3, 1.0)]]);
        let c = mat(&[&[(0.1, 0.1), (0.0, 2.0)], &[(1.0, 0.0), (0.5, -0.5)]]);
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        assert!(left.max_abs_diff(&right) < 1e-12);
    }

    #[test]
    fn max_abs_diff_zero_for_self() {
        let a = Matrix::identity(3);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    fn tiled_gemm_is_bitwise_identical_to_naive_on_both_paths() {
        for n in (1..=40).chain([63, 64, 65, 127, 128, 129, 200]) {
            let a = Matrix::from_fn(n, |i, j| {
                Complex64::new(
                    (i as f64 * 0.37 - j as f64 * 0.11).sin(),
                    (i as f64 + 2.0 * j as f64).cos() * 0.5,
                )
            });
            let b = Matrix::from_fn(n, |i, j| {
                Complex64::new(
                    (j as f64 * 0.29 + i as f64 * 0.07).cos(),
                    (3.0 * i as f64 - j as f64).sin() * 0.25,
                )
            });
            // a non-zero start: the kernels accumulate into `out`
            let start = Matrix::from_fn(n, |i, j| {
                Complex64::new((i * n + j) as f64 * 1e-3, -(j as f64) * 0.7)
            });
            let bits = |z: &[Complex64]| -> Vec<(u64, u64)> {
                z.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
            };
            let mut naive = start.as_slice().to_vec();
            gemm_naive(a.as_slice(), b.as_slice(), &mut naive, n);
            let mut portable = start.as_slice().to_vec();
            gemm_tiled(a.as_slice(), b.as_slice(), &mut portable, n);
            assert_eq!(bits(&naive), bits(&portable), "n = {n}: portable path");
            let mut avx2 = start.as_slice().to_vec();
            if gemm_avx2(a.as_slice(), b.as_slice(), &mut avx2, n) {
                assert_eq!(bits(&naive), bits(&avx2), "n = {n}: AVX2 path");
            }
        }
    }
}
