//! Tensor-kernel benchmarks: the batched GEMM / rank-3 contraction that a
//! real deployment would dispatch to hipBLAS. These calibrate the
//! simulator's flop-rate assumptions against this host's CPU.

// Bench bodies unwrap freely: a bench that cannot set up its workload
// should abort, same as a test.
#![allow(clippy::unwrap_used)]

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use micco_tensor::{
    contraction_flops, gemm_naive, BatchedMatrix, BatchedTensor3, Complex64, ContractionKind,
    Matrix,
};

fn bench_batched_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels/batched_matmul");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    for &dim in &[64usize, 128] {
        let batch = 4;
        let a = BatchedMatrix::from_fn(batch, dim, |b, i, j| {
            Complex64::new((b + i) as f64 * 0.01, j as f64 * 0.01)
        });
        let bm = BatchedMatrix::from_fn(batch, dim, |b, i, j| {
            Complex64::new(j as f64 * 0.02, (b + i) as f64 * 0.005)
        });
        g.throughput(Throughput::Elements(contraction_flops(
            ContractionKind::Meson,
            batch,
            dim,
        )));
        g.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |bch, _| {
            bch.iter(|| black_box(a.matmul(&bm).unwrap()));
        });
    }
    g.finish();
}

fn bench_tensor3_contract(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels/tensor3_contract");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    for &dim in &[16usize, 32] {
        let batch = 4;
        let a = BatchedTensor3::from_fn(batch, dim, |b, i, j, k| {
            Complex64::new((b + i + j) as f64 * 0.01, k as f64 * 0.01)
        });
        let t = BatchedTensor3::from_fn(batch, dim, |b, i, j, k| {
            Complex64::new(k as f64 * 0.02, (b + i + j) as f64 * 0.004)
        });
        g.throughput(Throughput::Elements(contraction_flops(
            ContractionKind::Baryon,
            batch,
            dim,
        )));
        g.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |bch, _| {
            bch.iter(|| black_box(a.contract(&t).unwrap()));
        });
    }
    g.finish();
}

fn bench_trace_inner(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels/trace_inner");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    let a = BatchedMatrix::identity(8, 128);
    let b = BatchedMatrix::identity(8, 128);
    g.bench_function("dim128_batch8", |bch| {
        bch.iter(|| black_box(a.trace_inner(&b).unwrap()));
    });
    g.finish();
}

/// The reference `i, k, j` GEMM against the production kernel behind
/// [`Matrix::matmul`] (register-tiled, AVX2 when the CPU has it; DESIGN.md
/// "Real kernels"). Results are bitwise identical — asserted by unit tests —
/// so only time differs; throughput is in flops (`Gelem/s` = GFLOP/s).
fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels/gemm");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    for &n in &[128usize, 384] {
        let a = Matrix::from_fn(n, |i, j| Complex64::new(i as f64 * 0.01, j as f64 * 0.02));
        let b = Matrix::from_fn(n, |i, j| Complex64::new(j as f64 * 0.03, i as f64 * 0.01));
        g.throughput(Throughput::Elements(contraction_flops(
            ContractionKind::Meson,
            1,
            n,
        )));
        let mut out = vec![Complex64::ZERO; n * n];
        g.bench_with_input(BenchmarkId::new("naive", n), &n, |bch, _| {
            bch.iter(|| {
                out.fill(Complex64::ZERO);
                gemm_naive(a.as_slice(), b.as_slice(), &mut out, n);
                black_box(out[0])
            });
        });
        g.bench_with_input(BenchmarkId::new("matmul", n), &n, |bch, _| {
            bch.iter(|| black_box(a.matmul(&b).unwrap()));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_batched_matmul,
    bench_tensor3_contract,
    bench_trace_inner,
    bench_gemm
);
criterion_main!(benches);
