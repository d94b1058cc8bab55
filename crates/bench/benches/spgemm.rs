//! SpGEMM bench: the parallel dense-SPA product against the
//! pattern-masked one, squaring web-like adjacency matrices.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kron_bench::web_factor;
use kron_sparse::{masked_spgemm, CsrMatrix};
use std::hint::black_box;
use std::time::Duration;

fn bench_spgemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("spgemm");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    for n in [2_000usize, 8_000] {
        let a: CsrMatrix<u64> = web_factor(n).to_csr();
        group.bench_with_input(BenchmarkId::new("spa_parallel", n), &a, |b, a| {
            b.iter(|| black_box(a.spgemm(a).nnz()))
        });
        group.bench_with_input(BenchmarkId::new("masked_by_pattern", n), &a, |b, a| {
            b.iter(|| black_box(masked_spgemm(a, a, a).nnz()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_spgemm);
criterion_main!(benches);
