//! Ablation bench: degree-ordered forward triangle counting
//! vs the naive wedge-check sweep vs the masked-SpGEMM linear-algebra
//! kernel, on the web-like factor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kron_bench::{naive_triangle_count, web_factor};
use kron_triangles::{count_triangles, count_triangles_serial, matrix_oracle};
use std::hint::black_box;
use std::time::Duration;

fn bench_trianglecount(c: &mut Criterion) {
    let mut group = c.benchmark_group("trianglecount");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    for n in [5_000usize, 20_000] {
        let g = web_factor(n);
        group.bench_with_input(BenchmarkId::new("forward_parallel", n), &g, |b, g| {
            b.iter(|| black_box(count_triangles(g).triangles))
        });
        group.bench_with_input(BenchmarkId::new("forward_serial", n), &g, |b, g| {
            b.iter(|| black_box(count_triangles_serial(g).triangles))
        });
        group.bench_with_input(BenchmarkId::new("naive_wedges", n), &g, |b, g| {
            b.iter(|| black_box(naive_triangle_count(g)))
        });
        group.bench_with_input(BenchmarkId::new("masked_spgemm", n), &g, |b, g| {
            b.iter(|| {
                let delta = matrix_oracle::edge_participation_formula(g);
                black_box(delta.values().iter().sum::<u64>() / 6)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_trianglecount);
criterion_main!(benches);
