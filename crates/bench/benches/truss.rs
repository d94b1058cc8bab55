//! Ablation bench (experiment T3): bucket-peeling truss
//! decomposition vs the paper's simple recompute-Δ algorithm, plus the
//! Thm. 3 closed-form product truss vs decomposing a materialized product.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kron::{product_truss, KronProduct};
use kron_bench::web_factor;
use kron_gen::one_triangle_per_edge;
use kron_truss::{truss_decomposition, truss_decomposition_simple};
use std::hint::black_box;
use std::time::Duration;

fn bench_truss(c: &mut Criterion) {
    let mut group = c.benchmark_group("truss");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    for n in [1_000usize, 3_000] {
        let g = web_factor(n);
        group.bench_with_input(BenchmarkId::new("peel", n), &g, |b, g| {
            b.iter(|| black_box(truss_decomposition(g).max_trussness()))
        });
        group.bench_with_input(BenchmarkId::new("simple_recompute", n), &g, |b, g| {
            b.iter(|| black_box(truss_decomposition_simple(g).max_trussness()))
        });
    }
    // Thm. 3: closed-form product truss vs peeling the materialized product
    let a = web_factor(60);
    let bg = one_triangle_per_edge(40, 5);
    group.bench_function("thm3_closed_form", |bch| {
        bch.iter(|| {
            let kt = product_truss(&a, &bg).unwrap();
            black_box(kt.truss_size(3))
        })
    });
    let g = KronProduct::new(a.clone(), bg.clone())
        .materialize(1 << 26)
        .unwrap();
    group.bench_function("materialized_peel", |bch| {
        bch.iter(|| black_box(truss_decomposition(&g).max_trussness()))
    });
    group.finish();
}

criterion_group!(benches, bench_truss);
criterion_main!(benches);
