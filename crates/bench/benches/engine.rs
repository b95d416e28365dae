//! Engine comparison: Luby MIS on `G` through the sequential reference
//! `Simulator` versus the persistent worker-pool `PooledSimulator`,
//! across graph sizes and worker counts. The `experiments` binary prints
//! the same comparison as a table, with the multi-process backend
//! added (`experiments engines`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use powersparse::mis::luby_mis;
use powersparse_congest::sim::{SimConfig, Simulator};
use powersparse_engine::PooledSimulator;
use powersparse_graphs::generators;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    for (n, samples) in [(1_000usize, 10), (10_000, 5), (100_000, 3)] {
        group.sample_size(samples);
        let g = generators::connected_sparse_gnp(n, 8.0, 42);
        let config = SimConfig::for_graph(&g);
        group.bench_with_input(BenchmarkId::new("sequential", n), &g, |b, g| {
            b.iter(|| {
                let mut sim = Simulator::new(g, config);
                luby_mis(&mut sim, 1, 3)
            })
        });
        for shards in [2usize, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("pooled{shards}"), n),
                &g,
                |b, g| {
                    b.iter(|| {
                        let mut sim = PooledSimulator::with_shards(g, config, shards);
                        luby_mis(&mut sim, 1, 3)
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
