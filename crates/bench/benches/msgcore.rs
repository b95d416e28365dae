//! Wall-clock cost of the flat message core under the two traffic
//! regimes it was built for:
//!
//! * **dense** — every node broadcasts every round and every message
//!   fits the bandwidth, so every directed edge sends and every message
//!   is delivered directly in the round it is sent (the regime of the
//!   shattering workloads);
//! * **sparse** — a handful of nodes send large fragmented messages, so
//!   every message takes an arena cell and almost every round is a
//!   *quiet* round: the active-edge worklist keeps the round at
//!   O(active), and the cost is dominated by building the engine and
//!   opening the phase (O(m) cursors). No perfbench workload stresses
//!   this arena-bound regime.
//!
//! Absolute numbers (not old-vs-new deltas) — the committed
//! `BENCH_*.json` manifests and `experiments trend` carry the
//! cross-PR trajectory; this bench localizes a regression to the core.

use criterion::{criterion_group, criterion_main, Criterion};
use powersparse_congest::engine::{RoundEngine, RoundPhase};
use powersparse_congest::sim::{SimConfig, Simulator};
use powersparse_engine::PooledSimulator;
use powersparse_graphs::generators;

/// Every node broadcasts its ID each round: all 2m edges active.
fn dense_rounds<E: RoundEngine>(eng: &mut E, rounds: usize) -> u64 {
    let n = eng.graph().n();
    let id_bits = eng.graph().id_bits();
    let mut acc = vec![0u64; n];
    let mut phase = eng.phase::<u32>();
    for _ in 0..rounds {
        phase.step(&mut acc, |a, v, inbox, out| {
            *a += inbox.len() as u64;
            out.broadcast(v, v.0, id_bits);
        });
    }
    phase.settle(1_000, &mut acc, |a, _, inbox| *a += inbox.len() as u64);
    drop(phase);
    eng.metrics().messages
}

/// One node in 128 sends a message fragmented over ~24 transfer rounds:
/// nearly all rounds are quiet, nearly all edges idle.
fn sparse_rounds<E: RoundEngine>(eng: &mut E) -> u64 {
    let n = eng.graph().n();
    let bw = eng.bandwidth();
    let mut acc = vec![0u64; n];
    let mut phase = eng.phase::<u32>();
    phase.step(&mut acc, |_, v, _in, out| {
        if v.0 % 128 == 0 {
            let to = out.neighbors(v)[0];
            out.send(v, to, v.0, 24 * bw);
        }
    });
    phase.settle(1_000, &mut acc, |a, _, inbox| *a += inbox.len() as u64);
    drop(phase);
    eng.metrics().messages
}

fn bench(c: &mut Criterion) {
    let g = generators::connected_sparse_gnp(20_000, 8.0, 42);
    let config = SimConfig::for_graph(&g);
    let mut group = c.benchmark_group("msgcore");
    group.sample_size(10);
    group.bench_function("dense/sequential", |b| {
        b.iter(|| dense_rounds(&mut Simulator::new(&g, config), 4))
    });
    group.bench_function("dense/pooled2", |b| {
        b.iter(|| dense_rounds(&mut PooledSimulator::with_shards(&g, config, 2), 4))
    });
    group.bench_function("sparse/sequential", |b| {
        b.iter(|| sparse_rounds(&mut Simulator::new(&g, config)))
    });
    group.bench_function("sparse/pooled2", |b| {
        b.iter(|| sparse_rounds(&mut PooledSimulator::with_shards(&g, config, 2)))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
