//! Wall-clock cost of representative workload scenarios end to end
//! (graph build + algorithm run + validation), one per structural class:
//! random, power-law, structured/bounded-growth. The `experiments suite`
//! subcommand prints the same runs as a table and writes the JSON
//! manifest this bench's numbers contextualize.

use criterion::{criterion_group, criterion_main, Criterion};
use powersparse_workloads::{run_scenario, AlgorithmSpec, GraphFamily, Scenario};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("workloads");
    group.sample_size(10);
    let scenarios = [
        Scenario::new(GraphFamily::Gnp {
            n: 512,
            avg_deg: 8.0,
        })
        .seed(42)
        .pooled(4),
        Scenario::new(GraphFamily::PowerLaw { n: 512, attach: 3 })
            .k(2)
            .seed(7)
            .pooled(4),
        Scenario::new(GraphFamily::ClusterGrid {
            rows: 4,
            cols: 4,
            cluster: 6,
        })
        .k(2)
        .algorithm(AlgorithmSpec::Sparsify {
            derandomized: false,
        }),
    ];
    for sc in scenarios {
        group.bench_function(sc.name(), |b| {
            b.iter(|| {
                let rec = run_scenario(&sc).expect("scenario must run");
                assert!(rec.validation.passed, "{}", rec.validation.detail);
                rec
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
