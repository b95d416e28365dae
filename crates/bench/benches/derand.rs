//! E8 (wall-clock): derandomization strategies — the k-wise family and
//! seed-scan machinery in isolation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use powersparse_kwise::derand::{conditional_expectations, seed_search};
use powersparse_kwise::family::KWiseFamily;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("derand");
    // A synthetic event set: 64 points; bad event = point hashes below
    // 1/8 threshold AND its successor does too.
    let fam = KWiseFamily::new(4, 16);
    let t = fam.threshold_for_probability(0.125);
    let count = move |seed: &powersparse_kwise::seed::Seed| -> u64 {
        (0..64u64)
            .filter(|&x| fam.indicator(seed, x, t) && fam.indicator(seed, x + 1, t))
            .count() as u64
    };
    group.bench_function(BenchmarkId::new("seed_search", "64pts"), |b| {
        b.iter(|| seed_search(fam.seed_len(), 0..4096, count).expect("found"))
    });
    // Exhaustive conditional expectations on a tiny family.
    let tiny = KWiseFamily::new(2, 8);
    let tt = tiny.threshold_for_probability(0.125);
    let tiny_count = move |seed: &powersparse_kwise::seed::Seed| -> u64 {
        (0..8u64)
            .filter(|&x| tiny.indicator(seed, x, tt) && tiny.indicator(seed, x + 1, tt))
            .count() as u64
    };
    group.bench_function(BenchmarkId::new("cond_expectations", "8pts_16bit"), |b| {
        b.iter(|| conditional_expectations(tiny.seed_len(), tiny_count).expect("ok"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
