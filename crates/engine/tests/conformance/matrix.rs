//! The deterministic conformance matrix, instantiated for both parallel
//! backends at every [`harness::SHARD_GRID`] count, plus the
//! acceptance-scale and deep-pipeline checks.

use crate::harness::{
    self, assert_case_conformance, assert_case_conformance_with, Algorithm, Case, EngineFactory,
    PooledFactory, ProcessFactory,
};
use powersparse::mis::luby_mis;
use powersparse_congest::engine::{Message, Metrics, RoundEngine, RoundPhase};
use powersparse_congest::sim::{SimConfig, Simulator};
use powersparse_engine::{PooledSimulator, ProcessSimulator};
use powersparse_graphs::{check, generators, Graph, NodeId};

#[test]
fn pooled_passes_the_full_matrix() {
    harness::run_full_matrix(&PooledFactory);
}

#[test]
fn process_passes_the_full_matrix() {
    harness::run_full_matrix(&ProcessFactory);
}

/// The opt-in accounting contract: with per-edge accounting **off**
/// (the default [`SimConfig`]), a full algorithm still runs identically
/// on every backend — outputs and the always-on aggregate counters
/// bit-for-bit against the accounting-*on* reference — and no per-edge
/// storage is ever allocated.
#[test]
fn aggregate_only_mode_conforms_and_allocates_nothing() {
    let case = Case::new(
        "luby/gnp-k2-aggregate-only",
        generators::connected_gnp(120, 5.0 / 120.0, 11),
        11,
        Algorithm::LubyMis { k: 2 },
    );
    let off = SimConfig::for_graph(&case.graph);
    assert!(
        !off.metrics.per_edge,
        "per-edge accounting must default off"
    );
    // Conformance of the whole run under aggregate-only accounting.
    assert_case_conformance_with(&PooledFactory, &case, &[1, 2, 4], off);
    assert_case_conformance_with(&ProcessFactory, &case, &[2], off);
    // And the mode changes no always-on counter: compare against the
    // per-edge-enabled reference field by field.
    let (out_off, m_off) = harness::reference_with(&case, off);
    let (out_on, m_on) = harness::reference(&case);
    assert_eq!(out_off, out_on, "outputs must not depend on accounting");
    assert!(m_off.edge_messages.is_empty() && m_off.edge_bits.is_empty());
    assert!(!m_on.edge_messages.is_empty());
    assert_eq!(
        (
            m_off.rounds,
            m_off.messages,
            m_off.bits,
            m_off.peak_queue_depth
        ),
        (m_on.rounds, m_on.messages, m_on.bits, m_on.peak_queue_depth),
        "aggregates diverged between accounting modes"
    );
}

/// A crafted multi-edge burst pinning down the *meaning* of
/// `peak_queue_depth`: the maximum number of messages queued on any
/// **single** directed edge at a transfer start — not a total across
/// edges. One edge receives a deepening burst each round while other
/// edges carry singleton and fragmented traffic; every backend must
/// measure the identical value (the sequential engine samples per queue
/// inside its transfer loop, the parallel engines take a per-shard max
/// and merge — the arena rewrite must not change either), and the peak
/// can never exceed the delivered-message total.
#[test]
fn peak_queue_depth_agrees_on_multi_edge_burst() {
    fn burst<E: RoundEngine>(eng: &mut E) -> Metrics {
        let n = eng.graph().n();
        let mut unit = vec![(); n];
        let mut phase = eng.phase::<u32>();
        for r in 0..4u32 {
            phase.step(&mut unit, |_, v, _in, out| {
                if v == NodeId(0) {
                    // A deepening burst on the edge 0→1 (r + 3 messages
                    // queued at once against bandwidth 5)...
                    for i in 0..(r + 3) {
                        out.send(v, NodeId(1), i, 9);
                    }
                    // ...plus a fragmented single on 0→2 and noise.
                    out.send(v, NodeId(2), 7, 23);
                } else if v == NodeId(3) {
                    out.send(v, NodeId(0), 1, 4);
                }
            });
        }
        phase.settle(10_000, &mut unit, |_, _, _| {});
        drop(phase);
        RoundEngine::metrics(eng).clone()
    }

    let g = generators::star(6); // center 0, leaves 1..=6
    let config = SimConfig::with_bandwidth(5);
    let mut seq = Simulator::new(&g, config);
    let want = burst(&mut seq);
    assert!(
        want.peak_queue_depth >= 6,
        "burst too shallow to be a meaningful probe: {}",
        want.peak_queue_depth
    );
    assert!(
        want.peak_queue_depth <= want.messages,
        "peak {} exceeds delivered messages {}",
        want.peak_queue_depth,
        want.messages
    );
    for shards in [1usize, 2, 4] {
        let got = burst(&mut PooledSimulator::with_shards(&g, config, shards));
        assert_eq!(got, want, "pooled burst metrics diverged at {shards}");
        let got = burst(&mut ProcessSimulator::with_shards(&g, config, shards));
        assert_eq!(got, want, "process burst metrics diverged at {shards}");
    }
}

/// One phase running `step` → `settle` → `step` → `step`: deliveries
/// `settle` consumed must not reappear in the next step's inboxes, and
/// `idle` must report unread arrivals identically on every backend.
/// Messages of up to 40 bits over 16-bit edges make `settle` consume
/// deliveries over several silent rounds.
#[test]
fn settle_consumes_deliveries_identically_on_every_backend() {
    /// Per node: `(stage, sender, payload)` of every delivery read.
    type Log = Vec<Vec<(u8, u32, u32)>>;
    fn run<E: RoundEngine>(eng: &mut E) -> (Log, Vec<bool>, Metrics) {
        let g = eng.network();
        let mut log: Log = vec![Vec::new(); g.n()];
        let mut idle = Vec::new();
        let mut phase = eng.phase::<u32>();
        idle.push(phase.idle());
        phase.step(&mut log, |_, v, _in, out| {
            out.broadcast(v, v.0, 8 + 16 * (v.0 as usize % 3));
        });
        idle.push(phase.idle());
        phase.settle(64, &mut log, |mine, _, inbox| {
            mine.extend(inbox.iter().map(|&(f, m)| (1, f.0, m)));
        });
        idle.push(phase.idle());
        phase.step(&mut log, |mine, v, inbox, out| {
            mine.extend(inbox.iter().map(|&(f, m)| (2, f.0, m)));
            if v == NodeId(0) {
                out.send(v, g.neighbors(v)[0], 7, 8);
            }
        });
        idle.push(phase.idle());
        phase.step(&mut log, |mine, _, inbox, _| {
            mine.extend(inbox.iter().map(|&(f, m)| (3, f.0, m)));
        });
        idle.push(phase.idle());
        drop(phase);
        (log, idle, RoundEngine::metrics(eng).clone())
    }

    let g = generators::connected_gnp(40, 0.15, 3);
    let config = SimConfig::with_bandwidth(16);
    let want = run(&mut Simulator::new(&g, config));
    assert!(
        want.0.iter().flatten().all(|&(stage, _, _)| stage != 2),
        "settle left deliveries behind on the reference"
    );
    assert_eq!(want.0.iter().flatten().filter(|e| e.0 == 3).count(), 1);
    assert_eq!(want.1, [true, false, true, false, true]);
    for shards in [1usize, 2, 4] {
        let got = run(&mut PooledSimulator::with_shards(&g, config, shards));
        assert_eq!(got, want, "pooled diverged at {shards} shards");
        let got = run(&mut ProcessSimulator::with_shards(&g, config, shards));
        assert_eq!(got, want, "process diverged at {shards} shards");
    }
}

/// The delay-based MPX clustering path of the network decomposition (the
/// diameter regime where the trivial single-cluster shortcut is barred)
/// exercises `delayed_bfs` and `safe_nodes` with real token traffic. A
/// long cycle forces it; checked on both parallel backends, the pool at
/// an inline and a parallel shard count.
#[test]
fn delayed_bfs_path_conforms_on_both_backends() {
    let case = Case::new(
        "nd/cycle-420",
        generators::cycle(420),
        1,
        Algorithm::PowerNd { k: 1 },
    );
    // Sanity: the delay regime really forms several clusters (otherwise
    // this case would not exercise the deep token-traffic path).
    let mut seq =
        powersparse_congest::sim::Simulator::new(&case.graph, SimConfig::for_graph(&case.graph));
    let nd = powersparse::nd::power_nd(&mut seq, 1, &powersparse::TheoryParams::scaled()).unwrap();
    assert!(nd.color.len() > 1, "must have formed several clusters");
    assert_case_conformance(&PooledFactory, &case, &[1, 4]);
    assert_case_conformance(&ProcessFactory, &case, &[2]);
}

/// The full acceptance-scale check at a size where sharding matters:
/// Luby MIS on a 20k-node random graph at 8 shards, bit-for-bit against
/// the reference, on both parallel backends.
#[test]
fn large_graph_luby_conformance() {
    let n = 20_000;
    let case = Case::new(
        "luby/gnp-20k",
        generators::connected_gnp(n, 6.0 / n as f64, 77),
        5,
        Algorithm::LubyMis { k: 1 },
    );
    assert_case_conformance(&PooledFactory, &case, &[8]);
    assert_case_conformance(&ProcessFactory, &case, &[8]);
    // And the reference output is a valid MIS of G (not just equal).
    let (_, metrics) = harness::reference(&case);
    assert!(metrics.rounds > 0);
    let config = SimConfig::for_graph(&case.graph);
    let mut eng = PooledFactory.build(&case.graph, config, 8);
    let mis = luby_mis(&mut eng, 1, 5);
    assert!(check::is_mis(&case.graph, &generators::members(&mis)));
}

/// A broadcast is its per-neighbor sends: one program run once with
/// `broadcast` and once with a `send_at` loop over the sender's CSR
/// positions gives every node the same inbox log and the same
/// `Metrics` — per-edge traffic, peak queue depth and the arena gauges
/// included — on the sequential engine and on every parallel backend.
/// Messages of 4 to 25 bits over 12-bit edges fragment and queue, one
/// node has no neighbors, and a single send on a node's last position
/// precedes some broadcasts. Both an inline wire payload and one parked
/// in the process backend's slab are checked.
#[test]
fn broadcast_equals_its_per_neighbor_sends_on_every_engine() {
    /// Per node: `(round, sender, payload)` of every delivery read; the
    /// settle's rounds read as `u32::MAX`.
    type Log<M> = Vec<Vec<(u32, u32, M)>>;

    fn run<E: RoundEngine, M: Message + PartialEq>(
        eng: &mut E,
        broadcast: bool,
        payload: fn(u32, u32) -> M,
    ) -> (Log<M>, Metrics) {
        let g = eng.network();
        let mut log: Log<M> = vec![Vec::new(); g.n()];
        let mut phase = eng.phase::<M>();
        for r in 0..6u32 {
            phase.step(&mut log, |mine, v, inbox, out| {
                mine.extend(inbox.iter().map(|(f, m)| (r, f.0, m.clone())));
                if (v.0 + r) % 3 == 0 {
                    return;
                }
                let degree = out.neighbors(v).len();
                let msg = payload(v.0, r);
                if v.0 % 4 == 1 && degree > 0 {
                    out.send_at(v, degree - 1, msg.clone(), 6);
                }
                let bits = 4 + 7 * ((v.0 + r) % 4) as usize;
                if broadcast {
                    out.broadcast(v, msg, bits);
                } else {
                    for pos in 0..degree {
                        out.send_at(v, pos, msg.clone(), bits);
                    }
                }
            });
        }
        phase.settle(1_000, &mut log, |mine, _, inbox| {
            mine.extend(inbox.iter().map(|(f, m)| (u32::MAX, f.0, m.clone())));
        });
        drop(phase);
        (log, RoundEngine::metrics(eng).clone())
    }

    fn check<M: Message + PartialEq + std::fmt::Debug>(g: &Graph, payload: fn(u32, u32) -> M) {
        let config = SimConfig::with_bandwidth(12).with_per_edge_accounting();
        let want = run(&mut Simulator::new(g, config), true, payload);
        assert!(want.1.peak_queue_depth >= 2, "no edge queued: {:?}", want.1);
        assert!(want.1.rounds > 6, "no message fragmented");
        let both = |label: String, per_neighbor, broadcast| {
            assert_eq!(per_neighbor, want, "{label}: send_at loop diverged");
            assert_eq!(broadcast, want, "{label}: broadcast diverged");
        };
        both(
            "sequential".into(),
            run(&mut Simulator::new(g, config), false, payload),
            want.clone(),
        );
        for shards in [1usize, 2, 4, 8] {
            let eng = || PooledSimulator::with_shards(g, config, shards);
            both(
                format!("pooled{shards}"),
                run(&mut eng(), false, payload),
                run(&mut eng(), true, payload),
            );
        }
        for shards in [1usize, 2, 4] {
            let eng = || ProcessSimulator::with_shards(g, config, shards);
            both(
                format!("process{shards}"),
                run(&mut eng(), false, payload),
                run(&mut eng(), true, payload),
            );
        }
    }

    // `connected_gnp(40, …)` with nodes 17 and up renumbered one higher,
    // so node 17 is isolated.
    let base = generators::connected_gnp(40, 0.15, 3);
    let lift = |v: NodeId| v.index() + usize::from(v.index() >= 17);
    let edges: Vec<_> = base.edges().map(|(u, v)| (lift(u), lift(v))).collect();
    let g = Graph::from_edges(41, &edges);
    assert_eq!(g.degree(NodeId(17)), 0);
    check(&g, |v, r| (v, r));
    check(&g, |v, r| format!("{v}/{r}"));
}

/// Abandons a `u32` phase with a fragment still crossing and
/// deliveries unread, then runs a `u32` phase, which takes the
/// abandoned phase's buffers, and a `u64` phase, which opens fresh
/// ones. Returns what every node heard in the two later phases, which
/// must start idle and see nothing of the abandoned one, and the
/// engine's metrics.
fn reopen_after_abandon<E: RoundEngine>(eng: &mut E) -> (Vec<Vec<(u32, u64)>>, Metrics) {
    let n = eng.graph().n();
    let mut unit = vec![(); n];
    let mut p = eng.phase::<u32>();
    p.step(&mut unit, |_, v, _in, out| {
        out.broadcast(v, v.0, 4);
        if v == NodeId(0) {
            let to = out.neighbors(v)[0];
            out.send(v, to, 99, 40);
        }
    });
    assert!(p.in_flight(), "the 40-bit fragment is still crossing");
    assert!(!p.idle(), "the 4-bit broadcasts are delivered but unread");
    drop(p);
    let mut heard: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
    let mut p = eng.phase::<u32>();
    assert!(p.idle(), "a reopened u32 phase starts idle");
    p.step(&mut heard, |_, v, inbox, out| {
        assert!(inbox.is_empty(), "stale delivery in a reopened phase");
        out.broadcast(v, v.0 + 1000, 13);
    });
    p.settle(64, &mut heard, |h, _, inbox| {
        h.extend(inbox.iter().map(|&(f, m)| (f.0, u64::from(m))));
    });
    drop(p);
    let mut p = eng.phase::<u64>();
    assert!(p.idle(), "a u64 phase after u32 ones starts idle");
    p.step(&mut heard, |_, v, inbox, out| {
        assert!(inbox.is_empty(), "stale delivery in a new phase");
        out.broadcast(v, u64::from(v.0) << 40, 22);
    });
    p.settle(64, &mut heard, |h, _, inbox| {
        h.extend(inbox.iter().map(|&(f, m)| (f.0, m)));
    });
    drop(p);
    (heard, RoundEngine::metrics(eng).clone())
}

/// An abandoned phase leaves nothing behind on any engine: the phase
/// that reuses its buffers and the next fresh one hear the same inbox
/// logs, with the same `Metrics` (per-edge traffic included), as on the
/// sequential engine.
#[test]
fn reopened_phases_start_clean_on_every_engine() {
    let g = generators::grid(6, 8);
    let config = SimConfig::with_bandwidth(9).with_per_edge_accounting();
    let want = reopen_after_abandon(&mut Simulator::new(&g, config));
    assert!(want.0.iter().all(|h| !h.is_empty()));
    for shards in [1usize, 2, 4, 8] {
        let got = reopen_after_abandon(&mut PooledSimulator::with_shards(&g, config, shards));
        assert_eq!(got, want, "pooled diverged at {shards} shards");
    }
    for shards in [1usize, 2, 4] {
        let got = reopen_after_abandon(&mut ProcessSimulator::with_shards(&g, config, shards));
        assert_eq!(got, want, "process diverged at {shards} shards");
    }
}
