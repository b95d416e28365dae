//! The negative side of the engine contract: a deliberately misbehaving
//! `RoundPhase` program must be rejected **identically on all three
//! engines** — same panic, same message — so no backend silently
//! tolerates an illegal node program another backend would reject. The
//! multi-process backend steps nodes in the parent, so every contract
//! panic below fires before a byte crosses the wire; the panic message
//! must still match the sequential reference exactly even though the
//! message cores live in forked children.
//!
//! The misbehaviors a node program can express at runtime:
//!
//! * sending to a node that is not a `G`-neighbor (a non-edge),
//! * sending to a CSR position at or beyond the sender's degree,
//! * sending on behalf of another node (sender spoofing), by a single
//!   send or a broadcast,
//! * sending a zero-bit message, by a single send or a broadcast,
//! * handing `step`/`settle` a state slice of the wrong length,
//! * settling a message that cannot cross within the `settle` budget.
//!
//! The remaining misbehavior named by the contract — *writing outside
//! the node's own state slice* — is rejected statically: a step function
//! receives only `&mut S` for its own node, so there is nothing to test
//! at runtime. See the "Misbehaving node programs" section of the
//! `powersparse_congest::engine` module docs.

use powersparse_congest::engine::{RoundEngine, RoundPhase};
use powersparse_congest::sim::{SimConfig, Simulator};
use powersparse_engine::{PooledSimulator, ProcessSimulator};
use powersparse_graphs::{generators, NodeId};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The runtime-detectable contract violations.
#[derive(Debug, Clone, Copy)]
enum Misbehavior {
    /// Node 0 sends to node 2 on `path(4)` — not an edge.
    NonEdgeSend,
    /// Node 0 sends to CSR position 1 on `path(4)`, where it has one
    /// neighbor.
    PositionOutOfRange,
    /// Node 0 sends pretending to be node 1.
    SpoofedSender,
    /// Node 0 sends a message of zero bits.
    ZeroBits,
    /// Node 0 broadcasts pretending to be node 1.
    SpoofedBroadcast,
    /// Node 0 broadcasts a message of zero bits.
    ZeroBitBroadcast,
    /// The state slice has one entry too many.
    WrongStateLen,
}

/// Runs the misbehaving program on `eng` and returns the panic message.
fn misbehavior_message<E: RoundEngine>(eng: &mut E, mis: Misbehavior) -> String {
    let n = eng.graph().n();
    let err = catch_unwind(AssertUnwindSafe(|| {
        let mut phase = eng.phase::<u8>();
        let mut state = vec![0u8; n + usize::from(matches!(mis, Misbehavior::WrongStateLen))];
        phase.step(&mut state, |_, v, _in, out| {
            if v != NodeId(0) {
                return;
            }
            match mis {
                Misbehavior::NonEdgeSend => out.send(v, NodeId(2), 1, 4),
                Misbehavior::PositionOutOfRange => out.send_at(v, 1, 1, 4),
                Misbehavior::SpoofedSender => out.send(NodeId(1), NodeId(2), 1, 4),
                Misbehavior::ZeroBits => out.send(v, NodeId(1), 1, 0),
                Misbehavior::SpoofedBroadcast => out.broadcast(NodeId(1), 1, 4),
                Misbehavior::ZeroBitBroadcast => out.broadcast(v, 1, 0),
                Misbehavior::WrongStateLen => {}
            }
        });
    }))
    .expect_err("misbehaving phase must panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "<non-string panic payload>".into())
}

/// Asserts that the misbehavior panics with the same message on the
/// sequential, pooled and process engines (several shard counts, so the
/// offending node lands both on the coordinator's shard and on helper
/// threads / forked children).
fn assert_identical_rejection(mis: Misbehavior, expected_fragment: &str) {
    let g = generators::path(4);
    let config = SimConfig::for_graph(&g);
    let mut messages = Vec::new();
    messages.push((
        "sequential".to_string(),
        misbehavior_message(&mut Simulator::new(&g, config), mis),
    ));
    for shards in [1usize, 2, 4] {
        messages.push((
            format!("pooled{shards}"),
            misbehavior_message(&mut PooledSimulator::with_shards(&g, config, shards), mis),
        ));
        messages.push((
            format!("process{shards}"),
            misbehavior_message(&mut ProcessSimulator::with_shards(&g, config, shards), mis),
        ));
    }
    let (ref_engine, ref_msg) = &messages[0];
    assert!(
        ref_msg.contains(expected_fragment),
        "{ref_engine}: unexpected panic message `{ref_msg}` for {mis:?}"
    );
    for (engine, msg) in &messages[1..] {
        assert_eq!(
            msg, ref_msg,
            "{engine} rejected {mis:?} differently from {ref_engine}"
        );
    }
}

#[test]
fn non_edge_send_rejected_identically() {
    assert_identical_rejection(Misbehavior::NonEdgeSend, "is not an edge");
}

#[test]
fn out_of_range_position_rejected_identically() {
    assert_identical_rejection(
        Misbehavior::PositionOutOfRange,
        "v0 has no neighbor at position 1 (degree 1)",
    );
}

#[test]
fn spoofed_sender_rejected_identically() {
    assert_identical_rejection(Misbehavior::SpoofedSender, "attempted to send as");
}

#[test]
fn zero_bit_message_rejected_identically() {
    assert_identical_rejection(Misbehavior::ZeroBits, "positive size");
}

#[test]
fn spoofed_broadcast_rejected_identically() {
    assert_identical_rejection(Misbehavior::SpoofedBroadcast, "attempted to send as");
}

#[test]
fn zero_bit_broadcast_rejected_identically() {
    assert_identical_rejection(
        Misbehavior::ZeroBitBroadcast,
        "messages must have positive size",
    );
}

#[test]
fn wrong_state_length_rejected_identically() {
    assert_identical_rejection(
        Misbehavior::WrongStateLen,
        "state slice must have one entry per node",
    );
}

/// Querying per-edge traffic on an engine built without
/// `MetricsConfig::per_edge` (the default) is rejected with the
/// documented "per-edge accounting is disabled" panic — identically on
/// all three engines, for both accessors, even after traffic flowed.
#[test]
fn per_edge_query_without_accounting_rejected_identically() {
    fn query_panic<E: RoundEngine>(eng: &mut E, bits: bool) -> String {
        // Run real traffic first: the rejection must come from the
        // accounting mode, not from an empty engine.
        let mut unit = vec![(); eng.graph().n()];
        let mut phase = eng.phase::<u8>();
        phase.step(&mut unit, |_, v, _in, out| {
            if v == NodeId(0) {
                out.send(v, NodeId(1), 9, 4);
            }
        });
        phase.settle(16, &mut unit, |_, _, _| {});
        drop(phase);
        let err = catch_unwind(AssertUnwindSafe(|| {
            if bits {
                eng.bits_across(NodeId(0), NodeId(1))
            } else {
                eng.messages_across(NodeId(0), NodeId(1))
            }
        }))
        .expect_err("per-edge query without accounting must panic");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()
    }
    let g = generators::path(4);
    let config = SimConfig::for_graph(&g);
    assert!(
        !config.metrics.per_edge,
        "per-edge accounting must default off"
    );
    for bits in [false, true] {
        let msgs = [
            query_panic(&mut Simulator::new(&g, config), bits),
            query_panic(&mut PooledSimulator::with_shards(&g, config, 2), bits),
            query_panic(&mut ProcessSimulator::with_shards(&g, config, 2), bits),
        ];
        assert!(
            msgs[0].contains("per-edge accounting is disabled"),
            "unexpected panic message `{}`",
            msgs[0]
        );
        assert_eq!(msgs[0], msgs[1], "pooled rejected differently");
        assert_eq!(msgs[0], msgs[2], "process rejected differently");
    }
}

/// With accounting enabled, the same query succeeds on all three
/// engines and agrees — the positive control for the rejection above.
#[test]
fn per_edge_query_with_accounting_succeeds() {
    let g = generators::path(4);
    let config = SimConfig::for_graph(&g).with_per_edge_accounting();
    fn traffic<E: RoundEngine>(eng: &mut E) -> (u64, u64) {
        let mut unit = vec![(); eng.graph().n()];
        let mut phase = eng.phase::<u8>();
        phase.step(&mut unit, |_, v, _in, out| {
            if v == NodeId(0) {
                out.send(v, NodeId(1), 9, 4);
            }
        });
        phase.settle(16, &mut unit, |_, _, _| {});
        drop(phase);
        (
            eng.messages_across(NodeId(0), NodeId(1)),
            eng.bits_across(NodeId(0), NodeId(1)),
        )
    }
    let want = traffic(&mut Simulator::new(&g, config));
    assert_eq!(want, (1, 4));
    assert_eq!(
        want,
        traffic(&mut PooledSimulator::with_shards(&g, config, 2))
    );
    assert_eq!(
        want,
        traffic(&mut ProcessSimulator::with_shards(&g, config, 2))
    );
}

/// The settle entry point enforces the state-slice discipline too.
#[test]
fn settle_rejects_wrong_state_length_identically() {
    fn settle_panic<E: RoundEngine>(eng: &mut E) -> String {
        let err = catch_unwind(AssertUnwindSafe(|| {
            let mut phase = eng.phase::<u8>();
            let mut state = vec![0u8; 2]; // n = 3
            phase.settle(8, &mut state, |_, _, _| {});
        }))
        .expect_err("must panic");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()
    }
    let g = generators::path(3);
    let config = SimConfig::for_graph(&g);
    let msgs = [
        settle_panic(&mut Simulator::new(&g, config)),
        settle_panic(&mut PooledSimulator::with_shards(&g, config, 2)),
        settle_panic(&mut ProcessSimulator::with_shards(&g, config, 2)),
    ];
    assert!(msgs[0].contains("state slice"), "{}", msgs[0]);
    assert_eq!(msgs[0], msgs[1]);
    assert_eq!(msgs[0], msgs[2]);
}

/// A message too large to cross in the given budget makes `settle` panic
/// with the same text on every engine: the quiescence loop is defined
/// once, in `RoundPhase::settle`, over each backend's `read_inboxes`.
#[test]
fn settle_budget_rejected_identically() {
    fn overrun_panic<E: RoundEngine>(eng: &mut E) -> String {
        let err = catch_unwind(AssertUnwindSafe(|| {
            let mut unit = vec![(); eng.graph().n()];
            let mut phase = eng.phase::<u8>();
            // 40 bits over a 4-bit edge need 10 rounds; allow 3.
            phase.step(&mut unit, |_, v, _in, out| {
                if v == NodeId(0) {
                    out.send(v, NodeId(1), 1, 40);
                }
            });
            phase.settle(3, &mut unit, |_, _, _| {});
        }))
        .expect_err("an overrun settle must panic");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()
    }
    let g = generators::path(3);
    let config = SimConfig::with_bandwidth(4);
    let mut msgs = vec![overrun_panic(&mut Simulator::new(&g, config))];
    for shards in [1usize, 2] {
        msgs.push(overrun_panic(&mut PooledSimulator::with_shards(
            &g, config, shards,
        )));
        msgs.push(overrun_panic(&mut ProcessSimulator::with_shards(
            &g, config, shards,
        )));
    }
    assert_eq!(msgs[0], "settle exceeded 3 rounds");
    for msg in &msgs[1..] {
        assert_eq!(msg, &msgs[0]);
    }
}
