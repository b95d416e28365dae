//! The transport fault-injection wall for the multi-process backend.
//!
//! Every way the wire can fail — torn frame, flipped bits, duplicated
//! or reordered traffic, a child killed mid-round, a child wedged past
//! the barrier timeout — must fail **closed**: a deterministic panic
//! carrying the stable `wire::EngineError` display, never a hang and
//! never a wrong answer.  Faults are injected through
//! `ProcessSimulator::wrap_transport` (a `wire::FaultyTransport` around
//! the real socket) and the two child-signal hooks.
//!
//! The recv stream a wrapper sees is fixed by the protocol: the `Hello`
//! frame is consumed at engine construction, so received frame `2r` is
//! round `r`'s `Deliveries` and `2r + 1` its `RoundStats` — injecting
//! at index 0 always hits round 0's reply.

use powersparse_congest::engine::{RoundEngine, RoundPhase};
use powersparse_congest::sim::{SimConfig, Simulator};
use powersparse_engine::wire::{
    read_frame_bytes, EngineError, Fault, FaultyTransport, Frame, FrameKind, StreamTransport,
    Transport, WireError, HEADER_LEN, MAX_PAYLOAD, RECV_CHUNK,
};
use powersparse_engine::ProcessSimulator;
use powersparse_graphs::{generators, NodeId};
use std::io::{Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Steps ping-pong traffic on every edge of the path for three rounds,
/// then settles.  The workload every fault is injected into.
fn drive<E: RoundEngine>(eng: &mut E) {
    let n = eng.graph().n();
    let mut unit = vec![(); n];
    let mut phase = eng.phase::<u32>();
    for _ in 0..3 {
        phase.step(&mut unit, |_, v, _in, out| {
            if (v.0 as usize) + 1 < n {
                out.send(v, NodeId(v.0 + 1), v.0, 8);
            }
            if v.0 > 0 {
                out.send(v, NodeId(v.0 - 1), v.0, 8);
            }
        });
    }
    phase.settle(64, &mut unit, |_, _, _| {});
}

/// Builds a 2-shard process engine with a short barrier timeout over a
/// path graph, applies `prepare` (the fault hook), drives real traffic,
/// and returns the deterministic panic message the faulted round
/// produced.  Also proves the "never hangs" half of the contract: the
/// whole run is bounded by a wall-clock assertion.
fn fault_panic(prepare: impl FnOnce(&mut ProcessSimulator<'_>)) -> String {
    let g = generators::path(8);
    let config = SimConfig::for_graph(&g);
    let mut eng = ProcessSimulator::with_shards(&g, config, 2)
        .with_barrier_timeout(Duration::from_millis(300));
    prepare(&mut eng);
    let start = Instant::now();
    let err = catch_unwind(AssertUnwindSafe(|| drive(&mut eng)))
        .expect_err("faulted run must panic, not produce an answer");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "fault took {:?} to surface — the wall must not hang",
        start.elapsed()
    );
    drop(eng);
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "<non-string panic payload>".into())
}

#[test]
fn truncated_frame_fails_closed() {
    let msg = fault_panic(|eng| {
        eng.wrap_transport(1, |t| {
            Box::new(FaultyTransport::new(t, 0, Fault::Truncate { drop: 3 }))
        });
    });
    assert_eq!(msg, "process engine: shard 1: truncated frame");
}

#[test]
fn corrupted_checksum_fails_closed() {
    // Offset 17 is the first CRC byte: the frame still parses as a
    // frame, but can no longer authenticate.
    let msg = fault_panic(|eng| {
        eng.wrap_transport(1, |t| {
            Box::new(FaultyTransport::new(t, 0, Fault::FlipByte { offset: 17 }))
        });
    });
    assert_eq!(msg, "process engine: shard 1: frame checksum mismatch");
}

#[test]
fn corrupted_payload_byte_fails_closed() {
    // A flip in the payload body is caught by the same checksum.
    let msg = fault_panic(|eng| {
        eng.wrap_transport(1, |t| {
            Box::new(FaultyTransport::new(t, 0, Fault::FlipByte { offset: 64 }))
        });
    });
    assert_eq!(msg, "process engine: shard 1: frame checksum mismatch");
}

#[test]
fn duplicated_frame_fails_closed() {
    // The duplicated `Deliveries` arrives where `RoundStats` is due.
    let msg = fault_panic(|eng| {
        eng.wrap_transport(1, |t| {
            Box::new(FaultyTransport::new(t, 0, Fault::Duplicate))
        });
    });
    assert_eq!(
        msg,
        "process engine: shard 1: unexpected frame (want RoundStats, got Deliveries)"
    );
}

#[test]
fn reordered_frames_fail_closed() {
    // `RoundStats` overtakes `Deliveries`.
    let msg = fault_panic(|eng| {
        eng.wrap_transport(1, |t| Box::new(FaultyTransport::new(t, 0, Fault::Reorder)));
    });
    assert_eq!(
        msg,
        "process engine: shard 1: unexpected frame (want Deliveries, got RoundStats)"
    );
}

#[test]
fn killed_child_is_detected_before_any_round() {
    let msg = fault_panic(|eng| eng.kill_child(1));
    assert_eq!(
        msg,
        "process engine: child for shard 1 died mid-round (socket closed)"
    );
}

/// The headline child-death case: a child SIGKILLed *between* rounds of
/// an open phase.  The next round's barrier observes the closed socket
/// and raises the stable error instead of hanging.
#[test]
fn killed_child_mid_phase_errors_on_the_next_barrier() {
    let g = generators::path(8);
    let config = SimConfig::for_graph(&g);
    let mut eng = ProcessSimulator::with_shards(&g, config, 2)
        .with_barrier_timeout(Duration::from_millis(300));
    let start = Instant::now();
    let err = catch_unwind(AssertUnwindSafe(|| {
        let mut unit = vec![(); 8];
        let mut phase = eng.phase::<u32>();
        // Round 0 completes cleanly...
        phase.step(&mut unit, |_, v, _in, out| {
            if v.0 > 0 {
                out.send(v, NodeId(v.0 - 1), v.0, 8);
            }
        });
        // ...then shard 0's child dies mid-phase.
        phase.kill_child(0);
        phase.step(&mut unit, |_, v, _in, out| {
            if v.0 > 0 {
                out.send(v, NodeId(v.0 - 1), v.0, 8);
            }
        });
        phase.settle(64, &mut unit, |_, _, _| {});
    }))
    .expect_err("a dead child must abort the phase");
    assert!(start.elapsed() < Duration::from_secs(10));
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert_eq!(
        msg,
        "process engine: child for shard 0 died mid-round (socket closed)"
    );
}

#[test]
fn wedged_child_trips_the_barrier_timeout() {
    let start = Instant::now();
    let msg = fault_panic(|eng| eng.stop_child(1));
    assert_eq!(msg, "process engine: barrier timeout waiting on shard 1");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "timeout must be bounded by the configured barrier timeout"
    );
}

/// The bounded-allocation pin: a header whose length field claims the
/// full `MAX_PAYLOAD` (the CRC that would expose the lie only arrives
/// *after* the payload) must not trigger a quarter-GiB allocation.
/// `read_frame_bytes` grows the buffer chunk by chunk, so no single
/// read request — and hence no single allocation step — exceeds
/// `RECV_CHUNK`.
#[test]
fn oversize_header_cannot_force_an_upfront_allocation() {
    struct MeteredFeed {
        data: Vec<u8>,
        pos: usize,
        max_req: usize,
    }
    impl Read for MeteredFeed {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.max_req = self.max_req.max(buf.len());
            let n = buf.len().min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }
    // A valid header claiming MAX_PAYLOAD bytes, with nothing behind it:
    // the peer lied and hung up.
    let mut header = Frame::control(FrameKind::Sends, 0, 0).encode();
    header[13..17].copy_from_slice(&(MAX_PAYLOAD as u32).to_le_bytes());
    let mut feed = MeteredFeed {
        data: header,
        pos: 0,
        max_req: 0,
    };
    assert_eq!(read_frame_bytes(&mut feed), Err(WireError::Eof));
    assert!(
        feed.max_req <= RECV_CHUNK,
        "recv requested a {}-byte read from an unauthenticated length field",
        feed.max_req
    );
}

/// The happy path of chunked assembly: a payload spanning several
/// `RECV_CHUNK`s reassembles byte-identically.
#[test]
fn multi_chunk_payloads_reassemble_exactly() {
    let frame = Frame {
        kind: FrameKind::Deliveries,
        shard: 1,
        epoch: 2,
        count: 3,
        payload: (0..3 * RECV_CHUNK + 1234).map(|i| i as u8).collect(),
    };
    let bytes = frame.encode();
    let mut cursor = std::io::Cursor::new(bytes.clone());
    assert_eq!(read_frame_bytes(&mut cursor).unwrap(), bytes);
    assert_eq!(Frame::decode(&bytes).unwrap(), frame);
}

/// The poisoning pin: after a mid-frame timeout the stream is
/// misaligned, so a retry used to resynchronise on payload bytes and
/// report a misleading "bad frame magic".  The transport now latches
/// the first error — the operator sees "barrier timeout", the root
/// cause, on every subsequent read.
#[test]
fn mid_frame_timeout_poisons_the_transport() {
    let (a, mut b) = UnixStream::pair().unwrap();
    let mut t = StreamTransport::new(a);
    t.set_timeout(Some(Duration::from_millis(50)));
    let frame = Frame {
        kind: FrameKind::Deliveries,
        shard: 0,
        epoch: 0,
        count: 0,
        payload: vec![7u8; 100],
    }
    .encode();
    // The peer delivers the header and half the payload, then stalls.
    b.write_all(&frame[..HEADER_LEN + 50]).unwrap();
    assert_eq!(t.recv(), Err(WireError::Timeout));
    // Late bytes arrive that a resynchronising recv would misparse as
    // a header with bad magic.
    b.write_all(&[0x55u8; 200]).unwrap();
    assert_eq!(
        t.recv(),
        Err(WireError::Timeout),
        "poisoned transport must replay the root cause, not BadMagic"
    );
    // Rendered through the engine error, the story stays "barrier
    // timeout", never "bad frame magic".
    let msg = EngineError {
        shard: 1,
        error: WireError::Timeout,
    }
    .to_string();
    assert_eq!(msg, "process engine: barrier timeout waiting on shard 1");
}

/// The drop path reaps every child, whatever state it is in: one child
/// killed (already dead, so the `Shutdown` send fails) and one SIGSTOPped
/// (alive but deaf, so only the SIGKILL escalation ends it).  After the
/// engine drops, a poll over `/proc/<pid>/stat` proves neither lingers,
/// as a zombie or still stopped.  (The test harness runs tests as
/// threads of one process, so a blanket `waitpid(-1)` is off the table —
/// `/proc` is the only safe scan.)
#[test]
fn dropped_engine_reaps_dead_and_wedged_children() {
    let g = generators::path(8);
    let config = SimConfig::for_graph(&g);
    let mut eng = ProcessSimulator::with_shards(&g, config, 2);
    let pids = vec![eng.child_pid(0), eng.child_pid(1)];
    eng.kill_child(0);
    eng.stop_child(1);
    drop(eng);
    // Every recorded pid must leave the process table (or at least be
    // neither a zombie nor stopped) within the bounded window.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut lingering: Vec<i32> = pids;
    while !lingering.is_empty() && Instant::now() < deadline {
        lingering.retain(|&pid| {
            match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
                Err(_) => false, // gone entirely
                Ok(s) => {
                    // State is the first field after the parenthesised
                    // comm (which may itself contain spaces).
                    let state = s.rsplit(')').next();
                    let state = state.and_then(|t| t.trim_start().chars().next());
                    matches!(state, Some('Z' | 'T'))
                }
            }
        });
        if !lingering.is_empty() {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    assert!(
        lingering.is_empty(),
        "children left behind as zombies or stopped: {lingering:?}"
    );
}

/// Forking shard children while other threads of the same process
/// panic must never wedge a child: a panicking thread holds std's panic
/// hook lock, and a child that touched that lock after fork would hang
/// before its `Hello` until the construction timeout fired.
#[test]
fn forking_while_other_threads_panic_never_wedges_a_child() {
    let g = generators::path(8);
    let config = SimConfig::for_graph(&g);
    let stop = std::sync::atomic::AtomicBool::new(false);
    let start = Instant::now();
    let wedged = std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let _ = catch_unwind(|| panic!("deliberate panic beside a fork"));
                }
            });
        }
        let forkers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    for _ in 0..20 {
                        drive(&mut ProcessSimulator::with_shards(&g, config, 2));
                    }
                })
            })
            .collect();
        let wedged = forkers.into_iter().filter_map(|f| f.join().err()).count();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        wedged
    });
    assert_eq!(
        wedged, 0,
        "a shard child wedged while another thread panicked"
    );
    assert!(start.elapsed() < Duration::from_secs(10));
}

/// A shard child closes every inherited descriptor above stderr except
/// its own socket, however high it is numbered: a socket end the parent
/// parked at fd ≥ 5000 must not be open in a freshly forked child, or
/// its peer would not see EOF for as long as that child lives.
#[test]
fn shard_children_close_high_numbered_inherited_descriptors() {
    const HIGH_FD: i32 = 5000;
    const F_DUPFD: i32 = 0;
    extern "C" {
        fn fcntl(fd: i32, cmd: i32, ...) -> i32;
        fn close(fd: i32) -> i32;
    }
    // `F_DUPFD` needs a soft open-file limit above the target number.
    let soft_limit = std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|limits| {
            let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
            line.split_whitespace().nth(3)?.parse::<u64>().ok()
        });
    if matches!(soft_limit, Some(limit) if limit <= HIGH_FD as u64) {
        eprintln!("skipped: open-file limit {soft_limit:?} is at most {HIGH_FD}");
        return;
    }
    let (a, _b) = UnixStream::pair().unwrap();
    // The lowest free descriptor at or above HIGH_FD.
    // SAFETY: duplicates a descriptor `a` owns; the copy is closed below.
    let high = unsafe { fcntl(a.as_raw_fd(), F_DUPFD, HIGH_FD) };
    assert!(high >= HIGH_FD, "F_DUPFD failed: {high}");
    assert!(std::path::Path::new(&format!("/proc/self/fd/{high}")).exists());
    let g = generators::path(8);
    let eng = ProcessSimulator::with_shards(&g, SimConfig::for_graph(&g), 2);
    // Construction waits for every child's `Hello`, which each child
    // sends only after closing its inherited descriptors.
    let leaked = std::path::Path::new(&format!("/proc/{}/fd/{high}", eng.child_pid(0))).exists();
    drop(eng);
    // SAFETY: `high` is the duplicate made above, owned by no object.
    unsafe { close(high) };
    assert!(!leaked, "shard child inherited the parent's fd {high}");
}

/// Positive control: a pass-through `FaultyTransport` that never
/// reaches its injection point changes nothing — outputs and metrics
/// stay bit-identical to the sequential reference.  This pins that the
/// fault results above come from the injected fault, not from the
/// wrapping itself.
#[test]
fn pass_through_wrapper_preserves_conformance() {
    let g = generators::path(8);
    let config = SimConfig::for_graph(&g).with_per_edge_accounting();
    let mut seq = Simulator::new(&g, config);
    drive(&mut seq);
    let mut eng = ProcessSimulator::with_shards(&g, config, 2);
    eng.wrap_transport(1, |t| {
        Box::new(FaultyTransport::new(t, u64::MAX, Fault::Duplicate))
    });
    drive(&mut eng);
    assert_eq!(RoundEngine::metrics(&eng), seq.metrics());
    assert_eq!(
        eng.messages_across(NodeId(4), NodeId(5)),
        seq.messages_across(NodeId(4), NodeId(5))
    );
}
