//! The multi-process executor: [`ProcessSimulator`] and its phase type.
//!
//! The third [`RoundEngine`] backend moves the shard-to-shard transfer
//! across a real I/O boundary: each shard's arena core
//! ([`MsgCore`]) lives in a **forked child process**, and everything
//! that crosses shards rides the length-prefixed frame protocol of
//! [`crate::wire`] over a Unix-domain socket pair.  The deployment
//! shape this models is the paper's actual target — machines that only
//! ever exchange bandwidth-limited messages — while the engine contract
//! (identical outputs, identical [`Metrics`], identical probe traces)
//! stays bit-for-bit intact.
//!
//! # Division of labour
//!
//! CONGEST charges rounds and per-edge bandwidth; local computation is
//! free.  The split mirrors that cost model:
//!
//! * the **parent** steps every node (node programs capture non-`Send`
//!   borrows and per-phase state slices, which cannot cross a process
//!   boundary), encodes the round's sends straight into each shard's
//!   `Sends` frame in one monotone pass (a broadcast's one record
//!   becomes one cell per edge, so the wire carries per-edge sends
//!   only), and plays the stage-2 splicer: children are read in
//!   ascending shard order, which — shards being CSR-aligned
//!   contiguous edge ranges ([`ShardLayout`]) — is ascending sender
//!   order across shards.  Delivered cells are decoded onto the
//!   receiving shard's [`Inboxes`], the inbox type every engine steps
//!   and reads through, so each inbox gets the sequential reference
//!   order, and the round closes in the same [`close_round`] as the
//!   in-process engines';
//! * each **child** owns its shard's message core over the shard's
//!   local edge range and, as soon as the round's one `Sends` frame
//!   arrives, runs the bandwidth/fragmentation semantics
//!   ([`MsgCore::round`]) over its cells, on opaque payload bytes
//!   (stored inline in an arena cell, unless unusually long, when a
//!   message does not complete in its round).  The round is
//!   payload-agnostic, so every counter the child reports (peak depth,
//!   queue footprint, active edges) is identical to what an in-process
//!   core would have measured.
//!
//! A round allocates nothing per message on either side (a child boxes
//! only payloads longer than 22 bytes): frames are built in place in
//! per-shard buffers reused across rounds ([`FrameBuf`]) and read in
//! place ([`FrameView`], [`CellReader`]), so each payload byte is
//! copied once per hop.
//!
//! Children are forked once, at engine construction, with their edge
//! count and the bandwidth; each builds its core once and serves every
//! phase until the engine drops (a `PhaseStart` frame clears the core).
//! The parent parks its phase buffers as every engine does ([`Parked`]).
//! Payloads cross the wire by value when the message type has an inline
//! codec, and park in a parent-side [`PayloadSlab`] otherwise — the wire
//! then carries only a slot id, round-tripped through the child
//! untouched.
//!
//! # Failure semantics
//!
//! Every fault fails closed with a deterministic
//! [`EngineError`] (panicking with its stable display — the
//! engine trait has no fallible surface): a dead child is an EOF on its
//! socket ("died mid-round"), a wedged child trips the barrier timeout
//! ([`ProcessSimulator::set_barrier_timeout`]), torn or corrupted
//! frames are rejected by checksum before any state is touched, and a
//! child speaking another [`PROTOCOL_VERSION`] is rejected at its
//! `Hello`, before construction returns.  A
//! misbehaving node program panics in the parent during the step loop,
//! *before* any frame is written, so the four contract panics surface
//! identically to the in-process backends; `tests/faults.rs` and
//! `tests/conformance/` pin all of this.

use crate::routing::ShardLayout;
use crate::wire::{
    decode_payload, encode_payload, get_varint, CellReader, EngineError, Frame, FrameBuf,
    FrameKind, FrameView, PayloadSlab, StreamTransport, Transport, WireError, HEADER_LEN,
    PROTOCOL_VERSION,
};
use powersparse_congest::engine::{
    Delivery, Message, Metrics, Outbox, RoundEngine, RoundPhase, SendRecord,
};
use powersparse_congest::msgcore::MsgCore;
use powersparse_congest::probe::{
    charge_rounds, now_if, ns_between, probe_vec, NoProbe, PhaseMark, Probe,
};
use powersparse_congest::shard::{close_round, Inboxes, Parked, ShardTally};
use powersparse_congest::sim::SimConfig;
use powersparse_graphs::{Graph, NodeId};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;
use std::time::{Duration, Instant};

/// Raw syscall shims (no libc crate in the image; these are the stable
/// kernel ABI symbols glibc exports).
mod sys {
    pub const SIGKILL: i32 = 9;
    pub const SIGSTOP: i32 = 19;
    pub const WNOHANG: i32 = 1;
    pub const PR_SET_PDEATHSIG: i32 = 1;

    extern "C" {
        pub fn fork() -> i32;
        pub fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
        pub fn kill(pid: i32, sig: i32) -> i32;
        pub fn _exit(code: i32) -> !;
        pub fn close_range(first: u32, last: u32, flags: i32) -> i32;
        pub fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
}

/// Default bound on a barrier read before the parent declares the child
/// wedged. Generous, because it only fires on genuine failure — fault
/// tests shrink it to keep the negative wall fast.
const DEFAULT_BARRIER_TIMEOUT: Duration = Duration::from_secs(10);

fn raise(shard: usize, error: WireError) -> ! {
    panic!("{}", EngineError { shard, error })
}

// ---------------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------------

/// Payload bytes as a shard child queues them. The child never
/// interprets a payload — it stores it and hands it back — so a short
/// one lives inline in the arena cell and only a long one is boxed.
/// [`INLINE_PAYLOAD`] is chosen so the whole value is as large as the
/// `Vec<u8>` it replaces.
#[derive(Clone)]
enum CellBytes {
    Inline {
        len: u8,
        bytes: [u8; INLINE_PAYLOAD],
    },
    Boxed(Box<[u8]>),
}

/// Longest payload a child stores inline (the inline case's length and
/// the enum tag take the remaining two of 24 bytes).
const INLINE_PAYLOAD: usize = 22;

impl CellBytes {
    fn new(payload: &[u8]) -> Self {
        if payload.len() <= INLINE_PAYLOAD {
            let mut bytes = [0u8; INLINE_PAYLOAD];
            bytes[..payload.len()].copy_from_slice(payload);
            CellBytes::Inline {
                len: payload.len() as u8,
                bytes,
            }
        } else {
            CellBytes::Boxed(payload.into())
        }
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            CellBytes::Inline { len, bytes } => &bytes[..usize::from(*len)],
            CellBytes::Boxed(bytes) => bytes,
        }
    }
}

/// The child's whole life: a payload-opaque core servant.  It needs no
/// graph, no message type and no metrics — just its local edge count
/// and the bandwidth `bw`, fixed at fork.  It builds its core once; a
/// `PhaseStart` clears it, keeping capacity, and a round's one `Sends`
/// frame runs through the core's round as its cells are read.  Every
/// reply is built in place in one reused [`FrameBuf`]; a protocol error
/// ends the child.
fn child_serve(
    shard: u16,
    edges: usize,
    bw: u64,
    t: &mut StreamTransport,
) -> Result<(), WireError> {
    let mut out = FrameBuf::new();
    out.begin();
    out.put_varint(PROTOCOL_VERSION);
    t.send(out.seal(FrameKind::Hello, shard, 0))?;
    let mut core = MsgCore::<CellBytes>::new(edges);
    loop {
        let bytes = t.recv()?;
        let frame = FrameView::parse(&bytes)?;
        if frame.shard != shard {
            return Err(WireError::ShardMismatch {
                want: shard,
                got: frame.shard,
            });
        }
        match frame.kind {
            FrameKind::PhaseStart => core.clear(),
            FrameKind::Sends => {
                // The round writes each delivered cell straight into the
                // reply frame, so its time covers that encoding.
                let t0 = Instant::now();
                // Edges outside the shard's range are a protocol error;
                // the first bad cell ends the sends and the child.
                let mut bad = None;
                let sends = frame.cells().map_while(|cell| {
                    let send = cell.and_then(|c| {
                        let edge = u32::try_from(c.edge)
                            .ok()
                            .filter(|&e| (e as usize) < edges)
                            .ok_or(WireError::Payload)?;
                        Ok(SendRecord {
                            edge,
                            fanout: 1,
                            bits: c.bits,
                            from: NodeId(c.from),
                            msg: CellBytes::new(c.payload),
                        })
                    });
                    send.map_err(|e| bad = Some(e)).ok()
                });
                out.begin();
                let load = core.round(bw, sends, |e, from, payload| {
                    out.push_cell(e as u64, 0, from.0, payload.as_slice());
                });
                if let Some(e) = bad {
                    return Err(e);
                }
                let transfer_ns = t0.elapsed().as_nanos() as u64;
                t.send(out.seal(FrameKind::Deliveries, shard, frame.epoch))?;
                out.begin();
                out.put_varint(load.cells);
                out.put_varint(load.peak_depth);
                out.put_varint(core.active_edges() as u64);
                out.put_varint(core.queued() as u64);
                out.put_u64(transfer_ns);
                t.send(out.seal(FrameKind::RoundStats, shard, frame.epoch))?;
            }
            FrameKind::Shutdown => return Ok(()),
            other => {
                return Err(WireError::UnexpectedKind {
                    want: FrameKind::Sends,
                    got: other,
                })
            }
        }
    }
}

/// Common post-fork setup: die with the parent even if it crashes
/// before Drop runs, and drop every inherited descriptor above stderr
/// except `keep` — other engines' sockets (including other tests' in
/// the same binary) must see EOF the moment *their* parent or child
/// goes away, not be held open by an unrelated fork.  `close_range`
/// (Linux 5.9, glibc 2.34) covers the whole descriptor space in two
/// calls; a child that cannot close its inherited descriptors exits at
/// once instead of serving.
fn child_enter(keep: i32) {
    // Descriptors 0–2 are stdio and never closed, so a `keep` among
    // them leaves no range below it to close.
    let k = keep.max(2) as u32;
    // SAFETY: plain syscalls on integer arguments. The objects in the
    // inherited memory image that wrap the closed descriptors are never
    // used or dropped by the child, which leaves only through `_exit`;
    // its own socket, `keep`, stays open.
    unsafe {
        sys::prctl(sys::PR_SET_PDEATHSIG, sys::SIGKILL as u64, 0, 0, 0);
        let closed = (k <= 3 || sys::close_range(3, k - 1, 0) == 0)
            && sys::close_range(k + 1, u32::MAX, 0) == 0;
        if !closed {
            sys::_exit(1);
        }
    }
    // Never write to the shared stderr: silences the hook installed by
    // `install_child_panic_hook` (a child never unwinds into the
    // inherited test harness either — `child_finish` catches).
    IN_SHARD_CHILD.store(true, Ordering::Relaxed);
}

/// Set in a shard child right after fork, and never in the parent.
static IN_SHARD_CHILD: AtomicBool = AtomicBool::new(false);

/// Installs, once and before the first fork, a panic hook that is
/// silent in shard children and delegates to the previous hook in the
/// parent.  Setting a hook after fork would take std's hook lock, which
/// another parent thread may hold mid-panic at fork time — the child
/// would then deadlock before its `Hello`.
fn install_child_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_SHARD_CHILD.load(Ordering::Relaxed) {
                previous(info);
            }
        }));
    });
}

/// Post-fork entry point.  Runs in the child and never returns: serves
/// until shutdown or failure, reports protocol errors on the wire, and
/// exits without unwinding.
fn child_main(shard: u16, edges: usize, bw: u64, stream: UnixStream) -> ! {
    child_enter(stream.as_raw_fd());
    let mut t = StreamTransport::new(stream);
    let serve = || child_serve(shard, edges, bw, &mut t);
    let code = match std::panic::catch_unwind(AssertUnwindSafe(serve)) {
        Ok(Ok(())) => 0,
        Ok(Err(e)) => {
            let mut f = Frame::control(FrameKind::Error, shard, 0);
            f.payload = e.to_string().into_bytes();
            let _ = t.send(&f.encode());
            1
        }
        Err(_) => 101,
    };
    unsafe { sys::_exit(code) }
}

// ---------------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------------

struct ChildHandle {
    pid: i32,
    /// `Option` so [`ProcessSimulator::wrap_transport`] can take and
    /// re-box it; always `Some` between public calls.
    transport: Option<Box<dyn Transport>>,
    /// Set once `pid` has been `waitpid`ed. Guards every later signal
    /// and wait: a reaped pid may be recycled by the kernel, so
    /// signalling it again could hit an unrelated process, and
    /// re-waiting it would spin on `ECHILD`.
    reaped: bool,
}

impl ChildHandle {
    fn transport(&mut self) -> &mut dyn Transport {
        self.transport.as_mut().expect("transport present").as_mut()
    }
}

/// Owns the forked children; the drop glue lives here (not on the
/// engine) so [`ProcessSimulator::into_probe`] can move the probe out.
#[derive(Default)]
struct Children(Vec<ChildHandle>);

impl Drop for Children {
    fn drop(&mut self) {
        // Best-effort clean shutdown (ignored for already-dead
        // children: std leaves SIGPIPE ignored, so the send just
        // errors), then reap; escalate to SIGKILL for wedged children.
        for (w, child) in self.0.iter_mut().enumerate() {
            let frame = Frame::control(FrameKind::Shutdown, w as u16, 0);
            if let Some(t) = child.transport.as_mut() {
                let _ = t.send(&frame.encode());
            }
        }
        for child in &mut self.0 {
            if child.reaped {
                continue;
            }
            let mut status = 0i32;
            let mut reaped = false;
            for _ in 0..500 {
                let r = unsafe { sys::waitpid(child.pid, &mut status, sys::WNOHANG) };
                if r != 0 {
                    reaped = true; // exited (r == pid) or already reaped (r < 0)
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            if !reaped {
                unsafe {
                    sys::kill(child.pid, sys::SIGKILL);
                    sys::waitpid(child.pid, &mut status, 0);
                }
            }
        }
    }
}

/// The multi-process round engine: one forked child per shard, wire
/// frames for every cross-shard byte.  See the module docs for the
/// architecture and `crate::wire` for the protocol.
pub struct ProcessSimulator<'g, P: Probe = NoProbe> {
    graph: &'g Graph,
    config: SimConfig,
    metrics: Metrics,
    layout: ShardLayout,
    children: Children,
    probe: P,
    phases_opened: u64,
    /// The probe's distinct-receiver stamps, one per node (empty under
    /// [`NoProbe`]).
    stamps: Vec<u64>,
    /// Per-shard outbound frame buffer, reused by every frame the
    /// parent builds for that shard, across rounds and phases.
    frames: Vec<FrameBuf>,
    /// The last closed phase's slab, inboxes and send records.
    parked: Parked,
}

/// Forks shard `w`'s child, whose core spans `edges` local edges at `bw`
/// bits per edge per round, and returns its pid and the parent-side
/// transport, with reads bounded by the default barrier timeout.
fn spawn_shard_child(
    w: usize,
    edges: usize,
    bw: u64,
) -> Result<(i32, Box<dyn Transport>), WireError> {
    install_child_panic_hook();
    let (parent_end, child_end) = UnixStream::pair().map_err(crate::wire::io_err)?;
    let pid = unsafe { sys::fork() };
    assert!(pid >= 0, "process engine: fork failed");
    if pid == 0 {
        drop(parent_end);
        child_main(w as u16, edges, bw, child_end);
    }
    drop(child_end);
    let mut transport = StreamTransport::new(parent_end);
    transport.set_timeout(Some(DEFAULT_BARRIER_TIMEOUT));
    Ok((pid, Box::new(transport)))
}

/// A frame received from a child and authenticated, kept as the bytes
/// that crossed the wire (trimmed to its encoding, so the payload is
/// everything past the header) instead of being copied apart.
struct Received {
    bytes: Vec<u8>,
    count: u32,
}

impl Received {
    fn payload(&self) -> &[u8] {
        &self.bytes[HEADER_LEN..]
    }

    fn cells(&self) -> CellReader<'_> {
        CellReader::new(self.payload(), self.count as usize)
    }
}

/// Consumes and validates the child's `Hello`: a child speaking another
/// [`PROTOCOL_VERSION`] is a [`WireError::VersionSkew`].
fn consume_hello(t: &mut dyn Transport) -> Result<(), WireError> {
    let bytes = t.recv()?;
    let hello = FrameView::parse(&bytes)?;
    if hello.kind != FrameKind::Hello {
        return Err(WireError::UnexpectedKind {
            want: FrameKind::Hello,
            got: hello.kind,
        });
    }
    let mut p = hello.payload;
    let got = get_varint(&mut p)?;
    if got != PROTOCOL_VERSION {
        return Err(WireError::VersionSkew {
            want: PROTOCOL_VERSION,
            got,
        });
    }
    Ok(())
}

impl<'g> ProcessSimulator<'g> {
    /// Creates a process engine with an explicit shard count, one child
    /// process per shard. The children are forked here, once, and live
    /// until the engine drops.
    /// Results are identical for every count (the engine contract).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`, or with an [`EngineError`] if a child
    /// fails its `Hello` handshake.
    pub fn with_shards(graph: &'g Graph, config: SimConfig, shards: usize) -> Self {
        Self::with_probe(graph, config, shards, NoProbe)
    }
}

impl<'g, P: Probe> ProcessSimulator<'g, P> {
    /// Creates a process engine observed by `probe`. Like the pooled
    /// engine, the probe only ever runs on the caller thread, behind
    /// the round barrier — children report raw counters over the wire
    /// and the parent reconstructs every observation.
    ///
    /// # Panics
    ///
    /// As for [`ProcessSimulator::with_shards`].
    pub fn with_probe(graph: &'g Graph, config: SimConfig, shards: usize, probe: P) -> Self {
        let layout = ShardLayout::new(graph, shards);
        let shards = layout.shards();
        let mut sim = Self {
            graph,
            config,
            metrics: Metrics::for_graph(graph, config.metrics),
            layout,
            children: Children::default(),
            probe,
            phases_opened: 0,
            stamps: probe_vec::<u64, P>(graph.n()),
            frames: (0..shards).map(|_| FrameBuf::new()).collect(),
            parked: Parked::default(),
        };
        let bw = config.bandwidth as u64;
        for w in 0..shards {
            let edges = sim.layout.edge_ranges[w].len();
            let (pid, transport) = spawn_shard_child(w, edges, bw).unwrap_or_else(|e| raise(w, e));
            // Push before the handshake so the drop glue reaps the
            // child even if its `Hello` fails.
            sim.children.0.push(ChildHandle {
                pid,
                transport: Some(transport),
                reaped: false,
            });
            consume_hello(sim.children.0[w].transport()).unwrap_or_else(|e| raise(w, e));
        }
        sim
    }

    /// Number of shards (= child processes).
    pub fn shards(&self) -> usize {
        self.layout.shards()
    }

    /// The attached probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Consumes the engine, returning the probe (and its gathered
    /// observations). The children are shut down and reaped by the
    /// engine's drop glue.
    pub fn into_probe(self) -> P {
        self.probe
    }

    /// Bounds every barrier read: if a child has not produced its round
    /// frames within `timeout`, the round panics with the stable
    /// "barrier timeout waiting on shard …" error instead of hanging.
    pub fn set_barrier_timeout(&mut self, timeout: Duration) {
        for child in &mut self.children.0 {
            child.transport().set_timeout(Some(timeout));
        }
    }

    /// Builder form of [`ProcessSimulator::set_barrier_timeout`].
    pub fn with_barrier_timeout(mut self, timeout: Duration) -> Self {
        self.set_barrier_timeout(timeout);
        self
    }

    /// Test hook: replaces shard `w`'s transport with whatever `f`
    /// wraps it into (e.g. a [`crate::wire::FaultyTransport`]). The
    /// `Hello` frame is consumed at construction, so the wrapper's
    /// first received frame is round 0's `Deliveries`.
    pub fn wrap_transport(
        &mut self,
        shard: usize,
        f: impl FnOnce(Box<dyn Transport>) -> Box<dyn Transport>,
    ) {
        let t = self.children.0[shard]
            .transport
            .take()
            .expect("transport present");
        self.children.0[shard].transport = Some(f(t));
    }

    /// Test hook: SIGKILLs shard `w`'s child and reaps it, so the next
    /// barrier read observes a closed socket. No-op if the child was
    /// already reaped (a reaped pid may have been recycled).
    pub fn kill_child(&mut self, shard: usize) {
        let child = &mut self.children.0[shard];
        if child.reaped {
            return;
        }
        unsafe {
            sys::kill(child.pid, sys::SIGKILL);
            let mut status = 0i32;
            sys::waitpid(child.pid, &mut status, 0);
        }
        child.reaped = true;
    }

    /// Test hook: SIGSTOPs shard `w`'s child (alive but wedged), so the
    /// next barrier read runs into the timeout.
    pub fn stop_child(&mut self, shard: usize) {
        let child = &self.children.0[shard];
        if child.reaped {
            return;
        }
        unsafe {
            sys::kill(child.pid, sys::SIGSTOP);
        }
    }

    /// Test hook: shard `w`'s child pid, for asserting (in tests) that
    /// reaped children do not linger as zombies.
    pub fn child_pid(&self, shard: usize) -> i32 {
        self.children.0[shard].pid
    }

    /// Seals the frame built in shard `w`'s buffer and ships it.
    fn send_frame(&mut self, w: usize, kind: FrameKind, epoch: u32) {
        let bytes = self.frames[w].seal(kind, w as u16, epoch);
        if let Err(e) = self.children.0[w].transport().send(bytes) {
            raise(w, e);
        }
    }

    /// Receives shard `w`'s next frame and holds it to the protocol
    /// state: an `Error` frame surfaces the child's own report, and any
    /// kind/epoch/shard skew (duplicated or reordered traffic) is a
    /// deterministic failure.
    fn try_expect_frame(
        &mut self,
        w: usize,
        want: FrameKind,
        epoch: u32,
    ) -> Result<Received, WireError> {
        let mut bytes = self.children.0[w].transport().recv()?;
        let f = FrameView::parse(&bytes)?;
        if f.kind == FrameKind::Error {
            let report = String::from_utf8_lossy(f.payload).into_owned();
            return Err(WireError::ChildError(report));
        }
        if f.kind != want {
            return Err(WireError::UnexpectedKind { want, got: f.kind });
        }
        if f.epoch != epoch {
            return Err(WireError::EpochMismatch {
                want: epoch,
                got: f.epoch,
            });
        }
        if f.shard as usize != w {
            return Err(WireError::ShardMismatch {
                want: w as u16,
                got: f.shard,
            });
        }
        let (len, count) = (f.encoded_len(), f.count);
        bytes.truncate(len);
        Ok(Received { bytes, count })
    }

    /// Receives and fully validates one shard's round replies
    /// (`Deliveries` + `RoundStats`) without touching any engine state,
    /// so a failure anywhere in the pair leaves the round unapplied:
    /// every cell is parsed and bounds-checked in place, and the reply
    /// comes back ready to apply. The same pass adds each delivery to
    /// its receiving shard's entry of `arrivals`.
    fn try_collect_round(
        &mut self,
        w: usize,
        epoch: u32,
        arrivals: &mut [usize],
    ) -> Result<(Received, [u64; 5]), WireError> {
        let deliveries = self.try_expect_frame(w, FrameKind::Deliveries, epoch)?;
        let edges = self.layout.edge_ranges[w].clone();
        for cell in deliveries.cells() {
            let edge = cell?.edge;
            if edge >= edges.len() as u64 {
                return Err(WireError::Payload);
            }
            let to = self.graph.edge_target(edges.start + edge as usize);
            arrivals[self.layout.shard_of[to.index()] as usize] += 1;
        }
        let stats = self.try_expect_frame(w, FrameKind::RoundStats, epoch)?;
        let mut p = stats.payload();
        let mut st = [0u64; 5];
        for s in &mut st[..4] {
            *s = get_varint(&mut p)?;
        }
        st[4] = u64::from_le_bytes(p.try_into().map_err(|_| WireError::Payload)?);
        Ok((deliveries, st))
    }
}

impl<'g, P: Probe> RoundEngine for ProcessSimulator<'g, P> {
    type Phase<'s, M: Message>
        = ProcessPhase<'s, 'g, M, P>
    where
        Self: 's;
    type Network = &'g Graph;

    fn graph(&self) -> &Graph {
        self.graph
    }

    fn network(&self) -> &'g Graph {
        self.graph
    }

    fn bandwidth(&self) -> usize {
        self.config.bandwidth
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn charge_rounds(&mut self, r: u64) {
        charge_rounds(&mut self.metrics, &mut self.probe, r);
    }

    fn messages_across(&self, u: NodeId, v: NodeId) -> u64 {
        self.metrics.messages_across(self.graph, u, v)
    }

    fn bits_across(&self, u: NodeId, v: NodeId) -> u64 {
        self.metrics.bits_across(self.graph, u, v)
    }

    fn phase<M: Message>(&mut self) -> ProcessPhase<'_, 'g, M, P> {
        let shards = self.layout.shards();
        let mark = PhaseMark::open(&mut self.phases_opened, &self.metrics);
        let epoch = self.metrics.rounds as u32;
        for w in 0..shards {
            self.frames[w].begin();
            self.send_frame(w, FrameKind::PhaseStart, epoch);
        }
        let nodes = self.layout.node_ranges.iter();
        let (slab, inboxes, sends) = self.parked.take_or(|| {
            let inboxes = nodes.map(|n| Inboxes::new(n.clone())).collect();
            (PayloadSlab::new(), inboxes, Vec::new())
        });
        ProcessPhase {
            slab,
            inboxes,
            arrivals: vec![0; shards],
            sends,
            tallies: vec![ShardTally::default(); shards],
            live: vec![false; shards],
            mark,
            sim: self,
        }
    }
}

/// One typed communication phase on the process engine. The parent
/// steps and reads each shard's nodes through the shard's [`Inboxes`],
/// as the in-process engines do; the message-core tail is one wire
/// round-trip per shard per round. The slab, the inboxes and the send
/// records outlive the phase ([`Parked`]).
pub struct ProcessPhase<'s, 'g, M: Message, P: Probe = NoProbe> {
    sim: &'s mut ProcessSimulator<'g, P>,
    /// Parking lot for payloads without an inline wire codec.
    slab: PayloadSlab<M>,
    /// Per shard: the inboxes of its nodes. Children are read in
    /// ascending shard order, and each receiver's messages come in
    /// ascending sender order, FIFO per edge.
    inboxes: Vec<Inboxes<M>>,
    /// Per receiving shard: the deliveries in the reply being collected,
    /// reserved on its inboxes before they are pushed.
    arrivals: Vec<usize>,
    /// Reused send-record scratch (drained every round).
    sends: Vec<SendRecord<M>>,
    /// Per-shard round tallies: the parent's step time and sent bits,
    /// the rest from each child's `RoundStats`.
    tallies: Vec<ShardTally>,
    /// Per-shard in-flight flag (child cores nonempty after the last
    /// transfer, from `RoundStats`).
    live: Vec<bool>,
    /// The phase's ordinal and opening counters.
    mark: PhaseMark,
}

impl<M: Message, P: Probe> Drop for ProcessPhase<'_, '_, M, P> {
    fn drop(&mut self) {
        self.mark.close(&self.sim.metrics, &mut self.sim.probe);
        self.slab.clear();
        self.inboxes.iter_mut().for_each(Inboxes::clear);
        self.sends.clear();
        let slab = std::mem::take(&mut self.slab);
        let inboxes = std::mem::take(&mut self.inboxes);
        let sends = std::mem::take(&mut self.sends);
        self.sim.parked.park((slab, inboxes, sends));
    }
}

impl<M: Message, P: Probe> ProcessPhase<'_, '_, M, P> {
    /// Test hook: [`ProcessSimulator::kill_child`] through an open
    /// phase, for killing a child *between rounds* of a live protocol
    /// exchange.
    pub fn kill_child(&mut self, shard: usize) {
        self.sim.kill_child(shard);
    }

    /// The wire tail of one round: encode the sends straight into each
    /// shard's `Sends` frame and ship it (all writes before any read — a
    /// child reads its whole frame before it writes, so the two
    /// directions never deadlock), then collect each shard's
    /// `Deliveries` and `RoundStats` in ascending shard order onto the
    /// receivers' inboxes and close the round.
    fn exchange(&mut self, round_start: Option<Instant>) {
        let sim = &mut *self.sim;
        let shards = sim.layout.shards();
        let per_edge = sim.metrics.per_edge;
        let epoch = sim.metrics.rounds as u32;

        // Encode and ship the round shard by shard, so a child starts
        // its transfer while the parent encodes the next shard. Nodes
        // are stepped in ID order and a node's out-edges all lie in its
        // shard's CSR range, so each shard's sends are one contiguous
        // stretch of `sends`. Every child gets a Sends frame, even an
        // empty one: the frame is the child's round.
        let mut records = self.sends.drain(..).peekable();
        for w in 0..shards {
            let edges = sim.layout.edge_ranges[w].clone();
            let frame = &mut sim.frames[w];
            frame.begin();
            let mut bits = 0u64;
            while let Some(rec) = records.next_if(|r| (r.edge as usize) < edges.end) {
                // One cell per covered edge: the frame holds exactly the
                // per-edge sends the record stands for.
                let (each, from) = (rec.bits, rec.from.0);
                bits += each * u64::from(rec.fanout);
                let slab = &mut self.slab;
                rec.expand(|edge, msg| {
                    if per_edge {
                        sim.metrics.edge_bits[edge] += each;
                    }
                    let local = (edge - edges.start) as u64;
                    frame.push_cell_with(local, each, from, |out| {
                        encode_payload(msg, slab, out);
                    });
                });
            }
            self.tallies[w].bits = bits;
            sim.send_frame(w, FrameKind::Sends, epoch);
        }
        assert!(records.next().is_none(), "a send escaped every shard");

        // Collect in ascending shard order (= ascending sender order
        // across shards), so each inbox gets the reference order.
        for w in 0..shards {
            // Parse before mutating: both reply frames are received and
            // validated (every cell parsed and bounds-checked in place)
            // before any parent-side state is touched, so a fault never
            // leaves a half-applied round behind.
            self.arrivals.fill(0);
            let (deliveries, st) = sim
                .try_collect_round(w, epoch, &mut self.arrivals)
                .unwrap_or_else(|e| raise(w, e));
            for (inboxes, &count) in self.inboxes.iter_mut().zip(&self.arrivals) {
                inboxes.reserve(count);
            }
            let edge_start = sim.layout.edge_ranges[w].start;
            for cell in deliveries.cells() {
                let cell = cell.unwrap_or_else(|e| raise(w, e));
                let edge = edge_start + cell.edge as usize;
                let msg =
                    decode_payload(cell.payload, &mut self.slab).unwrap_or_else(|e| raise(w, e));
                if per_edge {
                    sim.metrics.edge_messages[edge] += 1;
                }
                let to = sim.graph.edge_target(edge);
                let receiver = sim.layout.shard_of[to.index()] as usize;
                self.inboxes[receiver].push((to, NodeId(cell.from), msg));
            }
            let [cells, peak_depth, active_edges, queued_after, transfer_ns] = st;
            self.live[w] = queued_after > 0;
            let tally = &mut self.tallies[w];
            *tally = ShardTally {
                messages: u64::from(deliveries.count),
                peak_depth,
                cells,
                active_edges,
                transfer_ns,
                ..*tally
            };
        }
        // Every wire cost lands in the barrier span.
        let wall = ns_between(round_start, now_if(P::ENABLED));
        close_round(
            &mut sim.metrics,
            &mut sim.probe,
            &self.tallies,
            &self.inboxes,
            &mut sim.stamps,
            Some(wall),
        );
    }
}

impl<M: Message, P: Probe> RoundPhase<M> for ProcessPhase<'_, '_, M, P> {
    fn graph(&self) -> &Graph {
        self.sim.graph
    }

    /// Steps every shard's nodes in ID order on the parent, then runs
    /// the wire tail. Panics from misbehaving node programs fire here,
    /// before any frame is written, leaving the protocol clean.
    fn step<S, F>(&mut self, state: &mut [S], f: F)
    where
        S: Send,
        F: Fn(&mut S, NodeId, &[Delivery<M>], &mut Outbox<'_, M>) + Sync,
    {
        let sim = &*self.sim;
        assert_eq!(
            state.len(),
            sim.graph.n(),
            "state slice must have one entry per node"
        );
        let round_start = now_if(P::ENABLED);
        let shards = self.inboxes.iter_mut().zip(&mut self.tallies);
        for ((inboxes, tally), chunk) in shards.zip(sim.layout.split_mut(state)) {
            let (_, step_ns) = inboxes.step(sim.graph, chunk, &mut self.sends, &f, P::ENABLED);
            tally.step_ns = step_ns;
        }
        self.exchange(round_start);
    }

    /// Every nonempty inbox in ID order, consuming what it reads.
    fn read_inboxes<S, F>(&mut self, state: &mut [S], f: F)
    where
        S: Send,
        F: Fn(&mut S, NodeId, &[Delivery<M>]) + Sync,
    {
        let n = self.sim.graph.n();
        assert_eq!(state.len(), n, "state slice must have one entry per node");
        let chunks = self.sim.layout.split_mut(state);
        for (inboxes, chunk) in self.inboxes.iter_mut().zip(chunks) {
            inboxes.read(chunk, &f);
        }
    }

    fn in_flight(&self) -> bool {
        self.live.iter().any(|&l| l)
    }

    fn idle(&self) -> bool {
        !self.in_flight() && self.inboxes.iter().all(Inboxes::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersparse_congest::sim::Simulator;
    use powersparse_graphs::generators;
    use std::collections::VecDeque;

    /// The same nontrivial echo program as the other backends' unit
    /// tests: fragmentation, FIFO order and per-node state.
    fn echo_program<E: RoundEngine>(eng: &mut E, rounds: usize) -> (Vec<u64>, Metrics) {
        let n = eng.graph().n();
        let mut acc: Vec<u64> = vec![0; n];
        let mut phase = eng.phase::<u64>();
        for r in 0..rounds {
            phase.step(&mut acc, |a, v, inbox, out| {
                for &(from, m) in inbox {
                    *a = a.wrapping_mul(31).wrapping_add(m ^ u64::from(from.0));
                }
                let payload = *a ^ (v.0 as u64) << 8 | r as u64;
                let bits = if v.0 % 2 == 1 { 200 } else { 5 };
                out.broadcast(v, payload, bits);
            });
        }
        phase.settle(10_000, &mut acc, |a, _v, inbox| {
            for &(from, m) in inbox {
                *a = a.wrapping_mul(31).wrapping_add(m ^ u64::from(from.0));
            }
        });
        drop(phase);
        (acc, eng.metrics().clone())
    }

    #[test]
    fn parity_with_sequential_across_shard_counts() {
        let g = generators::connected_gnp(120, 0.05, 9);
        let config = SimConfig::with_bandwidth(24).with_per_edge_accounting();
        let mut seq = Simulator::new(&g, config);
        let (want, want_m) = echo_program(&mut seq, 4);
        for shards in [1usize, 2, 5] {
            let mut pr = ProcessSimulator::with_shards(&g, config, shards);
            let (got, got_m) = echo_program(&mut pr, 4);
            assert_eq!(got, want, "outputs diverged at {shards} shards");
            assert_eq!(got_m, want_m, "metrics diverged at {shards} shards");
        }
    }

    #[test]
    fn slab_payload_types_round_trip_through_children() {
        // `String` has no inline wire codec, so every payload parks in
        // the parent-side slab and only slot ids cross the wire.
        let g = generators::cycle(10);
        let config = SimConfig::for_graph(&g);
        fn program<E: RoundEngine>(eng: &mut E) -> Vec<Vec<String>> {
            let n = eng.graph().n();
            let mut log: Vec<Vec<String>> = vec![Vec::new(); n];
            let mut phase = eng.phase::<String>();
            phase.step(&mut log, |_, v, _in, out| {
                out.broadcast(v, format!("hi from {v}"), 16);
            });
            phase.settle(64, &mut log, |mine, _v, inbox| {
                mine.extend(inbox.iter().map(|(f, m)| format!("{f}:{m}")));
            });
            drop(phase);
            log
        }
        let mut seq = Simulator::new(&g, config);
        let want = program(&mut seq);
        let mut pr = ProcessSimulator::with_shards(&g, config, 3);
        let got = program(&mut pr);
        assert_eq!(got, want);
        assert_eq!(seq.metrics(), RoundEngine::metrics(&pr));
    }

    #[test]
    fn settle_counts_rounds_like_drain() {
        // One 40-bit message over a 4-bit edge, settled on both engines.
        fn send_and_settle<E: RoundEngine>(eng: &mut E) {
            let mut unit = vec![(); 2];
            let mut phase = eng.phase::<u8>();
            phase.step(&mut unit, |_, v, _in, out| {
                if v == NodeId(0) {
                    out.send(v, NodeId(1), 1, 40);
                }
            });
            phase.settle(64, &mut unit, |_, _, _| {});
        }
        let g = generators::path(2);
        let config = SimConfig::with_bandwidth(4);
        let mut seq = Simulator::new(&g, config);
        send_and_settle(&mut seq);
        let mut pr = ProcessSimulator::with_shards(&g, config, 2);
        send_and_settle(&mut pr);
        assert_eq!(seq.metrics().rounds, 10);
        assert_eq!(seq.metrics(), RoundEngine::metrics(&pr));
    }

    #[test]
    fn child_payloads_are_stored_inline_up_to_the_limit() {
        // As large as the `Vec<u8>` it replaced, so the child's arena
        // cells do not grow.
        assert_eq!(
            std::mem::size_of::<Option<CellBytes>>(),
            std::mem::size_of::<Option<Vec<u8>>>()
        );
        for len in [
            0,
            1,
            INLINE_PAYLOAD - 1,
            INLINE_PAYLOAD,
            INLINE_PAYLOAD + 1,
            300,
        ] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8 ^ 0x5A).collect();
            let stored = CellBytes::new(&payload);
            assert_eq!(stored.as_slice(), payload.as_slice());
            assert_eq!(
                matches!(stored, CellBytes::Inline { .. }),
                len <= INLINE_PAYLOAD
            );
        }
    }

    #[test]
    fn charge_rounds_and_accessors() {
        let g = generators::path(5);
        let mut pr = ProcessSimulator::with_shards(&g, SimConfig::for_graph(&g), 2);
        assert_eq!(pr.shards(), 2);
        pr.charge_rounds(3);
        assert_eq!(pr.metrics().rounds, 3);
        assert_eq!(pr.metrics().charged_rounds, 3);
        assert_eq!(
            RoundEngine::bandwidth(&pr),
            SimConfig::for_graph(&g).bandwidth
        );
    }

    #[test]
    fn idle_tracks_unread_inboxes() {
        let g = generators::path(2);
        let mut pr = ProcessSimulator::with_shards(&g, SimConfig::with_bandwidth(64), 2);
        let mut unit = vec![(); 2];
        let mut phase = pr.phase::<u8>();
        assert!(RoundPhase::idle(&phase));
        phase.step(&mut unit, |_, v, _in, out| {
            if v == NodeId(0) {
                out.send(v, NodeId(1), 7, 4);
            }
        });
        // Delivered but unread: not idle, though nothing is in flight.
        assert!(!RoundPhase::in_flight(&phase));
        assert!(!RoundPhase::idle(&phase));
        phase.step(&mut unit, |_, _, _, _| {});
        assert!(RoundPhase::idle(&phase));
    }

    /// A scripted transport, like the `Feed` of `wire.rs`'s tests: hands
    /// back queued frames, then reports a closed socket.
    struct Feed(VecDeque<Vec<u8>>);

    impl Transport for Feed {
        fn send(&mut self, _bytes: &[u8]) -> Result<(), WireError> {
            Ok(())
        }
        fn recv(&mut self) -> Result<Vec<u8>, WireError> {
            self.0.pop_front().ok_or(WireError::Eof)
        }
    }

    fn hello(version: u64) -> Feed {
        let mut frame = Frame::control(FrameKind::Hello, 0, 0);
        crate::wire::put_varint(&mut frame.payload, version);
        Feed(VecDeque::from([frame.encode()]))
    }

    #[test]
    fn consume_hello_rejects_a_version_skewed_child() {
        assert_eq!(consume_hello(&mut hello(PROTOCOL_VERSION)), Ok(()));
        let error = consume_hello(&mut hello(99)).unwrap_err();
        assert_eq!(
            error,
            WireError::VersionSkew {
                want: PROTOCOL_VERSION,
                got: 99
            }
        );
        assert_eq!(
            EngineError { shard: 1, error }.to_string(),
            "process engine: shard 1: protocol version skew (want 4, got 99)"
        );
    }

    /// Serves a shard child over four local edges at 8 bits per round on
    /// a thread over a socket pair: the parent's end, past the child's
    /// `Hello`, and the child's result.
    fn serve_child() -> (
        StreamTransport,
        std::thread::JoinHandle<Result<(), WireError>>,
    ) {
        let (parent, child) = UnixStream::pair().expect("socketpair");
        let server =
            std::thread::spawn(move || child_serve(0, 4, 8, &mut StreamTransport::new(child)));
        let mut t = StreamTransport::new(parent);
        consume_hello(&mut t).expect("hello");
        (t, server)
    }

    fn frame(kind: FrameKind, epoch: u32, fill: impl FnOnce(&mut FrameBuf)) -> Vec<u8> {
        let mut f = FrameBuf::new();
        f.begin();
        fill(&mut f);
        f.seal(kind, 0, epoch).to_vec()
    }

    /// Delivered `(edge, sender, payload)` cells and the four gauges.
    type Reply = (Vec<(u64, u32, Vec<u8>)>, Vec<u64>);

    /// Receives a child's round reply, `Deliveries` then `RoundStats`,
    /// whose payload must be four varints and then exactly 8 bytes of
    /// transfer time.
    fn recv_round(t: &mut StreamTransport) -> Reply {
        let bytes = t.recv().unwrap();
        let deliveries = FrameView::parse(&bytes).unwrap();
        assert_eq!(deliveries.kind, FrameKind::Deliveries);
        let cells = deliveries
            .cells()
            .map(|c| c.map(|c| (c.edge, c.from, c.payload.to_vec())).unwrap())
            .collect();
        let bytes = t.recv().unwrap();
        let stats = FrameView::parse(&bytes).unwrap();
        assert_eq!(stats.kind, FrameKind::RoundStats);
        let mut p = stats.payload;
        let gauges = (0..4).map(|_| get_varint(&mut p).unwrap()).collect();
        assert_eq!(p.len(), 8, "the transfer time is 8 fixed bytes");
        (cells, gauges)
    }

    #[test]
    fn child_runs_a_round_per_sends_frame() {
        let (mut t, server) = serve_child();
        // A send that fits is delivered in its round; a 12-bit one takes
        // the arena.
        let sends = frame(FrameKind::Sends, 0, |f| {
            f.push_cell(2, 8, 5, &[1]);
            f.push_cell(3, 12, 5, &[2]);
        });
        t.send(&sends).unwrap();
        // Footprint 2 (the direct send counts), peak depth 1, one loaded
        // edge holding one message.
        assert_eq!(
            recv_round(&mut t),
            (vec![(2, 5, vec![1])], vec![2, 1, 1, 1])
        );
        // The next `Sends` frame, empty, is the next round: the queued
        // message's last 4 bits cross.
        t.send(&frame(FrameKind::Sends, 1, |_| {})).unwrap();
        assert_eq!(
            recv_round(&mut t),
            (vec![(3, 5, vec![2])], vec![1, 1, 0, 0])
        );
        // A `PhaseStart` drops what the core queues.
        t.send(&frame(FrameKind::Sends, 2, |f| f.push_cell(0, 12, 5, &[3])))
            .unwrap();
        assert_eq!(recv_round(&mut t), (vec![], vec![1, 1, 1, 1]));
        t.send(&frame(FrameKind::PhaseStart, 3, |_| {})).unwrap();
        t.send(&frame(FrameKind::Sends, 3, |_| {})).unwrap();
        assert_eq!(recv_round(&mut t), (vec![], vec![0, 0, 0, 0]));
        // A frame only a child sends fails closed.
        t.send(&frame(FrameKind::Deliveries, 4, |_| {})).unwrap();
        assert_eq!(
            server.join().unwrap(),
            Err(WireError::UnexpectedKind {
                want: FrameKind::Sends,
                got: FrameKind::Deliveries
            })
        );
    }

    #[test]
    fn child_rejects_an_out_of_range_edge() {
        let (mut t, server) = serve_child();
        t.send(&frame(FrameKind::Sends, 0, |f| f.push_cell(4, 8, 5, &[1])))
            .unwrap();
        assert_eq!(server.join().unwrap(), Err(WireError::Payload));
    }

    #[test]
    fn phases_reuse_the_same_children() {
        let g = generators::grid(4, 5);
        let config = SimConfig::with_bandwidth(9).with_per_edge_accounting();
        let mut seq = Simulator::new(&g, config);
        let mut pr = ProcessSimulator::with_shards(&g, config, 4);
        echo_program(&mut seq, 2);
        echo_program(&mut pr, 2);
        let mut unit = vec![0usize; g.n()];
        let mut p = pr.phase::<u8>();
        p.step(&mut unit, |_, v, _in, out| {
            if v == NodeId(0) {
                out.send(v, g.neighbors(v)[0], 1, 4);
            }
        });
        p.settle(16, &mut unit, |s, _, inbox| *s += inbox.len());
        drop(p);
        let mut q = seq.phase::<u8>();
        RoundPhase::step(&mut q, &mut vec![0usize; g.n()], |_, v, _in, out| {
            if v == NodeId(0) {
                out.send(v, g.neighbors(v)[0], 1, 4);
            }
        });
        q.settle(16, &mut vec![0usize; g.n()], |_, _, _| {});
        drop(q);
        assert_eq!(seq.metrics(), RoundEngine::metrics(&pr));
        for (u, v) in g.edges() {
            assert_eq!(seq.messages_across(u, v), pr.messages_across(u, v));
            assert_eq!(seq.bits_across(v, u), pr.bits_across(v, u));
        }
        // A phase of the last closed phase's type takes its buffers; a
        // new type opens fresh ones.
        let p = pr.phase::<u8>();
        assert!(p.sends.capacity() > 0);
        drop(p);
        let p = pr.phase::<u16>();
        assert_eq!(p.sends.capacity(), 0);
    }
}
