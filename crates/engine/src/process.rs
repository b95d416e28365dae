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
//! [`ProcessOptions`] extends the wire two ways without touching the
//! contract: links can run over loopback TCP
//! ([`ProcessSimulator::with_tcp_loopback`]) instead of socket pairs,
//! and can be shaped by a [`NetworkSpec`]
//! ([`ProcessSimulator::with_network`]) charging every frame modeled
//! latency + serialization delay — the measurement surface for
//! latency-scaling experiments, where only wall clock may move.
//!
//! # Division of labour
//!
//! CONGEST charges rounds and per-edge bandwidth; local computation is
//! free.  The split mirrors that cost model:
//!
//! * the **parent** steps every node (node programs capture non-`Send`
//!   borrows and per-phase state slices, which cannot cross a process
//!   boundary), encodes the round's sends straight into each shard's
//!   `Sends` frame in one monotone pass, and plays the stage-2
//!   splicer: children are read in ascending shard order, which —
//!   shards being CSR-aligned contiguous edge ranges ([`ShardLayout`])
//!   — *is* ascending global edge order, the sequential reference
//!   delivery order.  Delivered cells are decoded onto one arrival run
//!   and grouped per node by the pooled engine's stable counting sort
//!   when the next `step` or `settle` reads them;
//! * each **child** owns its shard's message core over the shard's
//!   local edge range and runs the bandwidth/fragmentation semantics
//!   ([`MsgCore::transfer`]) on opaque payload bytes, stored inline in
//!   the arena cell unless unusually long.  The transfer is
//!   payload-agnostic, so every counter the child reports (peak depth,
//!   arena share, active edges) is identical to what an in-process core
//!   would have measured.
//!
//! A round allocates nothing per message on either side (a child boxes
//! only payloads longer than 22 bytes): frames are built in place in
//! per-shard buffers reused across rounds ([`FrameBuf`]) and read in
//! place ([`FrameView`], [`CellReader`]), so each payload byte is
//! copied once per hop.
//!
//! Children are forked once, at engine construction, and serve every
//! phase until the engine drops (a `PhaseStart` frame rebuilds the
//! core).  Payloads cross the wire by value when the message type has
//! an inline codec, and park in a parent-side
//! [`PayloadSlab`] otherwise — the wire then
//! carries only a slot id, round-tripped through the child untouched.
//!
//! # Failure semantics
//!
//! Every fault fails closed with a deterministic
//! [`EngineError`] (panicking with its stable display — the
//! engine trait has no fallible surface): a dead child is an EOF on its
//! socket ("died mid-round"), a wedged child trips the barrier timeout
//! ([`ProcessSimulator::set_barrier_timeout`]), and torn or corrupted
//! frames are rejected by checksum before any state is touched.  A
//! misbehaving node program panics in the parent during the step loop,
//! *before* any frame is written, so the four contract panics surface
//! identically to the in-process backends; `tests/faults.rs` and
//! `tests/conformance/` pin all of this.

use crate::routing::{capped_default_shards, stamp_receivers, DistScratch, Routed, ShardLayout};
use crate::wire::{
    decode_payload, encode_payload, get_varint, CellReader, EngineError, Fault, FaultKind,
    FaultPlan, FaultyTransport, Frame, FrameBuf, FrameKind, FrameView, NetworkSpec, PayloadSlab,
    ShapedTransport, StreamTransport, TcpTransport, Transport, WireError, HEADER_LEN,
    PROTOCOL_VERSION,
};
use powersparse_congest::engine::{
    Delivery, Message, Metrics, Outbox, RoundEngine, RoundPhase, SendRecord,
};
use powersparse_congest::msgcore::MsgCore;
use powersparse_congest::probe::{
    now_if, ns_between, probe_vec, NoProbe, PhaseObs, Probe, RecoveryObs, RoundObs, RoundSpans,
};
use powersparse_congest::sim::SimConfig;
use powersparse_graphs::{Graph, NodeId};
use std::net::TcpListener;
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

/// Reads a cell run into `core`, rejecting edges outside its range.
fn enqueue_cells(core: &mut MsgCore<CellBytes>, cells: CellReader<'_>) -> Result<(), WireError> {
    for cell in cells {
        let cell = cell?;
        let edge = usize::try_from(cell.edge)
            .ok()
            .filter(|&e| e < core.edges())
            .ok_or(WireError::Payload)?;
        core.enqueue(
            edge,
            cell.bits,
            NodeId(cell.from),
            CellBytes::new(cell.payload),
        );
    }
    Ok(())
}

/// The child's whole life: a payload-opaque core servant.  It needs no
/// graph, no message type and no metrics — just its local edge count
/// and the bandwidth, delivered by `PhaseStart`.  Generic over the
/// transport so the Unix-socket and TCP children share one protocol
/// body.  Every reply is built in place in one reused [`FrameBuf`]; a
/// protocol error ends the child, so a `Sends` run is enqueued as it is
/// read.
fn child_serve<T: Transport>(shard: u16, t: &mut T) -> Result<(), WireError> {
    let mut out = FrameBuf::new();
    out.begin();
    out.put_varint(PROTOCOL_VERSION);
    t.send(out.seal(FrameKind::Hello, shard, 0))?;
    let mut core: Option<MsgCore<CellBytes>> = None;
    let mut bw: u64 = 0;
    let mut epoch: u32 = 0;
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
            FrameKind::PhaseStart => {
                let mut p = frame.payload;
                let edges = get_varint(&mut p)? as usize;
                bw = get_varint(&mut p)?;
                core = Some(MsgCore::new(edges));
                epoch = frame.epoch;
            }
            FrameKind::Sends => {
                let core = core.as_mut().ok_or(WireError::Payload)?;
                enqueue_cells(core, frame.cells())?;
                epoch = frame.epoch;
            }
            FrameKind::Barrier => {
                if frame.epoch != epoch {
                    return Err(WireError::EpochMismatch {
                        want: epoch,
                        got: frame.epoch,
                    });
                }
                let core = core.as_mut().ok_or(WireError::Payload)?;
                // The transfer writes each delivered cell straight into
                // the reply frame, so its time covers that encoding.
                let t0 = Instant::now();
                let queued = core.queued() as u64;
                out.begin();
                let peak = core.transfer(bw, |e, from, payload| {
                    out.push_cell(e as u64, 0, from.0, payload.as_slice());
                });
                let transfer_ns = t0.elapsed().as_nanos() as u64;
                t.send(out.seal(FrameKind::Deliveries, shard, frame.epoch))?;
                out.begin();
                out.put_varint(queued);
                out.put_varint(peak);
                out.put_varint(core.active_edges() as u64);
                out.put_varint(core.queued() as u64);
                out.put_varint(transfer_ns);
                t.send(out.seal(FrameKind::RoundStats, shard, frame.epoch))?;
            }
            FrameKind::Checkpoint => {
                if frame.payload.is_empty() {
                    // Take: snapshot the core in delivery order. The
                    // reply is byte-for-byte the restore frame the
                    // parent will replay on a respawned child.
                    let core = core.as_ref().ok_or(WireError::Payload)?;
                    out.begin();
                    out.put_varint(core.edges() as u64);
                    out.put_varint(bw);
                    out.put_varint(u64::from(epoch));
                    core.for_each_queued(|e, bits, from, payload| {
                        out.push_cell(e as u64, bits, from.0, payload.as_slice());
                    });
                    t.send(out.seal(FrameKind::Checkpoint, shard, frame.epoch))?;
                } else {
                    // Restore: rebuild the core from a snapshot taken
                    // by a previous incarnation of this shard.
                    let mut p = frame.payload;
                    let edges = get_varint(&mut p)? as usize;
                    bw = get_varint(&mut p)?;
                    epoch = u32::try_from(get_varint(&mut p)?).map_err(|_| WireError::Payload)?;
                    let mut c = MsgCore::new(edges);
                    enqueue_cells(&mut c, CellReader::new(p, frame.count as usize))?;
                    core = Some(c);
                }
            }
            FrameKind::Shutdown => return Ok(()),
            other => {
                return Err(WireError::UnexpectedKind {
                    want: FrameKind::Barrier,
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
/// goes away, not be held open by an unrelated fork.  Pass `keep = -1`
/// to close everything (the TCP child dials its own socket afterwards).
/// `close_range` (Linux 5.9, glibc 2.34) covers the whole descriptor
/// space in two calls; a child that cannot close its inherited
/// descriptors exits at once instead of serving.
fn child_enter(keep: i32) {
    // SAFETY: plain syscalls on integer arguments. The objects in the
    // inherited memory image that wrap the closed descriptors are never
    // used or dropped by the child, which leaves only through `_exit`;
    // its own socket, `keep`, stays open.
    unsafe {
        sys::prctl(sys::PR_SET_PDEATHSIG, sys::SIGKILL as u64, 0, 0, 0);
        let closed = match u32::try_from(keep) {
            Ok(k) if k >= 3 => {
                (k == 3 || sys::close_range(3, k - 1, 0) == 0)
                    && sys::close_range(k + 1, u32::MAX, 0) == 0
            }
            _ => sys::close_range(3, u32::MAX, 0) == 0,
        };
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

/// Common child tail: serve until shutdown or failure, report protocol
/// errors on the wire, exit without unwinding.
fn child_finish<T: Transport>(shard: u16, t: &mut T) -> ! {
    let code = match std::panic::catch_unwind(AssertUnwindSafe(|| child_serve(shard, t))) {
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

/// Post-fork entry point.  Runs in the child, never returns.
fn child_main(shard: u16, stream: UnixStream) -> ! {
    child_enter(stream.as_raw_fd());
    let mut t = StreamTransport::new(stream);
    child_finish(shard, &mut t)
}

/// Post-fork entry point for the TCP backend.  The child keeps no
/// inherited socket: it closes everything and dials the parent's
/// loopback listener, running the transport-level `Hello` handshake
/// before the protocol one.
fn child_main_tcp(shard: u16, port: u16) -> ! {
    child_enter(-1);
    match TcpTransport::connect(("127.0.0.1", port), shard) {
        Ok(mut t) => child_finish(shard, &mut t),
        Err(_) => unsafe { sys::_exit(1) },
    }
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

/// What the parent does when a shard child dies, wedges, or corrupts
/// its stream mid-run.
///
/// Under [`RecoveryPolicy::Recover`] the parent reaps the dead child,
/// forks a fresh one on a fresh link, and deterministically
/// re-synchronizes it from the last per-round checkpoint plus a replay
/// of every frame sent since — the child is a pure function of the
/// frames it receives, so the resurrected shard is bit-for-bit the one
/// that died.  Replayed rounds are not re-counted: no gated counter,
/// output, or probe-trace entry can shift (the chaos conformance wall
/// pins this).  Recovery is visible only through
/// [`Metrics::recoveries`], [`RecoveryObs`] probe events, and wall
/// clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Fail closed: any transport fault panics with its stable
    /// [`EngineError`] display, exactly as before supervision existed.
    #[default]
    FailFast,
    /// Supervise: respawn + replay up to `max_retries` times per
    /// failure, sleeping `attempt * backoff` before each attempt.
    /// Exhausting the budget fails closed with the pinned
    /// "recovery exhausted after N attempts" error.
    Recover {
        /// Respawn attempts per failure before failing closed. Must be
        /// at least 1.
        max_retries: u32,
        /// Base backoff; attempt `k` (1-based) sleeps `k * backoff`.
        backoff: Duration,
    },
}

/// Construction knobs for the process backend beyond
/// graph/config/shards.  The defaults reproduce the classic engine:
/// Unix socket pairs, unshaped, fail-fast.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessOptions {
    /// Latency/bandwidth shaping applied to every parent-side child
    /// link (a [`ShapedTransport`] around the real socket); `None`
    /// leaves the wire unshaped.  Shaping changes wall clock only —
    /// outputs, metrics, probe traces and span structure stay
    /// bit-for-bit identical (pinned by the conformance suite).
    pub net: Option<NetworkSpec>,
    /// Run each parent↔child link over loopback TCP
    /// ([`TcpTransport`]) instead of a Unix socket pair.
    pub tcp: bool,
    /// Shard supervision policy. The default (`FailFast`) preserves the
    /// classic pinned-panic failure semantics.
    pub recovery: RecoveryPolicy,
    /// Under [`RecoveryPolicy::Recover`], take a per-shard core
    /// checkpoint every this many rounds, truncating the replay log.
    /// `0` (the default) keeps no checkpoints: recovery replays from
    /// the phase start. Ignored under `FailFast`.
    pub checkpoint_every: u32,
}

/// Per-shard supervision state, present only under
/// [`RecoveryPolicy::Recover`].
struct Supervision {
    /// Per-shard replay log: every frame (encoded bytes) sent to the
    /// shard since its last checkpoint (or phase start). Entry 0 is the
    /// `PhaseStart` frame or a `Checkpoint` restore frame.
    logs: Vec<Vec<Vec<u8>>>,
    /// Per-shard count of `Barrier` frames in the log whose two reply
    /// frames were fully received — replays discard exactly that many
    /// reply pairs.
    consumed: Vec<u32>,
    /// Rounds completed since phase start, for the checkpoint stride.
    rounds_in_phase: u64,
}

/// Events fired so far from an installed [`FaultPlan`].
struct ChaosState {
    plan: FaultPlan,
    cursor: usize,
    fired: u64,
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
    barrier_timeout: Duration,
    probe: P,
    phases_opened: u64,
    options: ProcessOptions,
    supervision: Option<Supervision>,
    chaos: Option<ChaosState>,
    /// Every [`RecoveryObs`] emitted, in order — the engine's own copy
    /// (the probe gets them too), so callers without a probe (the
    /// `experiments chaos` event log) can still read the history.
    recovery_log: Vec<RecoveryObs>,
    /// Test hook: shards whose respawns are forced to fail, for pinning
    /// the retry-exhaustion error.
    respawn_broken: Vec<bool>,
    /// Per-shard outbound frame buffer, reused by every frame the
    /// parent builds for that shard, across rounds and phases.
    frames: Vec<FrameBuf>,
}

/// Forks one shard child and returns its pid and (unshaped) parent-side
/// transport.  Fallible so respawns under [`RecoveryPolicy::Recover`]
/// can count a failed fork/accept as one attempt instead of panicking.
fn spawn_shard_child(
    w: usize,
    tcp: bool,
    barrier_timeout: Duration,
) -> Result<(i32, Box<dyn Transport>), WireError> {
    install_child_panic_hook();
    if tcp {
        // Bind before forking so the child can always reach the
        // listener; the accept (and its handshake) is bounded by the
        // barrier timeout, so a child that dies before connecting fails
        // closed instead of hanging.
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(crate::wire::io_err)?;
        let port = listener.local_addr().map_err(crate::wire::io_err)?.port();
        let pid = unsafe { sys::fork() };
        assert!(pid >= 0, "process engine: fork failed");
        if pid == 0 {
            child_main_tcp(w as u16, port);
        }
        match TcpTransport::accept(&listener, w as u16, Some(barrier_timeout)) {
            Ok(t) => Ok((pid, Box::new(t) as Box<dyn Transport>)),
            Err(e) => {
                // The forked child is dialing a listener we are about
                // to drop; reap it so a failed attempt leaves nothing
                // behind.
                unsafe {
                    sys::kill(pid, sys::SIGKILL);
                    let mut status = 0i32;
                    sys::waitpid(pid, &mut status, 0);
                }
                Err(e)
            }
        }
    } else {
        let (parent_end, child_end) = UnixStream::pair().map_err(crate::wire::io_err)?;
        let pid = unsafe { sys::fork() };
        assert!(pid >= 0, "process engine: fork failed");
        if pid == 0 {
            drop(parent_end);
            child_main(w as u16, child_end);
        }
        drop(child_end);
        Ok((
            pid,
            Box::new(StreamTransport::new(parent_end)) as Box<dyn Transport>,
        ))
    }
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

/// Consumes and validates the child's `Hello` (protocol version check).
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
    let version = get_varint(&mut p)?;
    assert_eq!(
        version, PROTOCOL_VERSION,
        "process engine: protocol version skew"
    );
    Ok(())
}

impl<'g> ProcessSimulator<'g> {
    /// Creates a process engine with the default shard count
    /// ([`capped_default_shards`]); one child process per shard.
    pub fn new(graph: &'g Graph, config: SimConfig) -> Self {
        Self::with_shards(graph, config, capped_default_shards(graph))
    }

    /// Creates a process engine with an explicit shard count. The
    /// children are forked here, once, and live until the engine drops.
    /// Results are identical for every count (the engine contract).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`, or with an [`EngineError`] if a child
    /// fails its `Hello` handshake.
    pub fn with_shards(graph: &'g Graph, config: SimConfig, shards: usize) -> Self {
        Self::with_probe(graph, config, shards, NoProbe)
    }

    /// Creates a process engine whose child links are shaped by `net`
    /// (a [`ShapedTransport`] per shard).  Counters are unchanged;
    /// only wall clock moves.
    pub fn with_network(
        graph: &'g Graph,
        config: SimConfig,
        shards: usize,
        net: NetworkSpec,
    ) -> Self {
        Self::with_options(
            graph,
            config,
            shards,
            NoProbe,
            ProcessOptions {
                net: Some(net),
                ..ProcessOptions::default()
            },
        )
    }

    /// Creates a process engine whose children connect over loopback
    /// TCP instead of Unix socket pairs — the multi-machine deployment
    /// shape, exercised end to end on one host.
    pub fn with_tcp_loopback(graph: &'g Graph, config: SimConfig, shards: usize) -> Self {
        Self::with_options(
            graph,
            config,
            shards,
            NoProbe,
            ProcessOptions {
                tcp: true,
                ..ProcessOptions::default()
            },
        )
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
        Self::with_options(graph, config, shards, probe, ProcessOptions::default())
    }

    /// The fully-general constructor: [`ProcessSimulator::with_probe`]
    /// plus [`ProcessOptions`] selecting the transport (Unix socket
    /// pair or loopback TCP) and optional link shaping.
    ///
    /// # Panics
    ///
    /// As for [`ProcessSimulator::with_shards`]; additionally with an
    /// [`EngineError`] if a TCP child fails to connect or handshake
    /// within the barrier timeout.
    pub fn with_options(
        graph: &'g Graph,
        config: SimConfig,
        shards: usize,
        probe: P,
        options: ProcessOptions,
    ) -> Self {
        if let RecoveryPolicy::Recover { max_retries, .. } = options.recovery {
            assert!(max_retries >= 1, "Recover needs max_retries >= 1");
        }
        let layout = ShardLayout::new(graph, shards);
        let shards = layout.shards();
        let supervision = match options.recovery {
            RecoveryPolicy::FailFast => None,
            RecoveryPolicy::Recover { .. } => Some(Supervision {
                logs: vec![Vec::new(); shards],
                consumed: vec![0; shards],
                rounds_in_phase: 0,
            }),
        };
        let mut sim = Self {
            graph,
            config,
            metrics: Metrics::for_graph(graph, config.metrics),
            layout,
            children: Children::default(),
            barrier_timeout: DEFAULT_BARRIER_TIMEOUT,
            probe,
            phases_opened: 0,
            options,
            supervision,
            chaos: None,
            recovery_log: Vec::new(),
            respawn_broken: vec![false; shards],
            frames: (0..shards).map(|_| FrameBuf::new()).collect(),
        };
        for w in 0..shards {
            let (pid, transport) = sim.spawn_wrapped(w).unwrap_or_else(|e| raise(w, e));
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

    /// Forks shard `w`'s child, applies the configured shaping wrapper
    /// and barrier timeout. Shared by construction and respawn.
    fn spawn_wrapped(&self, w: usize) -> Result<(i32, Box<dyn Transport>), WireError> {
        if self.respawn_broken[w] {
            return Err(WireError::Eof);
        }
        let (pid, transport) = spawn_shard_child(w, self.options.tcp, self.barrier_timeout)?;
        let mut transport = match self.options.net {
            Some(spec) => Box::new(ShapedTransport::new(transport, spec)) as Box<dyn Transport>,
            None => transport,
        };
        transport.set_timeout(Some(self.barrier_timeout));
        Ok((pid, transport))
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
        self.barrier_timeout = timeout;
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
    /// replaced children do not linger as zombies.
    pub fn child_pid(&self, shard: usize) -> i32 {
        self.children.0[shard].pid
    }

    /// Test hook: makes every future respawn of shard `w` fail, for
    /// pinning the retry-exhaustion error.
    pub fn break_respawn(&mut self, shard: usize) {
        self.respawn_broken[shard] = true;
    }

    /// Installs a seeded chaos plan: at the start of each round's wire
    /// tail, every due [`FaultEvent`](crate::wire::FaultEvent) is
    /// injected through the engine's own fault hooks (kill / corrupt /
    /// stall). Pair with [`RecoveryPolicy::Recover`] — under `FailFast`
    /// the first fired fault fails the run closed.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.chaos = Some(ChaosState {
            plan,
            cursor: 0,
            fired: 0,
        });
    }

    /// Number of chaos-plan events injected so far.
    pub fn faults_fired(&self) -> u64 {
        self.chaos.as_ref().map_or(0, |c| c.fired)
    }

    /// Every recovery attempt so far, in order (one entry per attempt,
    /// successful or not) — the same events the probe sees through
    /// [`Probe::on_recovery`].
    pub fn recovery_log(&self) -> &[RecoveryObs] {
        &self.recovery_log
    }

    fn recovery_enabled(&self) -> bool {
        self.supervision.is_some()
    }

    /// Ships an encoded protocol frame to shard `w`, appending it to the
    /// replay log first under supervision — a frame in the log counts
    /// as delivered even if this very send fails, because recovery
    /// replays the whole log into the respawned child.
    fn send_to(&mut self, w: usize, bytes: &[u8]) {
        if let Some(sup) = &mut self.supervision {
            sup.logs[w].push(bytes.to_vec());
        }
        if let Err(e) = self.children.0[w].transport().send(bytes) {
            if self.recovery_enabled() {
                self.recover_shard(w, e);
            } else {
                raise(w, e);
            }
        }
    }

    /// Seals the frame built in shard `w`'s buffer and ships it.
    fn send_frame(&mut self, w: usize, kind: FrameKind, epoch: u32) {
        let mut frame = std::mem::take(&mut self.frames[w]);
        self.send_to(w, frame.seal(kind, w as u16, epoch));
        self.frames[w] = frame;
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

    /// Recovers shard `w` from `cause` or fails closed: under
    /// `FailFast` this raises immediately with the classic pinned
    /// error; under `Recover` it retries kill → respawn → replay up to
    /// `max_retries` times, then panics with the pinned
    /// "recovery exhausted" error.
    fn recover_shard(&mut self, w: usize, cause: WireError) {
        let (max_retries, backoff) = match self.options.recovery {
            RecoveryPolicy::FailFast => raise(w, cause),
            RecoveryPolicy::Recover {
                max_retries,
                backoff,
            } => (max_retries, backoff),
        };
        let mut last = cause;
        for attempt in 1..=max_retries {
            let backoff_ns = backoff.as_nanos() as u64 * u64::from(attempt);
            let obs = RecoveryObs {
                round: self.metrics.rounds,
                shard: w as u64,
                cause: last.to_string(),
                attempt,
                backoff_ns,
            };
            self.recovery_log.push(obs.clone());
            if P::ENABLED {
                self.probe.on_recovery(obs);
            }
            if backoff_ns > 0 {
                std::thread::sleep(Duration::from_nanos(backoff_ns));
            }
            match self.try_respawn(w) {
                Ok(()) => {
                    self.metrics.recoveries += 1;
                    return;
                }
                Err(e) => last = e,
            }
        }
        panic!(
            "process engine: shard {w}: recovery exhausted after {max_retries} attempts \
             (last error: {last})"
        );
    }

    /// One respawn attempt: reap the failed child, fork a replacement
    /// on a fresh link (re-accept for TCP), handshake, and replay the
    /// shard's frame log — discarding the reply pairs of barriers whose
    /// replies the parent already consumed, so the socket ends up
    /// positioned exactly where the dead child's was.
    fn try_respawn(&mut self, w: usize) -> Result<(), WireError> {
        self.kill_child(w);
        let (pid, transport) = self.spawn_wrapped(w)?;
        let child = &mut self.children.0[w];
        child.pid = pid;
        child.transport = Some(transport);
        child.reaped = false;
        consume_hello(child.transport())?;
        let sup = self
            .supervision
            .as_ref()
            .expect("recovery without supervision");
        let log: Vec<Vec<u8>> = sup.logs[w].clone();
        let consumed = sup.consumed[w];
        let mut barriers_seen = 0u32;
        for bytes in &log {
            self.children.0[w].transport().send(bytes)?;
            // Drain each replayed barrier's reply pair immediately so
            // unread child output never accumulates past one round
            // (bounded socket buffers on both directions).
            if bytes[2] == FrameKind::Barrier as u8 && barriers_seen < consumed {
                for want in [FrameKind::Deliveries, FrameKind::RoundStats] {
                    let reply = self.children.0[w].transport().recv()?;
                    let got = FrameView::parse(&reply)?.kind;
                    if got != want {
                        return Err(WireError::UnexpectedKind { want, got });
                    }
                }
                barriers_seen += 1;
            }
        }
        Ok(())
    }

    /// Receives and fully validates one shard's round replies
    /// (`Deliveries` + `RoundStats`) without touching any engine state,
    /// so a failure anywhere in the pair is recoverable: every cell is
    /// parsed and bounds-checked in place, and the reply comes back
    /// ready to apply.
    fn try_collect_round(
        &mut self,
        w: usize,
        epoch: u32,
    ) -> Result<(Received, [u64; 5]), WireError> {
        let deliveries = self.try_expect_frame(w, FrameKind::Deliveries, epoch)?;
        let edges = self.layout.edge_ranges[w].len() as u64;
        for cell in deliveries.cells() {
            if cell?.edge >= edges {
                return Err(WireError::Payload);
            }
        }
        let stats = self.try_expect_frame(w, FrameKind::RoundStats, epoch)?;
        let mut p = stats.payload();
        let mut st = [0u64; 5];
        for s in &mut st {
            *s = get_varint(&mut p)?;
        }
        Ok((deliveries, st))
    }

    /// Marks one more of shard `w`'s barriers fully consumed (both
    /// reply frames received), for replay accounting.
    fn note_barrier_consumed(&mut self, w: usize) {
        if let Some(sup) = &mut self.supervision {
            sup.consumed[w] += 1;
        }
    }

    /// Takes a core checkpoint of shard `w` and truncates its replay
    /// log to the returned restore frame. Retries through recovery on
    /// any transport failure, so a fault during checkpointing costs a
    /// respawn, never the run.
    fn take_checkpoint(&mut self, w: usize) {
        let epoch = self.metrics.rounds as u32;
        loop {
            let req = Frame::control(FrameKind::Checkpoint, w as u16, epoch);
            // Not logged: a replayed request would elicit a reply the
            // replay accounting does not expect.
            if let Err(e) = self.children.0[w].transport().send(&req.encode()) {
                self.recover_shard(w, e);
                continue;
            }
            match self.try_expect_frame(w, FrameKind::Checkpoint, epoch) {
                Ok(reply) => {
                    let sup = self
                        .supervision
                        .as_mut()
                        .expect("checkpoint without supervision");
                    sup.logs[w] = vec![reply.bytes];
                    sup.consumed[w] = 0;
                    return;
                }
                Err(e) => self.recover_shard(w, e),
            }
        }
    }

    /// Fires every chaos-plan event due at the current round through
    /// the engine's own fault hooks. Events are sorted by round, so a
    /// cursor suffices; events for rounds the run never reaches simply
    /// do not fire.
    fn apply_due_faults(&mut self) {
        let round = self.metrics.rounds;
        let shards = self.layout.shards();
        loop {
            let (shard, kind) = {
                let Some(chaos) = &mut self.chaos else { return };
                let Some(ev) = chaos.plan.events.get(chaos.cursor) else {
                    return;
                };
                if ev.round > round {
                    return;
                }
                chaos.cursor += 1;
                if ev.shard as usize >= shards {
                    continue;
                }
                chaos.fired += 1;
                (ev.shard as usize, ev.kind)
            };
            match kind {
                FaultKind::Kill => self.kill_child(shard),
                FaultKind::Corrupt => self.wrap_transport(shard, |t| {
                    Box::new(FaultyTransport::new(
                        t,
                        0,
                        Fault::FlipByte { offset: HEADER_LEN },
                    ))
                }),
                FaultKind::Stall => self.stop_child(shard),
            }
        }
    }
}

impl<'g, P: Probe> RoundEngine for ProcessSimulator<'g, P> {
    type Phase<'s, M: Message>
        = ProcessPhase<'s, 'g, M, P>
    where
        Self: 's;

    fn graph(&self) -> &Graph {
        self.graph
    }

    fn bandwidth(&self) -> usize {
        self.config.bandwidth
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn charge_rounds(&mut self, r: u64) {
        if P::ENABLED {
            for i in 0..r {
                let round = self.metrics.rounds + i;
                self.probe.on_round_end(RoundObs::charged(round));
                self.probe.on_round_spans(RoundSpans::charged(round));
            }
        }
        self.metrics.rounds += r;
        self.metrics.charged_rounds += r;
    }

    fn messages_across(&self, u: NodeId, v: NodeId) -> u64 {
        self.metrics.messages_across(self.graph, u, v)
    }

    fn bits_across(&self, u: NodeId, v: NodeId) -> u64 {
        self.metrics.bits_across(self.graph, u, v)
    }

    fn phase<M: Message>(&mut self) -> ProcessPhase<'_, 'g, M, P> {
        let n = self.graph.n();
        let shards = self.layout.shards();
        let ordinal = self.phases_opened;
        self.phases_opened += 1;
        let open = (
            self.metrics.rounds,
            self.metrics.messages,
            self.metrics.bits,
        );
        let epoch = self.metrics.rounds as u32;
        let bw = self.config.bandwidth as u64;
        if let Some(sup) = &mut self.supervision {
            // A new phase rebuilds every child core, so the previous
            // phase's frames are dead weight: restart every replay log
            // at this phase's `PhaseStart`.
            for log in &mut sup.logs {
                log.clear();
            }
            for c in &mut sup.consumed {
                *c = 0;
            }
            sup.rounds_in_phase = 0;
        }
        for w in 0..shards {
            let frame = &mut self.frames[w];
            frame.begin();
            frame.put_varint(self.layout.edge_ranges[w].len() as u64);
            frame.put_varint(bw);
            self.send_frame(w, FrameKind::PhaseStart, epoch);
        }
        ProcessPhase {
            slab: PayloadSlab::new(),
            arrivals: Vec::new(),
            scratch: DistScratch::default(),
            sends: Vec::new(),
            cell_size: MsgCore::<M>::new(0).cell_size() as u64,
            live: vec![false; shards],
            dirty_stamp: if P::ENABLED { vec![0; n] } else { Vec::new() },
            round_stamp: 0,
            ordinal,
            open,
            sim: self,
        }
    }
}

/// One typed communication phase on the process engine.  Structured
/// like the sequential [`powersparse_congest::sim::Phase`] (the parent
/// steps nodes in ID order), with the enqueue + transfer tail replaced
/// by one wire round-trip per shard per round, and the pooled engine's
/// inbox layout: deliveries accumulate on one arrival run and are
/// grouped per node by a stable counting sort when they are read.
pub struct ProcessPhase<'s, 'g, M, P: Probe = NoProbe> {
    sim: &'s mut ProcessSimulator<'g, P>,
    /// Parking lot for payloads without an inline wire codec.
    slab: PayloadSlab<M>,
    /// Messages delivered but not yet read, in ascending global edge
    /// order (children are read in ascending shard order).
    arrivals: Vec<Routed<M>>,
    /// Counting-sort workspace grouping `arrivals` into per-node inbox
    /// slices over the whole graph.
    scratch: DistScratch<M>,
    /// Reused send-record scratch (drained every round).
    sends: Vec<SendRecord<M>>,
    /// The parent-side `MsgCore::<M>` cell size: children queue encoded
    /// bytes, so the engine-invariant `arena_bytes_peak` must be scaled
    /// by the *typed* cell size, not the child's.
    cell_size: u64,
    /// Per-shard in-flight flag (child cores nonempty after the last
    /// transfer, from `RoundStats`).
    live: Vec<bool>,
    /// Per-node last-receiving round stamp, for the probe's distinct
    /// receiver count. Allocated only when a probe is attached.
    dirty_stamp: Vec<u64>,
    /// The stamp of the current round (round + 1, so the zeroed vector
    /// never matches).
    round_stamp: u64,
    /// Phase ordinal on the owning engine (0-based, in open order).
    ordinal: u64,
    /// `(rounds, messages, bits)` at phase open, for the [`PhaseObs`]
    /// deltas emitted on drop.
    open: (u64, u64, u64),
}

impl<M, P: Probe> Drop for ProcessPhase<'_, '_, M, P> {
    fn drop(&mut self) {
        if P::ENABLED {
            let m = &self.sim.metrics;
            self.sim.probe.on_phase_end(PhaseObs {
                phase: self.ordinal,
                rounds: m.rounds - self.open.0,
                messages: m.messages - self.open.1,
                bits: m.bits - self.open.2,
            });
        }
    }
}

impl<M: Message, P: Probe> ProcessPhase<'_, '_, M, P> {
    /// Test hook: [`ProcessSimulator::kill_child`] through an open
    /// phase, for killing a child *between rounds* of a live protocol
    /// exchange.
    pub fn kill_child(&mut self, shard: usize) {
        self.sim.kill_child(shard);
    }

    /// Test hook: [`ProcessSimulator::stop_child`] through an open
    /// phase.
    pub fn stop_child(&mut self, shard: usize) {
        self.sim.stop_child(shard);
    }

    /// Test hook: [`ProcessSimulator::wrap_transport`] through an open
    /// phase.
    pub fn wrap_transport(
        &mut self,
        shard: usize,
        f: impl FnOnce(Box<dyn Transport>) -> Box<dyn Transport>,
    ) {
        self.sim.wrap_transport(shard, f);
    }

    /// Test hook: the current pid of shard `shard`'s child (changes
    /// across respawns).
    pub fn child_pid(&self, shard: usize) -> i32 {
        self.sim.child_pid(shard)
    }

    /// One round: step every node in ID order (timed per shard — node
    /// ranges are contiguous and ascending, so ID order visits shards
    /// in order), then run the wire tail.  Mirrors the sequential
    /// engine's `run_step`; panics from misbehaving node programs fire
    /// here, before any frame is written, leaving the protocol clean.
    fn run_step(&mut self, mut g: impl FnMut(usize, &[Delivery<M>], &mut Outbox<'_, M>)) {
        let mut sends = std::mem::take(&mut self.sends);
        let shards = self.sim.layout.shards();
        let mut step_ns = probe_vec::<u64, P>(shards);
        let round_start = now_if(P::ENABLED);
        // Every node reads its inbox below, so the whole run is consumed.
        self.scratch
            .distribute(&mut self.arrivals, 0, self.sim.graph.n());
        for w in 0..shards {
            let t0 = now_if(P::ENABLED);
            for i in self.sim.layout.node_ranges[w].clone() {
                let mut out = Outbox::new(self.sim.graph, NodeId::from(i), &mut sends);
                g(i, self.scratch.inbox(i), &mut out);
            }
            if P::ENABLED {
                step_ns[w] = ns_between(t0, now_if(true));
            }
        }
        self.finish_round(&mut sends, step_ns, round_start);
        self.sends = sends;
    }

    /// The wire tail of one round: encode the sends straight into each
    /// shard's `Sends` frame, ship it and a `Barrier` to every child
    /// (all writes before any read — children read until their barrier,
    /// so the two directions never deadlock), then collect each shard's
    /// `Deliveries` and `RoundStats` in ascending shard order onto the
    /// arrival run and close the round's accounting.
    fn finish_round(
        &mut self,
        sends: &mut Vec<SendRecord<M>>,
        step_ns: Vec<u64>,
        round_start: Option<Instant>,
    ) {
        let shards = self.sim.layout.shards();
        let per_edge = self.sim.metrics.per_edge;
        let epoch = self.sim.metrics.rounds as u32;

        // Inject any chaos-plan faults due this round before the wire
        // tail touches the children.
        self.sim.apply_due_faults();

        // Encode and ship the round shard by shard, so a child starts
        // its transfer while the parent encodes the next shard. Nodes
        // are stepped in ID order and a node's out-edges all lie in its
        // shard's CSR range, so each shard's sends are one contiguous
        // stretch of `sends`. Every child gets a Sends frame (even
        // empty: it advances the child's epoch) and its barrier.
        let mut bits_total = 0u64;
        let mut records = sends.drain(..).peekable();
        for w in 0..shards {
            let sim = &mut *self.sim;
            let edges = sim.layout.edge_ranges[w].clone();
            let frame = &mut sim.frames[w];
            frame.begin();
            while let Some(rec) = records.next_if(|r| r.edge < edges.end) {
                bits_total += rec.bits;
                if per_edge {
                    sim.metrics.edge_bits[rec.edge] += rec.bits;
                }
                let local = (rec.edge - edges.start) as u64;
                let slab = &mut self.slab;
                frame.push_cell_with(local, rec.bits, rec.from.0, |out| {
                    encode_payload(rec.msg, slab, out);
                });
            }
            sim.send_frame(w, FrameKind::Sends, epoch);
            sim.frames[w].begin();
            sim.send_frame(w, FrameKind::Barrier, epoch);
        }
        assert!(records.next().is_none(), "a send escaped every shard");
        self.sim.metrics.bits += bits_total;

        // Collect. Ascending shard order = ascending global edge order,
        // the reference delivery order.
        debug_assert!(self.arrivals.is_empty(), "the step consumed every inbox");
        let mut queued_total = 0u64;
        let mut active_total = 0u64;
        let mut transfer_ns = probe_vec::<u64, P>(shards);
        let mut arena_cells = probe_vec::<u64, P>(shards);
        let mut shard_splice = probe_vec::<u64, P>(shards);
        let mut msgs_total = 0u64;
        for w in 0..shards {
            // Parse before mutating: both reply frames are received and
            // validated (every cell parsed and bounds-checked in place)
            // before any parent-side state is touched, so a recovery
            // retry never observes a half-applied round.
            let (deliveries, st) = loop {
                match self.sim.try_collect_round(w, epoch) {
                    Ok(x) => break x,
                    Err(e) => self.sim.recover_shard(w, e),
                }
            };
            self.sim.note_barrier_consumed(w);
            let splice_count = u64::from(deliveries.count);
            let edge_start = self.sim.layout.edge_ranges[w].start;
            self.arrivals.reserve(deliveries.count as usize);
            for cell in deliveries.cells() {
                let cell = cell.unwrap_or_else(|e| raise(w, e));
                let edge = edge_start + cell.edge as usize;
                let msg =
                    decode_payload(cell.payload, &mut self.slab).unwrap_or_else(|e| raise(w, e));
                if per_edge {
                    self.sim.metrics.edge_messages[edge] += 1;
                }
                let to = self.sim.graph.edge_target(edge);
                self.arrivals.push((to, NodeId(cell.from), msg));
            }
            self.sim.metrics.messages += splice_count;
            msgs_total += splice_count;
            let [queued, peak, active_after, queued_after, child_transfer_ns] = st;
            self.sim.metrics.peak_queue_depth = self.sim.metrics.peak_queue_depth.max(peak);
            queued_total += queued;
            active_total += active_after;
            self.live[w] = queued_after > 0;
            if P::ENABLED {
                transfer_ns[w] = child_transfer_ns;
                arena_cells[w] = queued;
                shard_splice[w] = splice_count;
            }
        }
        // The per-shard queued counts are sampled at each child's
        // transfer start and sum to the sequential engine's global
        // value; bytes scale by the parent-side typed cell size.
        self.sim.metrics.arena_cells_peak = self.sim.metrics.arena_cells_peak.max(queued_total);
        self.sim.metrics.arena_bytes_peak = self
            .sim
            .metrics
            .arena_bytes_peak
            .max(queued_total * self.cell_size);
        self.sim.metrics.rounds += 1;
        if P::ENABLED {
            let round = self.sim.metrics.rounds - 1;
            self.round_stamp += 1;
            let dirty_nodes =
                stamp_receivers(&self.arrivals, &mut self.dirty_stamp, self.round_stamp);
            self.sim.probe.on_round_end(RoundObs {
                round,
                active_edges: active_total,
                dirty_nodes,
                messages: msgs_total,
                bits: bits_total,
                shard_splice,
            });
            // Barrier attribution: round wall (on the parent) minus the
            // shard's attributed busy time, saturating like the pooled
            // engine's (wire latency all lands in the barrier span).
            let wall = ns_between(round_start, now_if(true));
            let barrier_ns = (0..shards)
                .map(|w| wall.saturating_sub(step_ns[w] + transfer_ns[w]))
                .collect();
            self.sim.probe.on_round_spans(RoundSpans {
                round,
                step_ns,
                transfer_ns,
                barrier_ns,
                arena_cells,
            });
        }
        // Checkpoint stride: snapshot every child core and truncate the
        // replay logs, bounding both replay time and log memory.
        let stride = u64::from(self.sim.options.checkpoint_every);
        let due = if let Some(sup) = &mut self.sim.supervision {
            sup.rounds_in_phase += 1;
            stride > 0 && sup.rounds_in_phase % stride == 0
        } else {
            false
        };
        if due {
            for w in 0..shards {
                self.sim.take_checkpoint(w);
            }
        }
    }

    /// The quiescence loop, mirroring the sequential engine's
    /// `run_drain`: every nonempty inbox in ID order, consuming the
    /// arrival run it reads, then silent rounds while anything is in
    /// flight.
    fn run_drain(&mut self, max_rounds: u64, mut g: impl FnMut(usize, &[Delivery<M>])) {
        let n = self.sim.graph.n();
        let mut spent = 0u64;
        loop {
            if !self.arrivals.is_empty() {
                self.scratch.distribute(&mut self.arrivals, 0, n);
                for i in 0..n {
                    let inbox = self.scratch.inbox(i);
                    if !inbox.is_empty() {
                        g(i, inbox);
                    }
                }
            }
            if !RoundPhase::in_flight(self) {
                break;
            }
            assert!(spent < max_rounds, "settle exceeded {max_rounds} rounds");
            self.run_step(|_, _, _| {});
            spent += 1;
        }
    }
}

impl<M: Message, P: Probe> RoundPhase<M> for ProcessPhase<'_, '_, M, P> {
    fn graph(&self) -> &Graph {
        self.sim.graph
    }

    fn step<S, F>(&mut self, state: &mut [S], f: F)
    where
        S: Send,
        F: Fn(&mut S, NodeId, &[Delivery<M>], &mut Outbox<'_, M>) + Sync,
    {
        let n = self.sim.graph.n();
        assert_eq!(state.len(), n, "state slice must have one entry per node");
        self.run_step(|i, inbox, out| f(&mut state[i], NodeId::from(i), inbox, out));
    }

    fn settle<S, F>(&mut self, max_rounds: u64, state: &mut [S], f: F)
    where
        S: Send,
        F: Fn(&mut S, NodeId, &[Delivery<M>]) + Sync,
    {
        assert_eq!(
            state.len(),
            self.sim.graph.n(),
            "state slice must have one entry per node"
        );
        self.run_drain(max_rounds, |i, inbox| {
            f(&mut state[i], NodeId::from(i), inbox)
        });
    }

    fn in_flight(&self) -> bool {
        self.live.iter().any(|&l| l)
    }

    fn idle(&self) -> bool {
        !RoundPhase::in_flight(self) && self.arrivals.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersparse_congest::sim::Simulator;
    use powersparse_graphs::generators;

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
    fn shaped_and_tcp_links_preserve_parity() {
        let g = generators::connected_gnp(60, 0.08, 4);
        let config = SimConfig::with_bandwidth(16).with_per_edge_accounting();
        let mut seq = Simulator::new(&g, config);
        let (want, want_m) = echo_program(&mut seq, 3);
        let net = NetworkSpec {
            latency_us: 30,
            bandwidth_bytes_per_s: 16 << 20,
            jitter_seed: 7,
        };
        let mut shaped = ProcessSimulator::with_network(&g, config, 2, net);
        let (got, got_m) = echo_program(&mut shaped, 3);
        assert_eq!(got, want, "shaped outputs diverged");
        assert_eq!(got_m, want_m, "shaped metrics diverged");
        let mut tcp = ProcessSimulator::with_tcp_loopback(&g, config, 2);
        let (got, got_m) = echo_program(&mut tcp, 3);
        assert_eq!(got, want, "tcp outputs diverged");
        assert_eq!(got_m, want_m, "tcp metrics diverged");
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
        let g = generators::path(2);
        let config = SimConfig::with_bandwidth(4);
        let mut seq = Simulator::new(&g, config);
        {
            let mut phase = seq.phase::<u8>();
            phase.round(|v, _in, out| {
                if v == NodeId(0) {
                    out.send(v, NodeId(1), 1, 40);
                }
            });
            phase.drain(64, |_, _| {});
        }
        let mut pr = ProcessSimulator::with_shards(&g, config, 2);
        {
            let mut unit = vec![(); 2];
            let mut phase = pr.phase::<u8>();
            phase.step(&mut unit, |_, v, _in, out| {
                if v == NodeId(0) {
                    out.send(v, NodeId(1), 1, 40);
                }
            });
            phase.settle(64, &mut unit, |_, _, _| {});
        }
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
        let mut pr = ProcessSimulator::new(&g, SimConfig::for_graph(&g));
        assert!(pr.shards() >= 1);
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

    /// Scrubs the operational recovery counter so a disturbed run can
    /// be compared bit-for-bit against an undisturbed reference.
    fn scrub(m: Metrics) -> Metrics {
        Metrics { recoveries: 0, ..m }
    }

    #[test]
    fn seeded_kills_and_corruptions_recover_bit_for_bit() {
        let g = generators::connected_gnp(80, 0.06, 5);
        let config = SimConfig::with_bandwidth(16).with_per_edge_accounting();
        let mut seq = Simulator::new(&g, config);
        let (want, want_m) = echo_program(&mut seq, 4);
        for shards in [2usize, 4] {
            let opts = ProcessOptions {
                recovery: RecoveryPolicy::Recover {
                    max_retries: 3,
                    backoff: Duration::ZERO,
                },
                checkpoint_every: 2,
                ..ProcessOptions::default()
            };
            let mut pr = ProcessSimulator::with_options(&g, config, shards, NoProbe, opts);
            pr.set_fault_plan(FaultPlan::seeded(42, shards as u16, 6, 2, 1, 0));
            let (got, got_m) = echo_program(&mut pr, 4);
            assert!(pr.faults_fired() > 0, "the chaos plan never fired");
            assert!(
                RoundEngine::metrics(&pr).recoveries > 0,
                "no recovery actually happened at {shards} shards"
            );
            assert_eq!(
                RoundEngine::metrics(&pr).recoveries,
                pr.recovery_log().len() as u64,
                "every attempt succeeded first try, so log length = recoveries"
            );
            assert_eq!(got, want, "outputs diverged under chaos at {shards} shards");
            assert_eq!(
                scrub(got_m),
                want_m,
                "metrics diverged under chaos at {shards} shards"
            );
        }
    }

    #[test]
    fn tcp_children_respawn_and_recover() {
        let g = generators::connected_gnp(50, 0.08, 3);
        let config = SimConfig::with_bandwidth(12).with_per_edge_accounting();
        let mut seq = Simulator::new(&g, config);
        let (want, want_m) = echo_program(&mut seq, 3);
        let opts = ProcessOptions {
            tcp: true,
            recovery: RecoveryPolicy::Recover {
                max_retries: 3,
                backoff: Duration::ZERO,
            },
            checkpoint_every: 3,
            ..ProcessOptions::default()
        };
        let mut pr = ProcessSimulator::with_options(&g, config, 2, NoProbe, opts);
        pr.set_fault_plan(FaultPlan::seeded(7, 2, 4, 2, 0, 0));
        let (got, got_m) = echo_program(&mut pr, 3);
        assert!(RoundEngine::metrics(&pr).recoveries > 0);
        assert_eq!(got, want, "tcp outputs diverged under chaos");
        assert_eq!(scrub(got_m), want_m, "tcp metrics diverged under chaos");
    }

    #[test]
    fn recovery_emits_probe_events_and_replaces_pids() {
        let g = generators::cycle(12);
        let config = SimConfig::with_bandwidth(8);
        let opts = ProcessOptions {
            recovery: RecoveryPolicy::Recover {
                max_retries: 2,
                backoff: Duration::ZERO,
            },
            ..ProcessOptions::default()
        };
        let mut pr = ProcessSimulator::with_options(&g, config, 2, NoProbe, opts);
        let old_pid = pr.child_pid(1);
        let mut unit = vec![(); 12];
        let mut phase = pr.phase::<u8>();
        phase.step(&mut unit, |_, v, _in, out| {
            out.broadcast(v, v.0 as u8, 4);
        });
        phase.kill_child(1);
        phase.step(&mut unit, |_, _, _, _| {});
        phase.settle(64, &mut unit, |_, _, _| {});
        drop(phase);
        assert_ne!(pr.child_pid(1), old_pid, "child was not respawned");
        assert_eq!(RoundEngine::metrics(&pr).recoveries, 1);
        let log = pr.recovery_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].shard, 1);
        assert_eq!(log[0].attempt, 1);
        assert_eq!(log[0].cause, "socket closed");
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
    }
}
