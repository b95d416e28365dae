//! Per-layer attribution from outside the library: the engine's stage
//! spans (from a [`SpanProbe`]) folded into totals, a timing transport for
//! the process backend's shard links, and a replay of the captured frames
//! through the public wire codec.

use crate::workload::secs;
use powersparse_congest::engine::Metrics;
use powersparse_congest::probe::SpanProbe;
use powersparse_engine::wire::{
    crc32_parts, decode_cells, encode_cells, Frame, FrameKind, Transport, WireCell, WireError,
};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The engine's stage spans of one run, summed over rounds.
pub struct SpanTotals {
    /// Σ over rounds of the round's span wall (the largest per-shard
    /// step + transfer + barrier sum).
    pub round_s: f64,
    /// Per-shard totals, averaged over shards.
    pub step_s: f64,
    pub transfer_s: f64,
    pub barrier_s: f64,
    /// Σ_r max-shard step over Σ_r mean-shard step (1 = balanced).
    pub step_imbalance: f64,
    /// Mean post-transfer active edges over executed (not charged) rounds.
    pub active_edges_mean: f64,
}

fn ns_to_s(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// Folds the probe's spans and checks them against the run's counters:
/// one span and one observation per `Metrics::rounds` entry, and every
/// shard's stages summing to the round span total.
///
/// # Errors
///
/// Describes the first mismatch.
pub fn span_totals(probe: &SpanProbe, metrics: &Metrics) -> Result<SpanTotals, String> {
    if probe.spans.len() as u64 != metrics.rounds || probe.rounds.len() as u64 != metrics.rounds {
        return Err(format!(
            "trace has {} spans and {} round observations, Metrics.rounds = {}",
            probe.spans.len(),
            probe.rounds.len(),
            metrics.rounds
        ));
    }
    let shards = probe.spans.iter().map(|s| s.shards()).max().unwrap_or(0);
    let mut round_ns = 0u64;
    let mut per_shard = vec![0u64; shards];
    let (mut step, mut transfer, mut barrier) = (0u64, 0u64, 0u64);
    let (mut step_max, mut step_mean) = (0u64, 0f64);
    let (mut executed, mut active_edges) = (0u64, 0u64);
    for (spans, obs) in probe.spans.iter().zip(&probe.rounds) {
        if spans.shards() == 0 {
            continue; // a charged round: no stages ran
        }
        if spans.shards() != shards {
            return Err(format!(
                "round {} ran on {} shards, not {shards}",
                spans.round,
                spans.shards()
            ));
        }
        executed += 1;
        active_edges += obs.active_edges;
        let mut wall = 0u64;
        for (w, total) in per_shard.iter_mut().enumerate() {
            let b = spans.barrier_ns.get(w).copied().unwrap_or(0);
            let sum = spans.step_ns[w] + spans.transfer_ns[w] + b;
            *total += sum;
            wall = wall.max(sum);
            barrier += b;
        }
        round_ns += wall;
        step += spans.step_ns.iter().sum::<u64>();
        transfer += spans.transfer_ns.iter().sum::<u64>();
        step_max += spans.step_ns.iter().copied().max().unwrap_or(0);
        step_mean += spans.step_ns.iter().sum::<u64>() as f64 / shards as f64;
    }
    // Barrier waits are a wall minus busy time, saturating at zero; allow
    // 1 µs of clock skew per round plus 0.1% before calling it a mismatch.
    let slack = executed * 1_000 + round_ns / 1_000;
    for (w, &sum) in per_shard.iter().enumerate() {
        if round_ns.abs_diff(sum) > slack {
            return Err(format!(
                "shard {w} stages sum to {:.6} s, round spans to {:.6} s",
                ns_to_s(sum),
                ns_to_s(round_ns)
            ));
        }
    }
    let per = |total: u64| ns_to_s(total) / shards.max(1) as f64;
    Ok(SpanTotals {
        round_s: ns_to_s(round_ns),
        step_s: per(step),
        transfer_s: per(transfer),
        barrier_s: per(barrier),
        step_imbalance: if step_mean > 0.0 {
            step_max as f64 / step_mean
        } else {
            1.0
        },
        active_edges_mean: active_edges as f64 / executed.max(1) as f64,
    })
}

/// Everything the timing transports saw: time inside `send`/`recv` of the
/// real links and every frame's bytes, per direction.
#[derive(Default)]
pub struct WireTally {
    pub send_ns: u64,
    pub recv_ns: u64,
    pub tx: Vec<Vec<u8>>,
    pub rx: Vec<Vec<u8>>,
}

impl WireTally {
    pub fn bytes_tx(&self) -> u64 {
        self.tx.iter().map(|f| f.len() as u64).sum()
    }

    pub fn bytes_rx(&self) -> u64 {
        self.rx.iter().map(|f| f.len() as u64).sum()
    }
}

/// A shard link wrapped by the benchmark: times each call into the real
/// transport and captures the frame bytes (outside the timed interval).
pub struct TapTransport {
    inner: Box<dyn Transport>,
    tally: Arc<Mutex<WireTally>>,
}

impl TapTransport {
    pub fn new(inner: Box<dyn Transport>, tally: Arc<Mutex<WireTally>>) -> Self {
        Self { inner, tally }
    }
}

impl Transport for TapTransport {
    fn send(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let t = Instant::now();
        let result = self.inner.send(bytes);
        let ns = t.elapsed().as_nanos() as u64;
        let mut tally = self.tally.lock().expect("wire tally poisoned");
        tally.send_ns += ns;
        tally.tx.push(bytes.to_vec());
        result
    }

    fn recv(&mut self) -> Result<Vec<u8>, WireError> {
        let t = Instant::now();
        let result = self.inner.recv();
        let ns = t.elapsed().as_nanos() as u64;
        let mut tally = self.tally.lock().expect("wire tally poisoned");
        tally.recv_ns += ns;
        if let Ok(bytes) = &result {
            tally.rx.push(bytes.clone());
        }
        result
    }

    fn set_timeout(&mut self, timeout: Option<Duration>) {
        self.inner.set_timeout(timeout);
    }
}

/// Replaying the captured frames through the codec the parent runs.
pub struct CodecReplay {
    /// Parent-side codec work of the run: decoding every received frame
    /// (`Frame::decode`, plus `decode_cells` on deliveries) and encoding
    /// every sent frame (`encode_cells` on sends, then `Frame::encode`).
    pub codec_s: f64,
    /// `crc32_parts` throughput over every captured byte, in MB/s.
    pub crc_mb_s: f64,
}

/// Each replay pass is repeated this many times; the median is reported.
const REPLAYS: usize = 3;

/// The median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn cells_of(frame: &Frame, kind: FrameKind) -> Result<Vec<WireCell>, WireError> {
    if frame.kind == kind {
        decode_cells(&frame.payload, frame.count as usize)
    } else {
        Ok(Vec::new())
    }
}

/// # Errors
///
/// A captured frame that does not decode, or a re-encoded frame that
/// differs from the bytes that crossed the wire.
pub fn replay_codec(tally: &WireTally) -> Result<CodecReplay, String> {
    let err = |e: WireError| format!("captured frame does not decode: {e}");
    let sent = tally
        .tx
        .iter()
        .map(|b| {
            let frame = Frame::decode(b)?;
            let cells = cells_of(&frame, FrameKind::Sends)?;
            Ok((frame, cells))
        })
        .collect::<Result<Vec<_>, WireError>>()
        .map_err(err)?;
    let (mut decode, mut encode, mut crc) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPLAYS {
        let t = Instant::now();
        for bytes in &tally.rx {
            let frame = Frame::decode(bytes).map_err(err)?;
            black_box(cells_of(&frame, FrameKind::Deliveries).map_err(err)?);
        }
        decode.push(secs(t));

        let t = Instant::now();
        let encoded: Vec<Vec<u8>> = sent
            .iter()
            .map(|(frame, cells)| {
                let payload = if frame.kind == FrameKind::Sends {
                    let mut p = Vec::new();
                    encode_cells(cells, &mut p);
                    p
                } else {
                    frame.payload.clone()
                };
                Frame { payload, ..*frame }.encode()
            })
            .collect();
        encode.push(secs(t));
        if encoded != tally.tx {
            return Err("re-encoded frames differ from the captured wire bytes".into());
        }

        let t = Instant::now();
        for bytes in tally.tx.iter().chain(&tally.rx) {
            black_box(crc32_parts(&[bytes]));
        }
        crc.push(secs(t));
    }
    let mb = (tally.bytes_tx() + tally.bytes_rx()) as f64 * 1e-6;
    Ok(CodecReplay {
        codec_s: median(&decode) + median(&encode),
        crc_mb_s: mb / median(&crc),
    })
}
