//! Shard layout and routing code shared by every parallel backend of
//! this crate ([`crate::ShardedSimulator`] and [`crate::PooledSimulator`]).
//!
//! Both engines rely on the same invariants:
//!
//! * Shards are contiguous node ranges ([`ShardLayout`]), so each shard
//!   also owns the contiguous range of directed edge indices of its
//!   nodes' out-edges (CSR alignment) — queues and per-edge counters are
//!   sliced, never shared.
//! * The sender side of a round ([`flush_shard_sends`]) touches only
//!   sender-shard-owned data and emits `(receiver shard)`-bucketed
//!   delivery buffers in ascending edge order.
//! * The receiver side concatenates those buffers per receiver shard in
//!   sender-shard order, which *is* ascending global edge order — the
//!   delivery order of the sequential reference engine. The sharded
//!   engine routes per message into per-node mailboxes ([`route_stage`]);
//!   the pooled engine splices whole buffers onto a contiguous arrival
//!   run (one `Vec::append` per shard pair, in its own stage 2) and
//!   defers the per-node grouping to the owning worker's next step
//!   (`DistScratch`). The process engine ([`crate::ProcessSimulator`])
//!   uses the same layout and the same counting sort, over one arrival
//!   run it assembles from its children's `Deliveries` frames.
//!
//! Keeping this in one module is what makes the two backends impossible
//! to desynchronize: they differ only in *scheduling* (scoped thread
//! scatters vs. a persistent worker pool) and in *when* deliveries are
//! grouped per node, never in what is delivered, in which order, or at
//! what accounted cost.

use powersparse_congest::engine::{Delivery, Message, SendRecord};
use powersparse_congest::msgcore::MsgCore;
use powersparse_graphs::partition::shard_ranges;
use powersparse_graphs::{Graph, NodeId};
use std::ops::Range;

/// The worker count used by the engines' `new` constructors:
/// `POWERSPARSE_THREADS`, else `RAYON_NUM_THREADS`, else the machine's
/// available parallelism.
pub fn default_shards() -> usize {
    for var in ["POWERSPARSE_THREADS", "RAYON_NUM_THREADS"] {
        if let Ok(s) = std::env::var(var) {
            if let Ok(v) = s.trim().parse::<usize>() {
                if v >= 1 {
                    return v;
                }
            }
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Nodes per shard below which extra workers stop paying for themselves;
/// the engines' `new` constructors cap the default worker count with
/// this.
pub const MIN_NODES_PER_SHARD: usize = 64;

/// The default worker count for `graph`: [`default_shards`], capped so
/// each worker keeps at least [`MIN_NODES_PER_SHARD`] nodes. The single
/// definition both engines' `new` constructors use — the default must
/// never drift between backends.
pub fn capped_default_shards(graph: &Graph) -> usize {
    let cap = (graph.n() / MIN_NODES_PER_SHARD).max(1);
    default_shards().min(cap)
}

/// The contiguous, CSR-aligned shard partition of a graph: which nodes,
/// which directed edges and (inverted) which shard owns each node.
#[derive(Debug, Clone)]
pub struct ShardLayout {
    /// Contiguous node range owned by each shard.
    pub node_ranges: Vec<Range<usize>>,
    /// Directed-edge range owned by each shard (CSR-aligned with
    /// `node_ranges`).
    pub edge_ranges: Vec<Range<usize>>,
    /// Owning shard of each node.
    pub shard_of: Vec<u32>,
}

impl ShardLayout {
    /// Partitions `graph` into at most `shards` load-balanced shards
    /// (clamped to the node count, so no shard is guaranteed empty).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(graph: &Graph, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let shards = shards.min(graph.n().max(1));
        let offsets = graph.offsets();
        let node_ranges = shard_ranges(graph, shards);
        let edge_ranges: Vec<Range<usize>> = node_ranges
            .iter()
            .map(|r| offsets[r.start] as usize..offsets[r.end] as usize)
            .collect();
        let mut shard_of = vec![0u32; graph.n()];
        for (w, r) in node_ranges.iter().enumerate() {
            for s in &mut shard_of[r.clone()] {
                *s = w as u32;
            }
        }
        Self {
            node_ranges,
            edge_ranges,
            shard_of,
        }
    }

    /// Number of shards (= worker threads in parallel stages).
    pub fn shards(&self) -> usize {
        self.node_ranges.len()
    }
}

/// A delivery routed between shards: `(receiver, sender, payload)`.
pub type Routed<M> = (NodeId, NodeId, M);

/// One shard's stage-1 result, shared by both parallel backends:
/// the counters returned by [`flush_shard_sends`] plus the shard's
/// worker-side span timestamps (zero when the engine runs un-probed —
/// see `powersparse_congest::probe`'s "Span emission points"). The
/// pooled engine writes these into per-shard slots through its disjoint
/// views and merges them on the caller at the stage-2 barrier, exactly
/// where the counters merge; the sharded engine returns them through
/// the scoped joins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageOut {
    /// Bits the shard enqueued this round.
    pub bits: u64,
    /// Messages the shard's transfer delivered this round.
    pub msgs: u64,
    /// Peak single-edge queue depth observed on the shard's core.
    pub peak: u64,
    /// Messages queued on the shard's core at transfer start (arena
    /// footprint share; sums to the sequential engine's global value).
    pub queued: u64,
    /// Nanoseconds the shard spent stepping its nodes (probe only).
    pub step_ns: u64,
    /// Nanoseconds the shard spent in the enqueue + transfer tail
    /// (probe only).
    pub transfer_ns: u64,
}

/// The `settle` fast-path pre-check shared by both engines: whether any
/// delivery buffer still holds an unread message. On quiet rounds
/// (fragmented messages still crossing, nothing delivered yet) every
/// buffer is empty and fanning out a parallel consume stage would be
/// pure overhead — both backends skip it via this one check. The sharded
/// engine passes its per-node mailboxes, the pooled engine its per-shard
/// arrival runs; the question is the same.
pub fn deliveries_pending<T>(buffers: &[Vec<T>]) -> bool {
    buffers.iter().any(|b| !b.is_empty())
}

/// The sender-side tail of one round for one shard, shared by both
/// engines: enqueue the shard's collected sends on its arena core
/// ([`MsgCore`], covering the shard's CSR-aligned edge range), then
/// transfer up to `bw` bits per **active** owned edge in ascending edge
/// order, bucketing completed messages by receiver shard into `row`
/// (this shard's row of the phase's cell matrix). Returns the shard's
/// bit/message totals, its peak single-edge queue depth, and the number
/// of messages queued on its core at transfer start (the shard's share
/// of the round's arena footprint — summed across shards at the barrier
/// it equals the sequential engine's global value).
///
/// `edge_bits`/`edge_messages` are the shard's slices of the per-edge
/// counters — **empty slices when per-edge accounting is disabled**
/// (the opt-in `MetricsConfig::per_edge` mode), in which case no
/// per-edge accumulation happens at all.
///
/// A node's out-edges all lie in the shard's edge range (CSR alignment),
/// so this writes only shard-owned queues and counters.
#[allow(clippy::too_many_arguments)]
pub fn flush_shard_sends<M: Message>(
    graph: &Graph,
    shard_of: &[u32],
    bw: u64,
    edges: Range<usize>,
    core: &mut MsgCore<M>,
    edge_bits: &mut [u64],
    edge_messages: &mut [u64],
    sends: &mut Vec<SendRecord<M>>,
    row: &mut [Vec<Routed<M>>],
) -> (u64, u64, u64, u64) {
    let per_edge = !edge_bits.is_empty();
    let mut bits_total = 0u64;
    for SendRecord {
        edge,
        bits,
        from,
        msg,
    } in sends.drain(..)
    {
        debug_assert!(edges.contains(&edge), "send escaped its shard's edge range");
        let e = edge - edges.start;
        bits_total += bits;
        if per_edge {
            edge_bits[e] += bits;
        }
        core.enqueue(e, bits, from, msg);
    }
    let queued = core.queued() as u64;
    let mut msgs_total = 0u64;
    let peak = core.transfer(bw, |e, from, msg| {
        msgs_total += 1;
        if per_edge {
            edge_messages[e] += 1;
        }
        let to = graph.edge_target(edges.start + e);
        row[shard_of[to.index()] as usize].push((to, from, msg));
    });
    (bits_total, msgs_total, peak, queued)
}

/// Splits a per-edge counter array into one shard-owned chunk per edge
/// range — or, when per-edge accounting is disabled and the array is
/// empty, into one empty slice per shard (so transfer stages can take
/// `&mut [u64]` unconditionally and branch on emptiness).
pub fn split_counters<'a>(counters: &'a mut [u64], ranges: &[Range<usize>]) -> Vec<&'a mut [u64]> {
    if counters.is_empty() {
        return ranges.iter().map(|_| Default::default()).collect();
    }
    split_by_ranges(counters, ranges)
}

/// Receiver-side routing for one shard of the *sharded* engine: drain
/// the cells bound for the shard's nodes (given in sender-shard order)
/// into their per-node mailboxes. Draining (rather than consuming) the
/// cells keeps their capacity for the next round. Returns the number of
/// mailboxes that went from empty to nonempty — all mailboxes are empty
/// at stage-2 start (stage 1 consumed every inbox), so this is the
/// shard's count of distinct delivery receivers this round.
pub fn route_stage<M>(
    inboxes: &mut [Vec<Delivery<M>>],
    col: Vec<&mut Vec<Routed<M>>>,
    lo: usize,
) -> u64 {
    let mut dirty = 0u64;
    for cell in col {
        for (to, from, msg) in cell.drain(..) {
            let inbox = &mut inboxes[to.index() - lo];
            if inbox.is_empty() {
                dirty += 1;
            }
            inbox.push((from, msg));
        }
    }
    dirty
}

/// Counting-sort workspace that turns an arrival run into per-node
/// inbox slices; all three vectors keep their capacity across rounds.
/// The pooled engine keeps one per shard, the process engine one over
/// the whole graph.
#[derive(Debug)]
pub(crate) struct DistScratch<M> {
    /// Inbox start offset per local node (`len = local nodes + 1` after
    /// a distribution).
    starts: Vec<usize>,
    /// Write cursors of the counting sort (reset from `starts`).
    cursors: Vec<usize>,
    /// The flat inbox buffer: node `l`'s inbox is
    /// `buf[starts[l]..starts[l + 1]]`.
    buf: Vec<Delivery<M>>,
}

impl<M> Default for DistScratch<M> {
    fn default() -> Self {
        Self {
            starts: Vec::new(),
            cursors: Vec::new(),
            buf: Vec::new(),
        }
    }
}

impl<M> DistScratch<M> {
    /// Groups an arrival run for nodes `lo..lo + n_local` (ascending
    /// global edge order, consumed) into per-node inbox slices with a
    /// stable counting sort: one counting pass, one placement pass, no
    /// per-node allocation. Stability keeps each inbox in ascending edge
    /// order — the sequential reference delivery order.
    pub(crate) fn distribute(&mut self, arrivals: &mut Vec<Routed<M>>, lo: usize, n_local: usize) {
        let total = arrivals.len();
        self.starts.clear();
        self.starts.resize(n_local + 1, 0);
        for (to, _, _) in arrivals.iter() {
            self.starts[to.index() - lo + 1] += 1;
        }
        for l in 0..n_local {
            self.starts[l + 1] += self.starts[l];
        }
        self.cursors.clear();
        self.cursors.extend_from_slice(&self.starts[..n_local]);
        self.buf.clear();
        self.buf.reserve(total);
        let spare = self.buf.spare_capacity_mut();
        for (to, from, msg) in arrivals.drain(..) {
            let l = to.index() - lo;
            let slot = self.cursors[l];
            self.cursors[l] += 1;
            spare[slot].write((from, msg));
        }
        // SAFETY: the per-node counts sum to `total` and each cursor
        // walks its own disjoint `starts[l]..starts[l + 1]` subrange, so
        // every slot in `0..total` was initialized exactly once above.
        unsafe { self.buf.set_len(total) };
    }

    /// Local node `l`'s inbox slice (valid after [`Self::distribute`]).
    #[inline]
    pub(crate) fn inbox(&self, l: usize) -> &[Delivery<M>] {
        &self.buf[self.starts[l]..self.starts[l + 1]]
    }
}

/// The probe's distinct-receiver count for one arrival run: stamps each
/// receiver's slot in `stamps` (one per node) with `stamp` and counts
/// the slots that did not carry it yet. A fresh stamp per round counts
/// distinct receivers without clearing an n-sized set every round.
pub(crate) fn stamp_receivers<M>(run: &[Routed<M>], stamps: &mut [u64], stamp: u64) -> u64 {
    let mut fresh = 0u64;
    for (to, _, _) in run {
        let slot = &mut stamps[to.index()];
        if *slot != stamp {
            *slot = stamp;
            fresh += 1;
        }
    }
    fresh
}

/// Splits `slice` into disjoint mutable chunks along contiguous `ranges`
/// (which must start at 0 and cover the slice).
pub fn split_by_ranges<'a, T>(mut slice: &'a mut [T], ranges: &[Range<usize>]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut offset = 0;
    for r in ranges {
        debug_assert_eq!(r.start, offset, "ranges must be contiguous from 0");
        let (head, tail) = slice.split_at_mut(r.len());
        out.push(head);
        slice = tail;
        offset = r.end;
    }
    debug_assert!(slice.is_empty(), "ranges must cover the whole slice");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersparse_graphs::generators;

    #[test]
    fn layout_is_contiguous_and_csr_aligned() {
        let g = generators::connected_gnp(100, 0.06, 3);
        for shards in [1usize, 2, 5, 9] {
            let layout = ShardLayout::new(&g, shards);
            assert_eq!(layout.shards(), shards.min(g.n()));
            let mut node_cursor = 0;
            let offsets = g.offsets();
            for (w, (nr, er)) in layout
                .node_ranges
                .iter()
                .zip(&layout.edge_ranges)
                .enumerate()
            {
                assert_eq!(nr.start, node_cursor, "node ranges must be contiguous");
                node_cursor = nr.end;
                assert_eq!(er.start, offsets[nr.start] as usize);
                assert_eq!(er.end, offsets[nr.end] as usize);
                for v in nr.clone() {
                    assert_eq!(layout.shard_of[v], w as u32);
                }
            }
            assert_eq!(node_cursor, g.n());
        }
    }

    #[test]
    fn layout_clamps_to_node_count() {
        let g = generators::path(3);
        let layout = ShardLayout::new(&g, 64);
        assert_eq!(layout.shards(), 3);
    }

    #[test]
    fn deliveries_pending_matches_emptiness() {
        let empty: Vec<Vec<u8>> = vec![Vec::new(), Vec::new()];
        assert!(!deliveries_pending(&empty));
        assert!(deliveries_pending(&[vec![], vec![1u8]]));
        assert!(!deliveries_pending::<u8>(&[]));
    }
}
