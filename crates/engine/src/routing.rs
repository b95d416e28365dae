//! Shard layout and routing code shared by the two parallel backends of
//! this crate, [`crate::PooledSimulator`] and [`crate::ProcessSimulator`].
//!
//! Both engines rely on the same invariants:
//!
//! * Shards are contiguous node ranges ([`ShardLayout`]), so each shard
//!   also owns the contiguous range of directed edge indices of its
//!   nodes' out-edges (CSR alignment) — queues and per-edge counters are
//!   sliced, never shared.
//! * The sender side of a round touches only sender-shard-owned data and
//!   emits deliveries bucketed by receiver shard ([`Routed`]), in the
//!   message core's round order: each receiver's messages by ascending
//!   sender, FIFO per edge (not in global edge order).
//! * The receiver side concatenates those buckets in sender-shard order,
//!   which is ascending sender order across shards, onto one contiguous
//!   arrival run per receiver. The pooled engine splices whole buffers
//!   (a swap or one `Vec::append` per shard pair); the process engine
//!   decodes its children's `Deliveries` frames onto one run over the
//!   whole graph.
//! * The per-node grouping is deferred to the next read, where the same
//!   stable counting sort (`DistScratch`) turns a run into inbox slices.
//!   Stability keeps each receiver's order, so every inbox gets the
//!   delivery order of the sequential reference engine.
//!
//! Keeping this in one module is what keeps the two backends from
//! drifting apart: they differ in *where* a shard's message core lives
//! (a pool worker vs. a forked child), never in what is delivered, in
//! which order, or at what accounted cost.

use powersparse_congest::engine::Delivery;
use powersparse_graphs::partition::shard_ranges;
use powersparse_graphs::{Graph, NodeId};
use std::ops::Range;

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
    /// Groups an arrival run for nodes `lo..lo + n_local` (consumed)
    /// into per-node inbox slices with a stable counting sort: one
    /// counting pass, one placement pass, no per-node allocation.
    /// Stability keeps each receiver's order from the run — ascending
    /// sender, FIFO per edge, the sequential reference delivery order.
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

    /// Drops the last distribution's inboxes, keeping capacity.
    pub(crate) fn clear(&mut self) {
        self.starts.clear();
        self.cursors.clear();
        self.buf.clear();
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
}
