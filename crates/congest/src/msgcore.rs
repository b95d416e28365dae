//! The flat active-edge message core shared by every round-engine
//! backend.
//!
//! The seed-era representation kept one heap-allocated
//! `VecDeque<(bits, sender, payload)>` per *directed edge* — `2m`
//! independent allocations, a full `O(m)` scan of all queues on every
//! transfer step, and `O(m)` zeroing at every phase open. The paper's
//! whole point (sparsified subgraphs `H ⊆ G^k` keeping congestion low)
//! makes *sparse traffic on large graphs* the common case, which that
//! layout handles worst. [`MsgCore`] replaces it with:
//!
//! * **One arena.** Queued messages live in a single flat `Vec` of
//!   `Cell`s — `(bits_remaining, sender, payload)` plus an intrusive
//!   `next` link. Enqueue is a bump-append (or a free-list pop);
//!   delivery returns the cell to the free list. No per-edge heap
//!   allocation, ever.
//! * **Per-edge cursors.** Each directed edge owns a 12-byte
//!   `(head, tail, len)` cursor into the arena — a flat `Vec`, allocated
//!   once per phase, instead of `2m` `VecDeque` headers.
//! * **An active-edge worklist.** Edges holding at least one queued cell
//!   are tracked incrementally (pushed on the empty→nonempty transition
//!   at enqueue, compacted out when a transfer drains them). The
//!   per-round transfer visits **only** active edges, so a quiet round
//!   — fragments of a few large messages still crossing — costs
//!   `O(active)`, not `O(m)`. Emptiness ([`MsgCore::is_empty`], the
//!   engines' `in_flight`) is `O(1)`.
//!
//! Delivery order is part of the engine contract (ascending directed
//! edge index, FIFO within an edge): the worklist is kept in ascending
//! edge order by sorting it at the start of a transfer. Sends are
//! recorded in node-ID order and a node's out-edges are CSR-contiguous,
//! so the list is almost always already sorted and the sort is a single
//! `is_sorted` scan.
//!
//! The bandwidth semantics — move up to `bw` bits per edge per round,
//! deliver a message when its last bit crosses, FIFO per edge — live in
//! exactly one place, [`MsgCore::transfer`], for every backend. That is
//! what makes the contract's fragmentation/delivery accounting
//! impossible to desynchronize between engines.

use powersparse_graphs::NodeId;

/// Sentinel index: no cell / empty edge.
const NIL: u32 = u32::MAX;

/// One queued message in the arena: remaining bits, the intrusive FIFO
/// link, the sender and the payload. `msg` is `None` exactly while the
/// cell sits on the free list (the payload is dropped at delivery, not
/// retained until reuse).
#[derive(Debug, Clone)]
struct Cell<M> {
    /// Bits still to cross the edge.
    bits: u64,
    /// Next cell on the same edge's FIFO (or next free cell).
    next: u32,
    /// The sender.
    from: NodeId,
    /// The payload (`None` on the free list).
    msg: Option<M>,
}

/// Per-edge FIFO cursor into the arena.
#[derive(Debug, Clone, Copy)]
struct EdgeCursor {
    /// First queued cell (`NIL` when the edge is empty).
    head: u32,
    /// Last queued cell (`NIL` when the edge is empty).
    tail: u32,
    /// Queued message count (the transfer-time queue depth).
    len: u32,
}

impl EdgeCursor {
    const EMPTY: Self = Self {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// The arena-backed per-edge message queues of one engine phase, over a
/// contiguous range of directed edges (the whole graph for the
/// sequential engine, one shard's CSR-aligned edge range for the
/// parallel backends). Edge indices are **local** to that range.
#[derive(Debug)]
pub struct MsgCore<M> {
    /// The cell arena. Capacity is retained across rounds.
    cells: Vec<Cell<M>>,
    /// Head of the free-cell list (`NIL` when none).
    free_head: u32,
    /// Per-edge FIFO cursors.
    cursors: Vec<EdgeCursor>,
    /// Local indices of edges with at least one queued cell. Maintained
    /// incrementally; sorted ascending at transfer time (usually a
    /// no-op check — see the module docs).
    active: Vec<u32>,
    /// Total queued messages (so emptiness is O(1)).
    queued: usize,
    /// Current free-list length.
    free_len: usize,
    /// High-water mark of the free list — how many arena cells were
    /// idle-but-retained at once, the recycling half of the arena
    /// footprint gauge ([`MsgCore::free_list_high_water`]).
    free_high: usize,
}

impl<M> MsgCore<M> {
    /// An empty core over `edges` directed edges.
    pub fn new(edges: usize) -> Self {
        assert!(edges < NIL as usize, "edge range exceeds u32 index space");
        Self {
            cells: Vec::new(),
            free_head: NIL,
            cursors: vec![EdgeCursor::EMPTY; edges],
            active: Vec::new(),
            queued: 0,
            free_len: 0,
            free_high: 0,
        }
    }

    /// Number of directed edges this core covers.
    pub fn edges(&self) -> usize {
        self.cursors.len()
    }

    /// Whether no message is queued on any edge — the engines'
    /// `in_flight` check, O(1) instead of the old O(m) scan.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Total queued messages.
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Number of edges currently holding queued messages.
    pub fn active_edges(&self) -> usize {
        self.active.len()
    }

    /// Size of one arena cell in bytes for this payload type — the
    /// multiplier turning peak cell counts into the manifest's
    /// arena-footprint bytes.
    pub fn cell_size(&self) -> usize {
        std::mem::size_of::<Cell<M>>()
    }

    /// High-water mark of the free list: the most arena cells ever
    /// sitting idle (delivered but retained for reuse) at once. A local
    /// diagnostic — unlike the queued-cell peak it depends on delivery
    /// batching and is not part of the cross-engine contract.
    pub fn free_list_high_water(&self) -> usize {
        self.free_high
    }

    /// Appends a message of `bits` bits to local edge `edge`'s FIFO.
    /// Amortized O(1): a free-list pop or a bump-append, plus cursor
    /// updates; newly nonempty edges join the active worklist.
    pub fn enqueue(&mut self, edge: usize, bits: u64, from: NodeId, msg: M) {
        let idx = match self.free_head {
            NIL => {
                assert!(
                    self.cells.len() < NIL as usize,
                    "message arena exceeds u32 index space"
                );
                self.cells.push(Cell {
                    bits,
                    next: NIL,
                    from,
                    msg: Some(msg),
                });
                (self.cells.len() - 1) as u32
            }
            free => {
                let cell = &mut self.cells[free as usize];
                self.free_head = cell.next;
                self.free_len -= 1;
                *cell = Cell {
                    bits,
                    next: NIL,
                    from,
                    msg: Some(msg),
                };
                free
            }
        };
        let cur = &mut self.cursors[edge];
        if cur.head == NIL {
            cur.head = idx;
            self.active.push(edge as u32);
        } else {
            self.cells[cur.tail as usize].next = idx;
        }
        cur.tail = idx;
        cur.len += 1;
        self.queued += 1;
    }

    /// One bandwidth transfer step: every **active** edge, in ascending
    /// edge order, moves up to `bw` bits off the front of its FIFO;
    /// `deliver(local_edge, sender, payload)` fires for each message
    /// whose last bit crosses, FIFO within the edge. Drained edges leave
    /// the worklist. Returns the peak single-edge queue depth observed
    /// at the start of the step (0 when nothing was queued) — the
    /// `Metrics::peak_queue_depth` contribution.
    pub fn transfer(&mut self, bw: u64, mut deliver: impl FnMut(usize, NodeId, M)) -> u64 {
        if self.active.is_empty() {
            return 0;
        }
        if !self.active.is_sorted() {
            self.active.sort_unstable();
        }
        let mut peak = 0u64;
        let mut write = 0usize;
        for i in 0..self.active.len() {
            let edge = self.active[i];
            let cur = &mut self.cursors[edge as usize];
            peak = peak.max(u64::from(cur.len));
            let mut cap = bw;
            while cap > 0 && cur.head != NIL {
                let cell = &mut self.cells[cur.head as usize];
                let take = cap.min(cell.bits);
                cell.bits -= take;
                cap -= take;
                if cell.bits > 0 {
                    break;
                }
                let freed = cur.head;
                let from = cell.from;
                let msg = cell.msg.take().expect("queued cell has a payload");
                cur.head = cell.next;
                cell.next = self.free_head;
                self.free_head = freed;
                self.free_len += 1;
                self.free_high = self.free_high.max(self.free_len);
                cur.len -= 1;
                self.queued -= 1;
                deliver(edge as usize, from, msg);
            }
            let cur = &mut self.cursors[edge as usize];
            if cur.head == NIL {
                cur.tail = NIL;
            } else {
                // Still loaded: keep it on the worklist (compacting in
                // place preserves ascending order).
                self.active[write] = edge;
                write += 1;
            }
        }
        self.active.truncate(write);
        peak
    }

    /// Visits every queued cell in delivery order — ascending local edge
    /// index, FIFO within the edge — yielding
    /// `(local_edge, bits_remaining, sender, payload)`. This is the
    /// checkpoint serialization order: a fresh [`MsgCore::new`] replayed
    /// with [`MsgCore::enqueue`] in this order rebuilds identical
    /// cursors, worklist order and queue depths (the free list may
    /// differ, but it is a local diagnostic outside the engine
    /// contract).
    pub fn for_each_queued(&self, mut f: impl FnMut(usize, u64, NodeId, &M)) {
        let mut edges: Vec<u32> = self.active.clone();
        edges.sort_unstable();
        for &e in &edges {
            let mut idx = self.cursors[e as usize].head;
            while idx != NIL {
                let cell = &self.cells[idx as usize];
                f(
                    e as usize,
                    cell.bits,
                    cell.from,
                    cell.msg.as_ref().expect("queued cell has a payload"),
                );
                idx = cell.next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(core: &mut MsgCore<u32>, bw: u64) -> Vec<(usize, u32, u32)> {
        let mut out = Vec::new();
        let mut rounds = 0;
        while !core.is_empty() {
            core.transfer(bw, |e, from, msg| out.push((e, from.0, msg)));
            rounds += 1;
            assert!(rounds < 1000, "transfer failed to make progress");
        }
        out
    }

    #[test]
    fn fifo_order_within_an_edge() {
        let mut core = MsgCore::new(3);
        for m in 0..5u32 {
            core.enqueue(1, 8, NodeId(9), m);
        }
        let got = drain_all(&mut core, 8);
        assert_eq!(
            got,
            (0..5).map(|m| (1, 9, m)).collect::<Vec<_>>(),
            "per-edge FIFO order"
        );
    }

    #[test]
    fn ascending_edge_order_even_after_unsorted_enqueue() {
        let mut core = MsgCore::new(8);
        for &e in &[5usize, 1, 7, 0, 3] {
            core.enqueue(e, 4, NodeId(e as u32), e as u32);
        }
        let mut seen = Vec::new();
        core.transfer(64, |e, _, _| seen.push(e));
        assert_eq!(
            seen,
            vec![0, 1, 3, 5, 7],
            "deliveries in ascending edge order"
        );
        assert!(core.is_empty());
        assert_eq!(core.active_edges(), 0);
    }

    #[test]
    fn fragmentation_and_partial_fronts() {
        let mut core = MsgCore::new(2);
        core.enqueue(0, 35, NodeId(0), 1u32); // 4 rounds at bw 10
        core.enqueue(0, 5, NodeId(0), 2);
        let mut deliveries_per_round = Vec::new();
        for _ in 0..4 {
            let mut n = 0;
            core.transfer(10, |_, _, _| n += 1);
            deliveries_per_round.push(n);
        }
        // Rounds 1-3 move 30 bits of msg 1; round 4 completes it (5 bits)
        // and msg 2 (5 bits) in the same step.
        assert_eq!(deliveries_per_round, vec![0, 0, 0, 2]);
        assert!(core.is_empty());
    }

    #[test]
    fn free_list_reuses_cells() {
        let mut core = MsgCore::new(4);
        for round in 0..10 {
            for e in 0..4usize {
                core.enqueue(e, 8, NodeId(0), round);
            }
            let mut n = 0;
            core.transfer(8, |_, _, _| n += 1);
            assert_eq!(n, 4);
        }
        // 40 messages flowed through, but the arena only ever held one
        // in-flight generation.
        assert_eq!(core.cells.len(), 4, "arena must recycle, not grow");
    }

    #[test]
    fn peak_depth_is_per_edge_at_transfer_start() {
        let mut core = MsgCore::new(3);
        for m in 0..4u32 {
            core.enqueue(2, 4, NodeId(0), m);
        }
        core.enqueue(0, 4, NodeId(0), 9);
        // Depth 4 on edge 2, depth 1 on edge 0 — the peak is per edge,
        // not the total.
        assert_eq!(core.transfer(4, |_, _, _| {}), 4);
        // Three messages remain on edge 2.
        assert_eq!(core.transfer(4, |_, _, _| {}), 3);
    }

    #[test]
    fn active_worklist_shrinks_to_loaded_edges() {
        let mut core = MsgCore::new(100);
        core.enqueue(7, 100, NodeId(0), 1u32); // long haul
        core.enqueue(50, 4, NodeId(0), 2); // done in one step
        assert_eq!(core.active_edges(), 2);
        core.transfer(4, |_, _, _| {});
        assert_eq!(core.active_edges(), 1, "drained edge must leave the list");
        assert_eq!(core.queued(), 1);
    }

    #[test]
    fn footprint_gauges_track_arena_recycling() {
        let mut core = MsgCore::new(4);
        assert!(core.cell_size() >= std::mem::size_of::<u64>() + std::mem::size_of::<u32>());
        assert_eq!(core.free_list_high_water(), 0);
        for e in 0..4usize {
            core.enqueue(e, 8, NodeId(0), 1u32);
        }
        core.transfer(8, |_, _, _| {});
        // All four cells delivered and parked on the free list at once.
        assert_eq!(core.free_list_high_water(), 4);
        for e in 0..4usize {
            core.enqueue(e, 8, NodeId(0), 2u32);
        }
        core.transfer(8, |_, _, _| {});
        // Recycling never grew the idle pool past the first generation.
        assert_eq!(core.free_list_high_water(), 4);
        assert_eq!(core.queued(), 0);
    }

    #[test]
    fn for_each_queued_snapshots_in_delivery_order() {
        let mut core = MsgCore::new(8);
        // Unsorted enqueue order, multiple cells per edge, one partially
        // transferred front.
        core.enqueue(5, 16, NodeId(50), 500u32);
        core.enqueue(1, 8, NodeId(10), 100);
        core.enqueue(5, 8, NodeId(51), 501);
        core.enqueue(0, 8, NodeId(0), 0);
        core.transfer(4, |_, _, _| {}); // nothing delivered, fronts shrink by 4 bits
        let mut snap = Vec::new();
        core.for_each_queued(|e, bits, from, msg| snap.push((e, bits, from.0, *msg)));
        assert_eq!(
            snap,
            vec![
                (0, 4, 0, 0),
                (1, 4, 10, 100),
                (5, 12, 50, 500),
                (5, 8, 51, 501),
            ],
            "ascending edge order, FIFO within the edge, remaining bits"
        );
    }

    #[test]
    fn replaying_a_snapshot_rebuilds_an_equivalent_core() {
        let mut core = MsgCore::new(6);
        for &(e, bits, m) in &[(4usize, 20u64, 1u32), (2, 8, 2), (4, 8, 3), (0, 8, 4)] {
            core.enqueue(e, bits, NodeId(m), m);
        }
        core.transfer(8, |_, _, _| {}); // deliver the short ones, fragment edge 4
        let mut snap = Vec::new();
        core.for_each_queued(|e, bits, from, msg| snap.push((e, bits, from, *msg)));
        let mut rebuilt = MsgCore::new(core.edges());
        for &(e, bits, from, msg) in &snap {
            rebuilt.enqueue(e, bits, from, msg);
        }
        assert_eq!(rebuilt.queued(), core.queued());
        assert_eq!(rebuilt.active_edges(), core.active_edges());
        // Both cores must now deliver identically under the same bandwidth.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        while !core.is_empty() {
            core.transfer(8, |e, f, m| a.push((e, f.0, m)));
            rebuilt.transfer(8, |e, f, m| b.push((e, f.0, m)));
        }
        assert!(rebuilt.is_empty());
        assert_eq!(a, b, "replayed core must deliver bit-for-bit identically");
    }

    #[test]
    fn interleaved_edges_keep_independent_fifos() {
        let mut core = MsgCore::new(2);
        core.enqueue(0, 8, NodeId(0), 10u32);
        core.enqueue(1, 8, NodeId(1), 20);
        core.enqueue(0, 8, NodeId(0), 11);
        core.enqueue(1, 8, NodeId(1), 21);
        let got = drain_all(&mut core, 8);
        assert_eq!(got, vec![(0, 0, 10), (1, 1, 20), (0, 0, 11), (1, 1, 21)]);
    }
}
