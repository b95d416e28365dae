//! The flat active-edge message core shared by every round-engine
//! backend.
//!
//! A round's sends reach the core in one pass, [`MsgCore::round`], which
//! applies the bandwidth semantics and hands back every message whose
//! last bit crosses this round:
//!
//! * **Direct delivery.** A send on an edge with nothing queued, whose
//!   bits fit what the edge has left this round, is delivered at once.
//!   It never touches the arena. On shallow traffic (every message fits
//!   the bandwidth) that is every message.
//! * **One arena for the rest.** A message that does not complete in
//!   the round it is sent lives in a single flat `Vec` of `Cell`s —
//!   `(bits_remaining, sender, payload)` plus an intrusive `next` link —
//!   until its last bit crosses. Taking a cell is a bump-append or a
//!   free-list pop; delivery returns it to the free list.
//! * **Per-edge cursors.** Each directed edge owns a 12-byte cursor: the
//!   tail and length of its FIFO in the arena (a ring: the tail cell
//!   links back to the head), and where to find the edge's tally of the
//!   current round — its queue depth and the bits it moved — in a list
//!   of the edges the round has touched.
//! * **An active-edge worklist.** Edges holding at least one queued cell
//!   are tracked incrementally (pushed on the empty→nonempty transition,
//!   compacted out when they drain). Only they are visited outside the
//!   round's sends, so a quiet round — fragments of a few large messages
//!   still crossing — costs `O(active)`, not `O(m)`. Emptiness
//!   ([`MsgCore::is_empty`], the engines' `in_flight`) is `O(1)`.
//!
//! Delivery order is part of the engine contract (each inbox ordered by
//! ascending sender, FIFO within an edge). Callers pass a round's sends
//! in recording order, which is sender order, and a sender's out-edges
//! are one CSR-contiguous range. A record may cover several consecutive
//! edges (a broadcast covers all of its sender's): the core expands it
//! in place into one send per edge, in ascending edge order, cloning
//! the payload for every edge but the last, so it handles exactly the
//! per-edge sends the record stands for. Before a send on edge `e` is
//! handled, the backlog of every loaded edge `≤ e` moves, in ascending
//! edge order, so a receiver sees each sender's messages after those of
//! every smaller sender. The graph has no parallel edges, so that is
//! ascending edge order as one receiver sees it. Deliveries to *different*
//! receivers interleave in round order, not in global edge order.
//!
//! The bandwidth semantics — move up to `bw` bits per edge per round,
//! deliver a message when its last bit crosses, FIFO per edge — live in
//! exactly one place, [`MsgCore::round`], for every backend. That is
//! what makes the contract's fragmentation/delivery accounting
//! impossible to desynchronize between engines.

use crate::engine::SendRecord;
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
    /// Next cell on the same edge's FIFO — the tail links back to the
    /// head — or the next free cell.
    next: u32,
    /// The sender.
    from: NodeId,
    /// The payload (`None` on the free list).
    msg: Option<M>,
}

/// Per-edge FIFO cursor into the arena.
#[derive(Debug, Clone, Copy)]
struct EdgeCursor {
    /// Last queued cell, whose `next` is the first (`NIL` when the edge
    /// is empty).
    tail: u32,
    /// Queued message count.
    len: u32,
    /// The edge's slot in the core's `tallies`, valid only while that
    /// slot names this edge (the list is rebuilt every round).
    tally: u32,
}

impl EdgeCursor {
    const EMPTY: Self = Self {
        tail: NIL,
        len: 0,
        tally: 0,
    };
}

/// What one edge did in the current round.
#[derive(Debug)]
struct Tally {
    /// The edge (local index).
    edge: u32,
    /// Its backlog at the start of the round plus its sends so far.
    depth: u32,
    /// Bits it moved so far.
    used: u64,
}

/// What one [`MsgCore::round`] measured: the core's share of the
/// engines' queue gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundLoad {
    /// The largest queue depth of one edge this round: its backlog plus
    /// its sends of the round (0 when the round moved nothing) — the
    /// `Metrics::peak_queue_depth` contribution.
    pub peak_depth: u64,
    /// Messages in the queue model at transfer start: the backlog plus
    /// every send of the round, direct ones included — the
    /// `Metrics::arena_cells_peak` contribution.
    pub cells: u64,
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
    /// incrementally; sorted ascending at the start of a round (usually
    /// a no-op check, since sends arrive in sender order).
    active: Vec<u32>,
    /// Total queued messages (so emptiness is O(1)).
    queued: usize,
    /// The tallies of the edges the current round has touched, in touch
    /// order. Capacity is retained across rounds.
    tallies: Vec<Tally>,
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
            tallies: Vec::new(),
        }
    }

    /// Whether no message is queued on any edge — the engines'
    /// `in_flight` check, O(1).
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
    pub fn cell_size() -> usize {
        std::mem::size_of::<Cell<M>>()
    }

    /// Drops every queued message and empties every loaded edge, keeping
    /// all capacity: the core is then as good as new for another phase
    /// over the same edges. O(active edges + arena cells).
    pub fn clear(&mut self) {
        for &edge in &self.active {
            let cur = &mut self.cursors[edge as usize];
            cur.tail = NIL;
            cur.len = 0;
        }
        self.active.clear();
        self.cells.clear();
        self.tallies.clear();
        self.free_head = NIL;
        self.queued = 0;
    }

    /// One round: takes the round's `sends` (local edge indices, in
    /// recording order — sender order on every engine), expands each
    /// record into one send per covered edge, in ascending edge order,
    /// and moves up to `bw` bits on every edge that holds or receives
    /// bits. `deliver(local_edge, sender, payload)` fires for each
    /// message whose last bit crosses, FIFO within an edge:
    ///
    /// * before a send on edge `e`, every loaded edge `≤ e` whose backlog
    ///   has not moved yet moves it, in ascending edge order;
    /// * a send on an edge with no queued cell, whose bits fit what the
    ///   edge has left this round, is delivered at once;
    /// * any other send joins the edge's FIFO, and the first such send
    ///   of the round moves the edge's remaining bits;
    /// * after the last send, the rest of the backlog moves.
    ///
    /// A record's payload is cloned for each covered edge but the last,
    /// which takes it. A silent round is a round with no sends. Returns
    /// the round's [`RoundLoad`].
    pub fn round(
        &mut self,
        bw: u64,
        sends: impl IntoIterator<Item = SendRecord<M>>,
        mut deliver: impl FnMut(usize, NodeId, M),
    ) -> RoundLoad
    where
        M: Clone,
    {
        self.tallies.clear();
        if !self.active.is_sorted() {
            self.active.sort_unstable();
        }
        let backlog = self.active.len();
        let mut load = RoundLoad {
            peak_depth: 0,
            cells: self.queued as u64,
        };
        // `next` walks the backlog; survivors compact down to `keep`.
        let (mut next, mut keep) = (0, 0);
        let mut send = |edge: usize, bits: u64, from: NodeId, msg: M| {
            while next < backlog && self.active[next] as usize <= edge {
                self.move_backlog(next, &mut keep, bw, &mut load, &mut deliver);
                next += 1;
            }
            load.cells += 1;
            let cur = &mut self.cursors[edge];
            let at = cur.tally as usize;
            if self.tallies.get(at).is_none_or(|t| t.edge as usize != edge) {
                // First touch this round, and no backlog moved.
                cur.tally = self.tallies.len() as u32;
                self.tallies.push(Tally {
                    edge: edge as u32,
                    depth: 0,
                    used: 0,
                });
            }
            let tally = &mut self.tallies[cur.tally as usize];
            tally.depth += 1;
            load.peak_depth = load.peak_depth.max(u64::from(tally.depth));
            let left = bw - tally.used;
            if cur.tail == NIL && left > 0 && bits <= left {
                tally.used += bits;
                deliver(edge, from, msg);
            } else {
                // A loaded edge has nothing left, so only a send that
                // overflows an idle edge moves bits here.
                tally.used = bw;
                self.push_cell(edge, bits - left, from, msg);
            }
        };
        for record in sends {
            let (bits, from) = (record.bits, record.from);
            record.expand(|edge, msg| send(edge, bits, from, msg));
        }
        while next < backlog {
            self.move_backlog(next, &mut keep, bw, &mut load, &mut deliver);
            next += 1;
        }
        // Edges loaded this round were pushed behind the backlog; close
        // the gap the drained backlog left.
        self.active.drain(keep..backlog);
        load
    }

    /// Moves up to `bw` bits off the front of backlog edge
    /// `self.active[at]` — the edge's first touch this round — records
    /// its tally, and keeps it on the worklist (at `*keep`, compacting in
    /// place) while still loaded.
    fn move_backlog(
        &mut self,
        at: usize,
        keep: &mut usize,
        bw: u64,
        load: &mut RoundLoad,
        deliver: &mut impl FnMut(usize, NodeId, M),
    ) {
        let edge = self.active[at];
        let cur = &mut self.cursors[edge as usize];
        let depth = cur.len;
        load.peak_depth = load.peak_depth.max(u64::from(depth));
        let mut cap = bw;
        let mut head = self.cells[cur.tail as usize].next;
        while cap > 0 {
            let cell = &mut self.cells[head as usize];
            let take = cap.min(cell.bits);
            cell.bits -= take;
            cap -= take;
            if cell.bits > 0 {
                break;
            }
            let freed = head;
            let from = cell.from;
            let msg = cell.msg.take().expect("queued cell has a payload");
            head = cell.next;
            cell.next = self.free_head;
            self.free_head = freed;
            cur.len -= 1;
            self.queued -= 1;
            deliver(edge as usize, from, msg);
            if cur.len == 0 {
                break;
            }
        }
        cur.tally = self.tallies.len() as u32;
        self.tallies.push(Tally {
            edge,
            depth,
            used: bw - cap,
        });
        if cur.len == 0 {
            cur.tail = NIL;
        } else {
            self.cells[cur.tail as usize].next = head;
            self.active[*keep] = edge;
            *keep += 1;
        }
    }

    /// Appends a message of `bits` remaining bits to local edge `edge`'s
    /// FIFO in a free-list or bump-appended arena cell; a newly loaded
    /// edge joins the active worklist.
    fn push_cell(&mut self, edge: usize, bits: u64, from: NodeId, msg: M) {
        let cell = Cell {
            bits,
            next: NIL,
            from,
            msg: Some(msg),
        };
        let idx = match self.free_head {
            NIL => {
                assert!(
                    self.cells.len() < NIL as usize,
                    "message arena exceeds u32 index space"
                );
                self.cells.push(cell);
                (self.cells.len() - 1) as u32
            }
            free => {
                let slot = &mut self.cells[free as usize];
                self.free_head = slot.next;
                *slot = cell;
                free
            }
        };
        let cur = &mut self.cursors[edge];
        let head = if cur.tail == NIL {
            self.active.push(edge as u32);
            idx
        } else {
            std::mem::replace(&mut self.cells[cur.tail as usize].next, idx)
        };
        self.cells[idx as usize].next = head;
        cur.tail = idx;
        cur.len += 1;
        self.queued += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;
    use std::ops::Range;

    /// One record of `msg` over the consecutive edges `edges`.
    fn fan(edges: Range<usize>, bits: u64, from: u32, msg: u32) -> SendRecord<u32> {
        SendRecord {
            edge: edges.start as u32,
            fanout: edges.len() as u32,
            bits,
            from: NodeId(from),
            msg,
        }
    }

    fn send(edge: usize, bits: u64, from: u32, msg: u32) -> SendRecord<u32> {
        fan(edge..edge + 1, bits, from, msg)
    }

    /// Runs one round and returns its deliveries as `(edge, sender,
    /// payload)` in delivery order.
    fn run(
        core: &mut MsgCore<u32>,
        bw: u64,
        sends: Vec<SendRecord<u32>>,
    ) -> (Vec<(usize, u32, u32)>, RoundLoad) {
        let mut out = Vec::new();
        let load = core.round(bw, sends, |e, from, msg| out.push((e, from.0, msg)));
        (out, load)
    }

    fn drain_all(core: &mut MsgCore<u32>, bw: u64) -> Vec<(usize, u32, u32)> {
        let mut out = Vec::new();
        let mut rounds = 0;
        while !core.is_empty() {
            out.extend(run(core, bw, Vec::new()).0);
            rounds += 1;
            assert!(rounds < 1000, "silent rounds failed to make progress");
        }
        out
    }

    #[test]
    fn fifo_order_within_an_edge() {
        let mut core = MsgCore::new(3);
        let (now, _) = run(&mut core, 8, (0..5).map(|m| send(1, 8, 9, m)).collect());
        assert_eq!(now, vec![(1, 9, 0)], "only the first fits this round");
        let got = drain_all(&mut core, 8);
        assert_eq!(
            got,
            (1..5).map(|m| (1, 9, m)).collect::<Vec<_>>(),
            "per-edge FIFO order"
        );
    }

    #[test]
    fn ascending_edge_order_even_after_unsorted_enqueue() {
        let mut core = MsgCore::new(8);
        // Round 1: a long message on each of edges 5, 1, 7 (bw 4), so
        // all three carry a backlog into round 2.
        let (now, _) = run(
            &mut core,
            4,
            [5usize, 1, 7]
                .iter()
                .map(|&e| send(e, 6, e as u32, e as u32))
                .collect(),
        );
        assert!(now.is_empty());
        // Round 2: a send on edge 3 comes after the backlogs of edges
        // ≤ 3 and before those of edges > 3.
        let (now, _) = run(&mut core, 4, vec![send(3, 4, 3, 30)]);
        let order: Vec<usize> = now.iter().map(|&(e, _, _)| e).collect();
        assert_eq!(order, vec![1, 3, 5, 7]);
        assert!(core.is_empty());
        assert_eq!(core.active_edges(), 0);
    }

    #[test]
    fn fragmentation_and_partial_fronts() {
        let mut core = MsgCore::new(2);
        let mut deliveries_per_round = Vec::new();
        // 35 bits take 4 rounds at bw 10; the 5-bit message queues
        // behind it.
        let (now, _) = run(&mut core, 10, vec![send(0, 35, 0, 1), send(0, 5, 0, 2)]);
        deliveries_per_round.push(now.len());
        for _ in 0..3 {
            deliveries_per_round.push(run(&mut core, 10, Vec::new()).0.len());
        }
        // Rounds 1-3 move 30 bits of msg 1; round 4 completes it (5 bits)
        // and msg 2 (5 bits) in the same step.
        assert_eq!(deliveries_per_round, vec![0, 0, 0, 2]);
        assert!(core.is_empty());
    }

    #[test]
    fn direct_sends_share_the_edge_budget() {
        let mut core = MsgCore::new(1);
        // 6 + 6 fit bw 12 and go direct; the third overflows, takes the
        // arena and moves nothing (the edge has no bits left).
        let (now, load) = run(
            &mut core,
            12,
            vec![send(0, 6, 0, 1), send(0, 6, 0, 2), send(0, 6, 0, 3)],
        );
        assert_eq!(now, vec![(0, 0, 1), (0, 0, 2)]);
        assert_eq!(
            load,
            RoundLoad {
                peak_depth: 3,
                cells: 3
            }
        );
        assert_eq!(core.queued(), 1);
        assert_eq!(core.cells.len(), 1, "only the overflow took a cell");
        assert_eq!(run(&mut core, 12, Vec::new()).0, vec![(0, 0, 3)]);
    }

    #[test]
    fn free_list_reuses_cells() {
        let mut core = MsgCore::new(4);
        let cell = MsgCore::<u32>::cell_size();
        assert!(cell >= std::mem::size_of::<u64>() + std::mem::size_of::<u32>());
        for round in 0..10 {
            // 12 bits at bw 8 overflow the edge, so every send takes a
            // cell; the silent round after it delivers the cell.
            let (now, load) = run(
                &mut core,
                8,
                (0..4).map(|e| send(e, 12, 0, round)).collect(),
            );
            assert!(now.is_empty());
            assert_eq!(load.cells, 4);
            assert_eq!(run(&mut core, 8, Vec::new()).0.len(), 4);
        }
        assert!(core.is_empty());
        // 40 messages took a cell each, but the arena only ever held
        // one generation.
        assert_eq!(core.cells.len(), 4, "arena must recycle, not grow");
    }

    #[test]
    fn peak_depth_is_per_edge_at_transfer_start() {
        let mut core = MsgCore::new(3);
        let mut sends: Vec<_> = (0..4).map(|m| send(2, 4, 0, m)).collect();
        sends.insert(0, send(0, 4, 0, 9));
        // Depth 4 on edge 2, depth 1 on edge 0 — the peak is per edge,
        // not the total.
        assert_eq!(run(&mut core, 4, sends).1.peak_depth, 4);
        // Three messages remain on edge 2; one more send makes four.
        assert_eq!(run(&mut core, 4, vec![send(2, 4, 0, 5)]).1.peak_depth, 4);
        assert_eq!(run(&mut core, 4, Vec::new()).1.peak_depth, 3);
    }

    #[test]
    fn active_worklist_shrinks_to_loaded_edges() {
        let mut core = MsgCore::new(100);
        let (now, _) = run(&mut core, 4, vec![send(7, 100, 0, 1), send(50, 4, 0, 2)]);
        assert_eq!(now, vec![(50, 0, 2)], "the short message goes direct");
        assert_eq!(core.active_edges(), 1, "only the long haul is loaded");
        assert_eq!(core.queued(), 1);
    }

    #[test]
    fn interleaved_edges_keep_independent_fifos() {
        let mut core = MsgCore::new(2);
        let (now, _) = run(
            &mut core,
            8,
            vec![
                send(0, 8, 0, 10),
                send(1, 8, 1, 20),
                send(0, 8, 0, 11),
                send(1, 8, 1, 21),
            ],
        );
        assert_eq!(now, vec![(0, 0, 10), (1, 1, 20)]);
        assert_eq!(drain_all(&mut core, 8), vec![(0, 0, 11), (1, 1, 21)]);
    }

    #[test]
    fn a_stale_tally_slot_never_matches() {
        let mut core = MsgCore::new(3);
        // Round 1: edge 2 takes tally slot 0 and spends its budget.
        run(&mut core, 8, vec![send(2, 8, 1, 0)]);
        // Round 2: edge 0 takes slot 0; edge 2's stale slot must not
        // alias it, so edge 2 starts with a full budget.
        let (now, _) = run(&mut core, 8, vec![send(0, 4, 0, 1), send(2, 8, 1, 2)]);
        assert_eq!(now, vec![(0, 0, 1), (2, 1, 2)]);
    }

    #[test]
    fn cursor_stays_12_bytes() {
        // Phase open writes one cursor per directed edge.
        assert_eq!(std::mem::size_of::<EdgeCursor>(), 12);
    }

    #[test]
    fn send_records_never_grow() {
        // Every send and broadcast of a round writes one record; the
        // fan-out fits beside a `u32` edge, in what a `usize` edge took.
        use std::mem::size_of;
        assert_eq!(size_of::<SendRecord<u8>>(), 24);
        assert_eq!(size_of::<SendRecord<u32>>(), 24);
        assert_eq!(size_of::<SendRecord<(u32, u32)>>(), 32);
        assert_eq!(size_of::<SendRecord<u64>>(), 32);
    }

    #[test]
    fn a_record_moves_each_backlog_before_its_edge() {
        let mut core = MsgCore::new(6);
        // Round 1: long messages leave a backlog on edges 2 and 5.
        run(&mut core, 4, vec![send(2, 6, 1, 20), send(5, 6, 2, 50)]);
        // Round 2: one record over edges 1..4. Edge 2's backlog moves
        // before the record's send on edge 2, which queues behind it;
        // edge 5's moves after the record.
        let (now, load) = run(&mut core, 4, vec![fan(1..4, 3, 0, 7)]);
        assert_eq!(now, vec![(1, 0, 7), (2, 1, 20), (3, 0, 7), (5, 2, 50)]);
        assert_eq!(
            load,
            RoundLoad {
                peak_depth: 2,
                cells: 5
            }
        );
        assert_eq!(run(&mut core, 4, Vec::new()).0, vec![(2, 0, 7)]);
        assert!(core.is_empty());
    }

    #[test]
    fn clear_drops_queued_messages_and_keeps_capacity() {
        let mut core = MsgCore::new(4);
        run(&mut core, 4, vec![send(1, 40, 0, 1), send(3, 40, 1, 2)]);
        assert_eq!(core.active_edges(), 2);
        core.clear();
        assert!(core.is_empty());
        assert_eq!(core.active_edges(), 0);
        assert!(core.cells.capacity() >= 2);
        // Nothing stale survives: a fresh send goes direct on edge 1.
        let (now, load) = run(&mut core, 4, vec![send(1, 4, 0, 7)]);
        assert_eq!(now, vec![(1, 0, 7)]);
        assert_eq!(load.cells, 1);
        assert!(core.is_empty());
    }

    /// Today's queue semantics written the naive way: every send joins
    /// its edge's `VecDeque`, then every edge moves up to `bw` bits off
    /// its front in ascending edge order.
    struct Model {
        queues: Vec<VecDeque<(u64, u32, u32)>>,
    }

    impl Model {
        /// Returns the round's deliveries in ascending edge order, then
        /// the `RoundLoad` it should report.
        fn round(
            &mut self,
            bw: u64,
            sends: &[SendRecord<u32>],
        ) -> (Vec<(usize, u32, u32)>, RoundLoad) {
            for s in sends {
                for e in s.edges() {
                    self.queues[e].push_back((s.bits, s.from.0, s.msg));
                }
            }
            let load = RoundLoad {
                peak_depth: self.queues.iter().map(|q| q.len() as u64).max().unwrap(),
                cells: self.queued() as u64,
            };
            let mut out = Vec::new();
            for (e, q) in self.queues.iter_mut().enumerate() {
                let mut cap = bw;
                while cap > 0 {
                    let Some(front) = q.front_mut() else { break };
                    let take = cap.min(front.0);
                    front.0 -= take;
                    cap -= take;
                    if front.0 > 0 {
                        break;
                    }
                    let (_, from, msg) = q.pop_front().unwrap();
                    out.push((e, from, msg));
                }
            }
            (out, load)
        }

        fn queued(&self) -> usize {
            self.queues.iter().map(VecDeque::len).sum()
        }

        fn active_edges(&self) -> usize {
            self.queues.iter().filter(|q| !q.is_empty()).count()
        }
    }

    /// Groups deliveries per receiver, keeping their order.
    fn per_receiver(out: &[(usize, u32, u32)], to: &[usize]) -> Vec<Vec<(u32, u32)>> {
        let mut inbox = vec![Vec::new(); to.iter().max().unwrap() + 1];
        for &(e, from, msg) in out {
            inbox[to[e]].push((from, msg));
        }
        inbox
    }

    #[test]
    fn round_matches_the_per_edge_queue_model() {
        const SENDERS: usize = 12;
        const RECEIVERS: usize = 9;
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Sender s owns a contiguous edge range, one edge per
            // distinct receiver (no parallel edges).
            let mut to = Vec::new();
            let mut ranges = Vec::new();
            for _ in 0..SENDERS {
                let start = to.len();
                let mut receivers: Vec<usize> = (0..RECEIVERS).collect();
                let degree = rng.gen_range(0..5usize);
                for i in 0..degree {
                    let j = rng.gen_range(i..RECEIVERS);
                    receivers.swap(i, j);
                    to.push(receivers[i]);
                }
                ranges.push(start..to.len());
            }
            let bw = rng.gen_range(4..17u64);
            let mut core = MsgCore::new(to.len());
            let mut model = Model {
                queues: vec![VecDeque::new(); to.len()],
            };
            let mut msg = 0u32;
            for round in 0..300 {
                let mut sends = Vec::new();
                // One round in four is silent.
                if rng.gen_range(0..4u32) != 0 {
                    for (s, range) in ranges.iter().enumerate() {
                        if range.is_empty() {
                            continue;
                        }
                        // Several records per sender, in any edge order
                        // within its range: single sends, runs of its
                        // own consecutive edges and broadcasts over all
                        // of them. Their bits are short ones that fit,
                        // some that overflow the budget mid-round, and
                        // fragmented ones longer than bw.
                        let bits = |rng: &mut StdRng| match rng.gen_range(0..6u32) {
                            0 => rng.gen_range(bw + 1..3 * bw),
                            1 => bw,
                            _ => rng.gen_range(1..bw / 2 + 1),
                        };
                        let mut records = Vec::new();
                        // The last position, then a broadcast: the
                        // sender's edge order is not monotone.
                        if rng.gen_range(0..4u32) == 0 {
                            records.push((range.end - 1..range.end, bits(&mut rng)));
                            records.push((range.clone(), bits(&mut rng)));
                        }
                        for _ in 0..rng.gen_range(0..4u32) {
                            let first = rng.gen_range(range.clone());
                            let edges = match rng.gen_range(0..4u32) {
                                0 => range.clone(),
                                1 => first..rng.gen_range(first + 1..range.end + 1),
                                _ => first..first + 1,
                            };
                            records.push((edges, bits(&mut rng)));
                        }
                        for (edges, bits) in records {
                            sends.push(fan(edges, bits, s as u32, msg));
                            msg += 1;
                        }
                    }
                }
                let (want, want_load) = model.round(bw, &sends);
                let (got, load) = run(&mut core, bw, sends);
                let ctx = format!("seed {seed}, round {round}");
                assert_eq!(
                    per_receiver(&got, &to),
                    per_receiver(&want, &to),
                    "inboxes diverged at {ctx}"
                );
                assert_eq!(load, want_load, "peak depth or cells at {ctx}");
                assert_eq!(core.queued(), model.queued(), "queued at {ctx}");
                assert_eq!(core.active_edges(), model.active_edges(), "active at {ctx}");
                assert_eq!(core.is_empty(), model.queued() == 0, "is_empty at {ctx}");
            }
        }
    }
}
