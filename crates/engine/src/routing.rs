//! The shard layout both parallel backends of this crate share,
//! [`crate::PooledSimulator`] and [`crate::ProcessSimulator`].
//!
//! Shards are contiguous node ranges ([`ShardLayout`]), so each shard
//! also owns the contiguous range of directed edge indices of its
//! nodes' out-edges (CSR alignment) — queues and per-edge counters are
//! sliced, never shared. What a shard does in a round — grouping its
//! arrivals, stepping its nodes, running their sends through its message
//! core — is defined once for every engine in
//! [`powersparse_congest::shard`]. The backends differ only in *where* a
//! shard's message core lives (a pool worker vs. a forked child), never
//! in what is delivered, in which order, or at what accounted cost.

use powersparse_graphs::partition::shard_ranges;
use powersparse_graphs::Graph;
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

    /// Splits `state` (one entry per node) into the shards' node ranges,
    /// in shard order.
    pub fn split_mut<'a, S>(&'a self, state: &'a mut [S]) -> impl Iterator<Item = &'a mut [S]> {
        let mut rest = state;
        self.node_ranges.iter().map(move |nodes| {
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(nodes.len());
            rest = tail;
            chunk
        })
    }
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
