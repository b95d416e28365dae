//! Graph families used by tests, examples and the benchmark harness.
//!
//! All randomized generators take an explicit seed so every experiment is
//! reproducible bit-for-bit.

use crate::graph::{Graph, GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Path `0 - 1 - … - (n-1)`.
pub fn path(n: usize) -> Graph {
    let edges: Vec<_> = (1..n).map(|i| (i - 1, i)).collect();
    Graph::from_edges(n, &edges)
}

/// Cycle on `n ≥ 3` nodes.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs n >= 3, got {n}");
    let mut edges: Vec<_> = (1..n).map(|i| (i - 1, i)).collect();
    edges.push((n - 1, 0));
    Graph::from_edges(n, &edges)
}

/// Star with `leaves` leaves: node 0 is the center, nodes `1..=leaves` are
/// leaves.
pub fn star(leaves: usize) -> Graph {
    let edges: Vec<_> = (1..=leaves).map(|i| (0, i)).collect();
    Graph::from_edges(leaves + 1, &edges)
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push((u, v));
        }
    }
    Graph::from_edges(n, &edges)
}

/// `rows × cols` grid; node `(r, c)` has index `r * cols + c`.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                b.add_edge(NodeId::from(v), NodeId::from(v + 1));
            }
            if r + 1 < rows {
                b.add_edge(NodeId::from(v), NodeId::from(v + cols));
            }
        }
    }
    b.build()
}

/// `rows × cols` torus (grid with wraparound). Requires `rows, cols ≥ 3`
/// so that wraparound does not create parallel edges.
///
/// # Panics
///
/// Panics if `rows < 3` or `cols < 3`.
pub fn torus(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 3 && cols >= 3, "torus needs rows, cols >= 3");
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            let right = r * cols + (c + 1) % cols;
            let down = ((r + 1) % rows) * cols + c;
            b.add_edge(NodeId::from(v), NodeId::from(right));
            b.add_edge(NodeId::from(v), NodeId::from(down));
        }
    }
    b.build()
}

/// Complete binary tree with `levels` levels (`2^levels − 1` nodes).
pub fn binary_tree(levels: u32) -> Graph {
    let n = (1usize << levels) - 1;
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge(NodeId::from(v), NodeId::from((v - 1) / 2));
    }
    b.build()
}

/// Caterpillar: a spine path of `spine` nodes, each carrying `legs` leaves.
/// Spine nodes come first (`0..spine`), then the leaves.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    let n = spine + spine * legs;
    let mut b = GraphBuilder::new(n);
    for i in 1..spine {
        b.add_edge(NodeId::from(i - 1), NodeId::from(i));
    }
    for s in 0..spine {
        for l in 0..legs {
            b.add_edge(NodeId::from(s), NodeId::from(spine + s * legs + l));
        }
    }
    b.build()
}

/// Erdős–Rényi `G(n, p)`, seeded.
pub fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                b.add_edge(NodeId::from(u), NodeId::from(v));
            }
        }
    }
    b.build()
}

/// A connected `G(n, p)`-like graph: a random spanning path (over a seeded
/// permutation) plus `G(n, p)` edges. Guarantees connectivity, which many
/// experiments need (e.g. global BFS-tree aggregation).
pub fn connected_gnp(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    // Fisher–Yates with the seeded RNG.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    let mut b = GraphBuilder::new(n);
    for w in perm.windows(2) {
        b.add_edge(NodeId::from(w[0]), NodeId::from(w[1]));
    }
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                b.add_edge(NodeId::from(u), NodeId::from(v));
            }
        }
    }
    b.build()
}

/// A connected sparse random graph with average degree ≈ `avg_deg`, in
/// `O(n + m)` time: a random spanning path (over a seeded permutation,
/// contributing ≈ 2 to the average degree) plus `⌈n·(avg_deg − 2)/2⌉`
/// uniformly random edge attempts (self-loops and duplicates dropped).
/// The pair loop of [`connected_gnp`] is `O(n²)` and unusable at
/// engine-benchmark scales (10⁵⁺ nodes); this generator is its large-`n`
/// stand-in.
///
/// # Panics
///
/// Panics if `avg_deg < 2` (the spanning path alone exceeds the target).
pub fn connected_sparse_gnp(n: usize, avg_deg: f64, seed: u64) -> Graph {
    assert!(
        avg_deg >= 2.0,
        "avg_deg {avg_deg} below the spanning path's 2"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    let mut b = GraphBuilder::new(n);
    for w in perm.windows(2) {
        b.add_edge(NodeId::from(w[0]), NodeId::from(w[1]));
    }
    if n > 1 {
        let extra = (n as f64 * (avg_deg - 2.0) / 2.0).ceil() as usize;
        for _ in 0..extra {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                b.add_edge(NodeId::from(u), NodeId::from(v));
            }
        }
    }
    b.build()
}

/// Broom: a handle path of `handle` nodes (`0..handle` in path order)
/// whose last node carries `bristles` leaves (`handle..handle+bristles`).
/// The classic worst case for distance-`k` domination: the bristle fan is
/// a dense distance-2 clique in `G²` hanging off a long sparse path.
///
/// # Panics
///
/// Panics if `handle == 0`.
pub fn broom(handle: usize, bristles: usize) -> Graph {
    assert!(handle >= 1, "broom needs at least one handle node");
    let n = handle + bristles;
    let mut b = GraphBuilder::new(n);
    for i in 1..handle {
        b.add_edge(NodeId::from(i - 1), NodeId::from(i));
    }
    for l in 0..bristles {
        b.add_edge(NodeId::from(handle - 1), NodeId::from(handle + l));
    }
    b.build()
}

/// Barabási–Albert preferential attachment: starts from a clique on
/// `attach + 1` nodes; every later node attaches to `attach` distinct
/// existing nodes chosen proportionally to their current degree (sampled
/// from the repeated-endpoint list, the standard `O(n·attach)` trick).
/// Produces a connected power-law graph — the hub-and-spoke regime where
/// `G^k` densifies fastest around high-degree nodes. Seeded.
///
/// # Panics
///
/// Panics if `attach == 0` or `n <= attach`.
pub fn barabasi_albert(n: usize, attach: usize, seed: u64) -> Graph {
    assert!(attach >= 1, "attach must be positive");
    assert!(
        n > attach,
        "need n > attach, got n = {n}, attach = {attach}"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    // Every endpoint of every edge, so sampling uniformly from this list
    // is sampling nodes proportionally to degree.
    let mut endpoints: Vec<usize> = Vec::with_capacity(2 * attach * n);
    let core = attach + 1;
    for u in 0..core {
        for v in (u + 1)..core {
            b.add_edge(NodeId::from(u), NodeId::from(v));
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    let mut chosen: Vec<usize> = Vec::with_capacity(attach);
    for v in core..n {
        chosen.clear();
        while chosen.len() < attach {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for &t in &chosen {
            b.add_edge(NodeId::from(v), NodeId::from(t));
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    b.build()
}

/// Random geometric (unit-disk) graph: `n` points uniform in the unit
/// square, an edge whenever two points are within Euclidean distance
/// `radius`. Uses grid buckets of side `radius`, so expected time is
/// `O(n + m)`. Connected w.h.p. once `radius ≳ √(ln n / n)`; callers that
/// need guaranteed connectivity should pick a radius with slack (the
/// built-in workload suite does). Seeded.
///
/// # Panics
///
/// Panics if `radius` is not in `(0, 1]`.
pub fn random_geometric(n: usize, radius: f64, seed: u64) -> Graph {
    assert!(
        radius > 0.0 && radius <= 1.0,
        "radius {radius} not in (0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    // 53 uniform mantissa bits in [0, 1) — the vendored rand has no float
    // ranges, so derive coordinates from the raw 64-bit stream.
    let mut unit = || ((rng.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (unit(), unit())).collect();
    // Bucket side must be ≥ radius (so all in-range pairs sit in adjacent
    // cells); capping the grid at ~√n × √n additionally bounds the bucket
    // allocation by O(n) however tiny the radius — larger cells only cost
    // extra distance checks, never correctness.
    let max_cells = ((n as f64).sqrt().ceil() as usize).max(1);
    let cells = ((1.0 / radius).floor().max(1.0) as usize).min(max_cells);
    let cell_of = |x: f64| ((x * cells as f64) as usize).min(cells - 1);
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); cells * cells];
    for (i, &(x, y)) in pts.iter().enumerate() {
        buckets[cell_of(y) * cells + cell_of(x)].push(i);
    }
    let r2 = radius * radius;
    let mut b = GraphBuilder::new(n);
    for (i, &(x, y)) in pts.iter().enumerate() {
        let (cx, cy) = (cell_of(x), cell_of(y));
        for by in cy.saturating_sub(1)..=(cy + 1).min(cells - 1) {
            for bx in cx.saturating_sub(1)..=(cx + 1).min(cells - 1) {
                for &j in &buckets[by * cells + bx] {
                    if j > i {
                        let (px, py) = pts[j];
                        let (dx, dy) = (px - x, py - y);
                        if dx * dx + dy * dy <= r2 {
                            b.add_edge(NodeId::from(i), NodeId::from(j));
                        }
                    }
                }
            }
        }
    }
    b.build()
}

/// A sampled point of the hyperbolic-disk model: `(radius, angle)`.
type Polar = (f64, f64);

/// Samples the point set of a hyperbolic random graph: `n` points on a
/// hyperbolic disk of radius `R`, angles uniform, radii with density
/// `∝ sinh(α·r)` (quasi-uniform in hyperbolic area for `α = 1`).
/// Returns the points and `R`, chosen so the expected average degree is
/// ≈ `avg_deg` (the Krioukov et al. estimate
/// `d̄ ≈ n · ξ · e^{−R/2}` with `ξ = 2α²/(π(α−½)²)`).
fn hyperbolic_points(n: usize, avg_deg: f64, alpha: f64, seed: u64) -> (Vec<Polar>, f64) {
    let xi = 2.0 * alpha * alpha / (std::f64::consts::PI * (alpha - 0.5).powi(2));
    let r_disk = (2.0 * ((n as f64) * xi / avg_deg).ln()).max(0.1);
    let mut rng = StdRng::seed_from_u64(seed);
    // 53 uniform mantissa bits in [0, 1) — the vendored rand has no
    // float ranges (same derivation as `random_geometric`).
    let mut unit = || ((rng.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
    let cosh_ar = (alpha * r_disk).cosh();
    let pts: Vec<Polar> = (0..n)
        .map(|_| {
            // Inverse-CDF sample of F(r) = (cosh(αr) − 1)/(cosh(αR) − 1).
            let r = (1.0 + unit() * (cosh_ar - 1.0)).acosh() / alpha;
            let theta = unit() * std::f64::consts::TAU;
            (r, theta)
        })
        .collect();
    (pts, r_disk)
}

/// Whether two hyperbolic-disk points lie within distance `R` of each
/// other (`cosh d = cosh r_i cosh r_j − sinh r_i sinh r_j cos Δθ`).
/// The one predicate both the banded generator and the brute-force
/// test oracle evaluate, so they agree bit-for-bit.
fn hyperbolic_connected((ri, ti): Polar, (rj, tj): Polar, cosh_r_disk: f64) -> bool {
    let cosh_d = ri.cosh() * rj.cosh() - ri.sinh() * rj.sinh() * (ti - tj).cos();
    cosh_d <= cosh_r_disk
}

/// Hyperbolic random graph (Krioukov et al.): `n` points on a
/// hyperbolic disk, an edge whenever two points are within hyperbolic
/// distance `R` (the disk radius, tuned for average degree ≈
/// `avg_deg`). Degrees follow a power law with exponent `2α + 1` while
/// clustering stays high — the heavy-tailed small-world regime where
/// `G^k` densifies around hubs, complementing [`barabasi_albert`]
/// (which lacks geometry) and [`random_geometric`] (which lacks hubs).
///
/// Near-linear construction: points are bucketed into `O(log n)` radial
/// bands, each sorted by angle; a node probes each band only within the
/// widest angle at which the band's *innermost* radius could still
/// connect (the connection-threshold angle is monotone decreasing in
/// the neighbor's radius), then applies the exact distance predicate.
/// Expected time `O((n + m) log n)`. Seeded and deterministic.
///
/// # Panics
///
/// Panics if `α ≤ ½` (the power-law regime requires `α > ½`) or if
/// `avg_deg` is not positive.
pub fn hyperbolic(n: usize, avg_deg: f64, alpha: f64, seed: u64) -> Graph {
    assert!(alpha > 0.5, "alpha {alpha} must exceed 1/2");
    assert!(avg_deg > 0.0, "avg_deg {avg_deg} must be positive");
    let (pts, r_disk) = hyperbolic_points(n, avg_deg, alpha, seed);
    let cosh_r_disk = r_disk.cosh();
    let bands = ((n as f64).log2().ceil() as usize).max(1);
    let band_width = r_disk / bands as f64;
    let band_of = |r: f64| ((r / band_width) as usize).min(bands - 1);
    // Each band holds its members sorted by angle for windowed probes.
    let mut by_band: Vec<Vec<(f64, u32)>> = vec![Vec::new(); bands];
    for (i, &(r, theta)) in pts.iter().enumerate() {
        by_band[band_of(r)].push((theta, i as u32));
    }
    for band in &mut by_band {
        band.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    }
    let mut b = GraphBuilder::new(n);
    let mut probe = |i: usize, band: &[(f64, u32)], lo: f64, hi: f64| {
        let from = band.partition_point(|&(t, _)| t < lo);
        let to = band.partition_point(|&(t, _)| t <= hi);
        for &(_, j) in &band[from..to] {
            if u32::try_from(i).expect("n fits u32") < j
                && hyperbolic_connected(pts[i], pts[j as usize], cosh_r_disk)
            {
                b.add_edge(NodeId::from(i), NodeId(j));
            }
        }
    };
    for (i, &(ri, ti)) in pts.iter().enumerate() {
        for (bi, band) in by_band.iter().enumerate() {
            // The widest connecting angle against this band: evaluated
            // at the band's inner radius, which maximizes it (the
            // threshold angle shrinks as the neighbor moves outward).
            let r_lo = bi as f64 * band_width;
            let window = if ri + r_lo <= r_disk {
                // Close enough that every angle can connect (also the
                // sinh(0) = 0 guard for the innermost band).
                std::f64::consts::PI
            } else {
                let cos_max = (ri.cosh() * r_lo.cosh() - cosh_r_disk) / (ri.sinh() * r_lo.sinh());
                if cos_max > 1.0 {
                    continue; // the whole band is out of reach
                }
                // Tiny slack so float noise at the window boundary can
                // only widen the candidate set (the exact predicate
                // still decides).
                cos_max.clamp(-1.0, 1.0).acos() + 1e-9
            };
            if window >= std::f64::consts::PI {
                probe(i, band, f64::NEG_INFINITY, f64::INFINITY);
            } else {
                let (lo, hi) = (ti - window, ti + window);
                probe(i, band, lo.max(0.0), hi);
                // Wrapped tails of the angular window.
                if lo < 0.0 {
                    probe(i, band, lo + std::f64::consts::TAU, f64::INFINITY);
                }
                if hi > std::f64::consts::TAU {
                    probe(i, band, f64::NEG_INFINITY, hi - std::f64::consts::TAU);
                }
            }
        }
    }
    b.build()
}

/// Bounded-growth cluster graph: a `rows × cols` grid of cliques of size
/// `cluster`; cluster `(r, c)` occupies nodes `(r·cols + c)·cluster ..`
/// and is bridged to its grid neighbors through its first node. Ball
/// sizes grow polynomially with radius (grid-like), while `G^k` inside a
/// ball is dense — the bounded-growth regime where the paper's
/// sparsification bounds bite.
///
/// # Panics
///
/// Panics if any dimension is zero.
pub fn cluster_grid(rows: usize, cols: usize, cluster: usize) -> Graph {
    assert!(
        rows >= 1 && cols >= 1 && cluster >= 1,
        "cluster_grid dimensions must be positive"
    );
    let n = rows * cols * cluster;
    let mut b = GraphBuilder::new(n);
    let base = |r: usize, c: usize| (r * cols + c) * cluster;
    for r in 0..rows {
        for c in 0..cols {
            let s = base(r, c);
            for i in 0..cluster {
                for j in (i + 1)..cluster {
                    b.add_edge(NodeId::from(s + i), NodeId::from(s + j));
                }
            }
            if c + 1 < cols {
                b.add_edge(NodeId::from(s), NodeId::from(base(r, c + 1)));
            }
            if r + 1 < rows {
                b.add_edge(NodeId::from(s), NodeId::from(base(r + 1, c)));
            }
        }
    }
    b.build()
}

/// Cluster graph: `clusters` cliques of size `cluster_size`, arranged on a
/// ring with a single bridge edge between consecutive cliques. Used to
/// exercise component/ball-graph logic.
pub fn clustered_ring(clusters: usize, cluster_size: usize) -> Graph {
    assert!(clusters >= 3, "clustered_ring needs >= 3 clusters");
    assert!(cluster_size >= 1);
    let n = clusters * cluster_size;
    let mut b = GraphBuilder::new(n);
    for c in 0..clusters {
        let base = c * cluster_size;
        for i in 0..cluster_size {
            for j in (i + 1)..cluster_size {
                b.add_edge(NodeId::from(base + i), NodeId::from(base + j));
            }
        }
        // Bridge: last node of cluster c to first node of cluster c+1.
        let next = ((c + 1) % clusters) * cluster_size;
        b.add_edge(NodeId::from(base + cluster_size - 1), NodeId::from(next));
    }
    b.build()
}

/// Planted-community graph (a stochastic block model with equal-size
/// blocks): `n` nodes split round-robin-free into `communities`
/// contiguous blocks (the first `n % communities` blocks get one extra
/// node), an edge inside a block with probability `p_in` and across
/// blocks with probability `p_out`, all draws from one seeded RNG.
///
/// With `p_in ≫ p_out` this is the classic community-detection regime:
/// dense pockets joined by a sparse cut — the shape under which
/// shattering leaves whole blocks active while the cut goes quiet, which
/// is exactly the imbalance the stage profiler is built to expose.
///
/// # Panics
///
/// Panics if `communities == 0` or either probability is outside
/// `[0, 1]`.
pub fn planted(n: usize, communities: usize, p_in: f64, p_out: f64, seed: u64) -> Graph {
    assert!(communities > 0, "planted needs at least one community");
    assert!((0.0..=1.0).contains(&p_in), "p_in must be a probability");
    assert!((0.0..=1.0).contains(&p_out), "p_out must be a probability");
    // Contiguous block id per node: block sizes differ by at most one.
    let base = n / communities;
    let extra = n % communities;
    let block = |u: usize| {
        let fat = extra * (base + 1);
        if u < fat {
            u / (base + 1)
        } else {
            extra + (u - fat) / base.max(1)
        }
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            let p = if block(u) == block(v) { p_in } else { p_out };
            if p > 0.0 && rng.gen_bool(p) {
                b.add_edge(NodeId::from(u), NodeId::from(v));
            }
        }
    }
    b.build()
}

/// The example graph of **Figure 1** of the paper, parameterized by `hatd`
/// (the sparsity bound `Δ̂ = max_u d_{s-1}(u, Q)`). Requires `s ≥ 3`.
///
/// Structure: a bottleneck edge `{v, w}`; `⌈Δ̂/2⌉` grey `Q`-leaves attached
/// to `v` and `⌊Δ̂/2⌋` attached to `w`. Then `d_{s-1}(v, Q) = Δ̂` (all
/// leaves are within distance 2 ≤ s−1 of `v`), depth-`s` broadcasts from
/// every `Q`-leaf cross `{v, w}` exactly once (load `Θ(Δ̂)`), and
/// Q-messages between the left and right leaves (pairwise distance
/// 3 ≤ s) put `Θ(Δ̂²/4)` tuples across `{v, w}` — the tightness claimed in
/// the figure's caption.
///
/// Returns `(graph, q, v, w)` where `q` is the membership mask of `Q`.
///
/// # Panics
///
/// Panics if `s < 3` or `hatd < 2`.
pub fn figure1(hatd: usize, s: usize) -> (Graph, Vec<bool>, NodeId, NodeId) {
    assert!(
        s >= 3,
        "figure1 needs s >= 3 so leaves across the edge are Q-neighbors"
    );
    assert!(hatd >= 2);
    let left = hatd.div_ceil(2);
    let right = hatd / 2;
    let n = 2 + left + right;
    let mut b = GraphBuilder::new(n);
    let v = NodeId(0);
    let w = NodeId(1);
    b.add_edge(v, w);
    let mut q = vec![false; n];
    for i in 0..left {
        let leaf = NodeId::from(2 + i);
        b.add_edge(v, leaf);
        q[leaf.index()] = true;
    }
    for i in 0..right {
        let leaf = NodeId::from(2 + left + i);
        b.add_edge(w, leaf);
        q[leaf.index()] = true;
    }
    (b.build(), q, v, w)
}

/// Converts a membership vector to the list of member node IDs.
pub fn members(mask: &[bool]) -> Vec<NodeId> {
    mask.iter()
        .enumerate()
        .filter(|(_, &b)| b)
        .map(|(i, _)| NodeId::from(i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs;

    #[test]
    fn path_shape() {
        let g = path(4);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(NodeId(0)), 1);
        assert_eq!(g.degree(NodeId(1)), 2);
    }

    #[test]
    fn cycle_regular() {
        let g = cycle(6);
        assert!(g.nodes().all(|v| g.degree(v) == 2));
        assert_eq!(g.m(), 6);
    }

    #[test]
    fn complete_graph() {
        let g = complete(5);
        assert_eq!(g.m(), 10);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
    }

    #[test]
    fn grid_degrees() {
        let g = grid(3, 3);
        assert_eq!(g.degree(NodeId(4)), 4); // center
        assert_eq!(g.degree(NodeId(0)), 2); // corner
        assert_eq!(g.m(), 12);
    }

    #[test]
    fn torus_is_4_regular() {
        let g = torus(4, 5);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert_eq!(g.m(), 2 * 20);
    }

    #[test]
    fn binary_tree_shape() {
        let g = binary_tree(4);
        assert_eq!(g.n(), 15);
        assert_eq!(g.m(), 14);
        assert_eq!(g.degree(NodeId(0)), 2);
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(3, 2);
        assert_eq!(g.n(), 9);
        assert_eq!(g.degree(NodeId(1)), 4); // middle spine: 2 spine + 2 legs
        assert_eq!(g.degree(NodeId(3)), 1); // a leaf
    }

    #[test]
    fn gnp_seeded_reproducible() {
        let a = gnp(50, 0.1, 7);
        let b = gnp(50, 0.1, 7);
        let c = gnp(50, 0.1, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(gnp(20, 0.0, 1).m(), 0);
        assert_eq!(gnp(20, 1.0, 1).m(), 190);
    }

    #[test]
    fn connected_gnp_is_connected() {
        for seed in 0..5 {
            let g = connected_gnp(64, 0.01, seed);
            let d = bfs::distances(&g, NodeId(0));
            assert!(d.iter().all(Option::is_some), "seed {seed} disconnected");
        }
    }

    #[test]
    fn sparse_gnp_connected_and_sized() {
        let g = connected_sparse_gnp(5_000, 8.0, 3);
        assert_eq!(g.n(), 5_000);
        let d = bfs::distances(&g, NodeId(0));
        assert!(d.iter().all(Option::is_some), "disconnected");
        let avg = 2.0 * g.m() as f64 / g.n() as f64;
        assert!((7.0..=9.0).contains(&avg), "avg degree {avg} out of range");
        assert_eq!(g, connected_sparse_gnp(5_000, 8.0, 3), "not reproducible");
    }

    #[test]
    fn clustered_ring_shape() {
        let g = clustered_ring(4, 3);
        assert_eq!(g.n(), 12);
        // Each clique has 3 edges; 4 bridges.
        assert_eq!(g.m(), 4 * 3 + 4);
    }

    #[test]
    fn planted_is_deterministic_per_seed() {
        let a = planted(120, 4, 0.3, 0.01, 9);
        let b = planted(120, 4, 0.3, 0.01, 9);
        assert_eq!(a.n(), b.n());
        assert_eq!(a.m(), b.m());
        assert!(a.edges().eq(b.edges()), "same seed must replay bit-for-bit");
        let c = planted(120, 4, 0.3, 0.01, 10);
        assert!(
            a.m() != c.m() || !a.edges().eq(c.edges()),
            "a different seed should draw a different graph"
        );
    }

    #[test]
    fn planted_separates_intra_and_inter_edge_rates() {
        // 4 blocks of 50: 4 * C(50,2) = 4900 intra pairs, C(200,2) - 4900
        // = 15000 inter pairs.
        let (n, communities, p_in, p_out) = (200, 4, 0.4, 0.02);
        let g = planted(n, communities, p_in, p_out, 7);
        let block = |u: usize| u / (n / communities);
        let (mut intra, mut inter) = (0usize, 0usize);
        for (u, v) in g.edges() {
            if block(u.index()) == block(v.index()) {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        let intra_rate = intra as f64 / 4900.0;
        let inter_rate = inter as f64 / 15000.0;
        // Loose 3-sigma-ish bands: the point is the separation, not the
        // exact binomial tail.
        assert!(
            (0.3..0.5).contains(&intra_rate),
            "intra rate {intra_rate} should sit near p_in = {p_in}"
        );
        assert!(
            (0.005..0.04).contains(&inter_rate),
            "inter rate {inter_rate} should sit near p_out = {p_out}"
        );
        assert!(
            intra_rate > 10.0 * inter_rate,
            "communities must be planted"
        );
    }

    #[test]
    fn planted_handles_uneven_blocks_and_zero_cut() {
        // 10 nodes over 3 communities: blocks of 4/3/3, no cut edges at
        // all when p_out = 0 and full cliques inside when p_in = 1.
        let g = planted(10, 3, 1.0, 0.0, 1);
        let sizes = [4usize, 3, 3];
        let want: usize = sizes.iter().map(|s| s * (s - 1) / 2).sum();
        assert_eq!(g.m(), want, "three cliques, empty cut");
        let block = |u: usize| if u < 4 { 0 } else { (u - 4) / 3 + 1 };
        assert!(g.edges().all(|(u, v)| block(u.index()) == block(v.index())));
    }

    #[test]
    fn figure1_layout() {
        let (g, q, v, w) = figure1(6, 3);
        assert_eq!(g.n(), 2 + 6);
        assert!(g.has_edge(v, w));
        assert_eq!(q.iter().filter(|&&b| b).count(), 6);
        // Δ̂ realized: v has all 6 leaves within distance s-1 = 2.
        let dv = bfs::distances(&g, v);
        let within: usize = q
            .iter()
            .enumerate()
            .filter(|(i, &inq)| inq && dv[*i].unwrap() <= 2)
            .count();
        assert_eq!(within, 6);
        // Left and right leaves are at distance 3 (= s) of each other.
        assert_eq!(bfs::distance(&g, NodeId(2), NodeId(2 + 3)), Some(3));
    }

    #[test]
    fn broom_shape() {
        let g = broom(5, 4);
        assert_eq!(g.n(), 9);
        assert_eq!(g.m(), 4 + 4);
        assert_eq!(g.degree(NodeId(4)), 5); // brush node: 1 handle + 4 bristles
        assert_eq!(g.degree(NodeId(0)), 1);
        assert_eq!(g.degree(NodeId(8)), 1); // a bristle
        let d = bfs::distances(&g, NodeId(0));
        assert!(d.iter().all(Option::is_some));
        // A bare handle is a path.
        assert_eq!(broom(4, 0), path(4));
    }

    #[test]
    fn barabasi_albert_shape_and_tail() {
        let n = 600;
        let attach = 3;
        let g = barabasi_albert(n, attach, 11);
        assert_eq!(g.n(), n);
        // Exact edge count: core clique + attach per later node.
        let core = attach * (attach + 1) / 2;
        assert_eq!(g.m(), core + (n - attach - 1) * attach);
        // Connected by construction.
        let d = bfs::distances(&g, NodeId(0));
        assert!(d.iter().all(Option::is_some), "BA graph disconnected");
        // Degree-distribution sanity: minimum degree is `attach`
        // (every newcomer brings that many edges) and the preferential
        // tail produces hubs far above the average degree ≈ 2·attach.
        let degs: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
        assert_eq!(*degs.iter().min().unwrap(), attach);
        assert!(
            g.max_degree() >= 8 * attach,
            "no hub: max degree {} for attach {attach}",
            g.max_degree()
        );
        // Heavy tail, not a regular graph: the median stays near attach.
        let mut sorted = degs.clone();
        sorted.sort_unstable();
        assert!(sorted[n / 2] <= 2 * attach + 2, "median {}", sorted[n / 2]);
    }

    #[test]
    fn barabasi_albert_deterministic_under_seed() {
        let a = barabasi_albert(200, 2, 5);
        let b = barabasi_albert(200, 2, 5);
        let c = barabasi_albert(200, 2, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn random_geometric_degrees_match_density() {
        let n = 500;
        let r = 0.1;
        let g = random_geometric(n, r, 7);
        assert_eq!(g.n(), n);
        // Expected average degree ≈ n·π·r² (minus boundary loss): wide
        // sanity band only.
        let expect = n as f64 * std::f64::consts::PI * r * r;
        let avg = 2.0 * g.m() as f64 / n as f64;
        assert!(
            avg > 0.5 * expect && avg < 1.2 * expect,
            "avg degree {avg} vs expected ≈ {expect}"
        );
    }

    #[test]
    fn random_geometric_deterministic_under_seed() {
        let a = random_geometric(300, 0.12, 9);
        let b = random_geometric(300, 0.12, 9);
        let c = random_geometric(300, 0.12, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Connectivity is only w.h.p. at this radius, so no hard
        // connectivity assertion here; the workload suite pins seeds it
        // has verified.
        assert!(a.m() > 0);
    }

    #[test]
    fn random_geometric_tiny_radius_is_cheap() {
        // The bucket grid is capped at ~√n × √n, so a pathologically
        // small radius costs O(n) memory instead of O(1/r²).
        let g = random_geometric(100, 1e-9, 1);
        assert_eq!(g.n(), 100);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn cluster_grid_shape_and_connectivity() {
        let (rows, cols, cluster) = (3, 4, 5);
        let g = cluster_grid(rows, cols, cluster);
        assert_eq!(g.n(), rows * cols * cluster);
        // Edges: per-cluster cliques + grid bridges.
        let cliques = rows * cols * cluster * (cluster - 1) / 2;
        let bridges = rows * (cols - 1) + cols * (rows - 1);
        assert_eq!(g.m(), cliques + bridges);
        let d = bfs::distances(&g, NodeId(0));
        assert!(d.iter().all(Option::is_some), "cluster grid disconnected");
        // Bounded growth: a clique-internal node sees only its clique at
        // distance 1.
        assert_eq!(g.degree(NodeId(1)), cluster - 1);
    }

    fn hyperbolic_brute(n: usize, avg_deg: f64, alpha: f64, seed: u64) -> Graph {
        let (pts, r_disk) = hyperbolic_points(n, avg_deg, alpha, seed);
        let cosh_r_disk = r_disk.cosh();
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                if hyperbolic_connected(pts[i], pts[j], cosh_r_disk) {
                    b.add_edge(NodeId::from(i), NodeId::from(j));
                }
            }
        }
        b.build()
    }

    #[test]
    fn hyperbolic_banded_matches_bruteforce() {
        for seed in [1u64, 7, 23, 91] {
            let fast = hyperbolic(250, 6.0, 0.75, seed);
            let slow = hyperbolic_brute(250, 6.0, 0.75, seed);
            assert_eq!(fast, slow, "seed {seed}: band pruning changed the edge set");
        }
        // A denser, more homogeneous regime (larger alpha) too.
        let fast = hyperbolic(180, 10.0, 1.1, 5);
        let slow = hyperbolic_brute(180, 10.0, 1.1, 5);
        assert_eq!(fast, slow);
    }

    #[test]
    fn hyperbolic_seeded_reproducible() {
        let a = hyperbolic(400, 8.0, 0.75, 13);
        let b = hyperbolic(400, 8.0, 0.75, 13);
        let c = hyperbolic(400, 8.0, 0.75, 14);
        assert_eq!(a, b, "same seed must reproduce bit-for-bit");
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn hyperbolic_degrees_are_calibrated_and_heavy_tailed() {
        let (n, target) = (2000usize, 8.0);
        let g = hyperbolic(n, target, 0.75, 42);
        let avg = 2.0 * g.m() as f64 / n as f64;
        assert!(
            avg > target / 3.0 && avg < target * 3.0,
            "average degree {avg} too far from the {target} target"
        );
        // α = 0.75 gives a power-law tail with exponent 2.5: the hubs
        // must tower over the average, unlike the geometric family.
        assert!(
            (g.max_degree() as f64) >= 4.0 * avg,
            "max degree {} vs avg {avg}: tail not heavy",
            g.max_degree()
        );
    }

    #[test]
    fn hyperbolic_has_a_giant_component() {
        let n = 1500;
        let g = hyperbolic(n, 8.0, 0.75, 3);
        // Largest connected component via BFS sweep.
        let mut seen = vec![false; n];
        let mut largest = 0;
        for s in 0..n {
            if seen[s] {
                continue;
            }
            let mut size = 0;
            let mut stack = vec![NodeId::from(s)];
            seen[s] = true;
            while let Some(v) = stack.pop() {
                size += 1;
                for &w in g.neighbors(v) {
                    if !seen[w.index()] {
                        seen[w.index()] = true;
                        stack.push(w);
                    }
                }
            }
            largest = largest.max(size);
        }
        assert!(
            largest >= n / 2,
            "largest component {largest} of {n}: no giant component"
        );
    }
}
