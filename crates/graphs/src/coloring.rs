//! Distance-`k` colorings.
//!
//! The AGLP-style ruling set algorithm (Theorem 6.1 of the paper) consumes
//! a distance-`k` coloring with `γ` colors. In CONGEST one usually falls
//! back to the unique IDs as an `n`-coloring (Corollary 6.2); for
//! experiments with smaller palettes we also provide a greedy coloring
//! computed centrally (the coloring is *input* to the distributed
//! algorithm, exactly as in the theorem statement).

use crate::graph::Graph;
use crate::power;

/// Greedy distance-`k` coloring in ID order. Uses at most
/// `Δ(G^k) + 1` colors.
pub fn greedy_distance_k(g: &Graph, k: usize) -> Vec<u64> {
    let mut colors: Vec<Option<u64>> = vec![None; g.n()];
    for v in g.nodes() {
        let mut used: Vec<u64> = power::neighborhood(g, v, k)
            .iter()
            .filter_map(|w| colors[w.index()])
            .collect();
        used.sort_unstable();
        used.dedup();
        let mut c = 0u64;
        for u in used {
            if u == c {
                c += 1;
            } else if u > c {
                break;
            }
        }
        colors[v.index()] = Some(c);
    }
    colors
        .into_iter()
        .map(|c| c.expect("every node colored"))
        .collect()
}

/// Number of distinct colors used.
pub fn palette_size(colors: &[u64]) -> usize {
    let mut c: Vec<u64> = colors.to_vec();
    c.sort_unstable();
    c.dedup();
    c.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use crate::generators;

    #[test]
    fn greedy_is_valid_distance_1() {
        let g = generators::gnp(60, 0.1, 5);
        let colors = greedy_distance_k(&g, 1);
        assert!(check::is_distance_k_coloring(&g, &colors, 1));
        assert!(palette_size(&colors) <= g.max_degree() + 1);
    }

    #[test]
    fn greedy_is_valid_distance_2_and_3() {
        let g = generators::grid(6, 7);
        for k in [2usize, 3] {
            let colors = greedy_distance_k(&g, k);
            assert!(check::is_distance_k_coloring(&g, &colors, k), "k = {k}");
            let dk = power::power_graph(&g, k).max_degree();
            assert!(palette_size(&colors) <= dk + 1);
        }
    }

    #[test]
    fn greedy_on_complete_uses_n_colors() {
        let g = generators::complete(5);
        let colors = greedy_distance_k(&g, 1);
        assert_eq!(palette_size(&colors), 5);
    }
}
