//! Sequential MST of the distance graph `G_1'` (Alg 3, Step 3).
//!
//! `G_1'` has at most `binom(|S|, 2)` edges — tiny next to the data graph —
//! so, following the paper (and Bader et al.'s small-problem cutoff), it is
//! solved sequentially with Prim's algorithm and replicated on every rank:
//! each rank computes the identical MST locally instead of shipping it.

use crate::distance_graph::{MinEdge, PairKey};
use stgraph::mst::{prim, AuxEdge};

/// Computes the MST of the distance graph. Returns the indices (into
/// `edges`) of the chosen distance-graph edges. Deterministic: ties break
/// on the same `(weight, si, ti)` ordering on every rank.
pub fn mst_of_distance_graph(num_seeds: usize, edges: &[(PairKey, MinEdge)]) -> Vec<usize> {
    let aux: Vec<AuxEdge> = edges
        .iter()
        .map(|&((si, ti), e)| (si, ti, e.total))
        .collect();
    prim(num_seeds, &aux)
}

/// For a spanning forest of the distance graph (edges given by their
/// seed-index pairs): `None` when it spans all `num_seeds` seeds (the seeds
/// are mutually connected in the data graph), else seed `0` and the
/// smallest seed index not connected to it — two seeds in different
/// components, hence disconnected in the data graph.
pub fn split_pair(num_seeds: usize, edges: impl IntoIterator<Item = PairKey>) -> Option<PairKey> {
    let mut dsu = stgraph::dsu::Dsu::new(num_seeds);
    for (si, ti) in edges {
        dsu.union(si, ti);
    }
    (1..num_seeds as u32)
        .find(|&t| !dsu.same(0, t))
        .map(|ti| (0, ti))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(total: u64) -> MinEdge {
        MinEdge {
            total,
            a: 0,
            b: 1,
            weight: 1,
        }
    }

    #[test]
    fn picks_cheapest_spanning_edges() {
        let edges = vec![
            ((0u32, 1u32), edge(5)),
            ((1, 2), edge(2)),
            ((0, 2), edge(4)),
        ];
        let chosen = mst_of_distance_graph(3, &edges);
        let mut totals: Vec<u64> = chosen.iter().map(|&i| edges[i].1.total).collect();
        totals.sort_unstable();
        assert_eq!(totals, vec![2, 4]);
        assert_eq!(split_pair(3, chosen.iter().map(|&i| edges[i].0)), None);
    }

    #[test]
    fn detects_disconnection() {
        let edges = vec![((0u32, 1u32), edge(5))];
        let chosen = mst_of_distance_graph(3, &edges);
        assert_eq!(
            split_pair(3, chosen.iter().map(|&i| edges[i].0)),
            Some((0, 2))
        );
    }

    #[test]
    fn split_pair_names_seeds_in_different_components() {
        // Components {0, 3} and {1, 2}: the last seed shares seed 0's.
        let edges = vec![((0u32, 3u32), edge(5)), ((1, 2), edge(2))];
        let chosen = mst_of_distance_graph(4, &edges);
        assert_eq!(
            split_pair(4, chosen.iter().map(|&i| edges[i].0)),
            Some((0, 1))
        );
        assert_eq!(split_pair(3, [(0, 1)]), Some((0, 2)));
    }

    #[test]
    fn single_pair() {
        let edges = vec![((0u32, 1u32), edge(7))];
        let chosen = mst_of_distance_graph(2, &edges);
        assert_eq!(chosen, vec![0]);
        assert_eq!(split_pair(2, [edges[0].0]), None);
    }
}
