//! The map-free distance-graph pipeline (tier 1).
//!
//! - **Default MST.** `SolverConfig::default()` runs distributed Borůvka
//!   (`MstMode::Dist`), and its tree must be bit-identical to the paper's
//!   replicated pipeline (dense `Allreduce(MIN)` plus Prim) on the FRS and
//!   LVJ quick-mode graphs, at 1, 2 and 4 ranks, with and without
//!   delegates.
//! - **One-sided local scan.** `local_min_edges` evaluates an edge whose
//!   endpoints are both owned non-delegates of one rank from its smaller
//!   endpoint only. Merged over ranks, its candidates must equal a
//!   brute-force scan of every arc in both orientations.

use std::collections::BTreeMap;
use steiner::distance_graph::{local_min_edges, MinEdge, PairKey};
use steiner::messages::{ProbeMsg, VoronoiMsg};
use steiner::state::{Label, ScratchArena, VertexStates, NO_VERTEX};
use steiner::{solve_partitioned, MstMode, ReduceMode, SolverConfig};
use stgraph::builder::GraphBuilder;
use stgraph::csr::{CsrGraph, Vertex};
use stgraph::datasets::Dataset;
use stgraph::partition::partition_graph;
use struntime::traversal::TraversalOptions;
use struntime::{QueueKind, World};

#[test]
fn default_dist_tree_equals_replicated_dense_tree() {
    assert_eq!(SolverConfig::default().mst_mode, MstMode::Dist);
    for dataset in [Dataset::Frs, Dataset::Lvj] {
        let g = dataset.generate_tiny(bench::EXPERIMENT_SEED);
        let seeds = seeds::select(&g, 50, seeds::Strategy::BfsLevel, bench::EXPERIMENT_SEED);
        for threshold in [None, Some(32)] {
            for p in [1usize, 2, 4] {
                let pg = partition_graph(&g, p, threshold);
                let dist = SolverConfig {
                    num_ranks: p,
                    delegate_threshold: threshold,
                    ..SolverConfig::default()
                };
                let replicated = SolverConfig {
                    mst_mode: MstMode::Replicated,
                    reduce_mode: ReduceMode::Dense { chunk: None },
                    ..dist
                };
                let d = solve_partitioned(&pg, &seeds, &dist).expect("dist solve");
                let r = solve_partitioned(&pg, &seeds, &replicated).expect("replicated solve");
                let at = format!("{} p={p} delegates={threshold:?}", dataset.name());
                assert_eq!(d.tree, r.tree, "{at}");
                assert!(d.boruvka.is_some() && r.boruvka.is_none(), "{at}");
                // Under dist the count is the chosen bridges, not `G_1'`.
                assert_eq!(d.distance_graph_edges, seeds.len() - 1, "{at}");
                assert!(r.distance_graph_edges > d.distance_graph_edges, "{at}");
            }
        }
    }
}

/// A 6 × 6 grid with uneven weights plus a few long chords, so that
/// delegation at degree 5 picks out the chord endpoints.
fn grid_with_chords() -> CsrGraph {
    let side = 6u32;
    let mut b = GraphBuilder::new((side * side) as usize);
    for r in 0..side {
        for c in 0..side {
            let v = r * side + c;
            if c + 1 < side {
                b.add_edge(v, v + 1, u64::from(1 + (v * 7) % 5));
            }
            if r + 1 < side {
                b.add_edge(v, v + side, u64::from(1 + (v * 3) % 4));
            }
        }
    }
    for (u, v) in [(0, 35), (7, 28), (14, 3), (21, 33), (7, 35)] {
        b.add_edge(u, v, 9);
    }
    b.build()
}

/// Every rank's `local_min_edges` output, merged by per-pair minimum, plus
/// the Voronoi labels the ranks computed.
fn scanned(
    g: &CsrGraph,
    seeds: &[Vertex],
    p: usize,
    threshold: Option<usize>,
) -> (BTreeMap<PairKey, MinEdge>, Vec<Label>) {
    let pg = partition_graph(g, p, threshold);
    let pg = &pg;
    let n = g.num_vertices() as Vertex;
    let out = World::run(p, move |comm| {
        let chan_voronoi = comm.open_channels::<Vec<VoronoiMsg>>("voronoi");
        let chan_probe = comm.open_channels::<Vec<ProbeMsg>>("local_min_edge");
        let rg = &pg.ranks[comm.rank()];
        let mut states = VertexStates::new(rg);
        let mut scratch = ScratchArena::new();
        let options = TraversalOptions::new(QueueKind::Priority);
        steiner::voronoi::run(
            comm,
            &chan_voronoi,
            rg,
            &pg.partition,
            &mut states,
            seeds,
            options,
            &mut scratch,
        );
        let (local, _) =
            local_min_edges(comm, &chan_probe, rg, &pg.partition, &states, seeds.len());
        let held: Vec<(Vertex, Label)> = (0..n)
            .filter_map(|v| states.label_if_held(v).map(|l| (v, l)))
            .collect();
        (local, held)
    });
    let mut merged = BTreeMap::new();
    let mut labels = vec![Label::UNSET; n as usize];
    for (local, held) in out.results {
        assert!(
            local.windows(2).all(|w| w[0].0 < w[1].0),
            "candidates sorted by pair, one per pair"
        );
        for (key, e) in local {
            let slot = merged.entry(key).or_insert(MinEdge::UNSET);
            *slot = (*slot).min(e);
        }
        for (v, l) in held {
            labels[v as usize] = l;
        }
    }
    (merged, labels)
}

/// The reference: every arc of `g`, in both orientations, offered as a
/// bridge between its endpoints' cells.
fn brute_force(g: &CsrGraph, labels: &[Label]) -> BTreeMap<PairKey, MinEdge> {
    let mut out = BTreeMap::new();
    for (u, v, w) in g.arcs() {
        let (lu, lv) = (labels[u as usize], labels[v as usize]);
        if lu.src == NO_VERTEX || lv.src == NO_VERTEX || lu.src == lv.src {
            continue;
        }
        let (key, a, b) = if lu.src < lv.src {
            ((lu.src, lv.src), u, v)
        } else {
            ((lv.src, lu.src), v, u)
        };
        let cand = MinEdge {
            total: lu.dist + w + lv.dist,
            a,
            b,
            weight: w,
        };
        let slot = out.entry(key).or_insert(MinEdge::UNSET);
        *slot = (*slot).min(cand);
    }
    out
}

#[test]
fn one_sided_local_scan_equals_brute_force_scan() {
    let g = grid_with_chords();
    // Every vertex a seed: each cell is one vertex, so every edge is the
    // only bridge of its pair and no skipped edge can hide behind another.
    let all: Vec<Vertex> = (0..g.num_vertices() as Vertex).collect();
    let some: Vec<Vertex> = vec![0, 5, 14, 22, 30, 35];
    for seeds in [&all, &some] {
        for threshold in [None, Some(5)] {
            for p in [1usize, 2, 3] {
                let (scan, labels) = scanned(&g, seeds, p, threshold);
                assert!(
                    labels.iter().all(|l| l.src != NO_VERTEX),
                    "grid is connected"
                );
                let at = format!("|S|={} p={p} delegates={threshold:?}", seeds.len());
                if seeds.len() == all.len() {
                    assert_eq!(scan.len(), g.num_arcs() / 2, "{at}: one pair per edge");
                }
                assert_eq!(scan, brute_force(&g, &labels), "{at}");
            }
        }
    }
}
