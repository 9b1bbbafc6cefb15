//! Exact cross-rank traffic of the Voronoi and local-min-edge phases
//! (tier 1).
//!
//! Two filters keep messages that could only be wasted off the wire:
//!
//! - **Send suppression** (`steiner::voronoi`): a rank ships a remote
//!   relaxation only if it beats the best label it already sent to that
//!   ghost vertex.
//! - **One probe per cut edge** (`steiner::distance_graph`): a cut edge
//!   whose endpoints are owned non-delegates is probed from exactly one
//!   side, and an edge with a delegate endpoint is never probed (the other
//!   owner holds the replica).
//!
//! Both counts are deterministic, so they are pinned exactly here.

use steiner::messages::VoronoiMsg;
use steiner::state::{Label, ScratchArena, VertexStates};
use stgraph::csr::{CsrGraph, Vertex};
use stgraph::datasets::Dataset;
use stgraph::partition::{partition_graph, BlockPartition};
use struntime::traversal::TraversalOptions;
use struntime::{QueueKind, World};

/// Undirected edges `{u, v}` with `u`, `v` on different ranks, both
/// reachable from a seed and neither a delegate: exactly the edges the
/// local-min-edge phase must probe once each.
fn probed_cut_edges(g: &CsrGraph, seeds: &[Vertex], p: usize, threshold: Option<usize>) -> u64 {
    let partition = BlockPartition::new(g.num_vertices(), p);
    let cc = stgraph::traversal::connected_components(g).label;
    let reached = |v: Vertex| seeds.iter().any(|&s| cc[s as usize] == cc[v as usize]);
    let delegate = |v: Vertex| threshold.is_some_and(|t| g.degree(v) >= t);
    g.arcs()
        .filter(|&(u, v, _)| u < v && partition.owner(u) != partition.owner(v))
        .filter(|&(u, v, _)| reached(u) && reached(v) && !delegate(u) && !delegate(v))
        .count() as u64
}

/// Probes on the quick-mode FRS graph at two ranks, without delegates
/// and with every vertex of degree >= 32 delegated. Probing both
/// orientations of each plain cut edge would double the first.
const PINNED_PLAIN: u64 = 2_640;
const PINNED_DELEGATED: u64 = 1_191;

#[test]
fn local_min_edge_sends_one_probe_per_cut_edge() {
    let g = Dataset::Frs.generate_tiny(bench::EXPERIMENT_SEED);
    let seeds = seeds::select(&g, 50, seeds::Strategy::BfsLevel, bench::EXPERIMENT_SEED);
    let mut seeds_sorted = seeds.clone();
    seeds_sorted.sort_unstable();
    for (threshold, pinned) in [(None, PINNED_PLAIN), (Some(32), PINNED_DELEGATED)] {
        for queue in [QueueKind::Fifo, QueueKind::Priority] {
            let cfg = steiner::SolverConfig {
                num_ranks: 2,
                queue,
                delegate_threshold: threshold,
                ..steiner::SolverConfig::default()
            };
            let r = steiner::solve(&g, &seeds, &cfg).expect("solve");
            let probes = r.message_counts[steiner::Phase::LocalMinEdge.name()].remote_msgs;
            assert_eq!(
                probes,
                probed_cut_edges(&g, &seeds_sorted, 2, threshold),
                "{threshold:?} {queue:?}: one probe per probed cut edge"
            );
            assert_eq!(probes, pinned, "{threshold:?} {queue:?}");
        }
    }
}

#[test]
fn dominated_remote_relaxations_are_not_sent() {
    // Rank 0 owns 0..4, rank 1 owns 4..8. From seed 0, FIFO expands 1, 2
    // and 3 in that order, and each relaxes its arc to vertex 4 on rank 1
    // with candidate distances 11, 3 and 6. The third is dominated by the
    // second, which is already on its way: only two `Relax` messages go
    // out. Rank 1 holds no seed and nothing it sends back improves rank
    // 0, so rank 0's remote sends are exactly those relaxations.
    let mut b = stgraph::builder::GraphBuilder::new(8);
    for v in 1..4 {
        b.add_edge(0, v, 1);
    }
    b.add_edge(1, 4, 10);
    b.add_edge(2, 4, 2);
    b.add_edge(3, 4, 5);
    for v in 4..7 {
        b.add_edge(v, v + 1, 1);
    }
    let g = b.build();
    let pg = partition_graph(&g, 2, None);
    assert_eq!(pg.ranks[0].ghosts(), &[4]);
    assert_eq!(pg.ranks[1].ghosts(), &[1, 2, 3]);
    let pg = &pg;
    let out = World::run(2, |comm| {
        let chan = comm.open_channels::<Vec<VoronoiMsg>>("voronoi");
        let rg = &pg.ranks[comm.rank()];
        let mut states = VertexStates::new(rg);
        let mut scratch = ScratchArena::new();
        steiner::voronoi::run(
            comm,
            &chan,
            rg,
            &pg.partition,
            &mut states,
            &[0],
            TraversalOptions::new(QueueKind::Fifo),
            &mut scratch,
        );
        states.label_if_held(4)
    });
    let rank0 = out.reports[0].counters["voronoi"];
    assert_eq!(rank0.remote_msgs, 2, "labels 11 and 3 are sent, 6 is not");
    assert_eq!(
        out.results[1],
        Some(Label {
            dist: 3,
            src: 0,
            pred: 2
        }),
        "the fixpoint is unchanged"
    );
}
