//! Exact Voronoi work counts at one rank (tier 1).
//!
//! With one rank and the priority queue the solve is fully deterministic:
//! no message crosses a channel and the queue order is a pure function of
//! the input. The counts below are therefore exact, and they pin the
//! local-first relaxation of `steiner::voronoi` — a locally held target is
//! improved at push time and only a strict improvement is enqueued. Losing
//! that filter multiplies the pushes and stale drops (without it this
//! query takes 11,758 pushes and 10,844 stale drops for the same tree), so
//! it fails here and not only in the CI bench guard.

use stgraph::datasets::Dataset;

#[test]
fn one_rank_priority_voronoi_counts_are_pinned() {
    let g = Dataset::Frs.generate_tiny(bench::EXPERIMENT_SEED);
    let seeds = seeds::select(&g, 50, seeds::Strategy::BfsLevel, bench::EXPERIMENT_SEED);
    let cfg = steiner::SolverConfig {
        num_ranks: 1,
        queue: steiner::QueueKind::Priority,
        ..steiner::SolverConfig::default()
    };
    let r = steiner::solve(&g, &seeds, &cfg).expect("solve");
    let voronoi = r
        .message_counts
        .get(steiner::Phase::Voronoi.name())
        .expect("voronoi phase counters");

    assert_eq!(voronoi.remote_msgs, 0, "one rank sends nothing remotely");
    assert_eq!(voronoi.total_msgs(), 1_950, "voronoi pushes");
    assert_eq!(r.stale_drops, vec![1_036], "voronoi stale drops");
    assert_eq!(r.rank_work, vec![1_136], "visits over all phases");
    assert_eq!(r.tree.total_distance(), 614_810, "tree weight");
}
