//! Bulk-synchronous Voronoi computation — the design the paper rejected.
//!
//! §IV: "Previous studies showed that asynchronous processing offers
//! notable advantage over bulk synchronous processing (BSP) for
//! distributed shortest path computation: the former enabling faster
//! convergence." This module implements the BSP alternative so the claim
//! is measurable on the same runtime: synchronized Bellman-Ford
//! supersteps, each one barrier-fenced message exchange followed by local
//! relaxation, repeated until a global all-reduce reports no change.
//!
//! The labels (and therefore the tree) are identical to the asynchronous
//! kernel's — both converge to the unique `(dist, src, pred)` fixpoint —
//! but the BSP schedule pays one barrier + one change all-reduce per
//! superstep and cannot overlap communication with computation. The
//! `bsp_vs_async` benchmark quantifies the gap. Delegates are not
//! supported (the ablation isolates scheduling, not partitioning).

use crate::messages::VoronoiMsg;
use crate::state::{Label, ScratchArena, VertexStates};
use stgraph::csr::Vertex;
use stgraph::partition::{BlockPartition, RankGraph};
use struntime::{ChannelGroup, Comm};

/// Statistics from one BSP Voronoi run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BspStats {
    /// Supersteps until global quiescence.
    pub supersteps: u64,
    /// Relaxation messages this rank received and applied (incl. local).
    pub processed: u64,
}

/// Runs bulk-synchronous Voronoi computation to the same fixpoint as
/// [`crate::voronoi::run`]. Collective; requires a delegate-free
/// partitioning.
#[allow(clippy::too_many_arguments)] // collective phase entry: ctx + graph views + state + knobs
pub fn run_bsp(
    comm: &Comm,
    chan: &ChannelGroup<Vec<VoronoiMsg>>,
    rg: &RankGraph,
    partition: &BlockPartition,
    states: &mut VertexStates,
    seeds: &[Vertex],
    scratch: &mut ScratchArena,
) -> BspStats {
    assert!(
        rg.delegates.is_empty(),
        "the BSP ablation requires delegate-free partitioning"
    );
    states.init_seeds(seeds);
    let p = comm.num_ranks();
    let mut stats = BspStats::default();

    // Superstep 0's outbox: relax the arcs of owned seeds. Outboxes and
    // the wire-encoding buffer come from the per-rank arena, so a sweep of
    // repeated runs reuses one set of allocations.
    let (outboxes, wire) = scratch.bsp_buffers(p);
    let emit = |outboxes: &mut Vec<Vec<VoronoiMsg>>, v: Vertex, label: Label, rg: &RankGraph| {
        for (nbr, w) in rg.adj(v) {
            outboxes[partition.owner(nbr)].push(VoronoiMsg::Relax {
                target: nbr,
                label: Label {
                    dist: label.dist + w,
                    src: label.src,
                    pred: v,
                },
                pred_weight: w,
            });
        }
    };
    for (k, &s) in seeds.iter().enumerate() {
        if rg.owns(s) {
            emit(outboxes, s, Label::seed(k as u32), rg);
        }
    }

    loop {
        stats.supersteps += 1;
        // Exchange: ship every outbox (self-addressed included, for a
        // uniform code path) through the flat wire codec — the outbox and
        // encoding buffers keep their capacity across supersteps — then
        // fence so all sends are visible.
        let mut changed = 0u64;
        for (dest, outbox) in outboxes.iter_mut().enumerate() {
            chan.send_batch_encoded(dest, outbox, wire);
        }
        comm.barrier();
        // Apply everything that arrived; improvements seed the next
        // superstep's outboxes.
        while let Some(batch) = chan.try_recv() {
            for msg in batch {
                let VoronoiMsg::Relax {
                    target,
                    label,
                    pred_weight,
                } = msg
                else {
                    unreachable!("BSP kernel only sends Relax messages");
                };
                stats.processed += 1;
                if states.try_improve(target, label, pred_weight) {
                    changed += 1;
                    emit(outboxes, target, label, rg);
                }
            }
        }
        // Global convergence check: one all-reduce per superstep (the BSP
        // overhead the paper's async design avoids).
        let mut total = vec![changed];
        comm.allreduce_sum(&mut total);
        if total[0] == 0 {
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::NO_VERTEX;
    use baselines::shortest_path::voronoi_cells;
    use stgraph::datasets::Dataset;
    use stgraph::partition::partition_graph;
    use struntime::World;

    fn bsp_labels(g: &stgraph::CsrGraph, seeds: &[Vertex], p: usize) -> Vec<(Vertex, Label)> {
        let pg = partition_graph(g, p, None);
        let pg = &pg;
        let out = World::run(p, |comm| {
            let chan = comm.open_channels::<Vec<VoronoiMsg>>("voronoi_bsp");
            let rg = &pg.ranks[comm.rank()];
            let mut st = VertexStates::new(rg);
            let mut scratch = ScratchArena::new();
            run_bsp(comm, &chan, rg, &pg.partition, &mut st, seeds, &mut scratch);
            st.owned_labels().collect::<Vec<_>>()
        });
        let mut all: Vec<(Vertex, Label)> = out.results.into_iter().flatten().collect();
        all.sort_unstable_by_key(|&(v, _)| v);
        all
    }

    #[test]
    fn bsp_matches_sequential_voronoi() {
        let g = Dataset::Cts.generate_tiny(3);
        let cc = stgraph::traversal::connected_components(&g);
        let verts = cc.largest_component_vertices();
        let seeds: Vec<Vertex> = verts.iter().step_by(verts.len() / 6).copied().collect();
        let vr = voronoi_cells(&g, &seeds);
        for p in [1usize, 3] {
            for (v, l) in bsp_labels(&g, &seeds, p) {
                assert_eq!(l.dist, vr.dist[v as usize], "p={p}, vertex {v}");
                if l.src != NO_VERTEX {
                    let src = seeds[l.src as usize];
                    assert_eq!(Some(src), vr.src[v as usize], "p={p}, vertex {v}");
                }
            }
        }
    }

    #[test]
    fn bsp_and_async_agree() {
        let g = Dataset::Lvj.generate_tiny(6);
        let cc = stgraph::traversal::connected_components(&g);
        let verts = cc.largest_component_vertices();
        let seeds: Vec<Vertex> = verts.iter().step_by(verts.len() / 8).copied().collect();
        let pg = partition_graph(&g, 2, None);
        let pg = &pg;
        let seeds_ref = &seeds;
        let async_out = World::run(2, |comm| {
            let chan = comm.open_channels::<Vec<VoronoiMsg>>("voronoi");
            let rg = &pg.ranks[comm.rank()];
            let mut st = VertexStates::new(rg);
            let mut scratch = ScratchArena::new();
            crate::voronoi::run(
                comm,
                &chan,
                rg,
                &pg.partition,
                &mut st,
                seeds_ref,
                struntime::traversal::TraversalOptions::new(struntime::QueueKind::Priority),
                &mut scratch,
            );
            st.owned_labels().collect::<Vec<_>>()
        });
        let mut async_labels: Vec<(Vertex, Label)> =
            async_out.results.into_iter().flatten().collect();
        async_labels.sort_unstable_by_key(|&(v, _)| v);
        assert_eq!(bsp_labels(&g, &seeds, 2), async_labels);
    }

    #[test]
    fn superstep_count_tracks_weighted_depth() {
        // A path needs roughly one superstep per hop.
        let mut b = stgraph::GraphBuilder::new(10);
        for i in 0..9u32 {
            b.add_edge(i, i + 1, 1);
        }
        let g = b.build();
        let pg = partition_graph(&g, 2, None);
        let pg = &pg;
        let out = World::run(2, |comm| {
            let chan = comm.open_channels::<Vec<VoronoiMsg>>("bsp");
            let rg = &pg.ranks[comm.rank()];
            let mut st = VertexStates::new(rg);
            let mut scratch = ScratchArena::new();
            run_bsp(comm, &chan, rg, &pg.partition, &mut st, &[0], &mut scratch)
        });
        // 9 propagation supersteps + the final empty confirming one.
        assert!(out.results[0].supersteps >= 9);
    }
}
