//! Distributed asynchronous Voronoi-cell computation (Alg 4).
//!
//! Bellman-Ford-style label-correcting relaxation run through the
//! vertex-centric traversal driver. Each vertex converges to the label
//! `(d_1(s, v), s, pred)` of its nearest seed `s`; the optional priority
//! queue (the paper's §IV optimization) processes lower-distance messages
//! first, approximating Dijkstra's settle order and slashing wasted
//! relaxations (§V-C).
//!
//! Delegate (hub) vertices have a replica on every rank (HavoqGT's
//! vertex-cut). A relaxation targeting a delegate is applied to the
//! *local* replica — no network hop, no controller hotspot — and, when it
//! improves, broadcast so every rank can update its replica and relax its
//! slice of the hub's adjacency. All replicas converge to the same label:
//! every improvement anyone generates is broadcast, updates are strict
//! lexicographic minima, and min is order-independent. Thus the fixpoint —
//! and therefore the final Steiner tree — is independent of message timing
//! and of which rank discovered an improvement first.
//!
//! ## Local-first relaxation and a decrease-key frontier
//!
//! A relaxation whose target's state lives on this rank — an owned vertex
//! or the local replica of a delegate — is applied *eagerly*, at push time,
//! with `try_improve`. Only a strict improvement enqueues anything: an
//! [`VoronoiMsg::Expand`] that relaxes the target's held arcs (and, for a
//! delegate, broadcasts the new label to the other replicas) when it is
//! visited. A dominated candidate is thus discarded before it costs a queue
//! push; on the FRS analogue at one rank, 93% of candidate relaxations are
//! dominated, so the queue sees about a seventh of them. Relaxations of
//! remote targets travel as [`VoronoiMsg::Relax`] messages to the owner.
//!
//! Under the priority discipline the queue is a decrease-key frontier
//! (`struntime::traversal::FrontierHooks`):
//!
//! - Each `Expand` is keyed by its target's rank-local state slot
//!   ([`VertexStates::slot_key`]: the owned offset, or `num_owned` plus
//!   the delegate index). An improvement to a vertex whose `Expand` is
//!   still queued replaces that entry in place, so a vertex holds at most
//!   one queue entry and a superseded label is never popped.
//! - An inbound `Relax` or `DelegateUpdate` is applied with `try_improve`
//!   when its batch is drained, before queueing. A dominated one is
//!   retired there; an improving one is enqueued as the keyed `Expand` of
//!   the label it wrote, with `broadcast: false` — an applied replica
//!   update is never re-broadcast, since its sender already reached every
//!   replica. The conversion is not a new push, so `local_msgs` and
//!   `remote_msgs` keep their meaning.
//!
//! Every queued entry therefore carries its target's current label, and
//! the rank's queue never holds more than its held vertices plus its
//! started seeds. A replaced or retired message counts as a stale drop.
//!
//! The bucketed discipline cannot replace entries, so it filters at pop
//! time instead. An `Expand` is stale when its label is no longer the
//! target's current label — strictly, `label > current`, i.e. a later
//! improvement superseded it; a `Relax` or `DelegateUpdate` (applied at
//! visit time there) is stale when its candidate is `>=` the current
//! label, because it could never pass `try_improve`. Under FIFO and
//! adversarial queues the visit itself skips a superseded `Expand`. All
//! these drops are monotone (labels only shrink, so a dominated entry
//! stays dominated) and remove exactly the visits that would have been
//! no-ops.
//!
//! The label fixpoint — and therefore the tree — is unchanged, and
//! identical across disciplines. Labels are still strict lexicographic
//! minima, applied in some order; eager application changes which
//! intermediate labels are written and when, not the minimum they converge
//! to. Every label a vertex ends with was, at the moment it was written,
//! followed by exactly one expansion of it — the `Expand` pushed or
//! converted for it, or (outside the priority discipline) the
//! `Relax`/`DelegateUpdate` visit that wrote it — and that expansion still
//! finds the label current because nothing smaller replaced it. So every
//! final label is expanded on every rank that holds the vertex's arcs, as
//! in plain label-correcting Bellman-Ford.
//!
//! ## Remote send suppression
//!
//! A rank keeps, for each of its *ghosts* (`RankGraph::ghosts`: the
//! remote targets of its local arcs), the smallest label it has already
//! shipped in a `Relax` — one `sent` entry per ghost, reset to
//! [`Label::UNSET`] at the start of every run and held in the
//! [`ScratchArena`]. A remote candidate is sent only if it is strictly
//! smaller than that entry, which it then replaces. A suppressed candidate
//! is `>=` a label already on its way to the owner; the reliability layer
//! delivers that label, after which the owner's label is at most it, so
//! the suppressed candidate could never have passed `try_improve` — its
//! visit would have been a no-op. The fixpoint, and thus the tree, is
//! unchanged; only messages that would have been stale are never sent.
//! The table is sized by the rank's cut, not by `|V|`, and a ghost's slot
//! is found by binary search over the sorted ghost list.

use crate::messages::VoronoiMsg;
use crate::state::{Label, ScratchArena, VertexStates};
use std::cell::RefCell;
use stgraph::csr::{Vertex, Weight};
use stgraph::partition::{BlockPartition, RankGraph};
use struntime::traversal::{run_traversal_filtered, FrontierHooks, TraversalOptions};
use struntime::{ChannelGroup, Comm, Pusher, TraversalStats};

/// Runs the Voronoi phase to quiescence on this rank. Collective.
/// `seeds` must be strictly ascending (as the solver's seed check returns
/// them): a label's `src` is the seed's index in it, so index order must
/// be vertex order for ties to break as in the sequential baselines.
/// `scratch` provides the reusable bootstrap buffer and sent-label cache
/// so repeated solves (fault retries, benchmark sweeps) do not
/// re-allocate per phase.
#[allow(clippy::too_many_arguments)] // collective phase entry: ctx + graph views + state + knobs
pub fn run(
    comm: &Comm,
    chan: &ChannelGroup<Vec<VoronoiMsg>>,
    rg: &RankGraph,
    partition: &BlockPartition,
    states: &mut VertexStates,
    seeds: &[Vertex],
    options: TraversalOptions,
    scratch: &mut ScratchArena,
) -> TraversalStats {
    debug_assert!(
        seeds.windows(2).all(|w| w[0] < w[1]),
        "seeds must be sorted and deduplicated"
    );
    states.init_seeds(seeds);
    let (init, sent) = scratch.voronoi_buffers(rg.ghosts().len());

    // Bootstrap: this rank starts every seed whose outgoing arcs it holds —
    // owned non-delegate seeds, plus every delegate seed (each rank holds a
    // slice of a delegate's adjacency).
    init.extend(
        seeds
            .iter()
            .copied()
            .filter(|&s| rg.is_delegate(s) || rg.owns(s))
            .map(VoronoiMsg::Start),
    );

    // The hooks and the visit callback all need the vertex states (read-
    // only or mutable); a RefCell arbitrates. The borrows never overlap:
    // the traversal calls them strictly in sequence on one thread.
    let states = RefCell::new(states);
    let hooks = FrontierHooks {
        key: |msg: &VoronoiMsg| match *msg {
            VoronoiMsg::Expand { target, .. } => states.borrow().slot_key(target),
            _ => None,
        },
        stale: |msg: &VoronoiMsg| match *msg {
            // Bootstraps are never stale: they carry no candidate label.
            VoronoiMsg::Start(_) => false,
            // Already applied: stale only once superseded.
            VoronoiMsg::Expand { target, label, .. } => label > states.borrow().label(target),
            VoronoiMsg::Relax { target, label, .. }
            | VoronoiMsg::DelegateUpdate { target, label, .. } => states
                .borrow()
                .label_if_held(target)
                .is_some_and(|current| label >= current),
        },
        receive: |msg: VoronoiMsg| match msg {
            VoronoiMsg::Relax {
                target,
                label,
                pred_weight,
            }
            | VoronoiMsg::DelegateUpdate {
                target,
                label,
                pred_weight,
            } => states
                .borrow_mut()
                .try_improve(target, label, pred_weight)
                .then_some(VoronoiMsg::Expand {
                    target,
                    label,
                    broadcast: false,
                }),
            local => Some(local),
        },
    };
    run_traversal_filtered(
        comm,
        chan,
        options,
        VoronoiMsg::priority,
        hooks,
        init.iter().copied(),
        |msg, pusher| visit(msg, rg, partition, &mut states.borrow_mut(), sent, pusher),
    )
}

fn visit(
    msg: VoronoiMsg,
    rg: &RankGraph,
    partition: &BlockPartition,
    states: &mut VertexStates,
    sent: &mut [Label],
    pusher: &mut Pusher<'_, VoronoiMsg>,
) {
    match msg {
        VoronoiMsg::Start(s) => {
            // A seed's own label `(0, index, -)` is final: weights are >= 1.
            let label = states.label(s);
            relax_out_arcs(s, label, rg, partition, states, sent, pusher);
        }
        VoronoiMsg::Expand {
            target,
            label,
            broadcast,
        } => {
            if label != states.label(target) {
                return; // Superseded since it was applied (FIFO delivers it).
            }
            if broadcast {
                // Local replica improved: sync the other replicas, then
                // relax this rank's slice of the hub's adjacency.
                pusher.trace_instant("delegate_broadcast", target as u64);
                let pred_weight = states.pred_weight(target);
                for dest in 0..partition.num_ranks() {
                    if dest != pusher.rank() {
                        pusher.push(
                            dest,
                            VoronoiMsg::DelegateUpdate {
                                target,
                                label,
                                pred_weight,
                            },
                        );
                    }
                }
            }
            relax_out_arcs(target, label, rg, partition, states, sent, pusher);
        }
        // A remote relaxation, or a replica update, outside the priority
        // discipline (which applies them at receipt); reordering can
        // deliver a newer (better) candidate first, in which case the
        // older one is a no-op.
        VoronoiMsg::Relax {
            target,
            label,
            pred_weight,
        }
        | VoronoiMsg::DelegateUpdate {
            target,
            label,
            pred_weight,
        } => {
            if states.try_improve(target, label, pred_weight) {
                relax_out_arcs(target, label, rg, partition, states, sent, pusher);
            }
        }
    }
}

/// Relaxes every outgoing arc of `v` that this rank holds, given `v`'s
/// (just-updated) label: locally held targets are improved in place and
/// pushed as an [`VoronoiMsg::Expand`] only if they improved; remote
/// targets are shipped to their owner as a [`VoronoiMsg::Relax`] only if
/// the candidate beats the best label already sent to them (`sent`).
fn relax_out_arcs(
    v: Vertex,
    label: Label,
    rg: &RankGraph,
    partition: &BlockPartition,
    states: &mut VertexStates,
    sent: &mut [Label],
    pusher: &mut Pusher<'_, VoronoiMsg>,
) {
    let mut relax = |target: Vertex, w: Weight, pusher: &mut Pusher<'_, VoronoiMsg>| {
        let label = Label {
            dist: label.dist + w,
            src: label.src,
            pred: v,
        };
        match states.try_improve_if_held(target, label, w) {
            Some(true) => pusher.push(
                pusher.rank(),
                VoronoiMsg::Expand {
                    target,
                    label,
                    broadcast: rg.is_delegate(target),
                },
            ),
            Some(false) => {}
            None => {
                let best_sent = &mut sent[rg
                    .ghost_index(target)
                    .expect("a remote arc target is a ghost")];
                if label < *best_sent {
                    *best_sent = label;
                    pusher.push(
                        partition.owner(target),
                        VoronoiMsg::Relax {
                            target,
                            label,
                            pred_weight: w,
                        },
                    );
                }
            }
        }
    };
    if rg.is_delegate(v) {
        for &(nbr, w) in rg.delegate_slice(v) {
            relax(nbr, w, pusher);
        }
    } else {
        debug_assert!(rg.owns(v));
        for (nbr, w) in rg.adj(v) {
            relax(nbr, w, pusher);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve, QueueKind, SolverConfig};
    use stgraph::datasets::Dataset;
    use stgraph::partition::partition_graph;
    use struntime::World;

    /// Per rank: the traversal stats, the bound `held vertices + started
    /// seeds`, and every label the rank holds.
    type RankRun = (TraversalStats, usize, Vec<(Vertex, Label)>);

    fn run_voronoi(
        g: &stgraph::CsrGraph,
        seeds: &[Vertex],
        p: usize,
        threshold: Option<usize>,
        queue: QueueKind,
    ) -> Vec<RankRun> {
        let pg = partition_graph(g, p, threshold);
        assert_eq!(
            threshold.is_some(),
            !pg.delegates.is_empty(),
            "a threshold must create delegates"
        );
        let pg = &pg;
        World::run(p, |comm| {
            let chan = comm.open_channels::<Vec<VoronoiMsg>>("voronoi");
            let rg = &pg.ranks[comm.rank()];
            let mut st = VertexStates::new(rg);
            let mut scratch = ScratchArena::new();
            let stats = run(
                comm,
                &chan,
                rg,
                &pg.partition,
                &mut st,
                seeds,
                TraversalOptions::new(queue),
                &mut scratch,
            );
            let held = rg.num_owned() + rg.delegates.len();
            let started = seeds
                .iter()
                .filter(|&&s| rg.is_delegate(s) || rg.owns(s))
                .count();
            let labels = rg
                .owned
                .clone()
                .chain(rg.delegates.iter().copied())
                .map(|v| (v, st.label(v)))
                .collect();
            (stats, held + started, labels)
        })
        .results
    }

    #[test]
    fn priority_frontier_holds_one_entry_per_vertex() {
        for dataset in [Dataset::Frs, Dataset::Lvj] {
            let g = dataset.generate_tiny(5);
            let cc = stgraph::traversal::connected_components(&g);
            let verts = cc.largest_component_vertices();
            let seeds: Vec<Vertex> = verts.iter().step_by(verts.len() / 40).copied().collect();
            for p in [1usize, 2, 4] {
                for delegates in [None, Some(32)] {
                    let ctx = format!("{dataset:?} p={p} delegates={delegates:?}");
                    let keyed = run_voronoi(&g, &seeds, p, delegates, QueueKind::Priority);
                    let fifo = run_voronoi(&g, &seeds, p, delegates, QueueKind::Fifo);
                    for (rank, ((stats, bound, labels), (_, _, fifo_labels))) in
                        keyed.iter().zip(&fifo).enumerate()
                    {
                        assert!(
                            stats.peak_queue_len <= *bound,
                            "{ctx} rank {rank}: peak queue {} exceeds held + started {bound}",
                            stats.peak_queue_len
                        );
                        assert_eq!(labels, fifo_labels, "{ctx} rank {rank}: labels");
                    }
                    let cfg = |queue| SolverConfig {
                        num_ranks: p,
                        queue,
                        delegate_threshold: delegates,
                        ..SolverConfig::default()
                    };
                    let tree = solve(&g, &seeds, &cfg(QueueKind::Priority)).expect("solve");
                    let fifo_tree = solve(&g, &seeds, &cfg(QueueKind::Fifo)).expect("solve");
                    assert_eq!(tree.tree, fifo_tree.tree, "{ctx}: tree");
                }
            }
        }
    }
}
