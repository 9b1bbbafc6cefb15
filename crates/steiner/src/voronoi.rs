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
//! ## Local-first relaxation and stale filtering
//!
//! A relaxation whose target's state lives on this rank — an owned vertex
//! or the local replica of a delegate — is applied *eagerly*, at push time,
//! with `try_improve`. Only a strict improvement enqueues anything: an
//! [`VoronoiMsg::Expand`] that relaxes the target's held arcs (and, for a
//! delegate, broadcasts the new label to the other replicas) when it is
//! visited. A dominated candidate is thus discarded before it costs a queue
//! push; on the FRS analogue at one rank, 93% of candidate relaxations are
//! dominated, so the queue sees about a seventh of them. Relaxations of
//! remote targets still travel as [`VoronoiMsg::Relax`] messages and are
//! applied by the owner when visited, unchanged.
//!
//! Under the ordered queue disciplines (priority, bucketed) the traversal
//! applies a staleness predicate at pop time. An `Expand` is stale when its
//! label is no longer the target's current label — strictly, `label >
//! current`, i.e. a later improvement superseded it; a `Relax` or
//! `DelegateUpdate` is stale when its candidate is `>=` the current label,
//! because it could never pass `try_improve`. Under FIFO the visit itself
//! skips a superseded `Expand`. Both predicates are monotone (labels only
//! shrink, so a dominated entry stays dominated), which makes the drop
//! safe: it removes exactly the visits that would have been no-ops.
//!
//! The label fixpoint — and therefore the tree — is unchanged, and
//! identical across disciplines. Labels are still strict lexicographic
//! minima, applied in some order; eager application changes which
//! intermediate labels are written and when, not the minimum they converge
//! to. Every label a vertex ends with
//! was, at the moment it was written, followed by exactly one expansion
//! of it: an `Expand` (local writes), the `Relax`/`DelegateUpdate` visit
//! that wrote it (remote writes), and that expansion still finds the label
//! current because nothing smaller replaced it. So every final label is
//! expanded on every rank that holds the vertex's arcs, as in plain
//! label-correcting Bellman-Ford.
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
use struntime::traversal::{run_traversal_filtered, TraversalOptions};
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

    // The stale predicate and the visit callback both need the vertex
    // states (read-only vs. mutable); a RefCell arbitrates. The borrows
    // never overlap: the traversal calls the predicate and the visit
    // callback strictly in sequence on one thread.
    let states = RefCell::new(states);
    run_traversal_filtered(
        comm,
        chan,
        options,
        VoronoiMsg::priority,
        |msg: &VoronoiMsg| match *msg {
            // Bootstraps are never stale: they carry no candidate label.
            VoronoiMsg::Start(_) => false,
            // Already applied: stale only once superseded.
            VoronoiMsg::Expand { target, label } => label > states.borrow().label(target),
            VoronoiMsg::Relax { target, label, .. }
            | VoronoiMsg::DelegateUpdate { target, label, .. } => states
                .borrow()
                .label_if_held(target)
                .is_some_and(|current| label >= current),
        },
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
        VoronoiMsg::Expand { target, label } => {
            if label != states.label(target) {
                return; // Superseded since it was applied (FIFO delivers it).
            }
            if rg.is_delegate(target) {
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
        // A remote relaxation, or a replica update; priority-queue
        // reordering can deliver a newer (better) candidate first, in which
        // case the older one is a no-op.
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
            Some(true) => pusher.push(pusher.rank(), VoronoiMsg::Expand { target, label }),
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
