//! Distance-graph construction (Alg 5): local min-distance cross-cell edge
//! identification followed by the global collective reduction.
//!
//! Each rank scans its local arcs; for an arc `(u, v)` whose endpoints lie
//! in different Voronoi cells, the connecting-path length
//! `d_1(s, u) + d(u, v) + d_1(v, t)` becomes a candidate weight for the
//! distance-graph edge `(s, t)`. When `v`'s state is remote the arc is
//! shipped to `v`'s owner as a probe message — from one side of each cut
//! edge only (see *One probe per cut edge* below). Cells are identified by
//! seed index (the labels' `src`), so a cell pair `(si, ti)` is found
//! without any vertex-to-index map; see [`local_min_edges`] for the
//! per-cell candidate buckets, returned as one flat list sorted by pair.
//! The default `--mst dist` pipeline feeds that list straight into the
//! Borůvka rounds ([`crate::boruvka`]); the replicated pipeline finds the
//! global minima with the paper's dense `binom(|S|, 2)` `Allreduce(MIN)`
//! (optionally chunked to bound the collective slot, §V-F).
//!
//! ## One probe per cut edge
//!
//! The graph is symmetric, and [`record_candidate`] orients every bridge
//! from the smaller seed's cell, so the arcs `(u, v)` and `(v, u)` offer
//! the identical [`MinEdge`]. Evaluating both would ship the same
//! candidate twice, so a rank holding `u` but not `v` probes only when the
//! reverse arc will not be evaluated elsewhere:
//!
//! - **Delegate exemption.** If `u` is a delegate, `v`'s owner holds `u`'s
//!   replica and `v`'s full adjacency, so it evaluates `(v, u)` locally.
//!   No probe.
//! - **Balanced rule.** Otherwise `u` and `v` are owned non-delegates on
//!   different ranks, and both owners see the edge as remote. Exactly one
//!   sends: the side for which `(u < v) != ((u ^ v) & 1 == 1)` holds. The
//!   rule is symmetric in `{u, v}` (swapping them flips the first term and
//!   keeps the second), and the parity term splits the sends between the
//!   two directions. Plain `u < v` would also pick one side, but with
//!   block partitioning it makes the lower rank send every probe and the
//!   higher rank receive them all.
//!
//! A skipped probe loses nothing: if the sending side's endpoint is
//! unreached the candidate would be a no-op either way.

use crate::messages::ProbeMsg;
use crate::state::{Label, VertexStates, NO_VERTEX};
use stgraph::csr::{Distance, Vertex, Weight, INF};
use stgraph::partition::{BlockPartition, RankGraph};
use struntime::{run_traversal, ChannelGroup, Comm, QueueKind};

/// The winning bridge for one distance-graph edge `(s, t)`.
///
/// Ordering is the tie-breaking rule: smallest connecting-path total, then
/// smallest oriented bridge `(a, b)` where `a ∈ N(s)` — this is the
/// deterministic equivalent of the paper's `Allreduce(MIN)` on source
/// vertex ids that "ensures only one cross-cell edge per Voronoi cell
/// pair".
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MinEdge {
    /// Connecting-path length `d_1'(s, t)`.
    pub total: Distance,
    /// Bridge endpoint in `N(s)` (the smaller seed's cell).
    pub a: Vertex,
    /// Bridge endpoint in `N(t)`.
    pub b: Vertex,
    /// Bridge edge weight `d(a, b)`.
    pub weight: Weight,
}

impl MinEdge {
    /// The "absent" entry — loses to every real candidate.
    pub const UNSET: MinEdge = MinEdge {
        total: INF,
        a: NO_VERTEX,
        b: NO_VERTEX,
        weight: 0,
    };
}

/// Seed-index pair `(si, ti)` with `si < ti`, keys of the distance graph.
pub type PairKey = (u32, u32);

/// How the replicated pipeline's global reduction is performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceMode {
    /// Dense `binom(|S|, 2)` buffer with `Allreduce(MIN)` — the paper's
    /// approach. `chunk` bounds only the *shared collective slot* (§V-F):
    /// the exchange proceeds `chunk` elements at a time, so the slot
    /// clone rank 0 hosts stays one chunk long — but the rank-local
    /// `binom(|S|, 2)` buffer is still fully materialized regardless
    /// (`None` = one shot, slot as large as the buffer). The solver's
    /// default `--mst dist` Borůvka mode skips this reduction entirely.
    Dense {
        /// Elements per collective chunk (§V-F slot-memory optimization).
        chunk: Option<usize>,
    },
}

/// Local phase: returns this rank's best candidate per cell pair, sorted
/// by pair key, plus the traversal stats. Collective (runs a traversal).
///
/// Cells are keyed by seed index, which a label already carries in its
/// `src`, so a cross-cell arc costs no lookup beyond the two labels.
/// Candidates are collected per smaller seed index `si`, each bucket a
/// short list of `(ti, best)` searched linearly (a cell borders about ten
/// others on the dataset analogues), and emitted in `(si, ti)` order.
///
/// An edge whose endpoints are both owned non-delegates of this rank is
/// stored as two arcs offering the same candidate, so only the arc from
/// its smaller endpoint is evaluated. Arcs with a delegate endpoint keep
/// both orientations: a delegate's arcs are spread over all ranks.
pub fn local_min_edges(
    comm: &Comm,
    chan: &ChannelGroup<Vec<ProbeMsg>>,
    rg: &RankGraph,
    partition: &BlockPartition,
    states: &VertexStates,
    num_seeds: usize,
) -> (Vec<(PairKey, MinEdge)>, struntime::TraversalStats) {
    let mut buckets: Vec<Vec<(u32, MinEdge)>> = vec![Vec::new(); num_seeds];

    let stats = run_traversal(
        comm,
        chan,
        QueueKind::Fifo,
        |_| 0,
        [ProbeMsg::Scan],
        |msg, pusher| match msg {
            ProbeMsg::Scan => {
                // `u`'s label and kind, read once per source vertex.
                let (mut at, mut lu, mut plain_u) = (NO_VERTEX, Label::UNSET, false);
                for (u, v, w) in rg.local_arcs() {
                    if u != at {
                        (at, lu, plain_u) = (u, states.label(u), !rg.is_delegate(u));
                    }
                    if lu.src == NO_VERTEX || (plain_u && v < u && rg.owns(v) && !rg.is_delegate(v))
                    {
                        continue;
                    }
                    match states.label_if_held(v) {
                        // Both endpoints' states are local: evaluate here.
                        Some(lv) => record_candidate(&mut buckets, u, lu.src, lu.dist, v, lv, w),
                        // The reverse arc is probed or evaluated elsewhere.
                        None if !probes_cut_edge(rg, u, v) => {}
                        None => pusher.push(
                            partition.owner(v),
                            ProbeMsg::Candidate {
                                v,
                                u,
                                weight: w,
                                u_src: lu.src,
                                u_dist: lu.dist,
                            },
                        ),
                    }
                }
            }
            ProbeMsg::Candidate {
                v,
                u,
                weight,
                u_src,
                u_dist,
            } => record_candidate(&mut buckets, u, u_src, u_dist, v, states.label(v), weight),
        },
    );
    // Sized up front: growing by doubling briefly holds up to three
    // times the list, which showed in the process's peak RSS.
    let mut local = Vec::with_capacity(buckets.iter().map(Vec::len).sum());
    for (si, mut bucket) in buckets.into_iter().enumerate() {
        bucket.sort_unstable_by_key(|&(ti, _)| ti);
        local.extend(bucket.into_iter().map(|(ti, e)| ((si as u32, ti), e)));
    }
    (local, stats)
}

/// Whether this rank, holding `u` but not `v`, ships the probe for the cut
/// edge `{u, v}` (see the module docs): never for a delegate `u`, else
/// for exactly one orientation of the edge.
fn probes_cut_edge(rg: &RankGraph, u: Vertex, v: Vertex) -> bool {
    !rg.is_delegate(u) && (u < v) != ((u ^ v) & 1 == 1)
}

/// Offers the arc `(u, v)` of weight `w` as a bridge between `u`'s cell
/// `u_src` and `v`'s (a no-op when `v` is unreached or in the same cell).
fn record_candidate(
    buckets: &mut [Vec<(u32, MinEdge)>],
    u: Vertex,
    u_src: u32,
    u_dist: Distance,
    v: Vertex,
    lv: Label,
    w: Weight,
) {
    if lv.src == NO_VERTEX || lv.src == u_src {
        return;
    }
    // Orient the bridge from the smaller seed's cell.
    let (si, ti, a, b) = if u_src < lv.src {
        (u_src, lv.src, u, v)
    } else {
        (lv.src, u_src, v, u)
    };
    let cand = MinEdge {
        total: u_dist + w + lv.dist,
        a,
        b,
        weight: w,
    };
    let bucket = &mut buckets[si as usize];
    match bucket.iter_mut().find(|(t, _)| *t == ti) {
        Some((_, best)) => {
            if cand < *best {
                *best = cand;
            }
        }
        None => bucket.push((ti, cand)),
    }
}

/// Global phase: reduces the per-rank candidate lists to the cluster-wide
/// distance graph `G_1'`, as a sorted pair list. Collective.
pub fn global_min_edges(
    comm: &Comm,
    local: Vec<(PairKey, MinEdge)>,
    num_seeds: usize,
    mode: ReduceMode,
) -> Vec<(PairKey, MinEdge)> {
    // Fewer than two seeds means no cell pairs, hence an empty distance
    // graph. `num_seeds` is replicated on every rank, so all ranks take
    // this branch together and collective lockstep is preserved. (The
    // dense size below would underflow for `num_seeds == 0` otherwise —
    // solver entry points reject such seed sets, but this keeps the
    // collective layer total on its own.)
    if num_seeds < 2 {
        return Vec::new();
    }
    let ReduceMode::Dense { chunk } = mode;
    let len = num_seeds * (num_seeds - 1) / 2;
    comm.memory()
        .record("distance_graph_dense", len * std::mem::size_of::<MinEdge>());
    let mut buf = vec![MinEdge::UNSET; len];
    for ((si, ti), e) in local {
        buf[pair_offset(num_seeds, si, ti)] = e;
    }
    match chunk {
        Some(c) => {
            // The chunked exchange's bounded footprint gets its own
            // label, so the watermark separates the full-size local
            // buffer (above) from the one-chunk collective slot §V-F
            // actually bounds.
            let slot_bytes = c.min(len) * std::mem::size_of::<MinEdge>();
            comm.memory()
                .record("distance_graph_dense_slot", slot_bytes);
            comm.allreduce_chunked(&mut buf, c, min_combine);
            comm.memory()
                .release("distance_graph_dense_slot", slot_bytes);
        }
        None => comm.allreduce(&mut buf, min_combine),
    }
    let mut out = Vec::new();
    for si in 0..num_seeds as u32 {
        for ti in (si + 1)..num_seeds as u32 {
            let e = buf[pair_offset(num_seeds, si, ti)];
            if e.total != INF {
                out.push(((si, ti), e));
            }
        }
    }
    comm.memory()
        .release("distance_graph_dense", len * std::mem::size_of::<MinEdge>());
    out
}

fn min_combine(a: &mut MinEdge, b: &MinEdge) {
    if *b < *a {
        *a = *b;
    }
}

/// Offset of pair `(si, ti)`, `si < ti`, in the dense upper-triangular
/// buffer over `k` seeds.
pub fn pair_offset(k: usize, si: u32, ti: u32) -> usize {
    let (si, ti) = (si as usize, ti as usize);
    debug_assert!(si < ti && ti < k);
    si * (2 * k - si - 1) / 2 + (ti - si - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_one_side_probes_each_cut_edge() {
        let g = {
            let mut b = stgraph::builder::GraphBuilder::new(8);
            for u in 0..8u32 {
                for v in (u + 1)..8 {
                    b.add_edge(u, v, 1);
                }
            }
            b.build()
        };
        let pg = stgraph::partition::partition_graph(&g, 2, None);
        let (r0, r1) = (&pg.ranks[0], &pg.ranks[1]);
        let mut sends = [0usize; 2];
        for u in r0.owned.clone() {
            for v in r1.owned.clone() {
                let (a, b) = (probes_cut_edge(r0, u, v), probes_cut_edge(r1, v, u));
                assert!(a != b, "edge {{{u}, {v}}} must be probed from one side");
                sends[usize::from(b)] += 1;
            }
        }
        // Both directions carry probes (plain `u < v` would leave rank 1
        // sending none).
        assert_eq!(sends, [8, 8]);
        // A delegate endpoint never probes: its partner's owner holds the
        // replica and evaluates the reverse arc.
        let pg = stgraph::partition::partition_graph(&g, 2, Some(7));
        assert!((0..8).all(|u| (0..8).all(|v| !probes_cut_edge(&pg.ranks[0], u, v))));
    }

    #[test]
    fn pair_offsets_are_dense_and_unique() {
        let k = 7;
        let mut seen = vec![false; k * (k - 1) / 2];
        for si in 0..k as u32 {
            for ti in (si + 1)..k as u32 {
                let off = pair_offset(k, si, ti);
                assert!(!seen[off], "collision at ({si},{ti})");
                seen[off] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn global_min_edges_handles_degenerate_seed_counts() {
        // Regression: the dense size `k * (k - 1) / 2` underflowed (and
        // panicked) for k == 0. Both degenerate counts must return an
        // empty distance graph in every reduce mode.
        for num_seeds in [0usize, 1] {
            for chunk in [None, Some(4)] {
                let mode = ReduceMode::Dense { chunk };
                let out = struntime::World::run(2, move |comm| {
                    global_min_edges(comm, Vec::new(), num_seeds, mode)
                });
                for edges in &out.results {
                    assert!(edges.is_empty(), "k={num_seeds}, mode={mode:?}");
                }
            }
        }
    }

    #[test]
    fn chunked_dense_reduce_accounts_the_slot_separately() {
        // Satellite of the Dense doc fix: the chunked exchange charges
        // its bounded one-chunk footprint to its own label, distinct
        // from the full-size local buffer, and settles it afterwards.
        let out = struntime::World::run(2, |comm| {
            let local = vec![(
                (0u32, 3u32),
                MinEdge {
                    total: 9,
                    a: 8,
                    b: 9,
                    weight: 4,
                },
            )];
            let dg = global_min_edges(comm, local, 5, ReduceMode::Dense { chunk: Some(2) });
            (
                dg.len(),
                comm.memory().current("distance_graph_dense_slot"),
                comm.memory().peaks()["distance_graph_dense_slot"],
                comm.memory().peaks()["distance_graph_dense"],
            )
        });
        for &(len, current, slot_peak, dense_peak) in &out.results {
            assert_eq!(len, 1);
            assert_eq!(current, 0);
            assert_eq!(slot_peak, 2 * std::mem::size_of::<MinEdge>());
            assert_eq!(dense_peak, 10 * std::mem::size_of::<MinEdge>());
            assert!(slot_peak < dense_peak);
        }
    }

    #[test]
    fn min_edge_ordering_prefers_total_then_bridge() {
        let a = MinEdge {
            total: 5,
            a: 9,
            b: 9,
            weight: 1,
        };
        let b = MinEdge {
            total: 6,
            a: 0,
            b: 0,
            weight: 1,
        };
        assert!(a < b);
        let c = MinEdge {
            total: 5,
            a: 2,
            b: 9,
            weight: 3,
        };
        assert!(c < a);
        assert!(a < MinEdge::UNSET);
    }
}
