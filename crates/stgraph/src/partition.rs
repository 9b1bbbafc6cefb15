//! Graph partitioning for the simulated distributed runtime.
//!
//! The paper's implementation partitions the data graph so that "partitions
//! have approximately equal share of vertices; each partition is assigned to
//! an MPI process" (§IV), and relies on HavoqGT's *vertex delegates* to
//! spread the edges of high-degree hub vertices across partitions — crucial
//! for load balance on scale-free graphs.
//!
//! [`BlockPartition`] is the owner map (contiguous, balanced vertex blocks).
//! [`partition_graph`] materializes per-rank subgraphs ([`RankGraph`]): each
//! rank stores the full adjacency of its owned non-delegate vertices plus a
//! round-robin slice of every delegate's adjacency.
//!
//! Each rank also records its *ghosts*: the targets of its local arcs
//! whose state lives on another rank (neither owned here nor a delegate).
//! They are the only vertices this rank ever sends a relaxation to, so
//! per-ghost tables (the Voronoi phase's sent-label cache) stay
//! proportional to the rank's cut, never to `|V|`.

use crate::csr::{CsrGraph, Vertex, Weight};
use std::ops::Range;
use std::sync::Arc;

/// Contiguous block partition of `n` vertices over `p` ranks. The first
/// `n % p` blocks get one extra vertex, so block sizes differ by at most 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockPartition {
    n: usize,
    p: usize,
}

impl BlockPartition {
    /// A partition of `n` vertices across `p >= 1` ranks.
    pub fn new(n: usize, p: usize) -> Self {
        assert!(p >= 1, "need at least one rank");
        BlockPartition { n, p }
    }

    /// Total vertex count.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.p
    }

    /// The rank owning vertex `v`.
    pub fn owner(&self, v: Vertex) -> usize {
        let v = v as usize;
        debug_assert!(v < self.n);
        let base = self.n / self.p;
        let extra = self.n % self.p;
        // Ranks 0..extra own (base+1) vertices each; the rest own base.
        let boundary = extra * (base + 1);
        if v < boundary {
            v / (base + 1)
        } else {
            // When base == 0 every vertex is below `boundary` (= n), so
            // this division is reached only with base >= 1.
            debug_assert!(base >= 1);
            extra + (v - boundary) / base
        }
    }

    /// The half-open vertex range owned by `rank`.
    pub fn range(&self, rank: usize) -> Range<Vertex> {
        assert!(rank < self.p);
        let base = self.n / self.p;
        let extra = self.n % self.p;
        let lo = if rank <= extra {
            rank * (base + 1)
        } else {
            extra * (base + 1) + (rank - extra) * base
        };
        let len = if rank < extra { base + 1 } else { base };
        (lo as Vertex)..((lo + len) as Vertex)
    }
}

/// Per-rank share of the distributed graph.
#[derive(Clone, Debug)]
pub struct RankGraph {
    /// This rank's id.
    pub rank: usize,
    /// Vertices owned by this rank.
    pub owned: Range<Vertex>,
    /// Sorted global list of delegate (high-degree) vertices, shared by all
    /// ranks.
    pub delegates: Arc<Vec<Vertex>>,
    // CSR over owned vertices. Owned delegates have an empty adjacency here;
    // their edges live in the per-rank delegate slices instead.
    offsets: Vec<u64>,
    targets: Vec<Vertex>,
    weights: Vec<Weight>,
    // This rank's round-robin share of every delegate's adjacency, in
    // delegate-list order (parallel to `delegates`).
    delegate_slices: Vec<Vec<(Vertex, Weight)>>,
    // Sorted, deduplicated targets of local arcs whose state is remote.
    ghosts: Vec<Vertex>,
}

impl RankGraph {
    /// Builds a rank subgraph from arcs gathered at runtime — the
    /// constructor used by distributed ingestion (`steiner::kernels`),
    /// where each rank receives its owned vertices' arcs over the network
    /// instead of slicing a resident [`CsrGraph`].
    ///
    /// `owned_arcs` holds arcs whose source this rank owns (delegate
    /// sources excluded); `delegate_arcs[i]` is this rank's share of
    /// `delegates[i]`'s adjacency. Arcs may arrive in any order.
    pub fn from_arcs(
        rank: usize,
        owned: Range<Vertex>,
        delegates: Arc<Vec<Vertex>>,
        mut owned_arcs: Vec<(Vertex, Vertex, Weight)>,
        delegate_arcs: Vec<Vec<(Vertex, Weight)>>,
    ) -> Self {
        assert_eq!(delegate_arcs.len(), delegates.len());
        owned_arcs.sort_unstable();
        // Parallel arcs keep the minimum weight, like `GraphBuilder`.
        owned_arcs.dedup_by(|next, prev| next.0 == prev.0 && next.1 == prev.1);
        let num_owned = (owned.end - owned.start) as usize;
        let mut offsets = vec![0u64; num_owned + 1];
        for &(u, _, _) in &owned_arcs {
            assert!(
                owned.contains(&u) && delegates.binary_search(&u).is_err(),
                "arc source {u} does not belong in rank {rank}'s owned storage"
            );
            offsets[(u - owned.start) as usize + 1] += 1;
        }
        for i in 0..num_owned {
            offsets[i + 1] += offsets[i];
        }
        let mut targets = Vec::with_capacity(owned_arcs.len());
        let mut weights = Vec::with_capacity(owned_arcs.len());
        for (_, v, w) in owned_arcs {
            targets.push(v);
            weights.push(w);
        }
        RankGraph::assemble(
            rank,
            owned,
            delegates,
            offsets,
            targets,
            weights,
            delegate_arcs,
        )
    }

    /// Builds the struct from its storage and derives the ghost list —
    /// the one place both constructors meet, so they cannot disagree.
    fn assemble(
        rank: usize,
        owned: Range<Vertex>,
        delegates: Arc<Vec<Vertex>>,
        offsets: Vec<u64>,
        targets: Vec<Vertex>,
        weights: Vec<Weight>,
        delegate_slices: Vec<Vec<(Vertex, Weight)>>,
    ) -> Self {
        let mut rg = RankGraph {
            rank,
            owned,
            delegates,
            offsets,
            targets,
            weights,
            delegate_slices,
            ghosts: Vec::new(),
        };
        let mut ghosts: Vec<Vertex> = rg
            .targets
            .iter()
            .copied()
            .chain(rg.delegate_slices.iter().flatten().map(|&(v, _)| v))
            .filter(|&v| !rg.owns(v) && !rg.is_delegate(v))
            .collect();
        ghosts.sort_unstable();
        ghosts.dedup();
        rg.ghosts = ghosts;
        rg
    }

    /// Whether this rank owns vertex `v`.
    #[inline]
    pub fn owns(&self, v: Vertex) -> bool {
        self.owned.contains(&v)
    }

    /// Number of owned vertices.
    #[inline]
    pub fn num_owned(&self) -> usize {
        (self.owned.end - self.owned.start) as usize
    }

    /// Whether `v` is a delegate (replicated hub) vertex.
    #[inline]
    pub fn is_delegate(&self, v: Vertex) -> bool {
        self.delegates.binary_search(&v).is_ok()
    }

    fn delegate_index(&self, v: Vertex) -> Option<usize> {
        self.delegates.binary_search(&v).ok()
    }

    /// Adjacency of an owned, non-delegate vertex `v`.
    ///
    /// Panics if `v` is not owned; returns an empty slice pair for an owned
    /// delegate (its edges are in the delegate slices).
    pub fn adj(&self, v: Vertex) -> impl Iterator<Item = (Vertex, Weight)> + '_ {
        assert!(self.owns(v), "rank {} does not own {v}", self.rank);
        let i = (v - self.owned.start) as usize;
        let r = self.offsets[i] as usize..self.offsets[i + 1] as usize;
        self.targets[r.clone()]
            .iter()
            .copied()
            .zip(self.weights[r].iter().copied())
    }

    /// This rank's slice of delegate `v`'s adjacency (empty if this rank
    /// received no share). Panics if `v` is not a delegate.
    pub fn delegate_slice(&self, v: Vertex) -> &[(Vertex, Weight)] {
        let i = self
            .delegate_index(v)
            .unwrap_or_else(|| panic!("{v} is not a delegate"));
        &self.delegate_slices[i]
    }

    /// Sorted targets of local arcs whose state this rank does not hold
    /// (not owned, not a delegate): every vertex this rank may relax
    /// remotely.
    pub fn ghosts(&self) -> &[Vertex] {
        &self.ghosts
    }

    /// Position of `v` in [`RankGraph::ghosts`], or `None` if `v` is not
    /// a ghost of this rank.
    #[inline]
    pub fn ghost_index(&self, v: Vertex) -> Option<usize> {
        self.ghosts.binary_search(&v).ok()
    }

    /// Number of arcs stored locally (owned adjacency + delegate slices).
    pub fn num_local_arcs(&self) -> usize {
        self.targets.len() + self.delegate_slices.iter().map(|s| s.len()).sum::<usize>()
    }

    /// Approximate local memory footprint in bytes (Fig 8 "graph" series).
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
            + self.targets.len() * std::mem::size_of::<Vertex>()
            + self.weights.len() * std::mem::size_of::<Weight>()
            + self
                .delegate_slices
                .iter()
                .map(|s| s.len() * std::mem::size_of::<(Vertex, Weight)>())
                .sum::<usize>()
            + self.ghosts.len() * std::mem::size_of::<Vertex>()
    }

    /// Iterator over every arc `(u, v, w)` stored on this rank — owned
    /// adjacency plus delegate slices. Used by the edge-centric
    /// min-distance-edge phase (Alg 5), which scans "every (u, v) ∈ E local
    /// to a partition".
    pub fn local_arcs(&self) -> impl Iterator<Item = (Vertex, Vertex, Weight)> + '_ {
        let owned = self
            .owned
            .clone()
            .filter(move |&v| !self.is_delegate(v))
            .flat_map(move |u| self.adj(u).map(move |(v, w)| (u, v, w)));
        let delegated =
            self.delegates.iter().enumerate().flat_map(move |(i, &d)| {
                self.delegate_slices[i].iter().map(move |&(v, w)| (d, v, w))
            });
        owned.chain(delegated)
    }
}

/// Distributed view of a graph: the owner map plus every rank's subgraph.
#[derive(Clone, Debug)]
pub struct PartitionedGraph {
    /// The owner map.
    pub partition: BlockPartition,
    /// Per-rank subgraphs, indexed by rank.
    pub ranks: Vec<RankGraph>,
    /// Sorted global delegate list.
    pub delegates: Arc<Vec<Vertex>>,
}

/// Splits `g` into `p` rank subgraphs. Vertices with degree at least
/// `delegate_threshold` (if given) become *delegates*: their adjacency is
/// dealt round-robin across all ranks, mirroring HavoqGT's vertex-cut
/// treatment of scale-free hubs. `None` disables delegation.
pub fn partition_graph(
    g: &CsrGraph,
    p: usize,
    delegate_threshold: Option<usize>,
) -> PartitionedGraph {
    let n = g.num_vertices();
    let partition = BlockPartition::new(n, p);

    let mut delegates: Vec<Vertex> = match delegate_threshold {
        Some(t) => g.vertices().filter(|&v| g.degree(v) >= t).collect(),
        None => Vec::new(),
    };
    delegates.sort_unstable();
    let delegates = Arc::new(delegates);

    let mut ranks = Vec::with_capacity(p);
    for rank in 0..p {
        let owned = partition.range(rank);
        let num_owned = (owned.end - owned.start) as usize;
        let mut offsets = Vec::with_capacity(num_owned + 1);
        let mut targets = Vec::new();
        let mut weights = Vec::new();
        offsets.push(0u64);
        for v in owned.clone() {
            if delegates.binary_search(&v).is_err() {
                for (t, w) in g.edges(v) {
                    targets.push(t);
                    weights.push(w);
                }
            }
            offsets.push(targets.len() as u64);
        }
        // Round-robin share of each delegate's arcs.
        let delegate_slices = delegates
            .iter()
            .map(|&d| {
                g.edges(d)
                    .enumerate()
                    .filter(|(i, _)| i % p == rank)
                    .map(|(_, e)| e)
                    .collect::<Vec<_>>()
            })
            .collect();
        ranks.push(RankGraph::assemble(
            rank,
            owned,
            Arc::clone(&delegates),
            offsets,
            targets,
            weights,
            delegate_slices,
        ));
    }
    PartitionedGraph {
        partition,
        ranks,
        delegates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators;

    fn star_graph(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for (u, v) in generators::star(n) {
            b.add_edge(u, v, 1);
        }
        b.build()
    }

    #[test]
    fn block_partition_balanced() {
        let p = BlockPartition::new(10, 3);
        assert_eq!(p.range(0), 0..4);
        assert_eq!(p.range(1), 4..7);
        assert_eq!(p.range(2), 7..10);
        for v in 0..10u32 {
            let o = p.owner(v);
            assert!(p.range(o).contains(&v), "owner({v}) = {o} inconsistent");
        }
    }

    #[test]
    fn block_partition_even_split() {
        let p = BlockPartition::new(8, 4);
        for r in 0..4 {
            assert_eq!(p.range(r).len(), 2);
        }
    }

    #[test]
    fn block_partition_single_rank() {
        let p = BlockPartition::new(5, 1);
        assert_eq!(p.range(0), 0..5);
        assert_eq!(p.owner(4), 0);
    }

    #[test]
    fn all_arcs_covered_without_delegates() {
        let g = star_graph(9);
        let pg = partition_graph(&g, 4, None);
        let total: usize = pg.ranks.iter().map(|r| r.num_local_arcs()).sum();
        assert_eq!(total, g.num_arcs());
    }

    #[test]
    fn all_arcs_covered_with_delegates() {
        let g = star_graph(9);
        // Center vertex 0 has degree 8 -> becomes a delegate.
        let pg = partition_graph(&g, 4, Some(5));
        assert_eq!(pg.delegates.as_slice(), &[0]);
        let total: usize = pg.ranks.iter().map(|r| r.num_local_arcs()).sum();
        assert_eq!(total, g.num_arcs());
        // The hub's arcs are spread across all ranks.
        for r in &pg.ranks {
            assert_eq!(r.delegate_slice(0).len(), 2);
        }
    }

    #[test]
    fn delegate_has_empty_owned_adjacency() {
        let g = star_graph(9);
        let pg = partition_graph(&g, 2, Some(5));
        let owner = pg.partition.owner(0);
        let rg = &pg.ranks[owner];
        assert_eq!(rg.adj(0).count(), 0);
    }

    #[test]
    fn local_arcs_match_global() {
        let g = star_graph(7);
        let pg = partition_graph(&g, 3, Some(4));
        let mut local: Vec<_> = pg
            .ranks
            .iter()
            .flat_map(|r| r.local_arcs().collect::<Vec<_>>())
            .collect();
        local.sort_unstable();
        let mut global: Vec<_> = g.arcs().collect();
        global.sort_unstable();
        assert_eq!(local, global);
    }

    #[test]
    fn more_ranks_than_vertices() {
        let g = star_graph(3);
        let pg = partition_graph(&g, 8, None);
        let total: usize = pg.ranks.iter().map(|r| r.num_local_arcs()).sum();
        assert_eq!(total, g.num_arcs());
        for v in 0..3u32 {
            let o = pg.partition.owner(v);
            assert!(pg.ranks[o].owns(v));
        }
    }

    /// The same rank subgraphs rebuilt through `from_arcs`, fed the arcs
    /// in reverse order (ingestion delivers them in any order).
    fn via_from_arcs(g: &CsrGraph, pg: &PartitionedGraph) -> Vec<RankGraph> {
        let p = pg.ranks.len();
        (0..p)
            .map(|rank| {
                let owned = pg.partition.range(rank);
                let mut owned_arcs: Vec<_> = owned
                    .clone()
                    .filter(|v| pg.delegates.binary_search(v).is_err())
                    .flat_map(|u| g.edges(u).map(move |(v, w)| (u, v, w)))
                    .collect();
                owned_arcs.reverse();
                let delegate_arcs = pg
                    .delegates
                    .iter()
                    .map(|&d| {
                        g.edges(d)
                            .enumerate()
                            .filter(|(i, _)| i % p == rank)
                            .map(|(_, e)| e)
                            .collect()
                    })
                    .collect();
                RankGraph::from_arcs(
                    rank,
                    owned,
                    Arc::clone(&pg.delegates),
                    owned_arcs,
                    delegate_arcs,
                )
            })
            .collect()
    }

    #[test]
    fn both_constructors_build_identical_ghost_lists() {
        // A star with a ring around its rim: the hub is a delegate at
        // threshold 5, the rim arcs cross every rank boundary.
        let n = 13;
        let mut b = GraphBuilder::new(n);
        for (u, v) in generators::star(n) {
            b.add_edge(u, v, 1);
        }
        for v in 1..n as Vertex {
            b.add_edge(v, 1 + v % (n as Vertex - 1), 2);
        }
        let g = b.build();
        for threshold in [None, Some(5)] {
            for p in [1, 2, 3, 4] {
                let pg = partition_graph(&g, p, threshold);
                let rebuilt = via_from_arcs(&g, &pg);
                for (rg, other) in pg.ranks.iter().zip(&rebuilt) {
                    let mut expected: Vec<Vertex> = rg
                        .local_arcs()
                        .map(|(_, v, _)| v)
                        .filter(|&v| !rg.owns(v) && !rg.is_delegate(v))
                        .collect();
                    expected.sort_unstable();
                    expected.dedup();
                    assert_eq!(rg.ghosts(), expected.as_slice(), "p={p} {threshold:?}");
                    assert_eq!(other.ghosts(), rg.ghosts(), "p={p} {threshold:?}");
                    assert_eq!(other.memory_bytes(), rg.memory_bytes());
                    for (i, &v) in rg.ghosts().iter().enumerate() {
                        assert_eq!(rg.ghost_index(v), Some(i));
                    }
                }
                if p == 1 {
                    assert!(
                        pg.ranks[0].ghosts().is_empty(),
                        "one rank holds every state"
                    );
                }
            }
        }
        // With the hub delegated, no rank lists it as a ghost.
        let pg = partition_graph(&g, 3, Some(5));
        assert!(pg.ranks.iter().all(|r| r.ghost_index(0).is_none()));
    }

    #[test]
    fn memory_bytes_counts_the_ghost_list() {
        let g = star_graph(9);
        let rg = &partition_graph(&g, 2, None).ranks[1];
        assert_eq!(rg.ghosts(), &[0]);
        let storage = rg.offsets.len() * std::mem::size_of::<u64>()
            + rg.targets.len() * std::mem::size_of::<Vertex>()
            + rg.weights.len() * std::mem::size_of::<Weight>();
        assert_eq!(rg.memory_bytes(), storage + std::mem::size_of::<Vertex>());
    }
}
