//! Full-scale closed-loop query benchmark for the distributed Steiner
//! solver.
//!
//! One client issues Steiner queries back to back against a graph that was
//! generated and partitioned once. Every query is a seed set drawn from the
//! workload seed. The benchmark times the calls into each module's public
//! functions from outside; it adds no instrumentation to the program. See
//! `README.md` next to this crate for the workloads, the metrics and the
//! layer → end-to-end table.

use std::time::{Duration, Instant};

use steiner::{SolveReport, SolverConfig};
use stgraph::csr::{CsrGraph, Distance, Vertex};
use stgraph::datasets::Dataset;
use stgraph::partition::{partition_graph, PartitionedGraph};
use stgraph::steiner_tree::SteinerTree;

/// Seed of the dataset analogue. The graph is the same for every workload
/// seed; only the query list depends on `--seed`.
pub const GRAPH_SEED: u64 = 20220530;

/// Distinct queries generated per run.
pub const QUERIES: usize = 100;

/// One benchmark workload: a dataset analogue, a seed count and a rank
/// count.
#[derive(Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The dataset analogue the graph is generated from.
    pub dataset: Dataset,
    /// Seeds (terminals) per query.
    pub num_seeds: usize,
    /// Simulated ranks the solver runs on.
    pub ranks: usize,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "frs-s100-p1",
        dataset: Dataset::Frs,
        num_seeds: 100,
        ranks: 1,
    },
    Workload {
        name: "frs-s100-p2",
        dataset: Dataset::Frs,
        num_seeds: 100,
        ranks: 2,
    },
    Workload {
        name: "lvj-s2000-p2",
        dataset: Dataset::Lvj,
        num_seeds: 2000,
        ranks: 2,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The solver configuration: the defaults, with only the rank count
    /// changed, so a change to a default is measured.
    pub fn config(&self) -> SolverConfig {
        SolverConfig {
            num_ranks: self.ranks,
            ..SolverConfig::default()
        }
    }

    /// The workload with the same graph and query list at another rank
    /// count, whose trees must have the same weights.
    pub fn twin(&self) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| {
            w.dataset == self.dataset && w.num_seeds == self.num_seeds && w.ranks != self.ranks
        })
    }
}

/// SplitMix64 finalizer: spreads a workload seed and a query index into
/// independent selection seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `seeds::select` RNG seed of query `i` under `workload_seed`.
pub fn query_seed(workload_seed: u64, i: usize) -> u64 {
    mix(mix(workload_seed) ^ i as u64)
}

/// The graph, its partition and the query list of one run, with the time
/// each step took.
pub struct Setup {
    /// The dataset analogue.
    pub graph: CsrGraph,
    /// `graph` split across the workload's ranks.
    pub pg: PartitionedGraph,
    /// The query seed sets, in issue order.
    pub queries: Vec<Vec<Vertex>>,
    /// Time in `Dataset::generate`.
    pub generate: Duration,
    /// Time in `partition_graph`.
    pub partition: Duration,
    /// Time in `seeds::select`, over all queries.
    pub select: Duration,
}

impl Setup {
    /// Generates the graph, partitions it and draws `num_queries` queries.
    pub fn new(w: &Workload, workload_seed: u64, num_queries: usize) -> Setup {
        let t = Instant::now();
        let graph = w.dataset.generate(GRAPH_SEED);
        let generate = t.elapsed();
        let t = Instant::now();
        let pg = partition_graph(&graph, w.ranks, w.config().delegate_threshold);
        let partition = t.elapsed();
        let t = Instant::now();
        let queries = (0..num_queries)
            .map(|i| {
                seeds::select(
                    &graph,
                    w.num_seeds,
                    seeds::Strategy::BfsLevel,
                    query_seed(workload_seed, i),
                )
            })
            .collect();
        let select = t.elapsed();
        Setup {
            graph,
            pg,
            queries,
            generate,
            partition,
            select,
        }
    }

    /// Total set-up time.
    pub fn total(&self) -> Duration {
        self.generate + self.partition + self.select
    }
}

/// The correctness gate for one solved query: the tree is a valid Steiner
/// tree of `g`, spans every seed of `query`, and weighs at most twice the
/// certified lower bound `lb`.
pub fn check_tree(
    g: &CsrGraph,
    query: &[Vertex],
    tree: &SteinerTree,
    lb: Distance,
) -> Result<(), String> {
    tree.validate(g)?;
    // `SteinerTree::vertices` includes the tree's own seed list, so a seed
    // the solver dropped would pass it: check against the edge endpoints.
    let mut spanned: Vec<Vertex> = tree.edges.iter().flat_map(|&(u, v, _)| [u, v]).collect();
    spanned.sort_unstable();
    if let Some(s) = query.iter().find(|s| spanned.binary_search(s).is_err()) {
        return Err(format!("seed {s} is not covered by the tree"));
    }
    let weight = tree.total_distance();
    if weight > 2 * lb {
        return Err(format!(
            "tree weight {weight} exceeds twice the lower bound {lb}"
        ));
    }
    Ok(())
}

/// The counters of one solve that the per-layer metrics read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    /// Relaxations enqueued by the Voronoi phase, local and remote.
    pub voronoi_pushes: u64,
    /// Voronoi relaxations dropped unvisited as stale, over all ranks.
    pub voronoi_stale_drops: u64,
    /// Edges in the reduced distance graph `G_1'`.
    pub distance_graph_edges: u64,
    /// Visitors pushed into a local queue, over all phases.
    pub local_msgs: u64,
    /// Visitors sent to a remote rank, over all phases.
    pub remote_msgs: u64,
    /// Payload bytes shipped remotely, over all phases.
    pub remote_bytes: u64,
    /// Aggregated network batches, over all phases.
    pub remote_batches: u64,
    /// Total weight of the tree.
    pub weight: Distance,
}

impl Counts {
    /// Reads the counters from a solve report.
    pub fn of(r: &SolveReport) -> Counts {
        let voronoi = r
            .message_counts
            .get(steiner::Phase::Voronoi.name())
            .map_or(0, |s| s.total_msgs());
        let mut c = Counts {
            voronoi_pushes: voronoi,
            voronoi_stale_drops: r.stale_drops.iter().sum(),
            distance_graph_edges: r.distance_graph_edges as u64,
            local_msgs: 0,
            remote_msgs: 0,
            remote_bytes: 0,
            remote_batches: 0,
            weight: r.tree.total_distance(),
        };
        for s in r.message_counts.values() {
            c.local_msgs += s.local_msgs;
            c.remote_msgs += s.remote_msgs;
            c.remote_bytes += s.remote_bytes;
            c.remote_batches += s.remote_batches;
        }
        c
    }
}

/// The `q`-quantile of `values` by linear interpolation between the two
/// nearest ranks (the default of NumPy and of Python's `statistics` in
/// "inclusive" mode). Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.9), 0.0);
    }

    #[test]
    fn query_seeds_differ_by_index_and_workload_seed() {
        assert_ne!(query_seed(1, 0), query_seed(1, 1));
        assert_ne!(query_seed(1, 0), query_seed(2, 0));
        assert_eq!(query_seed(3, 7), query_seed(3, 7));
    }

    #[test]
    fn frs_rows_are_twins() {
        let p1 = Workload::by_name("frs-s100-p1").unwrap();
        assert_eq!(p1.twin().unwrap().name, "frs-s100-p2");
        assert!(Workload::by_name("lvj-s2000-p2").unwrap().twin().is_none());
    }
}
