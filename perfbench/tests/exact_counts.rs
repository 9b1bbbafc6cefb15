//! The counts the benchmark reports for `frs-s100-p1` repeat exactly from
//! run to run, and the FRS rows agree on every tree weight.

use perfbench::{Counts, Setup, Workload};
use steiner::solve_partitioned;
use stgraph::partition::partition_graph;

const QUERIES: usize = 3;

#[test]
fn frs_p1_counts_and_weights_repeat_exactly() {
    let w = Workload::by_name("frs-s100-p1").unwrap();
    let cfg = w.config();
    // Two independent set-ups from the same workload seed: the inputs
    // themselves must repeat, not only the solver's output.
    let first = Setup::new(w, 11, QUERIES);
    let second = Setup::new(w, 11, QUERIES);
    assert_eq!(first.queries, second.queries);
    for (qi, query) in first.queries.iter().enumerate() {
        let a = Counts::of(&solve_partitioned(&first.pg, query, &cfg).unwrap());
        let b = Counts::of(&solve_partitioned(&second.pg, query, &cfg).unwrap());
        assert_eq!(a, b, "query {qi}: counts differ between runs");
        assert_eq!(
            a.remote_msgs, 0,
            "query {qi}: one rank sent a remote message"
        );
        assert!(a.voronoi_stale_drops < a.voronoi_pushes);
    }
}

#[test]
fn frs_rows_give_the_same_weights() {
    let p1 = Workload::by_name("frs-s100-p1").unwrap();
    let p2 = p1.twin().unwrap();
    let setup = Setup::new(p1, 12, QUERIES);
    let pg2 = partition_graph(&setup.graph, p2.ranks, p2.config().delegate_threshold);
    for (qi, query) in setup.queries.iter().enumerate() {
        let a = solve_partitioned(&setup.pg, query, &p1.config()).unwrap();
        let b = solve_partitioned(&pg2, query, &p2.config()).unwrap();
        assert_eq!(
            a.tree.total_distance(),
            b.tree.total_distance(),
            "query {qi}: 1-rank and 2-rank weights differ"
        );
    }
}
