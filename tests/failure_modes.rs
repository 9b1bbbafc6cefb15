//! Failure-mode consistency: every solver in the suite reports the same
//! class of error for the same bad input.

use baselines::{dreyfus_wagner, kmb, mehlhorn, www};
use steiner::{solve, SolverConfig};
use stgraph::error::SteinerError;
use stgraph::GraphBuilder;

fn two_islands() -> stgraph::CsrGraph {
    let mut b = GraphBuilder::new(6);
    b.extend_edges([(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1)]);
    b.build()
}

#[test]
fn disconnected_seeds_rejected_everywhere() {
    let g = two_islands();
    let seeds = [0u32, 5];
    let cfg = SolverConfig {
        num_ranks: 2,
        ..SolverConfig::default()
    };
    assert!(matches!(
        kmb(&g, &seeds),
        Err(SteinerError::SeedsDisconnected(_, _))
    ));
    assert!(matches!(
        www(&g, &seeds),
        Err(SteinerError::SeedsDisconnected(_, _))
    ));
    assert!(matches!(
        mehlhorn(&g, &seeds),
        Err(SteinerError::SeedsDisconnected(_, _))
    ));
    assert!(matches!(
        dreyfus_wagner(&g, &seeds),
        Err(SteinerError::SeedsDisconnected(_, _))
    ));
    assert!(matches!(
        solve(&g, &seeds, &cfg),
        Err(SteinerError::SeedsDisconnected(_, _))
    ));
}

#[test]
fn empty_seed_set_rejected_everywhere() {
    let g = two_islands();
    let cfg = SolverConfig {
        num_ranks: 2,
        ..SolverConfig::default()
    };
    assert_eq!(kmb(&g, &[]), Err(SteinerError::NoSeeds));
    assert_eq!(www(&g, &[]), Err(SteinerError::NoSeeds));
    assert_eq!(mehlhorn(&g, &[]), Err(SteinerError::NoSeeds));
    assert_eq!(dreyfus_wagner(&g, &[]), Err(SteinerError::NoSeeds));
    assert!(matches!(solve(&g, &[], &cfg), Err(SteinerError::NoSeeds)));
}

#[test]
fn out_of_range_seed_rejected_everywhere() {
    let g = two_islands();
    let bad = [0u32, 42];
    let cfg = SolverConfig {
        num_ranks: 2,
        ..SolverConfig::default()
    };
    assert_eq!(kmb(&g, &bad), Err(SteinerError::SeedOutOfRange(42)));
    assert_eq!(www(&g, &bad), Err(SteinerError::SeedOutOfRange(42)));
    assert_eq!(mehlhorn(&g, &bad), Err(SteinerError::SeedOutOfRange(42)));
    assert_eq!(
        dreyfus_wagner(&g, &bad),
        Err(SteinerError::SeedOutOfRange(42))
    );
    assert!(matches!(
        solve(&g, &bad, &cfg),
        Err(SteinerError::SeedOutOfRange(42))
    ));
}

#[test]
fn single_seed_handling_is_consistent() {
    let g = two_islands();
    let cfg = SolverConfig {
        num_ranks: 2,
        ..SolverConfig::default()
    };
    // The sequential baselines return the degenerate empty tree; the
    // distributed solver rejects the instance up front with a structured
    // error (a one-vertex "tree" carries no information, and rejecting
    // avoids running the six-phase pipeline over an empty pair set).
    assert_eq!(kmb(&g, &[1]).unwrap().num_edges(), 0);
    assert_eq!(www(&g, &[1]).unwrap().num_edges(), 0);
    assert_eq!(mehlhorn(&g, &[1]).unwrap().num_edges(), 0);
    assert_eq!(dreyfus_wagner(&g, &[1]).unwrap().num_edges(), 0);
    assert!(matches!(
        solve(&g, &[1], &cfg),
        Err(SteinerError::TooFewSeeds { got: 1 })
    ));
    // Duplicates of one vertex are still a single distinct seed.
    assert!(matches!(
        solve(&g, &[1, 1, 1], &cfg),
        Err(SteinerError::TooFewSeeds { got: 1 })
    ));
}

#[test]
fn exact_refuses_oversized_instances() {
    let mut b = GraphBuilder::new(40);
    for i in 0..39u32 {
        b.add_edge(i, i + 1, 1);
    }
    let g = b.build();
    let seeds: Vec<u32> = (0..30).collect();
    assert!(matches!(
        dreyfus_wagner(&g, &seeds),
        Err(SteinerError::ExactTooLarge { .. })
    ));
    // The approximations handle the same instance fine.
    assert!(mehlhorn(&g, &seeds).is_ok());
}

#[test]
fn seeds_in_same_component_of_disconnected_graph_work() {
    let g = two_islands();
    let cfg = SolverConfig {
        num_ranks: 3,
        ..SolverConfig::default()
    };
    let t = solve(&g, &[3, 5], &cfg).unwrap().tree;
    assert_eq!(t.total_distance(), 2);
    assert!(t.validate(&g).is_ok());
}

#[test]
fn error_messages_are_informative() {
    assert!(SteinerError::NoSeeds.to_string().contains("no seed"));
    assert!(SteinerError::SeedsDisconnected(3, 9)
        .to_string()
        .contains("3 and 9"));
    assert!(SteinerError::SeedOutOfRange(7).to_string().contains('7'));
    let msg = SteinerError::TooFewSeeds { got: 1 }.to_string();
    assert!(msg.contains("at least 2") && msg.contains('1'), "{msg}");
    assert!(SteinerError::ExactTooLarge { states: 1 << 40 }
        .to_string()
        .contains("DP states"));
}

#[test]
fn disconnected_error_names_seeds_in_different_components() {
    // Islands {0, 1, 6, 7} and {2, 3, 4, 5}. The first and last seeds
    // (0 and 6) share an island, so the pair the error names must not be
    // them: it is seed 0 and the smallest seed cut off from it.
    let mut b = GraphBuilder::new(8);
    b.extend_edges([
        (0, 1, 1),
        (1, 7, 2),
        (7, 6, 1),
        (2, 3, 1),
        (3, 4, 1),
        (4, 5, 3),
    ]);
    let g = b.build();
    for num_ranks in [1, 2, 4] {
        for mst_mode in [steiner::MstMode::Replicated, steiner::MstMode::Dist] {
            let cfg = SolverConfig {
                num_ranks,
                mst_mode,
                ..SolverConfig::default()
            };
            assert_eq!(
                solve(&g, &[6, 3, 0], &cfg).unwrap_err(),
                SteinerError::SeedsDisconnected(0, 3),
                "p={num_ranks} {mst_mode:?}"
            );
        }
    }
}
