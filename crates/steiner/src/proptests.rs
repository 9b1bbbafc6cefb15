//! Property-based tests of the distributed solver against the sequential
//! references and the theoretical bound.

use crate::{solve, QueueKind, SolverConfig};
use baselines::exact::dreyfus_wagner;
use baselines::mehlhorn::mehlhorn;
use baselines::shortest_path::voronoi_cells;
use proptest::prelude::*;
use stgraph::builder::GraphBuilder;
use stgraph::csr::{CsrGraph, Vertex};
use stgraph::partition::partition_graph;
use struntime::World;

/// Strategy: a connected weighted graph (random spanning tree plus extra
/// edges) with a seed subset — same shape as the baselines' proptests.
fn arb_connected_instance(
    max_n: usize,
    max_extra: usize,
    max_seeds: usize,
) -> impl Strategy<Value = (CsrGraph, Vec<Vertex>)> {
    (3..max_n).prop_flat_map(move |n| {
        let tree_weights = proptest::collection::vec(1..50u64, n - 1);
        let tree_parents: Vec<_> = (1..n).map(|v| 0..v).collect();
        let extras =
            proptest::collection::vec((0..n as Vertex, 0..n as Vertex, 1..50u64), 0..max_extra);
        let num_seeds = 2..max_seeds.min(n);
        (tree_weights, tree_parents, extras, num_seeds).prop_flat_map(move |(tw, tp, extras, k)| {
            let mut b = GraphBuilder::new(n);
            for (v, (&w, &p)) in tw.iter().zip(tp.iter()).enumerate() {
                b.add_edge((v + 1) as Vertex, p as Vertex, w);
            }
            for (u, v, w) in extras {
                if u != v {
                    b.add_edge(u, v, w);
                }
            }
            let g = b.build();
            proptest::collection::hash_set(0..n as Vertex, k).prop_map(move |seeds| {
                let mut seeds: Vec<Vertex> = seeds.into_iter().collect();
                seeds.sort_unstable();
                (g.clone(), seeds)
            })
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The solver's delta heuristic mirrors the sequential baseline's
    /// `default_delta` — both are the mean edge weight, floored at 1 — so
    /// `--queue bucketed:auto` and the delta-stepping baseline bucket on
    /// the same granularity.
    #[test]
    fn auto_delta_matches_baseline_heuristic(
        (g, _) in arb_connected_instance(16, 24, 4),
    ) {
        prop_assert_eq!(crate::auto_delta(&g), baselines::delta_stepping::default_delta(&g));
        prop_assert!(crate::auto_delta(&g) >= 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Crash-stop recovery is deterministic: a seeded rank death in every
    /// phase, at ranks {2, 4} and under fifo/priority/bucketed queues,
    /// restores from the last complete phase checkpoint and recovers a
    /// tree bit-identical to the undisturbed solve — with exactly one
    /// injected crash and one restore. The no-checkpoint mutant of the
    /// same plan must instead surface the structured unrecoverable error,
    /// never a wrong tree or a hang.
    #[test]
    fn crash_recovery_is_bit_identical_across_phases(
        (g, seeds) in arb_connected_instance(12, 14, 4),
    ) {
        use crate::{FaultPlan, Phase};
        for p in [2usize, 4] {
            for queue in [
                QueueKind::Fifo,
                QueueKind::Priority,
                QueueKind::Bucketed { delta: crate::auto_delta(&g) },
            ] {
                let base = SolverConfig { num_ranks: p, queue, ..SolverConfig::default() };
                let reference = solve(&g, &seeds, &base).unwrap();
                for phase in Phase::ALL {
                    let plan = FaultPlan::from_spec(&format!(
                        "crash_rank=1,crash_at_sync=1,crash_phase={},seed=19",
                        phase.index()
                    )).unwrap();
                    let r = solve(&g, &seeds, &SolverConfig {
                        faults: Some(plan),
                        ..base
                    }).unwrap();
                    prop_assert_eq!(&r.tree, &reference.tree,
                        "recovered tree differs at p={} queue={:?} crash in {}",
                        p, queue, phase.name());
                    prop_assert_eq!(r.recovery.crashes_injected, 1,
                        "no crash fired at p={} queue={:?} phase {}", p, queue, phase.name());
                    prop_assert_eq!(r.recovery.restores, 1,
                        "expected one restore at p={} queue={:?} phase {}", p, queue, phase.name());
                }
                let plan = FaultPlan::from_spec("crash_rank=1,crash_at_sync=1,seed=19").unwrap();
                let mutant = solve(&g, &seeds, &SolverConfig {
                    faults: Some(plan),
                    checkpoints: false,
                    ..base
                });
                prop_assert!(
                    matches!(mutant, Err(stgraph::error::SteinerError::Unrecoverable { .. })),
                    "no-checkpoint mutant at p={} queue={:?} returned {:?}",
                    p, queue, mutant.map(|r| r.tree.total_distance()));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The distributed Borůvka pipeline (`--mst dist`) is pinned
    /// bit-identical to the replicated Prim path across rank counts
    /// {1, 2, 4} × fifo/priority/bucketed queues, fault-free and under
    /// message faults and a seeded crash-stop — the (total, si, ti)
    /// tie-breaking and the reliability/recovery machinery must never
    /// let the two pipelines disagree on a tree.
    #[test]
    fn dist_mst_is_bit_identical_to_replicated(
        (g, seeds) in arb_connected_instance(12, 14, 5),
    ) {
        use crate::{FaultPlan, MstMode};
        let fault_plans = [
            None,
            Some(FaultPlan::from_spec("drop=0.15,dup=0.1,seed=23").unwrap()),
            Some(FaultPlan::from_spec(
                "crash_rank=1,crash_at_sync=1,crash_phase=2,seed=31",
            ).unwrap()),
        ];
        for p in [1usize, 2, 4] {
            for queue in [
                QueueKind::Fifo,
                QueueKind::Priority,
                QueueKind::Bucketed { delta: crate::auto_delta(&g) },
            ] {
                let reference = solve(&g, &seeds, &SolverConfig {
                    num_ranks: p, queue, ..SolverConfig::default()
                }).unwrap();
                for plan in fault_plans {
                    let r = solve(&g, &seeds, &SolverConfig {
                        num_ranks: p,
                        queue,
                        mst_mode: MstMode::Dist,
                        faults: plan,
                        ..SolverConfig::default()
                    }).unwrap();
                    prop_assert_eq!(&r.tree, &reference.tree,
                        "dist tree differs at p={} queue={:?} faults={:?}",
                        p, queue, plan.map(|pl| pl.to_spec()));
                    let stats = r.boruvka.expect("dist solve reports rounds");
                    prop_assert_eq!(stats.components.last(), Some(&1),
                        "rounds did not converge at p={} queue={:?}", p, queue);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The distributed solve is a valid tree within the 2(1-1/|S|) bound.
    #[test]
    fn distributed_respects_bound(
        (g, seeds) in arb_connected_instance(14, 20, 6),
        p in 1usize..5,
        queue in prop_oneof![Just(QueueKind::Fifo), Just(QueueKind::Priority)],
    ) {
        let cfg = SolverConfig { num_ranks: p, queue, ..SolverConfig::default() };
        let report = solve(&g, &seeds, &cfg).unwrap();
        prop_assert!(report.tree.validate(&g).is_ok(), "{:?}", report.tree.validate(&g));
        let opt = dreyfus_wagner(&g, &seeds).unwrap().total_distance();
        let bound = 2.0 * (1.0 - 1.0 / seeds.len() as f64) * opt as f64 + 1e-9;
        prop_assert!(report.tree.total_distance() as f64 <= bound,
            "distributed {} > bound {bound} (opt {opt})", report.tree.total_distance());
    }

    /// Rank count, queue discipline, and delegation never change the tree:
    /// the (dist, src, pred) fixpoint is deterministic, and so is the
    /// distance graph built from it.
    #[test]
    fn solver_is_configuration_invariant(
        (g, seeds) in arb_connected_instance(16, 20, 5),
        thresh in proptest::option::of(2usize..8),
    ) {
        let reference = solve(&g, &seeds, &SolverConfig {
            num_ranks: 1, ..SolverConfig::default()
        }).unwrap();
        for p in [2usize, 4] {
            for queue in [QueueKind::Fifo, QueueKind::Priority] {
                let cfg = SolverConfig {
                    num_ranks: p,
                    queue,
                    delegate_threshold: thresh,
                    ..SolverConfig::default()
                };
                let r = solve(&g, &seeds, &cfg).unwrap();
                prop_assert_eq!(&r.tree, &reference.tree,
                    "differs at p={} queue={:?} thresh={:?}", p, queue, thresh);
                // Every cut edge is evaluated by exactly one side (probe or
                // local replica), so no cell pair is lost or invented.
                prop_assert_eq!(r.distance_graph_edges, reference.distance_graph_edges,
                    "distance graph differs at p={} queue={:?} thresh={:?}", p, queue, thresh);
            }
        }
    }

    /// Satellite of the adversarial-queue seed fix: every queue discipline
    /// — including adversarial reordering with an arbitrary seed — yields
    /// the same Steiner tree at every rank count. Before the seed-mixing
    /// fix, adjacent adversarial seeds collapsed to near-identical
    /// schedules, so this family of schedules was barely explored.
    #[test]
    fn queue_disciplines_agree_across_rank_counts(
        (g, seeds) in arb_connected_instance(14, 16, 5),
        chaos_seed in 0..u64::MAX,
        delta in 1..80u64,
    ) {
        let reference = solve(&g, &seeds, &SolverConfig {
            num_ranks: 1, ..SolverConfig::default()
        }).unwrap();
        for p in [1usize, 2, 4] {
            for queue in [
                QueueKind::Fifo,
                QueueKind::Priority,
                QueueKind::Adversarial { seed: chaos_seed },
                QueueKind::Bucketed { delta },
                QueueKind::Bucketed { delta: crate::auto_delta(&g) },
            ] {
                let cfg = SolverConfig { num_ranks: p, queue, ..SolverConfig::default() };
                let r = solve(&g, &seeds, &cfg).unwrap();
                prop_assert_eq!(&r.tree, &reference.tree,
                    "differs at p={} queue={:?}", p, queue);
            }
        }
    }

    /// Observation never perturbs the result: with telemetry sampling at
    /// the most aggressive cadence (every visit), the tree and the
    /// deterministic derived outputs (distance-graph size, fault
    /// counters) are bit-identical to the telemetry-off run at every
    /// rank count and queue discipline. Per-rank visit counts stay out
    /// of the comparison — they are schedule-dependent between any two
    /// runs of the asynchronous runtime, telemetry or not (the same
    /// reason bench-guard carries generous visit tolerances).
    #[test]
    fn telemetry_on_and_off_solves_are_bit_identical(
        (g, seeds) in arb_connected_instance(14, 16, 5),
        chaos_seed in 0..u64::MAX,
    ) {
        use crate::TelemetryConfig;
        for p in [1usize, 2, 4] {
            for queue in [
                QueueKind::Fifo,
                QueueKind::Priority,
                QueueKind::Adversarial { seed: chaos_seed },
                QueueKind::Bucketed { delta: crate::auto_delta(&g) },
            ] {
                let base = SolverConfig { num_ranks: p, queue, ..SolverConfig::default() };
                let off = solve(&g, &seeds, &base).unwrap();
                let on = solve(&g, &seeds, &SolverConfig {
                    telemetry: TelemetryConfig::Ring { sample_every: 1, monitor: false },
                    ..base
                }).unwrap();
                prop_assert_eq!(&on.tree, &off.tree,
                    "tree differs at p={} queue={:?}", p, queue);
                prop_assert_eq!(on.distance_graph_edges, off.distance_graph_edges,
                    "distance graph differs at p={} queue={:?}", p, queue);
                prop_assert_eq!(on.fault_stats.injected(), off.fault_stats.injected());
                prop_assert!(off.telemetry.is_empty());
                prop_assert!(!on.telemetry.is_empty(),
                    "sampler recorded nothing at p={} queue={:?}", p, queue);
            }
        }
    }

    /// With refinement on, the distributed tree's distance matches the
    /// sequential Mehlhorn implementation (both are MST-of-G_1' expansions
    /// with the same finalization and tie-breaking data).
    #[test]
    fn refined_matches_sequential_mehlhorn(
        (g, seeds) in arb_connected_instance(14, 16, 6),
    ) {
        let cfg = SolverConfig { num_ranks: 3, refine: true, ..SolverConfig::default() };
        let dist_tree = solve(&g, &seeds, &cfg).unwrap().tree;
        let seq_tree = mehlhorn(&g, &seeds).unwrap();
        // Tie-breaking of equal-total bridges can differ between the two
        // pipelines, but MST weight equality pins total distance closely.
        let (a, b) = (dist_tree.total_distance() as f64, seq_tree.total_distance() as f64);
        prop_assert!((a - b).abs() / a.max(b).max(1.0) < 0.15,
            "distributed(refined) {a} vs mehlhorn {b}");
    }

    /// The distributed Voronoi state equals the sequential multi-source
    /// Dijkstra on distances and cells, and reaches the very same full
    /// labels `(dist, src, pred)` and predecessor weights as the 1-rank
    /// priority solve — on every rank that holds a vertex (owned state and
    /// every delegate replica), under every queue discipline, with and
    /// without delegates. Eager local relaxation changes exactly which
    /// labels are written when, so this pins the fixpoint it must keep.
    #[test]
    fn distributed_voronoi_matches_sequential(
        (g, seeds) in arb_connected_instance(16, 20, 5),
        p in 1usize..5,
        queue_ix in 0usize..3,
        delegate_threshold in proptest::option::of(2usize..6),
    ) {
        use crate::state::NO_VERTEX;
        let queue = [
            QueueKind::Priority,
            QueueKind::Bucketed { delta: crate::auto_delta(&g) },
            QueueKind::Fifo,
        ][queue_ix];
        let reference = held_voronoi_labels(&g, &seeds, 1, QueueKind::Priority, None);
        let vr = voronoi_cells(&g, &seeds);
        for (v, l, _) in &reference {
            prop_assert_eq!(l.dist, vr.dist[*v as usize], "distance mismatch at {}", v);
            if l.src != NO_VERTEX {
                let src = seeds[l.src as usize];
                prop_assert_eq!(Some(src), vr.src[*v as usize], "src mismatch at {}", v);
            }
        }
        let held = held_voronoi_labels(&g, &seeds, p, queue, delegate_threshold);
        // Every vertex is held at least once (owned or replicated).
        prop_assert!(held.len() >= g.num_vertices());
        for (v, l, w) in held {
            let (_, want, want_w) = reference[v as usize];
            prop_assert_eq!(l, want, "label mismatch at {} (queue {:?})", v, queue);
            prop_assert_eq!(w, want_w, "pred weight mismatch at {}", v);
        }
    }
}

/// Runs the asynchronous Voronoi phase and returns every label held
/// anywhere — each rank's owned vertices plus its delegate replicas —
/// with its predecessor weight, sorted by vertex (replicas repeat).
fn held_voronoi_labels(
    g: &CsrGraph,
    seeds: &[Vertex],
    p: usize,
    queue: QueueKind,
    delegate_threshold: Option<usize>,
) -> Vec<(Vertex, crate::state::Label, stgraph::csr::Weight)> {
    use crate::state::{ScratchArena, VertexStates};
    let pg = partition_graph(g, p, delegate_threshold);
    let pg = &pg;
    let out = World::run(p, |comm| {
        let chan = comm.open_channels::<Vec<crate::messages::VoronoiMsg>>("voronoi");
        let rg = &pg.ranks[comm.rank()];
        let mut st = VertexStates::new(rg);
        let mut scratch = ScratchArena::new();
        crate::voronoi::run(
            comm,
            &chan,
            rg,
            &pg.partition,
            &mut st,
            seeds,
            struntime::traversal::TraversalOptions::new(queue),
            &mut scratch,
        );
        st.owned_labels()
            .map(|(v, _)| v)
            .chain(rg.delegates.iter().copied())
            .map(|v| (v, st.label(v), st.pred_weight(v)))
            .collect::<Vec<_>>()
    });
    let mut all: Vec<_> = out.results.into_iter().flatten().collect();
    all.sort_by_key(|&(v, _, _)| v);
    all
}
