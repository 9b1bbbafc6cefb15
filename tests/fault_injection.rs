//! Fault-injection integration tests (tier 1).
//!
//! Three layers of evidence that the reliability protocol actually
//! defeats the fault injector:
//!
//! 1. **Chaos matrix** — seeded drop/dup/delay plans (all ≤ 20%) crossed
//!    with every queue discipline and rank counts {1, 2, 4}: every
//!    faulted solve must reach quiescence and return a tree
//!    *bit-identical* to the fault-free baseline of the same
//!    configuration.
//! 2. **Exactly-once audit** — under a duplication-heavy plan the
//!    protocol audit (the `check` feature is on for integration tests)
//!    must stay silent: receiver-side dedup makes redelivered copies
//!    invisible to the traversal, so no `DuplicateDelivery` or counter
//!    drift appears.
//! 3. **Audit mutation** — with the retransmission timer disabled
//!    (`mutant_no_retransmit`) a dropped batch is gone for good, and the
//!    audit must flag the loss. A reliability layer whose failure the
//!    audit cannot see would be unverifiable.

use struntime::{run_traversal, AuditViolation, Comm, FaultPlan, QueueKind, World, WorldConfig};

// ---------------------------------------------------------------------------
// Chaos matrix: faulted solves are bit-identical to fault-free ones.
// ---------------------------------------------------------------------------

/// Vertices of [`chaos_graph`]. The plans' decision streams are fixed by
/// their seeds, so a solve must ship enough batches to reach an injecting
/// draw: at this size every fault-free p >= 2 solve of the matrix ships at
/// least 22 (64 vertices shipped as few as 5, and a plan could run out of
/// batches before its first fault).
const CHAOS_N: u32 = 2048;

fn chaos_graph() -> stgraph::csr::CsrGraph {
    // Ring + chords: every partitioning has cross-rank edges, so drops
    // and duplicates land on real traffic at every rank count.
    let n = CHAOS_N;
    let mut b = stgraph::builder::GraphBuilder::new(n as usize);
    for i in 0..n {
        b.add_edge(i, (i + 1) % n, 1 + (i % 4) as u64);
        if i % 5 == 0 {
            b.add_edge(i, (i + n / 3) % n, 7);
        }
    }
    b.build()
}

/// Seed positions given on a 64-vertex ring, scaled to [`CHAOS_N`] so the
/// seeds, their Voronoi cell boundaries and the tree keep spanning every
/// rank of the block partition at p = 2 and p = 4.
fn chaos_seeds(on_64: &[stgraph::csr::Vertex]) -> Vec<stgraph::csr::Vertex> {
    on_64.iter().map(|&s| s * CHAOS_N / 64).collect()
}

#[test]
fn chaos_matrix_recovers_bit_identical_trees() {
    let g = chaos_graph();
    let seeds = chaos_seeds(&[0, 11, 22, 33, 44, 55]);
    let plans = [
        "drop=0.2,seed=21",
        "dup=0.2,seed=22",
        "delay=0.2,delay_us=150,seed=23",
        "drop=0.15,dup=0.15,delay=0.15,stall=0.05,seed=24",
    ];
    let queues = [
        QueueKind::Fifo,
        QueueKind::Priority,
        QueueKind::Adversarial { seed: 5 },
        QueueKind::Bucketed { delta: 3 },
    ];
    for queue in queues {
        for ranks in [1usize, 2, 4] {
            let base_cfg = steiner::SolverConfig {
                num_ranks: ranks,
                queue,
                ..steiner::SolverConfig::default()
            };
            let baseline = steiner::solve(&g, &seeds, &base_cfg).expect("fault-free solve");
            for spec in plans {
                let plan = FaultPlan::from_spec(spec).expect("valid plan spec");
                let cfg = steiner::SolverConfig {
                    faults: Some(plan),
                    ..base_cfg
                };
                let faulted = steiner::solve(&g, &seeds, &cfg)
                    .unwrap_or_else(|e| panic!("{queue:?} p={ranks} {spec}: solve failed: {e}"));
                assert_eq!(
                    faulted.tree, baseline.tree,
                    "{queue:?} p={ranks} {spec}: faulted tree diverged from fault-free baseline"
                );
                if ranks > 1 {
                    assert!(
                        faulted.fault_stats.injected() > 0,
                        "{queue:?} p={ranks} {spec}: plan injected nothing — the matrix \
                         is not exercising the fault path"
                    );
                }
            }
        }
    }
}

/// Regression for a crash-recovery race: a rank crash-stopped inside the
/// Voronoi phase drops its channel endpoints while it unwinds, and a
/// survivor flushing a batch to it in that window used to panic
/// ("receiver endpoint dropped"). The supervisor saw a genuine panic and
/// re-raised it instead of restoring. The race is timing-dependent, so the
/// plan — the combination the chaos sweep tripped on, on the sweep's own
/// graph — runs many times; every run must restore to the undisturbed tree.
#[test]
fn voronoi_crash_stop_recovers_on_every_run() {
    let n: u32 = 96;
    let mut b = stgraph::builder::GraphBuilder::new(n as usize);
    for i in 0..n {
        b.add_edge(i, (i + 1) % n, 2 + (i % 5) as u64);
        if i % 7 == 0 {
            b.add_edge(i, (i + n / 3) % n, 9);
        }
    }
    let g = b.build();
    let seeds: Vec<stgraph::csr::Vertex> = (0..n).step_by((n / 6) as usize).collect();
    let base_cfg = steiner::SolverConfig {
        num_ranks: 4,
        queue: QueueKind::Fifo,
        ..steiner::SolverConfig::default()
    };
    let baseline = steiner::solve(&g, &seeds, &base_cfg).expect("undisturbed solve");
    let plan = FaultPlan::from_spec("crash_rank=1,crash_after_visits=3,crash_phase=0,seed=7")
        .expect("valid crash plan");
    let cfg = steiner::SolverConfig {
        mst_mode: steiner::MstMode::Dist,
        faults: Some(plan),
        ..base_cfg
    };
    for run in 0..25 {
        let r = steiner::solve(&g, &seeds, &cfg)
            .unwrap_or_else(|e| panic!("run {run}: crash-stop solve failed: {e}"));
        assert!(r.recovery.restores >= 1, "run {run}: never restored");
        assert_eq!(r.tree, baseline.tree, "run {run}: recovered tree diverged");
    }
}

#[test]
fn faulted_solve_reports_v3_counters() {
    let g = chaos_graph();
    let plan = FaultPlan::from_spec("drop=0.2,dup=0.1,seed=31").unwrap();
    let cfg = steiner::SolverConfig {
        num_ranks: 4,
        faults: Some(plan),
        ..steiner::SolverConfig::default()
    };
    let report = steiner::solve(&g, &chaos_seeds(&[0, 20, 40]), &cfg).expect("faulted solve");
    let doc = report.run_report().to_json();
    assert_eq!(
        doc.get("schema_version").and_then(|v| v.as_u64()),
        Some(steiner::report::SCHEMA_VERSION)
    );
    let faults = doc.get("faults").expect("v3 report carries faults object");
    assert_eq!(
        faults.get("drops").and_then(|v| v.as_u64()),
        Some(report.fault_stats.drops)
    );
    assert!(report.fault_stats.injected() > 0);
    assert_eq!(
        doc.get("config")
            .and_then(|c| c.get("faults"))
            .and_then(|v| v.as_str()),
        Some(plan.to_spec().as_str())
    );
}

// ---------------------------------------------------------------------------
// Audit-backed exactly-once and loss-detection checks.
// ---------------------------------------------------------------------------

/// Two ranks volley a hop counter `rounds` times: rank 0 seeds hop 0 and
/// every visit with `h < rounds` forwards `h + 1` to the peer — a long
/// chain of single-batch exchanges for the injector to attack.
fn volley(comm: &mut Comm, rounds: u32) {
    let chan = comm.open_channels::<Vec<u32>>("fault_volley");
    let rank = comm.rank();
    let init = if rank == 0 { vec![0u32] } else { vec![] };
    let visit = move |h: u32, pusher: &mut struntime::Pusher<'_, u32>| {
        if h < rounds {
            pusher.push(1 - pusher.rank(), h + 1);
        }
    };
    run_traversal(comm, &chan, QueueKind::Fifo, |_| 0, init, visit);
}

#[test]
fn duplication_is_exactly_once_under_audit() {
    let config = WorldConfig {
        faults: Some(FaultPlan {
            dup_p: 0.4,
            seed: 71,
            ..FaultPlan::default()
        }),
        ..WorldConfig::default()
    };
    let out = World::run_config(2, config, |comm| volley(comm, 40));
    let snap = out.fault_stats;
    assert!(
        snap.dups > 0,
        "a 40% duplication plan over 40 volleys must duplicate something"
    );
    assert!(
        out.audit_violations.is_empty(),
        "the audit must see exactly-once delivery under duplication \
         (dedup hides redelivered copies): {:?}",
        out.audit_violations
    );
}

#[test]
fn dropped_and_delayed_traffic_recovers_audit_clean() {
    let config = WorldConfig {
        faults: Some(FaultPlan {
            drop_p: 0.3,
            delay_p: 0.2,
            delay_us: 150,
            seed: 72,
            ..FaultPlan::default()
        }),
        ..WorldConfig::default()
    };
    let out = World::run_config(2, config, |comm| volley(comm, 40));
    let snap = out.fault_stats;
    assert!(snap.drops > 0, "plan must drop something to prove recovery");
    assert!(
        snap.retransmits > 0,
        "recovery from drops goes through the retransmission timer"
    );
    assert!(
        out.audit_violations.is_empty(),
        "retransmission must make loss invisible to the audit: {:?}",
        out.audit_violations
    );
}

#[test]
fn audit_flags_losses_when_retransmission_is_disabled() {
    // The mutation half of the contract: with the retransmit timer off, a
    // dropped batch is never recovered. The mutant compensates the
    // quiescence `sent` counter so the traversal still terminates — and
    // the audit, which tracks batch identity rather than counters, must
    // report the loss.
    let config = WorldConfig {
        faults: Some(FaultPlan {
            drop_p: 0.4,
            seed: 73,
            mutant_no_retransmit: true,
            ..FaultPlan::default()
        }),
        ..WorldConfig::default()
    };
    let out = World::run_config(2, config, |comm| volley(comm, 40));
    assert!(
        out.fault_stats.drops > 0,
        "the mutant run must actually drop a batch"
    );
    assert!(
        out.audit_violations
            .iter()
            .any(|v| matches!(v, AuditViolation::LostBatch { .. })),
        "disabled retransmission must surface as LostBatch violations, got: {:?}",
        out.audit_violations
    );
}
