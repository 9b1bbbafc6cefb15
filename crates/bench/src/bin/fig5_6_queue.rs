//! Fig 5 + Fig 6: FIFO vs priority message queues — runtime and message
//! counts, broken down by phase.
//!
//! The paper's headline runtime optimization: prioritizing low-distance
//! messages in the Voronoi phase approximates Dijkstra's settle order
//! inside the asynchronous Bellman-Ford kernel, cutting both wasted
//! relaxations (Fig 6: 4.9x fewer messages on FRS, 22.1x on LVJ) and
//! runtime (Fig 5: 3.5x on FRS, 13x on LVJ). Shapes to check: priority
//! wins on both metrics; the message-count gap concentrates in the Voronoi
//! phase; LVJ (small weight cap, long chains) gains the most.
//!
//! A third row per graph runs the `bucketed` delta-stepping discipline
//! (delta = mean edge weight): it should track priority's message counts
//! while replacing heap pops with O(1) bucket pops, and — like priority —
//! it drops dominated relaxations unvisited at pop time (the stale-drops
//! column; FIFO shows zero because full delivery is its baseline role).
//! Voronoi traffic is split into local pushes (improvements of rank-local
//! targets, applied at push time under every discipline) and remote
//! relaxations, which cross a channel and are applied by the owner.
//!
//! Run: `cargo run -p bench --release --bin fig5_6_queue [--quick]`

use bench::{banner, fmt_count, fmt_dur, load_dataset, pick_seeds, quick_mode, BenchReport, Table};
use steiner::{solve_partitioned, Phase, QueueKind, SolverConfig};
use stgraph::datasets::Dataset;
use stgraph::json::Json;
use stgraph::partition::partition_graph;

fn main() {
    banner(
        "Fig 5/6 — FIFO vs priority queue: runtime and message counts",
        "datasets: LVJ, FRS, UKW analogues; fixed |S|; fixed ranks",
    );
    let (ranks, k) = if quick_mode() { (2, 50) } else { (8, 1000) };

    let mut fig5 = Table::new([
        "graph",
        "queue",
        "voronoi",
        "local_min",
        "other",
        "total",
        "speedup",
    ]);
    let mut fig6 = Table::new([
        "graph",
        "queue",
        "voronoi msgs",
        "  local",
        " remote",
        "local_min msgs",
        "tree_edge msgs",
        "stale drops",
        "improvement",
    ]);

    let mut bench_report = BenchReport::new("fig5_6_queue");
    for dataset in [Dataset::Lvj, Dataset::Frs, Dataset::Ukw] {
        let g = load_dataset(dataset);
        let pg = partition_graph(&g, ranks, None);
        let seeds = pick_seeds(&g, k);
        let delta = steiner::auto_delta(&g);
        let mut fifo_total = 0.0;
        let mut fifo_voronoi_msgs = 0u64;
        for queue in [
            QueueKind::Fifo,
            QueueKind::Priority,
            QueueKind::Bucketed { delta },
        ] {
            let cfg = SolverConfig {
                num_ranks: ranks,
                queue,
                ..SolverConfig::default()
            };
            let report = solve_partitioned(&pg, &seeds, &cfg).expect("seeds connected");
            bench_report.add_solve(
                format!("{}_{}", dataset.name(), queue.name()),
                Json::obj()
                    .with("graph", dataset.name())
                    .with("queue", queue.name())
                    .with("num_seeds", seeds.len())
                    .with("ranks", ranks),
                &report,
            );
            let t = report.phase_times;
            let other = report.time_to_solution() - t[Phase::Voronoi] - t[Phase::LocalMinEdge];
            let total = report.time_to_solution().as_secs_f64();
            let speedup = if queue == QueueKind::Fifo {
                fifo_total = total;
                "1.00x".to_string()
            } else {
                format!("{:.2}x", fifo_total / total)
            };
            fig5.row([
                dataset.name().to_string(),
                queue.name().to_string(),
                fmt_dur(t[Phase::Voronoi]),
                fmt_dur(t[Phase::LocalMinEdge]),
                fmt_dur(other),
                fmt_dur(report.time_to_solution()),
                speedup,
            ]);

            let msgs = |phase: &str| -> u64 {
                report
                    .message_counts
                    .get(phase)
                    .map(|s| s.total_msgs())
                    .unwrap_or(0)
            };
            let voronoi = report
                .message_counts
                .get("voronoi")
                .copied()
                .unwrap_or_default();
            let voronoi_msgs = voronoi.total_msgs();
            let improvement = if queue == QueueKind::Fifo {
                fifo_voronoi_msgs = voronoi_msgs;
                "1.00x".to_string()
            } else {
                format!("{:.2}x", fifo_voronoi_msgs as f64 / voronoi_msgs as f64)
            };
            fig6.row([
                dataset.name().to_string(),
                queue.name().to_string(),
                fmt_count(voronoi_msgs),
                fmt_count(voronoi.local_msgs),
                fmt_count(voronoi.remote_msgs),
                fmt_count(msgs("local_min_edge")),
                fmt_count(msgs("tree_edge")),
                fmt_count(report.stale_drops.iter().sum()),
                improvement,
            ]);
        }
    }
    println!("--- Fig 5: runtime by phase ---");
    fig5.print();
    println!();
    println!("--- Fig 6: generated message traffic by phase ---");
    fig6.print();
    println!();
    println!("Paper shape: priority queue cuts Voronoi messages by 4.9x (FRS) to");
    println!("22.1x (LVJ) and runtime by 3.5x to 13x; local_min and tree_edge");
    println!("traffic are queue-independent and small. bucketed (delta-stepping,");
    println!("delta = mean edge weight) tracks priority's message counts with");
    println!("cheap bucket pops; both ordered disciplines drop dominated");
    println!("relaxations unvisited (stale drops column). Every discipline");
    println!("applies relaxations of rank-local targets at push time and");
    println!("enqueues only improvements, so the local column counts those;");
    println!("the remote column counts the cross-rank relaxations sent: a");
    println!("rank skips one that cannot beat the best label it already sent");
    println!("to that vertex. local_min sends one probe per cut edge.");
    bench_report.finish();
}
