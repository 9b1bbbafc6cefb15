//! Closed-loop query benchmark driver.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times untraced solves and prints the end-to-end metrics;
//! `--trace 1` prints the per-layer metrics, read from solve reports and
//! from a separate traced loop. Either way the last line of standard output
//! is one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`, and the process exits non-zero when any query fails the
//! correctness gate. A readable table goes to standard error.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use baselines::{mehlhorn, steiner_lower_bound};
use perfbench::{check_tree, median, quantile, Counts, Setup, Workload, QUERIES};
use steiner::{
    solve_partitioned, MetricKind, MetricsConfig, Phase, SolveReport, SolverConfig, TraceConfig,
    TraceDump,
};
use stgraph::csr::{Distance, Vertex};
use stgraph::partition::partition_graph;
use stgraph::steiner_tree::SteinerTree;
use struntime::metrics::HistogramSnapshot;
use struntime::trace::TraceEventKind;

const USAGE: &str =
    "usage: perfbench --workload <frs-s100-p1|frs-s100-p2|lvj-s2000-p2> --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Queries the per-layer run cycles over, so each is solved several times
/// and the spread of its counters across repeats is measured.
const TRACE_QUERIES: usize = 16;

/// Every how many distinct queries the FRS rows also solve the query at the
/// twin row's rank count, after the measured part of the run, to check that
/// the weights agree.
const TWIN_EVERY: usize = 4;

const MIB: f64 = (1u64 << 20) as f64;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::by_name(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    let s: u64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(1..=600).contains(&s) {
                        return Err(format!("seconds {s} outside 1..=600"));
                    }
                    seconds = Some(Duration::from_secs(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// Counts attempted and failed queries and keeps the first failure.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Gate {
    fn record<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.first_error
                    .get_or_insert_with(|| format!("{what}: {e}"));
                None
            }
        }
    }

    fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What the first correct solve of a query established.
struct Reference {
    lb: Distance,
    tree: SteinerTree,
}

/// Checks every solved query against the correctness gate, outside the
/// timed region. The first solve of a query is validated in full; a repeat
/// must reproduce the first tree, or be valid with the same weight.
struct Checker<'a> {
    setup: &'a Setup,
    refs: Vec<Option<Reference>>,
}

impl<'a> Checker<'a> {
    fn new(setup: &'a Setup) -> Checker<'a> {
        Checker {
            setup,
            refs: (0..setup.queries.len()).map(|_| None).collect(),
        }
    }

    fn check(&mut self, qi: usize, tree: &SteinerTree) -> Result<(), String> {
        let g = &self.setup.graph;
        let query = &self.setup.queries[qi];
        if let Some(r) = &self.refs[qi] {
            if *tree == r.tree {
                return Ok(());
            }
            check_tree(g, query, tree, r.lb)?;
            let (w0, w) = (r.tree.total_distance(), tree.total_distance());
            return if w == w0 {
                Ok(())
            } else {
                Err(format!(
                    "query {qi}: weight {w} differs from first solve's {w0}"
                ))
            };
        }
        let lb = steiner_lower_bound(g, query).map_err(|e| format!("lower bound: {e}"))?;
        check_tree(g, query, tree, lb).map_err(|e| format!("query {qi}: {e}"))?;
        self.refs[qi] = Some(Reference {
            lb,
            tree: tree.clone(),
        });
        Ok(())
    }

    /// Mean tree weight ÷ certified lower bound over the checked queries.
    fn weight_over_lb(&self) -> f64 {
        let ratios: Vec<f64> = self
            .refs
            .iter()
            .flatten()
            .map(|r| r.tree.total_distance() as f64 / r.lb.max(1) as f64)
            .collect();
        ratios.iter().sum::<f64>() / ratios.len().max(1) as f64
    }

    /// On the FRS rows, solves every `TWIN_EVERY`-th checked query at the
    /// twin row's rank count and requires the same tree weight. It runs after
    /// the run's measurements, so the twin's partition and solves stay out of
    /// the timings and of `peak_rss_mib`.
    fn check_twins(&self, w: &Workload, gate: &mut Gate) {
        let Some(twin) = w.twin() else {
            return;
        };
        let cfg = twin.config();
        let pg = partition_graph(&self.setup.graph, twin.ranks, cfg.delegate_threshold);
        for (qi, r) in self.refs.iter().enumerate().step_by(TWIN_EVERY) {
            let Some(r) = r else {
                continue;
            };
            let weight = r.tree.total_distance();
            let ok = solve_partitioned(&pg, &self.setup.queries[qi], &cfg)
                .map_err(|e| format!("query {qi}: {e}"))
                .and_then(|t| match t.tree.total_distance() {
                    tw if tw == weight => Ok(()),
                    tw => Err(format!("query {qi}: weight {weight} differs from {tw}")),
                });
            gate.record(&format!("twin solve at {} ranks", twin.ranks), ok);
        }
    }
}

/// One timed solve followed by one timed Mehlhorn run on the same query.
struct Timed {
    solve: Duration,
    report: Result<SolveReport, String>,
    mehlhorn: Duration,
    baseline: Result<(), String>,
}

fn run_query(setup: &Setup, cfg: &SolverConfig, query: &[Vertex]) -> Timed {
    let t = Instant::now();
    let report = solve_partitioned(&setup.pg, black_box(query), cfg);
    let solve = t.elapsed();
    let report = black_box(report).map_err(|e| format!("solve: {e}"));
    let t = Instant::now();
    let baseline = mehlhorn(&setup.graph, black_box(query));
    let mehlhorn = t.elapsed();
    let baseline = black_box(baseline)
        .map(|_| ())
        .map_err(|e| format!("mehlhorn: {e}"));
    Timed {
        solve,
        report,
        mehlhorn,
        baseline,
    }
}

/// Time the hypervisor has stolen from this machine, and all CPU time,
/// so far: the `steal` column and the sum of the `cpu` line of
/// `/proc/stat`, in clock ticks. `None` where it cannot be read.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The share of the machine's CPU time the hypervisor stole between two
/// `cpu_ticks` readings (0 where they are missing). Host noise, not the
/// program: a run with a large share has slow, spread-out timings.
fn steal_frac(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> f64 {
    match (from, to) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sets up `SETUP_REPS` times and keeps the last; returns it with the
/// per-rep totals, partition and select times.
fn setup_reps(args: &Args) -> (Setup, Vec<[Duration; 4]>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let s = Setup::new(args.workload, args.seed, QUERIES);
        times.push([s.total(), s.generate, s.partition, s.select]);
        last = Some(s);
    }
    (last.expect("SETUP_REPS > 0"), times)
}

fn column(times: &[[Duration; 4]], i: usize) -> Vec<f64> {
    times.iter().map(|t| t[i].as_secs_f64()).collect()
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Solves each of the first `n` queries once, untimed, through the full
/// correctness gate, so that memory is faulted in and allocator pools are
/// warm before timing starts and the timed loop only compares trees.
fn warm_up(setup: &Setup, cfg: &SolverConfig, checker: &mut Checker, gate: &mut Gate, n: usize) {
    for (qi, query) in setup.queries.iter().enumerate().take(n) {
        let t = run_query(setup, cfg, query);
        let ok = t
            .baseline
            .and(t.report)
            .and_then(|r| checker.check(qi, &r.tree));
        gate.record("warm-up query", ok);
    }
}

/// Untraced closed loop over all queries: the end-to-end metrics.
///
/// A query's solve time is the fastest of its timed solves in the run, and
/// `solve_ms_p50`/`p90` are taken over the queries. The host alternates
/// between fast and slow stretches of a second or two; the fastest repeat
/// of each query, whose repeats are spread over the whole run, is what the
/// program costs with that noise taken out, while the quantiles over
/// queries keep the spread between small and large queries.
fn run_timed(args: &Args, gate: &mut Gate) -> Result<Metrics, String> {
    let (setup, setup_times) = setup_reps(args);
    let cfg = args.workload.config();
    let mut checker = Checker::new(&setup);
    warm_up(&setup, &cfg, &mut checker, gate, setup.queries.len());
    let mut fastest = vec![f64::INFINITY; setup.queries.len()];
    let (mut timed, mut tax) = (0, Vec::new());
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < args.seconds {
        let qi = i % setup.queries.len();
        i += 1;
        let t = run_query(&setup, &cfg, &setup.queries[qi]);
        let ok = t
            .baseline
            .and(t.report)
            .and_then(|r| checker.check(qi, &r.tree));
        if gate.record("query", ok).is_some() {
            timed += 1;
            fastest[qi] = fastest[qi].min(ms(t.solve));
            tax.push(t.solve.as_secs_f64() / t.mehlhorn.as_secs_f64());
        }
    }
    let peak_rss = peak_rss_mib()?;
    checker.check_twins(args.workload, gate);
    let solve_ms: Vec<f64> = fastest.into_iter().filter(|t| t.is_finite()).collect();
    eprintln!(
        "solve_ms_p50 and solve_ms_p90 are over {} queries, the fastest of {:.1} timed solves each on average",
        solve_ms.len(),
        timed as f64 / solve_ms.len().max(1) as f64
    );
    Ok(vec![
        ("solve_ms_p50", median(&solve_ms), "ms"),
        ("solve_ms_p90", quantile(&solve_ms, 0.9), "ms"),
        ("runtime_tax", median(&tax), "ratio"),
        ("setup_s", median(&column(&setup_times, 0)), "s"),
        ("peak_rss_mib", peak_rss, "MiB"),
        ("weight_over_lb", checker.weight_over_lb(), "ratio"),
    ])
}

/// Per-rank span totals of one traced solve, in milliseconds.
#[derive(Default)]
struct Spans {
    traversal: f64,
    idle: f64,
    collective: f64,
}

/// Sums the runtime's `traversal`, `idle` and collective spans of a trace,
/// averaged over ranks. Traversal is reported as self time: its span
/// minus the idle spans nested in it.
fn spans(dump: &TraceDump) -> Spans {
    let mut total = Spans::default();
    for rank in &dump.ranks {
        let mut open: Vec<(&'static str, u64)> = Vec::new();
        for e in &rank.events {
            match e.kind {
                TraceEventKind::SpanBegin => open.push((e.name, e.ts_us)),
                TraceEventKind::SpanEnd => {
                    let Some(pos) = open.iter().rposition(|(n, _)| *n == e.name) else {
                        continue;
                    };
                    let (name, begin) = open.remove(pos);
                    let d = e.ts_us.saturating_sub(begin) as f64 / 1e3;
                    match name {
                        "traversal" => total.traversal += d,
                        "idle" => total.idle += d,
                        "allreduce" | "broadcast" => total.collective += d,
                        _ => {}
                    }
                }
                _ => {}
            }
        }
    }
    let p = dump.ranks.len().max(1) as f64;
    Spans {
        traversal: (total.traversal - total.idle) / p,
        idle: total.idle / p,
        collective: total.collective / p,
    }
}

/// Reads one counter of a solve.
type Field = fn(&Counts) -> u64;

/// `(max − min) / median` of one counter over repeated solves of each
/// query, maximized over the queries: 0 when every repeat matches.
fn rep_spread(reps: &[Vec<Counts>], field: Field) -> f64 {
    reps.iter()
        .filter(|r| r.len() > 1)
        .map(|r| {
            let v: Vec<f64> = r.iter().map(|c| field(c) as f64).collect();
            let (lo, hi) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            (hi - lo) / median(&v).max(1.0)
        })
        .fold(0.0, f64::max)
}

/// Trace events one rank of a query's solve may record, from the query's
/// untraced repeats. The cluster records at most a spawn and a visit per
/// message, plus per-batch idle spans and flush marks. On several ranks the
/// schedule moves work between them (one rank of an FRS 2-rank solve
/// recorded up to 1.18× its even share), so a rank gets its even share plus
/// half again; fixed slack covers phase spans and samples. A solve that
/// overflows the ring still fails its query rather than cutting the trace.
fn ring_capacity(reps: &[Counts], ranks: usize) -> usize {
    let events = reps
        .iter()
        .map(|c| 2 * (c.local_msgs + c.remote_msgs) + 4 * c.remote_batches)
        .max()
        .unwrap_or(0) as usize;
    let share = events.div_ceil(ranks.max(1));
    let headroom = if ranks > 1 { share / 2 } else { 0 };
    share + headroom + (1 << 14)
}

/// Per-layer run: an untraced loop reading the solve reports, then a
/// separate traced loop over the same queries.
fn run_traced(args: &Args, gate: &mut Gate) -> Result<Metrics, String> {
    let (setup, setup_times) = setup_reps(args);
    let cfg = args.workload.config();
    let mut checker = Checker::new(&setup);
    let queries = TRACE_QUERIES.min(setup.queries.len());
    warm_up(&setup, &cfg, &mut checker, gate, queries);
    let half = args.seconds / 2;

    // Untraced: phase times and counters from the reports.
    let mut solve_ms = Vec::new();
    let mut mehlhorn_ms = Vec::new();
    let mut phase_ms: Vec<Vec<f64>> = vec![Vec::new(); Phase::ALL.len()];
    let mut unattributed = Vec::new();
    let mut counts: Vec<Vec<Counts>> = vec![Vec::new(); queries];
    let (mut imbalance, mut state_mib, mut graph_mib) = (Vec::new(), Vec::new(), 0.0);
    let start = Instant::now();
    let mut i = 0;
    while i < 2 * queries || start.elapsed() < half {
        let qi = i % queries;
        i += 1;
        let t = run_query(&setup, &cfg, &setup.queries[qi]);
        let ok = t.baseline.and(t.report).and_then(|r| {
            checker.check(qi, &r.tree)?;
            Ok(r)
        });
        let Some(r) = gate.record("query", ok) else {
            continue;
        };
        solve_ms.push(ms(t.solve));
        mehlhorn_ms.push(ms(t.mehlhorn));
        for (k, (_, d)) in r.phase_times.iter().enumerate() {
            phase_ms[k].push(ms(d));
        }
        unattributed.push(ms(t.solve.saturating_sub(r.time_to_solution())));
        counts[qi].push(Counts::of(&r));
        let work_max = r.rank_work.iter().copied().max().unwrap_or(0) as f64;
        let work_mean = r.rank_work.iter().sum::<u64>() as f64 / r.rank_work.len().max(1) as f64;
        imbalance.push(work_max / work_mean.max(1.0));
        state_mib.push(r.state_peak_bytes as f64 / MIB);
        graph_mib = r.graph_bytes as f64 / MIB;
    }
    let all: Vec<Counts> = counts.iter().flatten().copied().collect();
    let med = |f: Field| median(&all.iter().map(|c| f(c) as f64).collect::<Vec<_>>());

    // Traced: per query, a per-rank ring large enough for a whole solve.
    let traced_cfgs: Vec<SolverConfig> = counts
        .iter()
        .map(|reps| SolverConfig {
            trace: TraceConfig::Ring {
                capacity: ring_capacity(reps, cfg.num_ranks),
            },
            metrics: MetricsConfig::On,
            ..cfg
        })
        .collect();
    let mut traced_ms = Vec::new();
    let (mut traversal, mut idle, mut collective) = (Vec::new(), Vec::new(), Vec::new());
    let mut hists: Vec<HistogramSnapshot> =
        vec![HistogramSnapshot::default(); MetricKind::ALL.len()];
    let start = Instant::now();
    let mut i = 0;
    while i < queries || start.elapsed() < half {
        let qi = i % queries;
        i += 1;
        let query = &setup.queries[qi];
        let t = Instant::now();
        let report = solve_partitioned(&setup.pg, black_box(query), &traced_cfgs[qi]);
        let elapsed = t.elapsed();
        let ok = report
            .map_err(|e| format!("traced solve: {e}"))
            .and_then(|r| {
                checker.check(qi, &r.tree)?;
                match r.trace.total_dropped() {
                    0 => Ok(r),
                    n => Err(format!("traced solve dropped {n} trace events")),
                }
            });
        let Some(r) = gate.record("traced query", ok) else {
            continue;
        };
        traced_ms.push(ms(elapsed));
        let s = spans(&r.trace);
        traversal.push(s.traversal);
        idle.push(s.idle);
        collective.push(s.collective);
        for phase in r.metrics.aggregate().values() {
            for (k, h) in hists.iter_mut().enumerate() {
                h.merge(&phase.hist(MetricKind::ALL[k]));
            }
        }
    }
    checker.check_twins(args.workload, gate);
    let hist_p50 = |k: MetricKind| hists[k as usize].quantile(0.5) as f64;
    let pushes = med(|c| c.voronoi_pushes);
    let stale = med(|c| c.voronoi_stale_drops);

    let mut m: Metrics = vec![
        ("steiner.voronoi_ms", median(&phase_ms[0]), "ms"),
        ("steiner.local_min_edge_ms", median(&phase_ms[1]), "ms"),
        ("steiner.global_min_edge_ms", median(&phase_ms[2]), "ms"),
        ("steiner.mst_ms", median(&phase_ms[3]), "ms"),
        ("steiner.edge_pruning_ms", median(&phase_ms[4]), "ms"),
        ("steiner.tree_edge_ms", median(&phase_ms[5]), "ms"),
        ("steiner.unattributed_ms", median(&unattributed), "ms"),
        ("steiner.voronoi_pushes", pushes, "count"),
        ("steiner.voronoi_stale_drops", stale, "count"),
        (
            "steiner.voronoi_useful_frac",
            1.0 - stale / pushes.max(1.0),
            "frac",
        ),
        (
            "steiner.distance_graph_edges",
            med(|c| c.distance_graph_edges),
            "count",
        ),
        ("steiner.state_peak_mib", median(&state_mib), "MiB"),
        ("struntime.remote_msgs", med(|c| c.remote_msgs), "count"),
        ("struntime.remote_bytes", med(|c| c.remote_bytes), "bytes"),
        (
            "struntime.remote_batches",
            med(|c| c.remote_batches),
            "count",
        ),
        ("struntime.local_msgs", med(|c| c.local_msgs), "count"),
        ("struntime.rank_work_imbalance", median(&imbalance), "ratio"),
        ("struntime.traversal_ms", median(&traversal), "ms"),
        ("struntime.idle_ms", median(&idle), "ms"),
        ("struntime.collective_ms", median(&collective), "ms"),
        (
            "struntime.msg_latency_us_p50",
            hist_p50(MetricKind::MsgLatencyUs),
            "us",
        ),
        (
            "struntime.queue_residency_us_p50",
            hist_p50(MetricKind::QueueResidencyUs),
            "us",
        ),
        (
            "struntime.visit_service_us_p50",
            hist_p50(MetricKind::VisitServiceUs),
            "us",
        ),
        (
            "struntime.batch_size_p50",
            hist_p50(MetricKind::BatchSize),
            "count",
        ),
        (
            "trace_overhead_frac",
            median(&traced_ms) / median(&solve_ms) - 1.0,
            "frac",
        ),
        ("stgraph.generate_s", median(&column(&setup_times, 1)), "s"),
        (
            "stgraph.partition_ms",
            1e3 * median(&column(&setup_times, 2)),
            "ms",
        ),
        ("stgraph.graph_mib", graph_mib, "MiB"),
        (
            "seeds.select_ms",
            1e3 * median(&column(&setup_times, 3)) / QUERIES as f64,
            "ms",
        ),
        ("baselines.mehlhorn_ms", median(&mehlhorn_ms), "ms"),
        ("failed_frac", gate.failed_frac(), "frac"),
    ];
    let spreads: [(&'static str, Field); 5] = [
        ("steiner.voronoi_pushes_rep_spread", |c| c.voronoi_pushes),
        ("steiner.voronoi_stale_drops_rep_spread", |c| {
            c.voronoi_stale_drops
        }),
        ("steiner.distance_graph_edges_rep_spread", |c| {
            c.distance_graph_edges
        }),
        ("struntime.local_msgs_rep_spread", |c| c.local_msgs),
        ("steiner.tree_weight_rep_spread", |c| c.weight),
    ];
    for (name, field) in spreads {
        m.push((name, rep_spread(&counts, field), "frac"));
    }
    Ok(m)
}

fn json_line(gate: &Gate, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.failed == 0,
        gate.attempted,
        gate.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut gate = Gate::default();
    let run = if args.trace { run_traced } else { run_timed };
    let ticks = cpu_ticks();
    let mut metrics = match run(&args, &mut gate) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let steal = steal_frac(ticks, cpu_ticks());
    if args.trace {
        metrics.push(("host.steal_frac", steal, "frac"));
    }
    if let Some((name, value, _)) = metrics.iter().find(|m| !m.1.is_finite()) {
        eprintln!("error: metric {name} is not finite ({value})");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "{} seed {} trace {}: {} queries attempted, {} failed; hypervisor stole {:.1}% of CPU time",
        args.workload.name,
        args.seed,
        args.trace as u8,
        gate.attempted,
        gate.failed,
        100.0 * steal
    );
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<42} {value:>14.4} {unit}");
    }
    println!("{}", json_line(&gate, &metrics));
    match &gate.first_error {
        None => ExitCode::SUCCESS,
        Some(e) => {
            eprintln!("error: correctness gate failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use struntime::trace::{RankTrace, TraceEvent};

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload lvj-s2000-p2 --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload.name, "lvj-s2000-p2");
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (9, Duration::from_secs(3), true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload frs-s100-p1 --seed 1 --seconds 0 --trace 0",
            "--workload frs-s100-p1 --seed 1 --seconds 1 --trace 2",
            "--workload frs-s100-p1 --seed 1 --seconds 1",
            "--workload frs-s100-p1 --seed",
        ] {
            assert!(args(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let gate = Gate {
            attempted: 4,
            failed: 1,
            first_error: Some("x".into()),
        };
        let line = json_line(&gate, &vec![("solve_ms_p50", 1.5, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": \
             {\"solve_ms_p50\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }

    fn event(kind: TraceEventKind, name: &'static str, ts_us: u64) -> TraceEvent {
        TraceEvent {
            name,
            kind,
            ts_us,
            arg: 0,
            arg2: 0,
        }
    }

    #[test]
    fn traversal_self_time_excludes_nested_idle() {
        use TraceEventKind::{SpanBegin as B, SpanEnd as E};
        let rank = |events| RankTrace {
            rank: 0,
            dropped: 0,
            events,
        };
        let dump = TraceDump {
            ranks: vec![
                rank(vec![
                    event(B, "traversal", 0),
                    event(B, "idle", 1000),
                    event(E, "idle", 3000),
                    event(E, "traversal", 10_000),
                    event(B, "allreduce", 10_000),
                    event(E, "allreduce", 11_000),
                ]),
                rank(vec![event(B, "traversal", 0), event(E, "traversal", 4000)]),
            ],
        };
        let s = spans(&dump);
        assert_eq!((s.traversal, s.idle, s.collective), (6.0, 1.0, 0.5));
    }

    /// Counts with `pushes` Voronoi pushes, each one a local message.
    fn c(pushes: u64) -> Counts {
        Counts {
            voronoi_pushes: pushes,
            voronoi_stale_drops: 0,
            distance_graph_edges: 0,
            local_msgs: pushes,
            remote_msgs: 0,
            remote_bytes: 0,
            remote_batches: 0,
            weight: 0,
        }
    }

    #[test]
    fn ring_holds_a_ranks_share_of_the_largest_repeat() {
        let reps = [c(900), c(1000)];
        assert_eq!(ring_capacity(&reps, 1), 2000 + (1 << 14));
        assert_eq!(ring_capacity(&reps, 2), 1500 + (1 << 14));
    }

    #[test]
    fn rep_spread_is_zero_only_for_exact_repeats() {
        let exact = vec![vec![c(10), c(10)], vec![c(7)]];
        assert_eq!(rep_spread(&exact, |c| c.voronoi_pushes), 0.0);
        let varied = vec![vec![c(10), c(12), c(8)]];
        assert_eq!(rep_spread(&varied, |c| c.voronoi_pushes), 0.4);
    }
}
