//! Asynchronous vertex-centric traversal driver with message aggregation.
//!
//! This is the runtime's equivalent of HavoqGT's `do_traversal()`: every
//! rank drains its inbound channel into a local [`VisitorQueue`] (FIFO,
//! priority, or bucketed), invokes the user's `visit` callback on each
//! dequeued visitor, and forwards the visitors the callback pushes —
//! locally for owned destinations, over the channel group otherwise.
//! Computation and communication overlap freely; there is no superstep
//! barrier.
//!
//! ## Aggregation
//!
//! Like HavoqGT, outgoing visitors are *aggregated*: per-destination
//! buffers fill up to [`TraversalOptions::batch_size`], are coalesced into
//! one flat byte buffer via the [`crate::wire`] codec (the encoded length
//! is what the channel layer charges as the batch's payload bytes — exact
//! wire size, no container headers), and ship as one network message;
//! whatever remains is flushed before a rank declares itself idle, so
//! aggregation never delays quiescence indefinitely. Counters still count
//! individual visitors, so Fig 6-style message statistics are batch-size
//! independent. Aggregation slightly loosens the priority discipline
//! across ranks (visitors inside a batch arrive together) — the same
//! "light-weight and best-effort only" caveat the paper attaches to its
//! prioritization.
//!
//! ## Dominated visitors
//!
//! [`run_traversal_filtered`] takes [`FrontierHooks`] that keep visitors a
//! later one supersedes from costing a visit:
//!
//! - Under the priority discipline ([`QueueKind::keyed`]), every visitor
//!   queued locally — seeded by `init`, pushed by a visit, or surviving
//!   receipt — is pushed under the hooks' `key`, and replaces the entry
//!   queued under the same key in place
//!   ([`crate::queue::VisitorQueue::push_keyed`]). Each drained inbound
//!   visitor first passes the `receive` hook, which either retires it (it
//!   was dominated on arrival) or returns the visitor to enqueue — usually
//!   a local form the hook has already applied. A conversion is not a
//!   push: it counts in neither `local_msgs` nor `remote_msgs`.
//! - Under the bucketed discipline ([`QueueKind::filters_stale`]) the
//!   queue applies the `stale` predicate at pop time.
//!
//! A retired, replaced or filtered visitor counts in
//! [`TraversalStats::stale_dropped`], is never visited and never
//! forwarded, and is recorded like a drop: a `Visit` lineage event with
//! `arg2 = 1` and a `StaleDropAgeUs` sample. FIFO and adversarial queues
//! use no hook. The plain entry points pass [`FrontierHooks::none`], so
//! their exact processed counts (which several tests pin) are unchanged.
//!
//! ## Termination
//!
//! Quiescence is detected with shared `sent` / `received` counters and an
//! idle-rank count (see [`crate::shared::Quiescence`]). `sent` is bumped
//! once per *batch* before it enters a channel and `received` when it is
//! drained, so `sent == received` implies no batch is in flight; ranks
//! flush their buffers before joining the idle set, so buffered visitors
//! can never hide from the detector. Rank 0 declares termination when it
//! observes, in order: `sent == received`, all ranks idle, and then
//! `sent`/`received` unchanged by a second read. A rank can only leave the
//! idle set by draining a batch, which bumps `received`; a working rank
//! can only create obligations by bumping `sent`. Both reads bracketing
//! the idle check being equal therefore proves no rank left idleness and
//! no new work appeared — the system is quiescent.
//!
//! ### Termination under an unreliable network
//!
//! With fault injection active ([`crate::faults`]), the channel layer
//! gives `sent` / `received` *acked-delivery* semantics without this
//! module changing a line: `sent` still counts logical batches at flush
//! time, but a batch only bumps `received` when its **first** copy is
//! delivered — acknowledgements are absorbed and duplicate deliveries
//! discarded below [`crate::channels::ChannelGroup::try_recv_traced`],
//! and a dropped copy is retransmitted (exponential backoff, injector
//! bypass past `max_attempts`) until one lands. `sent == received`
//! therefore still means exactly "every logical batch was delivered
//! exactly once": a drop cannot fake quiescence (the missing bump keeps
//! `sent > received`, and the sender's empty polls while waiting for
//! `done` keep its retransmit timer running), and a duplicate cannot
//! overshoot it (the dedup window swallows the second bump). The
//! double-read argument above then applies verbatim. The audit layer
//! checks the same claim independently: retransmitted copies reuse their
//! ledger id, so the exactly-once check holds *across* the reliability
//! layer — and a mutant that disables retransmission is flagged as lost
//! batches (see `tests/fault_injection.rs`).
//!
//! ## Verification hooks
//!
//! Each of the protocol's sync points (channel send/recv inside the
//! group, idle-set entry/exit, the rank-0 double-read gap) consults the
//! rank's [`crate::SchedulePerturber`] when the world runs perturbed, and
//! with the `check` feature the traversal verifies the audit invariants of
//! [`crate::audit`] at termination: rank 0 opens an audit epoch before
//! work starts, each rank reports if it exits with queued visitors, sends
//! after `done` are flagged where they happen, and rank 0 closes the epoch
//! by checking for lost batches, counter balance, and full idle
//! accounting.

use crate::audit::{self, AuditViolation};
use crate::channels::{ChannelGroup, LineageSidecar};
use crate::metrics::{MetricKind, PhaseMetrics};
use crate::perturb::SyncPoint;
use crate::queue::{QueueKind, VisitorQueue};
use crate::trace::TraceEventKind;
use crate::wire::{decode_batch, encode_batch, DeepBytes, Wire};
use crate::Comm;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;
use std::time::Duration;

/// Default visitors per network batch (HavoqGT-style aggregation).
pub const DEFAULT_BATCH_SIZE: usize = 64;

/// Tuning knobs of one traversal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraversalOptions {
    /// Local queue discipline.
    pub queue: QueueKind,
    /// Visitors per network batch (`1` disables aggregation).
    pub batch_size: usize,
}

impl TraversalOptions {
    /// Options with the given queue and the default batch size.
    pub fn new(queue: QueueKind) -> Self {
        TraversalOptions {
            queue,
            batch_size: DEFAULT_BATCH_SIZE,
        }
    }
}

/// Observability metadata carried next to each queued visitor: its
/// lineage id (`rank << 40 | seq`, 0 when observability is off or the
/// visitor arrived from an uninstrumented sender) and its local enqueue
/// time. All-zero — and never read — when neither tracing nor metrics
/// is enabled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct VisitMeta {
    id: u64,
    enq_us: u64,
}

impl DeepBytes for VisitMeta {
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Per-destination aggregation buffer: the visitor batch, a reusable
/// wire-encoding scratch buffer (capacity retained across flushes so the
/// steady state allocates nothing), plus (when observability is on) the
/// parallel lineage-id list that ships as the batch's [`LineageSidecar`].
struct OutBuf<V> {
    batch: Vec<V>,
    wire: Vec<u8>,
    ids: Vec<u64>,
}

impl<V> Default for OutBuf<V> {
    fn default() -> Self {
        OutBuf {
            batch: Vec::new(),
            wire: Vec::new(),
            ids: Vec::new(),
        }
    }
}

/// Per-rank lineage state for one traversal. `parent` is the id of the
/// visitor currently being visited (0 between visits, so seeds pushed by
/// `init` get parent 0 = root). The per-rank sequence counter lives on
/// the [`Comm`] so ids stay world-unique across phases.
struct Lineage {
    /// Tracing or metrics enabled — the single observability gate. When
    /// false no clock is read, no id assigned, no event recorded.
    enabled: bool,
    parent: u64,
}

impl Lineage {
    fn new(comm: &Comm) -> Lineage {
        Lineage {
            enabled: comm.observing(),
            parent: 0,
        }
    }

    /// Assigns the next lineage id and records the parent→child edge as
    /// a [`TraceEventKind::Spawn`]. Returns 0 when observability is off.
    fn spawn(&self, comm: &Comm, phase: &'static str) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = comm.next_lineage_id();
        comm.trace_event2(TraceEventKind::Spawn, phase, id, self.parent);
        id
    }

    /// Current time against the world epoch, or 0 when observability is
    /// off (keeps the uninstrumented hot path free of clock reads).
    fn now_us(&self, comm: &Comm) -> u64 {
        if self.enabled {
            comm.now_us()
        } else {
            0
        }
    }
}

/// Handle the `visit` callback uses to emit follow-on visitors.
pub struct Pusher<'a, V: Send + 'static> {
    rank: usize,
    batch_size: usize,
    chan: &'a ChannelGroup<Vec<V>>,
    comm: &'a Comm,
    local: &'a mut Vec<(VisitMeta, V)>,
    outgoing: &'a mut Vec<OutBuf<V>>,
    lineage: &'a Lineage,
    metrics: &'a Option<Arc<PhaseMetrics>>,
}

impl<'a, V: Send + Clone + Wire + DeepBytes + 'static> Pusher<'a, V> {
    /// Routes visitor `v` to `dest`: the local queue when `dest` is this
    /// rank, a (buffered) network batch otherwise. When observability is
    /// on, the push also records a causal edge from the visitor being
    /// visited (the traversal threads it through) to the new message.
    pub fn push(&mut self, dest: usize, v: V) {
        let id = self.lineage.spawn(self.comm, self.chan.phase());
        if dest == self.rank {
            self.chan.count_local();
            let enq_us = self.lineage.now_us(self.comm);
            self.local.push((VisitMeta { id, enq_us }, v));
        } else {
            let buf = &mut self.outgoing[dest];
            buf.batch.push(v);
            if self.lineage.enabled {
                buf.ids.push(id);
            }
            if buf.batch.len() >= self.batch_size {
                flush_one(
                    self.comm,
                    self.chan,
                    buf,
                    dest,
                    self.lineage.enabled,
                    self.metrics.as_deref(),
                );
            }
        }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Records an instant trace event from inside a visit callback
    /// (e.g. a delegate broadcast). No-op when tracing is off.
    pub fn trace_instant(&self, name: &'static str, arg: u64) {
        self.comm.trace_instant(name, arg);
    }
}

fn flush_one<V: Send + Clone + Wire + DeepBytes + 'static>(
    comm: &Comm,
    chan: &ChannelGroup<Vec<V>>,
    buffer: &mut OutBuf<V>,
    dest: usize,
    observing: bool,
    metrics: Option<&PhaseMetrics>,
) {
    if buffer.batch.is_empty() {
        return;
    }
    let q = &comm.shared().quiescence;
    if audit::is_active() && q.done.load(SeqCst) {
        // In the correct protocol no rank ships work after termination is
        // declared — a send here proves the detector fired early.
        comm.shared().audit.report(AuditViolation::SendAfterDone {
            src: comm.rank(),
            dest,
            phase: chan.phase(),
        });
    }
    // Count the in-flight batch before it enters the channel so the
    // quiescence detector can never observe sent < actual.
    q.sent.fetch_add(1, SeqCst);
    comm.trace_instant("batch_flush", buffer.batch.len() as u64);
    if let Some(m) = metrics {
        m.record(MetricKind::BatchSize, buffer.batch.len() as u64);
    }
    let lineage = if observing {
        Some(LineageSidecar {
            ids: std::mem::take(&mut buffer.ids).into_boxed_slice(),
            sent_us: comm.now_us(),
        })
    } else {
        None
    };
    // Coalesce the batch into one flat byte buffer: the encoded length is
    // the batch's *exact* wire size (what the channel layer charges), and
    // decoding it back before delivery makes the round-trip the wire
    // model — a lossy codec would corrupt the trees the tier-1 tests pin.
    // Both scratch buffers (`wire` here, `batch` via `clear`) keep their
    // capacity, so a steady-state flush allocates only the shipped Vec.
    buffer.wire.clear();
    encode_batch(&buffer.batch, &mut buffer.wire);
    let shipped = match decode_batch::<V>(&buffer.wire, buffer.batch.len()) {
        Some(v) => v,
        None => panic!(
            "wire codec violation: phase \"{phase}\": encode_batch produced \
             {len} bytes that decode_batch could not round-trip for visitor \
             type `{ty}` (the Wire impl's encoded_len/encode_into/decode_from \
             disagree)",
            phase = chan.phase(),
            len = buffer.wire.len(),
            ty = std::any::type_name::<V>(),
        ),
    };
    buffer.batch.clear();
    chan.send_batch_wire(dest, shipped, buffer.wire.len() as u64, lineage);
}

/// Caller hooks of [`run_traversal_filtered`] that keep dominated
/// visitors from being visited (see the module docs).
pub struct FrontierHooks<K, S, R> {
    /// Dense key of a locally queued visitor, or `None` for one that never
    /// supersedes another; keyed disciplines only.
    pub key: K,
    /// Pop-time staleness predicate; bucketed discipline only.
    pub stale: S,
    /// Receipt hook for each drained inbound visitor: `None` retires it,
    /// `Some(v)` enqueues `v`; keyed disciplines only.
    pub receive: R,
}

impl<V> FrontierHooks<fn(&V) -> Option<u32>, fn(&V) -> bool, fn(V) -> Option<V>> {
    /// Hooks that key nothing, filter nothing and enqueue every receipt.
    pub fn none() -> Self {
        FrontierHooks {
            key: |_| None,
            stale: |_| false,
            receive: Some,
        }
    }
}

/// The terminal consumption of a dominated visitor that is never visited:
/// counted in [`TraversalStats::stale_dropped`] and the telemetry, traced
/// as a `Visit` lineage event with `arg2 = 1` (stale), so the causality
/// DAG stays covered — every spawn still meets its end — while analyzers
/// can tell drops from real visits, and its queue residency recorded as
/// `StaleDropAgeUs`.
fn record_drop(
    comm: &Comm,
    phase: &'static str,
    observing: bool,
    metrics: Option<&PhaseMetrics>,
    stats: &mut TraversalStats,
    meta: VisitMeta,
) {
    stats.stale_dropped += 1;
    comm.telemetry_stale_drop(1);
    if observing {
        comm.trace_event2(TraceEventKind::Visit, phase, meta.id, 1);
    }
    if let Some(m) = metrics {
        m.record(
            MetricKind::StaleDropAgeUs,
            comm.now_us().saturating_sub(meta.enq_us),
        );
    }
}

/// Per-rank statistics returned by [`run_traversal`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Visitors this rank processed (local + remote).
    pub processed: u64,
    /// Visitors dropped unvisited by the [`FrontierHooks`] of
    /// [`run_traversal_filtered`] — retired at receipt, replaced by a
    /// keyed push, or filtered at pop time (always 0 for the plain entry
    /// points and for the full-delivery disciplines).
    pub stale_dropped: u64,
    /// Peak length of this rank's local queue.
    pub peak_queue_len: usize,
    /// Peak bytes held by this rank's local queue buffers.
    pub peak_queue_bytes: usize,
}

/// Runs one asynchronous traversal to quiescence with default aggregation.
/// Collective: every rank of the world must call it with the same channel
/// group (by open order) and options. `init` seeds this rank's local
/// queue; `priority` keys the priority discipline (ignored under FIFO);
/// `visit` processes one visitor and may push more through the [`Pusher`].
pub fn run_traversal<V, P, F>(
    comm: &Comm,
    chan: &ChannelGroup<Vec<V>>,
    queue: QueueKind,
    priority: P,
    init: impl IntoIterator<Item = V>,
    visit: F,
) -> TraversalStats
where
    V: Send + Clone + Wire + DeepBytes + 'static,
    P: Fn(&V) -> u64,
    F: FnMut(V, &mut Pusher<'_, V>),
{
    run_traversal_config(
        comm,
        chan,
        TraversalOptions::new(queue),
        priority,
        init,
        visit,
    )
}

/// [`run_traversal`] with explicit [`TraversalOptions`].
pub fn run_traversal_config<V, P, F>(
    comm: &Comm,
    chan: &ChannelGroup<Vec<V>>,
    options: TraversalOptions,
    priority: P,
    init: impl IntoIterator<Item = V>,
    visit: F,
) -> TraversalStats
where
    V: Send + Clone + Wire + DeepBytes + 'static,
    P: Fn(&V) -> u64,
    F: FnMut(V, &mut Pusher<'_, V>),
{
    traversal_loop::<false, V, P, _, _, _, F>(
        comm,
        chan,
        options,
        priority,
        FrontierHooks::none(),
        init,
        visit,
        Duration::ZERO,
    )
}

/// [`run_traversal_config`] with [`FrontierHooks`] that drop dominated
/// visitors unvisited, counting them in [`TraversalStats::stale_dropped`].
///
/// - Priority discipline: local pushes are keyed by `hooks.key`, so a key
///   holds at most one queued visitor and a newer push replaces the older
///   in place; each inbound visitor is passed to `hooks.receive` as it is
///   drained, before it is queued, and retired if that returns `None`.
///   The replacement must dominate what it replaces, and a retired
///   visitor must be one whose visit would have done nothing.
/// - Bucketed discipline: a queued visitor for which `hooks.stale`
///   returns true when it reaches the head of the queue is dropped — the
///   lazy decrease-key emulation of delta-stepping. `stale` must be
///   *monotone*: once a visitor is stale it stays stale (labels only
///   improve), so dropping it can never lose work that a later state
///   would have needed.
/// - FIFO and adversarial disciplines use no hook and deliver every
///   visitor (those are the full-delivery baselines the chaos matrix
///   compares against).
pub fn run_traversal_filtered<V, P, K, S, R, F>(
    comm: &Comm,
    chan: &ChannelGroup<Vec<V>>,
    options: TraversalOptions,
    priority: P,
    hooks: FrontierHooks<K, S, R>,
    init: impl IntoIterator<Item = V>,
    visit: F,
) -> TraversalStats
where
    V: Send + Clone + Wire + DeepBytes + 'static,
    P: Fn(&V) -> u64,
    K: Fn(&V) -> Option<u32>,
    S: FnMut(&V) -> bool,
    R: FnMut(V) -> Option<V>,
    F: FnMut(V, &mut Pusher<'_, V>),
{
    traversal_loop::<false, V, P, K, S, R, F>(
        comm,
        chan,
        options,
        priority,
        hooks,
        init,
        visit,
        Duration::ZERO,
    )
}

/// **Mutation-check variant, `check` builds only — never use for real
/// work.** Identical to [`run_traversal_config`] except the channel-drain
/// step deliberately reorders the idle-set exit after the `received`
/// bump (with `delay` dwelling in the window between them) — the exact
/// reordering the correct protocol forbids, reintroducing the
/// premature-termination race the double-read protocol exists to close.
/// Tests use it to prove the audit layer flags the race (lost batches,
/// counter mismatch, sends after `done`).
#[cfg(feature = "check")]
pub fn run_traversal_mutant_premature<V, P, F>(
    comm: &Comm,
    chan: &ChannelGroup<Vec<V>>,
    options: TraversalOptions,
    priority: P,
    init: impl IntoIterator<Item = V>,
    visit: F,
    delay: Duration,
) -> TraversalStats
where
    V: Send + Clone + Wire + DeepBytes + 'static,
    P: Fn(&V) -> u64,
    F: FnMut(V, &mut Pusher<'_, V>),
{
    traversal_loop::<true, V, P, _, _, _, F>(
        comm,
        chan,
        options,
        priority,
        FrontierHooks::none(),
        init,
        visit,
        delay,
    )
}

/// The traversal loop. `PREMATURE_MUTANT` selects the intentionally broken
/// drain ordering used by the audit mutation check (see
/// [`run_traversal_mutant_premature`]); production entry points
/// monomorphize with `false`, so the mutant branch compiles away.
#[allow(clippy::too_many_arguments)]
fn traversal_loop<const PREMATURE_MUTANT: bool, V, P, K, S, R, F>(
    comm: &Comm,
    chan: &ChannelGroup<Vec<V>>,
    options: TraversalOptions,
    priority: P,
    mut hooks: FrontierHooks<K, S, R>,
    init: impl IntoIterator<Item = V>,
    mut visit: F,
    mutant_delay: Duration,
) -> TraversalStats
where
    V: Send + Clone + Wire + DeepBytes + 'static,
    P: Fn(&V) -> u64,
    K: Fn(&V) -> Option<u32>,
    S: FnMut(&V) -> bool,
    R: FnMut(V) -> Option<V>,
    F: FnMut(V, &mut Pusher<'_, V>),
{
    assert!(options.batch_size >= 1, "batch size must be positive");
    let q = &comm.shared().quiescence;
    let p = comm.num_ranks();
    let rank = comm.rank();

    // Fresh detector state; the barriers fence off the previous traversal.
    comm.barrier();
    let mut audit_epoch = 0;
    if rank == 0 {
        q.reset();
        if audit::is_active() {
            audit_epoch = comm.shared().audit.begin_epoch();
        }
    }
    comm.barrier();

    // Fetch the phase's histogram set once so recording inside the loop
    // never touches the registry lock; `lineage` gates every clock read
    // and id assignment so an unobserved run takes only `None` branches.
    let mut lineage = Lineage::new(comm);
    let metrics = comm.metrics_phase(chan.phase());

    let mut stats = TraversalStats::default();
    let mut queue: VisitorQueue<(VisitMeta, V)> = VisitorQueue::new(options.queue);
    let keyed = options.queue.keyed();
    let phase = chan.phase();
    let observing = lineage.enabled;
    // Queues one visitor, keyed under the keyed discipline; a visitor it
    // replaces is dropped unvisited.
    let enqueue = |queue: &mut VisitorQueue<(VisitMeta, V)>,
                   stats: &mut TraversalStats,
                   meta: VisitMeta,
                   v: V| {
        let key = if keyed { (hooks.key)(&v) } else { None };
        if let Some((old, _)) = queue.push_keyed(priority(&v), key, (meta, v)) {
            record_drop(comm, phase, observing, metrics.as_deref(), stats, old);
        }
    };
    for v in init {
        let id = lineage.spawn(comm, phase);
        let enq_us = lineage.now_us(comm);
        enqueue(&mut queue, &mut stats, VisitMeta { id, enq_us }, v);
    }
    // Sample the peak right after seeding: with N init visitors the true
    // maximum is N, which the after-a-visit sample below would miss by
    // one (the Fig 8 memory numbers come from these peaks).
    stats.peak_queue_len = stats.peak_queue_len.max(queue.len());
    stats.peak_queue_bytes = stats.peak_queue_bytes.max(queue.memory_bytes());

    let mut local_buf: Vec<(VisitMeta, V)> = Vec::new();
    let mut outgoing: Vec<OutBuf<V>> = (0..p).map(|_| OutBuf::default()).collect();
    let mut idle = false;
    let traversal_span = comm.trace_span("traversal");

    loop {
        // Drain the inbound channel into the local queue. Leave the idle
        // set BEFORE acknowledging the batch: if `received` were bumped
        // first, the detector could observe `sent == received` while this
        // rank still counted as idle and held an unprocessed batch — a
        // premature-termination race.
        while let Some((batch, sidecar)) = chan.try_recv_traced() {
            if PREMATURE_MUTANT {
                // Intentionally wrong order (mutation check): acknowledge
                // the batch while still counted idle, and dwell in the
                // race window so the detector can misfire.
                q.received.fetch_add(1, SeqCst);
                std::thread::sleep(mutant_delay);
                if idle {
                    comm.pause(SyncPoint::IdleExit);
                    q.idle.fetch_sub(1, SeqCst);
                    idle = false;
                    comm.trace_event(TraceEventKind::SpanEnd, "idle", 0);
                }
            } else {
                if idle {
                    comm.pause(SyncPoint::IdleExit);
                    q.idle.fetch_sub(1, SeqCst);
                    idle = false;
                    comm.trace_event(TraceEventKind::SpanEnd, "idle", 0);
                }
                q.received.fetch_add(1, SeqCst);
            }
            let now = lineage.now_us(comm);
            if let (Some(m), Some(sc)) = (metrics.as_deref(), sidecar.as_ref()) {
                m.record(MetricKind::MsgLatencyUs, now.saturating_sub(sc.sent_us));
            }
            for (i, v) in batch.into_iter().enumerate() {
                let id = sidecar
                    .as_ref()
                    .and_then(|sc| sc.ids.get(i).copied())
                    .unwrap_or(0);
                let meta = VisitMeta { id, enq_us: now };
                // Receipt: under the keyed discipline the hook applies the
                // visitor now, retiring it if it is already dominated.
                let v = if keyed {
                    match (hooks.receive)(v) {
                        Some(v) => v,
                        None => {
                            let m = metrics.as_deref();
                            record_drop(comm, phase, observing, m, &mut stats, meta);
                            continue;
                        }
                    }
                } else {
                    v
                };
                enqueue(&mut queue, &mut stats, meta, v);
            }
        }
        // Sample the peak at drain time, before any visitor is popped:
        // the queue is at its true maximum right after an inbound batch
        // lands, a point the after-a-visit sample can never see.
        stats.peak_queue_len = stats.peak_queue_len.max(queue.len());
        stats.peak_queue_bytes = stats.peak_queue_bytes.max(queue.memory_bytes());

        // Pop through the stale filter (bucketed only): entries the
        // predicate marks as dominated die here without a visit.
        let (popped, _) = queue.pop_stale_filtered(|(meta, v)| {
            if !(hooks.stale)(v) {
                return false;
            }
            record_drop(
                comm,
                phase,
                observing,
                metrics.as_deref(),
                &mut stats,
                *meta,
            );
            true
        });
        if let Some((meta, v)) = popped {
            debug_assert!(!idle, "queue cannot be non-empty while idle");
            let visit_start = lineage.now_us(comm);
            if lineage.enabled {
                comm.trace_event2(TraceEventKind::Visit, phase, meta.id, 0);
            }
            if let Some(m) = metrics.as_deref() {
                m.record(
                    MetricKind::QueueResidencyUs,
                    visit_start.saturating_sub(meta.enq_us),
                );
            }
            // Every push inside this visit records `meta.id` as parent —
            // the causal edge the analyzer's DAG is built from.
            lineage.parent = meta.id;
            let mut pusher = Pusher {
                rank,
                batch_size: options.batch_size,
                chan,
                comm,
                local: &mut local_buf,
                outgoing: &mut outgoing,
                lineage: &lineage,
                metrics: &metrics,
            };
            visit(v, &mut pusher);
            lineage.parent = 0;
            if let Some(m) = metrics.as_deref() {
                m.record(
                    MetricKind::VisitServiceUs,
                    comm.now_us().saturating_sub(visit_start),
                );
            }
            stats.processed += 1;
            comm.fault_visit_tick();
            // Sample queue depth sparsely (every 256 visitors, starting
            // at the first) so the trace stays light on big runs but
            // tiny test graphs still get at least one sample.
            if stats.processed & 0xff == 1 {
                comm.trace_instant("queue_depth", queue.len() as u64);
            }
            for (nmeta, nv) in local_buf.drain(..) {
                enqueue(&mut queue, &mut stats, nmeta, nv);
            }
            stats.peak_queue_len = stats.peak_queue_len.max(queue.len());
            stats.peak_queue_bytes = stats.peak_queue_bytes.max(queue.memory_bytes());
            // Telemetry step hook: advances the step-keyed sampling
            // cadence once per executed visit (a null check when
            // telemetry is off, like the sparse trace sample above).
            comm.telemetry_visit(queue.len(), queue.memory_bytes());
            continue;
        }

        // Local queue dry: flush aggregation buffers before going idle so
        // buffered visitors are visible to the quiescence detector.
        let mut flushed = false;
        for (dest, buffer) in outgoing.iter_mut().enumerate() {
            if !buffer.batch.is_empty() {
                flush_one(
                    comm,
                    chan,
                    buffer,
                    dest,
                    lineage.enabled,
                    metrics.as_deref(),
                );
                flushed = true;
            }
        }
        if flushed {
            continue; // Re-check the channel before idling.
        }

        // Locally quiet: join the idle set and watch for termination.
        if !idle {
            comm.pause(SyncPoint::IdleEnter);
            q.idle.fetch_add(1, SeqCst);
            idle = true;
            comm.trace_event(TraceEventKind::SpanBegin, "idle", 0);
        }
        if q.done.load(SeqCst) {
            break;
        }
        if rank == 0 {
            let s1 = q.sent.load(SeqCst);
            let r1 = q.received.load(SeqCst);
            if s1 == r1 && q.idle.load(SeqCst) == p {
                comm.pause(SyncPoint::DoubleRead);
                let s2 = q.sent.load(SeqCst);
                let r2 = q.received.load(SeqCst);
                if s1 == s2 && r1 == r2 {
                    q.done.store(true, SeqCst);
                    break;
                }
            }
        }
        std::thread::yield_now();
    }

    if idle {
        // Close the open idle span so begin/end events stay paired.
        comm.trace_event(TraceEventKind::SpanEnd, "idle", 0);
    }
    drop(traversal_span);

    if audit::is_active() && !queue.is_empty() {
        // A correct exit always drains the local queue first.
        comm.shared()
            .audit
            .report(AuditViolation::PrematureTermination {
                rank,
                queued: queue.len(),
            });
    }

    comm.memory()
        .record("visitor_queue_peak", stats.peak_queue_bytes);
    // No rank may reset the detector (next traversal) before all have left.
    comm.barrier();
    if rank == 0 && audit::is_active() {
        // All ranks have exited (post-barrier), so every ledger entry for
        // this epoch is final; any rank entering a *next* traversal blocks
        // on its opening barrier until rank 0 finishes here.
        comm.shared().audit.verify_quiescence(
            audit_epoch,
            p,
            q.sent.load(SeqCst),
            q.received.load(SeqCst),
            q.idle.load(SeqCst),
        );
    }
    stats
}
