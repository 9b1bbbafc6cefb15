//! Typed point-to-point channels between ranks, with an optional
//! reliability protocol over an unreliable (fault-injected) network.
//!
//! A [`ChannelGroup`] is the simulation's network interface: rank-to-rank
//! unbounded channels carrying one visitor type, opened collectively (every
//! rank must call [`crate::Comm::open_channels`] in the same program order,
//! exactly like creating an MPI communicator). Sends are attributed to the
//! phase label the group was opened under, through a single accounting
//! hook ([`ChannelGroup::charge`]) shared by both send paths.
//!
//! stcheck: allow-file(wallclock): the reliability layer's retransmission
//! deadlines and delayed-delivery due times are real timers by design —
//! they only decide *when* a retransmit fires, and delivery is
//! deduplicated by sequence number, so timing never changes the delivered
//! message stream.
//!
//! With the `check` feature, every message travels inside a
//! [`crate::audit::Tagged`] envelope carrying a world-unique batch id,
//! recorded against the world's [`crate::audit::AuditState`] ledger on
//! send and matched on delivery; without the feature the wire type is the
//! bare message and no ledger calls are compiled in.
//!
//! ## Reliability under injected faults
//!
//! When the world runs with a [`crate::faults::FaultPlan`], every
//! *sequenced* transmission consults the rank's
//! [`crate::faults::FaultInjector`] at the [`ChannelGroup::ship`] /
//! [`ChannelGroup::try_recv_traced`] boundary and may be dropped,
//! duplicated, or parked. The protocol that defeats the injector:
//!
//! - **Sequence numbers** — each sender assigns a per-(src, dest, channel)
//!   sequence (starting at 1; `seq == 0` marks unsequenced traffic, so a
//!   fault-free world ships byte-identical messages down the identical
//!   code path plus one enum discriminant).
//! - **Sender-side unacked buffer** — every sequenced message is stashed
//!   (a clone of the wire payload, so the audit id is preserved across
//!   retransmissions) until the destination acknowledges it. Overdue
//!   entries are retransmitted with exponential backoff by
//!   [`ChannelGroup::tick`], which runs on every empty poll — an idle
//!   rank polling for termination is therefore also the retransmit timer.
//! - **Receiver-side dedup window** — per-source watermark + sparse set;
//!   a re-delivered sequence is counted, re-acknowledged, and discarded
//!   *before* the audit unwrap, so the ledger sees exactly-once delivery
//!   even when the wire carried a batch twice.
//! - **Acks** — receivers acknowledge every sequenced delivery through
//!   the same channel mesh. First acknowledgements are themselves subject
//!   to injection (a lost ack is healed by the sender's retransmit and
//!   the receiver's re-ack); re-acknowledgements of duplicates bypass the
//!   injector, which bounds the recovery loop. Past
//!   [`crate::faults::FaultPlan::max_attempts`] transmissions the
//!   injector stands aside entirely, turning eventual delivery into a
//!   guarantee.
//!
//! Injection is scoped to sequenced traffic — the aggregated visitor
//! batches of [`crate::traversal`], whose drain loop polls continuously
//! and therefore pumps the retransmit timer. The plain [`ChannelGroup::
//! send`] path models control-plane traffic (rendezvous sends around
//! barriers, unit probes) whose callers assume reliable delivery, and a
//! self-send never leaves the rank, so neither is faulted. The quiescence
//! counters' interaction with this protocol — why `sent == received`
//! still proves termination when the wire drops and duplicates batches —
//! is argued in the [`crate::traversal`] module docs.

#[cfg(feature = "check")]
use crate::audit::AuditState;
use crate::counters::PhaseStats;
use crate::faults::{FaultAction, FaultInjector};
use crate::perturb::{SchedulePerturber, SyncPoint};
use crate::shared::Shared;
use crate::telemetry::{Gauge, TelemetrySampler};
use crate::trace::{TraceBuffer, TraceEventKind};
use crate::wire::DeepBytes;
use crossbeam::channel::{Receiver, Sender, TryRecvError};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long (ms) a send to a peer whose endpoint is gone waits for the
/// abort epoch before treating the dead endpoint as a protocol bug; see
/// `ChannelGroup::raw_send`.
const DEAD_PEER_GRACE_MS: u32 = 5_000;

/// The caller's message as shipped, wrapped in an audit envelope on
/// `check` builds.
#[cfg(feature = "check")]
pub(crate) type Wire<T> = crate::audit::Tagged<T>;
/// The caller's message as shipped (bare — the audit envelope exists
/// only on `check` builds).
#[cfg(not(feature = "check"))]
pub(crate) type Wire<T> = T;

/// Base ack timeout before the first retransmission; doubles per attempt.
const RETRANSMIT_BASE: Duration = Duration::from_micros(200);
/// Backoff exponent cap (200µs << 8 ≈ 51ms) so a long-lived entry keeps a
/// bounded, predictable timer.
const BACKOFF_CAP: u32 = 8;

/// Observability sidecar riding next to a traversal batch on the wire.
/// Present only when the sending world records traces or metrics, so an
/// uninstrumented run ships `None` and pays one machine word per batch.
/// Cloneable because the reliability layer stashes it with the payload
/// for retransmission.
#[derive(Clone)]
pub(crate) struct LineageSidecar {
    /// Lineage ids of the batch's visitors, parallel to the payload.
    pub ids: Box<[u64]>,
    /// Flush time, microseconds since the world's shared epoch.
    pub sent_us: u64,
}

/// What actually travels through a channel. `Data` carries the (possibly
/// audit-tagged) payload plus the optional observability sidecar; `Ack`
/// is the reliability layer's receipt flowing back to the sender. A
/// fault-free world only ever constructs `Data` with `seq == 0`, so the
/// reliability machinery costs it one discriminant match per receive.
pub(crate) enum WireMsg<T> {
    /// A payload-carrying message.
    Data {
        /// Sending rank (the ack's return address and the dedup key).
        src: usize,
        /// Per-(src, dest, channel) sequence, `0` = unsequenced.
        seq: u64,
        /// The caller's message, audit-tagged on `check` builds.
        payload: Wire<T>,
        /// Observability sidecar (lineage ids + send timestamp).
        lineage: Option<LineageSidecar>,
    },
    /// Receipt for a sequenced message, sent by its destination.
    Ack {
        /// The acknowledging rank (indexes the sender's unacked buffer).
        from: usize,
        /// The acknowledged sequence number.
        seq: u64,
    },
}

/// One sequenced message awaiting acknowledgement: enough state to
/// retransmit it bit-identically (the stored wire payload keeps its audit
/// id, so the ledger sees one send however many times the bytes fly).
struct Unacked<T> {
    payload: Wire<T>,
    lineage: Option<LineageSidecar>,
    /// Deep wire size of the payload, so the telemetry gauges can release
    /// exactly what they charged when the ack lands.
    bytes: u64,
    /// Transmissions so far (1 after the original send).
    attempts: u32,
    /// When the next retransmission fires.
    deadline: Instant,
}

/// A message the injector parked; shipped by [`ChannelGroup::tick`] once
/// `due` passes.
struct Delayed<T> {
    due: Instant,
    dest: usize,
    msg: WireMsg<T>,
}

/// Per-source receive window: `watermark` is the highest sequence below
/// which everything was delivered; `seen` holds delivered sequences above
/// it (out-of-order arrivals, compacted back into the watermark as gaps
/// close).
#[derive(Default)]
struct DedupWindow {
    watermark: u64,
    seen: HashSet<u64>,
}

impl DedupWindow {
    /// Records `seq` as delivered. Returns `false` if it already was —
    /// the caller must discard the message (and re-ack it).
    fn register(&mut self, seq: u64) -> bool {
        if seq <= self.watermark || !self.seen.insert(seq) {
            return false;
        }
        while self.seen.remove(&(self.watermark + 1)) {
            self.watermark += 1;
        }
        true
    }
}

/// Sender- and receiver-side reliability state of one rank's endpoint of
/// one channel group. Allocated only when the world injects faults.
struct ReliableState<T> {
    /// Next sequence to assign, per destination (starts at 1).
    next_seq: Vec<u64>,
    /// Unacknowledged sequenced sends, per destination.
    unacked: Vec<BTreeMap<u64, Unacked<T>>>,
    /// Injector-parked messages awaiting their due time.
    delayed: Vec<Delayed<T>>,
    /// Receive dedup window, per source.
    dedup: Vec<DedupWindow>,
}

impl<T> ReliableState<T> {
    fn new(p: usize) -> Self {
        ReliableState {
            next_seq: vec![1; p],
            unacked: (0..p).map(|_| BTreeMap::new()).collect(),
            delayed: Vec::new(),
            dedup: (0..p).map(|_| DedupWindow::default()).collect(),
        }
    }
}

/// Retransmit deadline for a message transmitted `attempts` times:
/// exponential backoff from [`RETRANSMIT_BASE`], capped.
fn backoff_deadline(now: Instant, attempts: u32) -> Instant {
    now + RETRANSMIT_BASE * (1 << attempts.saturating_sub(1).min(BACKOFF_CAP))
}

/// Non-generic context a group needs from its world: the shared state
/// (audit ledger, quiescence detector), this rank's schedule perturber
/// and fault injector (when configured), and the trace buffer for the
/// reliability layer's instants.
pub(crate) struct GroupCtx {
    pub shared: Arc<Shared>,
    pub perturb: Option<Arc<SchedulePerturber>>,
    pub faults: Option<Arc<FaultInjector>>,
    pub trace: Option<Arc<TraceBuffer>>,
    pub telemetry: Option<Arc<TelemetrySampler>>,
    pub phase: &'static str,
}

impl GroupCtx {
    /// A context detached from any world, for unit tests.
    #[cfg(test)]
    pub(crate) fn detached(phase: &'static str) -> Self {
        GroupCtx {
            shared: Arc::new(Shared::new(1)),
            perturb: None,
            faults: None,
            trace: None,
            telemetry: None,
            phase,
        }
    }

    /// [`GroupCtx::detached`] with a fault injector, for reliability unit
    /// tests.
    #[cfg(test)]
    pub(crate) fn detached_faulty(phase: &'static str, inj: Arc<FaultInjector>) -> Self {
        GroupCtx {
            faults: Some(inj),
            ..GroupCtx::detached(phase)
        }
    }

    #[cfg(feature = "check")]
    fn audit(&self) -> &AuditState {
        &self.shared.audit
    }
}

/// One rank's endpoints of a typed all-to-all channel group.
pub struct ChannelGroup<T: Send + 'static> {
    rank: usize,
    senders: Vec<Sender<WireMsg<T>>>,
    receiver: Receiver<WireMsg<T>>,
    stats: Arc<PhaseStats>,
    ctx: GroupCtx,
    /// Reliability state; `Some` exactly when the world injects faults.
    reliable: Option<Mutex<ReliableState<T>>>,
}

impl<T: Send + Clone + 'static> ChannelGroup<T> {
    pub(crate) fn new(
        rank: usize,
        senders: Vec<Sender<WireMsg<T>>>,
        receiver: Receiver<WireMsg<T>>,
        stats: Arc<PhaseStats>,
        ctx: GroupCtx,
    ) -> Self {
        let p = senders.len();
        let reliable = ctx
            .faults
            .as_ref()
            .map(|_| Mutex::new(ReliableState::new(p)));
        ChannelGroup {
            rank,
            senders,
            receiver,
            stats,
            ctx,
            reliable,
        }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the group.
    pub fn num_ranks(&self) -> usize {
        self.senders.len()
    }

    /// The phase label this group was opened under.
    pub fn phase(&self) -> &'static str {
        self.ctx.phase
    }

    fn pause(&self, point: SyncPoint) {
        self.ctx.shared.poll_abort(self.rank);
        if let Some(p) = &self.ctx.perturb {
            p.pause(point);
        }
        if let Some(f) = &self.ctx.faults {
            f.maybe_stall(point);
            f.maybe_crash(point);
        }
    }

    fn trace_instant(&self, name: &'static str, arg: u64) {
        if let Some(buf) = &self.ctx.trace {
            buf.record(TraceEventKind::Instant, name, arg);
        }
    }

    /// Wraps a message for the wire, recording the send in the audit
    /// ledger (check builds).
    #[cfg(feature = "check")]
    fn wrap(&self, dest: usize, payload: T, visitors: u64) -> Wire<T> {
        let id = self
            .ctx
            .audit()
            .record_send(self.rank, dest, self.ctx.phase, visitors);
        crate::audit::Tagged { id, payload }
    }

    /// Wraps a message for the wire (identity without the audit layer).
    #[cfg(not(feature = "check"))]
    fn wrap(&self, _dest: usize, payload: T, _visitors: u64) -> Wire<T> {
        payload
    }

    /// Unwraps a wire message, recording the delivery in the audit ledger
    /// (check builds).
    #[cfg(feature = "check")]
    fn unwrap_wire(&self, wire: Wire<T>) -> T {
        self.ctx.audit().record_recv(wire.id, self.rank);
        wire.payload
    }

    /// Unwraps a wire message (identity without the audit layer).
    #[cfg(not(feature = "check"))]
    fn unwrap_wire(&self, wire: Wire<T>) -> T {
        wire
    }

    /// Puts a message on the crossbeam channel — the only call site of
    /// the raw send, below the fault injector.
    ///
    /// A send fails only once `dest` has dropped its endpoint, i.e. its
    /// rank code exited while the world still runs. Mid-world that is a
    /// crash-stopped peer unwinding towards its `catch_unwind`, which
    /// raises the abort epoch a moment later — so wait for the epoch and
    /// unwind as a [`crate::CooperativeAbort`] instead of being recorded
    /// as a second, spurious `Panic`. A peer that exited normally never
    /// raises it: after the grace period that protocol bug still panics.
    fn raw_send(&self, dest: usize, msg: WireMsg<T>) {
        if self.senders[dest].send(msg).is_ok() {
            return;
        }
        for _ in 0..DEAD_PEER_GRACE_MS {
            self.ctx.shared.poll_abort(self.rank);
            std::thread::sleep(Duration::from_millis(1));
        }
        unreachable!("receiver endpoint dropped while its world is running");
    }

    /// Ships a wire payload to `dest`. `sequenced` traffic (traversal
    /// batches) runs the full reliability protocol when the world injects
    /// faults; unsequenced traffic and self-sends ship directly.
    fn ship(
        &self,
        dest: usize,
        payload: Wire<T>,
        lineage: Option<LineageSidecar>,
        bytes: u64,
        sequenced: bool,
    ) {
        let (rel, inj) = match (&self.reliable, &self.ctx.faults) {
            (Some(rel), Some(inj)) if sequenced && dest != self.rank => (rel, inj),
            _ => {
                self.raw_send(
                    dest,
                    WireMsg::Data {
                        src: self.rank,
                        seq: 0,
                        payload,
                        lineage,
                    },
                );
                return;
            }
        };
        if inj.plan().mutant_no_retransmit {
            // **Test-only mutant**: a runtime unaware the network drops
            // messages. The batch is gone for good (nothing stashed, no
            // retransmit timer), and because the sender already counted
            // it (`flush_one` bumps `sent` before shipping), the loss is
            // hidden from the quiescence detector so the traversal still
            // terminates — exactly the silent data loss the audit
            // ledger's exactly-once check must expose as a LostBatch.
            if matches!(inj.draw(0), FaultAction::Drop) {
                self.ctx
                    .shared
                    .quiescence
                    .sent
                    .fetch_sub(1, Ordering::SeqCst);
                return;
            }
            self.raw_send(
                dest,
                WireMsg::Data {
                    src: self.rank,
                    seq: 0,
                    payload,
                    lineage,
                },
            );
            return;
        }
        let now = Instant::now();
        let mut st = rel.lock();
        let seq = st.next_seq[dest];
        st.next_seq[dest] += 1;
        let msg = WireMsg::Data {
            src: self.rank,
            seq,
            payload: payload.clone(),
            lineage: lineage.clone(),
        };
        st.unacked[dest].insert(
            seq,
            Unacked {
                payload,
                lineage,
                bytes,
                attempts: 1,
                deadline: backoff_deadline(now, 1),
            },
        );
        if let Some(t) = &self.ctx.telemetry {
            t.add(Gauge::UnackedBatches, 1);
            t.add(Gauge::ReliabilityBytes, bytes);
        }
        match inj.draw(0) {
            FaultAction::Deliver => self.raw_send(dest, msg),
            FaultAction::Drop => {}
            FaultAction::Duplicate => {
                self.raw_send(dest, self.clone_data(&msg));
                self.raw_send(dest, msg);
            }
            FaultAction::Delay(d) => st.delayed.push(Delayed {
                due: now + d,
                dest,
                msg,
            }),
        }
    }

    /// Clones a `Data` wire message (retransmissions and duplications
    /// reuse the stored payload, audit id included).
    fn clone_data(&self, msg: &WireMsg<T>) -> WireMsg<T> {
        match msg {
            WireMsg::Data {
                src,
                seq,
                payload,
                lineage,
            } => WireMsg::Data {
                src: *src,
                seq: *seq,
                payload: payload.clone(),
                lineage: lineage.clone(),
            },
            WireMsg::Ack { from, seq } => WireMsg::Ack {
                from: *from,
                seq: *seq,
            },
        }
    }

    /// Acknowledges sequence `seq` back to `src`. A first ack runs
    /// through the injector (losing it just provokes a retransmission we
    /// then re-ack); a re-ack of a duplicate bypasses it so the recovery
    /// loop is bounded.
    fn send_ack(
        &self,
        src: usize,
        seq: u64,
        fresh: bool,
        rel: &Mutex<ReliableState<T>>,
        inj: &FaultInjector,
    ) {
        let ack = WireMsg::Ack {
            from: self.rank,
            seq,
        };
        if !fresh {
            self.raw_send(src, ack);
            return;
        }
        match inj.draw(0) {
            FaultAction::Deliver => self.raw_send(src, ack),
            FaultAction::Drop => {}
            FaultAction::Duplicate => {
                self.raw_send(
                    src,
                    WireMsg::Ack {
                        from: self.rank,
                        seq,
                    },
                );
                self.raw_send(src, ack);
            }
            FaultAction::Delay(d) => rel.lock().delayed.push(Delayed {
                due: Instant::now() + d,
                dest: src,
                msg: ack,
            }),
        }
    }

    /// The reliability layer's timer, run on every empty poll: ships
    /// injector-parked messages whose due time passed and retransmits
    /// overdue unacknowledged sends with exponential backoff. Idle ranks
    /// poll their channels continuously while waiting for quiescence, so
    /// the timer needs no dedicated thread.
    fn tick(&self, rel: &Mutex<ReliableState<T>>, inj: &FaultInjector) {
        let now = Instant::now();
        let mut st = rel.lock();
        let mut i = 0;
        while i < st.delayed.len() {
            if st.delayed[i].due <= now {
                let d = st.delayed.swap_remove(i);
                self.raw_send(d.dest, d.msg);
            } else {
                i += 1;
            }
        }
        let mut resend: Vec<(usize, u64, u32)> = Vec::new();
        for (dest, pending) in st.unacked.iter_mut().enumerate() {
            for (&seq, entry) in pending.iter_mut() {
                if entry.deadline <= now {
                    entry.attempts += 1;
                    entry.deadline = backoff_deadline(now, entry.attempts);
                    resend.push((dest, seq, entry.attempts));
                }
            }
        }
        for (dest, seq, attempts) in resend {
            let entry = match st.unacked[dest].get(&seq) {
                Some(e) => e,
                None => continue,
            };
            let msg = WireMsg::Data {
                src: self.rank,
                seq,
                payload: entry.payload.clone(),
                lineage: entry.lineage.clone(),
            };
            inj.stats().retransmits.fetch_add(1, Ordering::Relaxed);
            self.trace_instant("retransmit", seq);
            // Past max_attempts `draw` always answers Deliver, so every
            // message is eventually forced through.
            match inj.draw(attempts.saturating_sub(1)) {
                FaultAction::Deliver => self.raw_send(dest, msg),
                FaultAction::Drop => {}
                FaultAction::Duplicate => {
                    self.raw_send(dest, self.clone_data(&msg));
                    self.raw_send(dest, msg);
                }
                FaultAction::Delay(d) => st.delayed.push(Delayed {
                    due: now + d,
                    dest,
                    msg,
                }),
            }
        }
    }

    /// The single accounting hook both send paths route through: charges
    /// one logical message set to the phase counters, local or remote by
    /// destination. `payload_bytes` must be the *deep* wire size of the
    /// payload — the bytes a real interconnect would move — not the
    /// shallow `size_of` of a container header.
    fn charge(&self, dest: usize, msgs: u64, payload_bytes: u64, batches: u64) {
        if dest == self.rank {
            self.stats.local_msgs.fetch_add(msgs, Ordering::Relaxed);
        } else {
            self.stats.remote_msgs.fetch_add(msgs, Ordering::Relaxed);
            self.stats
                .remote_bytes
                .fetch_add(payload_bytes, Ordering::Relaxed);
            if batches > 0 {
                self.stats
                    .remote_batches
                    .fetch_add(batches, Ordering::Relaxed);
            }
        }
    }

    /// Sends `msg` to `dest`'s inbound queue. A self-send (`dest ==
    /// self.rank()`) is delivered through the channel like any other
    /// message but is counted as a *local* message: no network hop would
    /// be crossed on a real cluster, so charging it as remote would skew
    /// the paper's per-phase message statistics. The traversal driver's
    /// local push remains the zero-copy path for self-delivery.
    ///
    /// The byte charge is deep: `size_of::<T>()` plus the payload's owned
    /// heap bytes ([`DeepBytes`]), so a `Vec<_>` sent through here charges
    /// its contents, not its 3-word header. Plain sends remain the
    /// *unsequenced control-plane* traffic class — no retransmit/dedup
    /// protocol under fault injection — so bulk visitor traffic must still
    /// use [`ChannelGroup::send_batch`]; the `plain-send-vec` xtask lint
    /// enforces that traffic-class split at the call sites.
    pub fn send(&self, dest: usize, msg: T)
    where
        T: DeepBytes,
    {
        let bytes = std::mem::size_of::<T>() + msg.heap_bytes();
        self.charge(dest, 1, bytes as u64, 0);
        self.pause(SyncPoint::ChannelSend);
        let wire = self.wrap(dest, msg, 1);
        self.ship(dest, wire, None, bytes as u64, false);
    }

    /// Non-blocking receive from this rank's inbound queue.
    pub fn try_recv(&self) -> Option<T> {
        self.try_recv_traced().map(|(msg, _)| msg)
    }

    /// Non-blocking receive that also yields the sender's observability
    /// sidecar (`None` when the sender was uninstrumented or the message
    /// came from the plain `send`/`send_batch` path).
    ///
    /// Under fault injection this is the receive half of the reliability
    /// protocol: acks are absorbed into the sender-side buffer, duplicate
    /// sequenced deliveries are counted, re-acked, and discarded *before*
    /// the audit unwrap (so the ledger sees exactly-once delivery), and
    /// an empty poll runs the retransmit/delay timer.
    pub(crate) fn try_recv_traced(&self) -> Option<(T, Option<LineageSidecar>)> {
        self.pause(SyncPoint::ChannelRecv);
        let (rel, inj) = match (&self.reliable, &self.ctx.faults) {
            (Some(rel), Some(inj)) => (rel, inj),
            _ => {
                return match self.receiver.try_recv() {
                    Ok(WireMsg::Data {
                        payload, lineage, ..
                    }) => Some((self.unwrap_wire(payload), lineage)),
                    Ok(WireMsg::Ack { .. }) => {
                        unreachable!("ack received on a group without reliability state")
                    }
                    Err(TryRecvError::Empty) => None,
                    Err(TryRecvError::Disconnected) => {
                        unreachable!("own sender kept alive by the group")
                    }
                };
            }
        };
        loop {
            match self.receiver.try_recv() {
                Ok(WireMsg::Ack { from, seq }) => {
                    if let Some(entry) = rel.lock().unacked[from].remove(&seq) {
                        inj.stats().acks.fetch_add(1, Ordering::Relaxed);
                        if let Some(t) = &self.ctx.telemetry {
                            t.sub(Gauge::UnackedBatches, 1);
                            t.sub(Gauge::ReliabilityBytes, entry.bytes);
                            t.add(Gauge::AckedBatches, 1);
                        }
                    }
                }
                Ok(WireMsg::Data {
                    src,
                    seq,
                    payload,
                    lineage,
                }) => {
                    if seq == 0 {
                        return Some((self.unwrap_wire(payload), lineage));
                    }
                    let fresh = rel.lock().dedup[src].register(seq);
                    self.send_ack(src, seq, fresh, rel, inj);
                    if fresh {
                        return Some((self.unwrap_wire(payload), lineage));
                    }
                    inj.stats().dedup_discards.fetch_add(1, Ordering::Relaxed);
                    self.trace_instant("dedup_drop", seq);
                }
                Err(TryRecvError::Empty) => {
                    self.tick(rel, inj);
                    return None;
                }
                Err(TryRecvError::Disconnected) => {
                    unreachable!("own sender kept alive by the group")
                }
            }
        }
    }

    /// Records a visitor delivered locally, bypassing the channel.
    pub(crate) fn count_local(&self) {
        self.stats.local_msgs.fetch_add(1, Ordering::Relaxed);
    }

    #[cfg(test)]
    pub(crate) fn stats(&self) -> &Arc<PhaseStats> {
        &self.stats
    }

    /// Outstanding unacknowledged sequenced sends (test observability).
    #[cfg(test)]
    pub(crate) fn unacked_len(&self) -> usize {
        self.reliable
            .as_ref()
            .map(|rel| rel.lock().unacked.iter().map(|m| m.len()).sum())
            .unwrap_or(0)
    }
}

impl<V: Send + Clone + 'static> ChannelGroup<Vec<V>> {
    /// Ships an aggregated visitor batch; counters record the individual
    /// visitors (and one batch), so message statistics stay batch-size
    /// independent. Like [`ChannelGroup::send`], a self-addressed batch
    /// counts as local traffic. Batches are the *sequenced* traffic class:
    /// under fault injection they carry sequence numbers and run the full
    /// retransmit/dedup protocol.
    pub fn send_batch(&self, dest: usize, batch: Vec<V>)
    where
        V: DeepBytes,
    {
        self.send_batch_traced(dest, batch, None);
    }

    /// [`ChannelGroup::send_batch`] with an observability sidecar. The
    /// counters are identical whether or not a sidecar is attached — the
    /// sidecar models out-of-band instrumentation, not simulated network
    /// traffic.
    pub(crate) fn send_batch_traced(
        &self,
        dest: usize,
        batch: Vec<V>,
        lineage: Option<LineageSidecar>,
    ) where
        V: DeepBytes,
    {
        // Deep payload size: the visitors themselves (including any heap
        // bytes they own), not the Vec header.
        let bytes = batch.len() * std::mem::size_of::<V>()
            + batch.iter().map(DeepBytes::heap_bytes).sum::<usize>();
        self.send_batch_wire(dest, batch, bytes as u64, lineage);
    }

    /// Ships a batch whose exact wire size the caller already knows —
    /// the traversal driver's flat-coalescing flush encodes the batch
    /// with the [`crate::wire`] codec and passes the encoded length here,
    /// so the byte counters record what a real interconnect would move.
    pub(crate) fn send_batch_wire(
        &self,
        dest: usize,
        batch: Vec<V>,
        payload_bytes: u64,
        lineage: Option<LineageSidecar>,
    ) {
        self.charge(dest, batch.len() as u64, payload_bytes, 1);
        self.pause(SyncPoint::ChannelSend);
        let visitors = batch.len() as u64;
        let wire = self.wrap(dest, batch, visitors);
        self.ship(dest, wire, lineage, payload_bytes, true);
    }

    /// Ships `batch` through the flat wire codec, leaving the caller's
    /// buffers intact for reuse: `batch` is encoded into `scratch`
    /// (cleared first, capacity retained), charged at its exact encoded
    /// length, decoded back out, and shipped — then `batch` is cleared
    /// with its capacity retained. This is the allocation-free-steady-
    /// state send for BSP-style outbox loops; the asynchronous traversal
    /// driver has its own internal equivalent.
    pub fn send_batch_encoded(&self, dest: usize, batch: &mut Vec<V>, scratch: &mut Vec<u8>)
    where
        V: crate::wire::Wire,
    {
        if batch.is_empty() {
            return;
        }
        scratch.clear();
        crate::wire::encode_batch(batch, scratch);
        let shipped = match crate::wire::decode_batch::<V>(scratch, batch.len()) {
            Some(v) => v,
            None => panic!(
                "wire codec violation: phase \"{phase}\": encode_batch produced \
                 {len} bytes that decode_batch could not round-trip for visitor \
                 type `{ty}` (the Wire impl's encoded_len/encode_into/decode_from \
                 disagree)",
                phase = self.phase(),
                len = scratch.len(),
                ty = std::any::type_name::<V>(),
            ),
        };
        batch.clear();
        self.send_batch_wire(dest, shipped, scratch.len() as u64, None);
    }
}

/// One sender per destination plus every rank's receiving end.
#[cfg(test)]
pub(crate) type Endpoints<T> = (Vec<Sender<WireMsg<T>>>, Vec<Receiver<WireMsg<T>>>);

/// Creates the full `p x p` mesh of channel endpoints locally, for unit
/// tests that exercise a group without a full world.
#[cfg(test)]
pub(crate) fn local_endpoints<T: Send + 'static>(p: usize) -> Endpoints<T> {
    let mut senders = Vec::with_capacity(p);
    let mut receivers = Vec::with_capacity(p);
    for _ in 0..p {
        let (s, r) = crossbeam::channel::unbounded();
        senders.push(s);
        receivers.push(r);
    }
    (senders, receivers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::RankCounters;
    use crate::faults::{FaultPlan, FaultStats};

    fn group_pair() -> (ChannelGroup<u32>, ChannelGroup<u32>) {
        let (senders, mut receivers) = local_endpoints::<u32>(2);
        let c = RankCounters::default();
        let g1 = ChannelGroup::new(
            0,
            senders.clone(),
            receivers.remove(0),
            c.phase("t"),
            GroupCtx::detached("t"),
        );
        let g2 = ChannelGroup::new(
            1,
            senders,
            receivers.remove(0),
            c.phase("t"),
            GroupCtx::detached("t"),
        );
        (g1, g2)
    }

    fn faulty_batch_pair(
        plan: FaultPlan,
    ) -> (
        ChannelGroup<Vec<u32>>,
        ChannelGroup<Vec<u32>>,
        Arc<FaultStats>,
    ) {
        let (senders, mut receivers) = local_endpoints::<Vec<u32>>(2);
        let c = RankCounters::default();
        let stats = Arc::new(FaultStats::default());
        let mk = |rank: usize| Arc::new(FaultInjector::new(plan, rank, Arc::clone(&stats)));
        let g1 = ChannelGroup::new(
            0,
            senders.clone(),
            receivers.remove(0),
            c.phase("f"),
            GroupCtx::detached_faulty("f", mk(0)),
        );
        let g2 = ChannelGroup::new(
            1,
            senders,
            receivers.remove(0),
            c.phase("f"),
            GroupCtx::detached_faulty("f", mk(1)),
        );
        (g1, g2, stats)
    }

    /// Bounded wait for the reliability tests: pumps `step` until it
    /// reports done, failing the test if the shared bound is exceeded.
    /// The bound is the single timeout policy for every reliability
    /// test — generous against a loaded CI machine, finite against a
    /// genuine protocol stall (the old per-test 5–10s spins live here).
    fn pump_until(what: &str, mut step: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !step() {
            assert!(
                Instant::now() < deadline,
                "{what}: reliability layer stalled"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn send_and_receive() {
        let (g1, g2) = group_pair();
        g1.send(1, 42);
        assert_eq!(g2.try_recv(), Some(42));
        assert_eq!(g2.try_recv(), None);
    }

    #[test]
    fn send_to_an_unwound_peer_unwinds_cooperatively() {
        // Regression: a crash-stopped rank drops its endpoint while it
        // unwinds, a moment before its `catch_unwind` raises the abort
        // epoch. A survivor's send in that window used to panic with
        // "receiver endpoint dropped", which the supervisor recorded as a
        // genuine `Panic` and re-raised instead of restoring. Here the
        // endpoint is gone and the epoch is up when the raw send runs.
        let (g1, g2) = group_pair();
        drop(g2);
        g1.ctx.shared.abort.store(true, Ordering::SeqCst);
        let msg = WireMsg::Data {
            src: 0,
            seq: 0,
            payload: g1.wrap(1, 7, 1),
            lineage: None,
        };
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g1.raw_send(1, msg)))
                .expect_err("a send to a dropped endpoint must unwind");
        assert!(payload.is::<crate::CooperativeAbort>());
    }

    #[test]
    fn sends_are_counted() {
        let (g1, g2) = group_pair();
        g1.send(1, 1);
        g1.send(1, 2);
        let _ = (g2.try_recv(), g2.try_recv());
        assert_eq!(g1.stats().remote_msgs.load(Ordering::Relaxed), 2);
        assert_eq!(
            g1.stats().remote_bytes.load(Ordering::Relaxed),
            2 * std::mem::size_of::<u32>() as u64
        );
    }

    #[test]
    fn batch_bytes_are_charged_deep() {
        let (senders, mut receivers) = local_endpoints::<Vec<u64>>(2);
        let c = RankCounters::default();
        let g = ChannelGroup::new(
            0,
            senders,
            receivers.remove(0),
            c.phase("deep"),
            GroupCtx::detached("deep"),
        );
        g.send_batch(1, vec![1u64, 2, 3]);
        // Three u64 visitors = 24 wire bytes; the Vec header's
        // size_of::<Vec<u64>>() == 24 would coincide here, so use the
        // message count to pin the deep formula: 3 msgs, 1 batch.
        assert_eq!(g.stats().remote_msgs.load(Ordering::Relaxed), 3);
        assert_eq!(
            g.stats().remote_bytes.load(Ordering::Relaxed),
            3 * std::mem::size_of::<u64>() as u64
        );
        assert_eq!(g.stats().remote_batches.load(Ordering::Relaxed), 1);
        // And a single-visitor batch charges 8 bytes, not the 24-byte
        // Vec header a shallow size_of would report.
        g.send_batch(1, vec![9u64]);
        assert_eq!(
            g.stats().remote_bytes.load(Ordering::Relaxed),
            4 * std::mem::size_of::<u64>() as u64
        );
    }

    #[test]
    fn self_send_is_delivered_and_counted_local() {
        let (g1, _g2) = group_pair();
        g1.send(0, 7);
        assert_eq!(g1.try_recv(), Some(7));
        assert_eq!(g1.stats().local_msgs.load(Ordering::Relaxed), 1);
        assert_eq!(g1.stats().remote_msgs.load(Ordering::Relaxed), 0);
        assert_eq!(g1.stats().remote_bytes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn self_send_batch_is_counted_local() {
        let (senders, mut receivers) = local_endpoints::<Vec<u8>>(2);
        let c = RankCounters::default();
        let g = ChannelGroup::new(
            0,
            senders,
            receivers.remove(0),
            c.phase("b"),
            GroupCtx::detached("b"),
        );
        g.send_batch(0, vec![1, 2, 3]);
        assert_eq!(g.try_recv(), Some(vec![1, 2, 3]));
        assert_eq!(g.stats().local_msgs.load(Ordering::Relaxed), 3);
        assert_eq!(g.stats().remote_batches.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn dedup_window_discards_redeliveries() {
        let mut w = DedupWindow::default();
        assert!(w.register(1));
        assert!(!w.register(1));
        assert!(w.register(3));
        assert!(w.register(2));
        assert!(!w.register(2));
        assert!(!w.register(3));
        assert_eq!(w.watermark, 3);
        assert!(w.seen.is_empty(), "window compacts once gaps close");
    }

    #[test]
    fn dropped_batch_is_recovered_by_retransmission() {
        // drop_p = 0.5 with a fixed seed: some sends are swallowed; the
        // receiver polling (which runs the sender's... no — the *sender's*
        // tick) must eventually deliver every batch exactly once.
        let plan = FaultPlan {
            drop_p: 0.5,
            seed: 11,
            ..FaultPlan::default()
        };
        let (g1, g2, stats) = faulty_batch_pair(plan);
        let n = 20u32;
        for i in 0..n {
            g1.send_batch(1, vec![i]);
        }
        let mut got = Vec::new();
        pump_until("dropped batches recovered", || {
            if let Some(batch) = g2.try_recv() {
                got.extend(batch);
            }
            // Pump the sender's retransmit timer (in a real world the
            // sender's own drain loop does this).
            let _ = g1.try_recv();
            got.len() >= n as usize
        });
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<_>>());
        assert_eq!(g2.try_recv(), None, "no duplicate deliveries surface");
        let snap = stats.snapshot();
        assert!(snap.drops > 0, "the plan must actually have dropped sends");
        // Not `retransmits >= drops`: drops also counts faults injected
        // on acks and on copies still in flight when the test stops.
        assert!(snap.retransmits > 0, "recovery went through the timer");
    }

    #[test]
    fn duplicated_batches_are_deduplicated() {
        let plan = FaultPlan {
            dup_p: 0.5,
            seed: 5,
            ..FaultPlan::default()
        };
        let (g1, g2, stats) = faulty_batch_pair(plan);
        let n = 20u32;
        for i in 0..n {
            g1.send_batch(1, vec![i]);
        }
        let mut got = Vec::new();
        pump_until("duplicated batches deduplicated", || {
            if let Some(batch) = g2.try_recv() {
                got.extend(batch);
            }
            let _ = g1.try_recv();
            got.len() >= n as usize
        });
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<_>>());
        assert_eq!(g2.try_recv(), None);
        let snap = stats.snapshot();
        assert!(snap.dups > 0);
        // Not `dedup_discards >= dups`: dups also counts duplicated acks,
        // whose second copy is absorbed without a dedup event.
        assert!(snap.dedup_discards > 0);
    }

    #[test]
    fn delayed_batches_arrive_after_their_due_time() {
        let plan = FaultPlan {
            delay_p: 0.5,
            delay_us: 500,
            seed: 9,
            ..FaultPlan::default()
        };
        let (g1, g2, stats) = faulty_batch_pair(plan);
        let n = 20u32;
        for i in 0..n {
            g1.send_batch(1, vec![i]);
        }
        let mut got = Vec::new();
        pump_until("delayed batches delivered", || {
            if let Some(batch) = g2.try_recv() {
                got.extend(batch);
            }
            let _ = g1.try_recv();
            got.len() >= n as usize
        });
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<_>>());
        assert!(stats.snapshot().delays > 0);
    }

    #[test]
    fn acks_clear_the_unacked_buffer() {
        // No message-level faults: every send delivers, every ack lands.
        let plan = FaultPlan {
            stall_p: 0.0,
            drop_p: 0.0,
            ..FaultPlan::default()
        };
        let (g1, g2, stats) = faulty_batch_pair(plan);
        g1.send_batch(1, vec![1u32, 2]);
        assert_eq!(g1.unacked_len(), 1);
        assert_eq!(g2.try_recv(), Some(vec![1, 2]));
        // The ack is in flight back to g1; its next poll absorbs it.
        pump_until("ack clears the unacked buffer", || {
            let _ = g1.try_recv();
            g1.unacked_len() == 0
        });
        assert_eq!(stats.snapshot().acks, 1);
    }

    #[test]
    fn inert_plan_ships_unsequenced_plain_sends() {
        // Plain sends are control-plane traffic: never faulted, never
        // sequenced, even when an (inert) injector is installed.
        let plan = FaultPlan::default();
        let (senders, mut receivers) = local_endpoints::<u32>(2);
        let c = RankCounters::default();
        let stats = Arc::new(FaultStats::default());
        let inj = Arc::new(FaultInjector::new(plan, 0, Arc::clone(&stats)));
        let g1 = ChannelGroup::new(
            0,
            senders.clone(),
            receivers.remove(0),
            c.phase("cp"),
            GroupCtx::detached_faulty("cp", inj),
        );
        let g2 = ChannelGroup::new(
            1,
            senders,
            receivers.remove(0),
            c.phase("cp"),
            GroupCtx::detached("cp"),
        );
        g1.send(1, 77);
        assert_eq!(g2.try_recv(), Some(77));
        assert_eq!(g1.unacked_len(), 0, "plain sends are not sequenced");
        assert_eq!(stats.snapshot().injected(), 0);
    }
}
