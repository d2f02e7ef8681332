//! The operator-host layer: one HAU of the MS-src token protocol,
//! independent of *what carries its streams* and *what thread runs it*.
//!
//! A host owns a [`ms_core::operator::Operator`], a set of input
//! streams of [`HostMsg`], a set of [`OutputRoute`]s (one per logical
//! consumer, each either a single edge or a hash-sharded group of
//! edges), and (for sources) a [`SourceCmd`] channel from the
//! controller. The in-process runtime ([`crate::LiveRuntime`]) wires
//! hosts directly to each other with crossbeam channels and runs
//! [`run_host`] on one thread per HAU; the TCP runtime (`ms-wire`)
//! drives the same protocol through [`InteriorCore`] — the thread-free
//! interior state machine — from a small fixed apply pool fed by an
//! event loop. Either way the protocol logic — source preservation
//! before send, token alignment on fan-in, individual checkpoints
//! handed to a [`Persister`] — is this module's, unduplicated.
//!
//! # The alignment window (MS-src+ap)
//!
//! Interior hosts cut their checkpoint with a *non-blocking* alignment
//! window. Once an input has delivered its token for epoch `e`,
//! further tuples from that input are **buffered, never applied**,
//! until tokens for `e` have arrived on every live input. At that
//! point the host:
//!
//! 1. captures its state with [`Operator::snapshot_deferred`] — an
//!    O(handles) capture; serialization happens on the persister
//!    thread (the live stand-in for the forked COW child of §III-B),
//! 2. persists the buffered tuples as the **in-flight portion** of the
//!    checkpoint, together with per-input replay thresholds,
//! 3. forwards the token and only then applies the buffered tuples.
//!
//! Alignment state is kept per epoch (a deque of windows), so a fast
//! input may deliver the token for `e+1` while `e` is still aligning
//! without corrupting either cut. Recovery applies the persisted
//! in-flight tuples before reading any channel, and drops replayed
//! tuples below the recorded thresholds — each tuple is applied
//! exactly once even though upstream replay regenerates the captured
//! channel state.
//!
//! # Sharded producers and `persist_in_flight`
//!
//! The in-flight replay filter compares *sequence numbers*, which are
//! per-producer emission counters. That is sound exactly when a
//! producer regenerates the same tuples with the same sequence numbers
//! after a rollback — true for sources and for single-input interiors
//! (their input order is the edge order, which TCP and the channels
//! preserve), but **not** for fan-in producers, whose interleaving
//! across inputs is timing-dependent. A host whose upstream includes a
//! fan-in producer therefore runs with
//! [`HostWiring::persist_in_flight`] off: the cut records its replay
//! thresholds *before* folding the buffered tuples in and persists an
//! empty in-flight set, so the buffered tuples are simply regenerated
//! and re-delivered after a rollback — sequence-agnostic, at the cost
//! of a slightly larger replay. Deployments wired entirely from
//! deterministic producers (every pre-existing shape) keep the flag on
//! and their checkpoint bytes are unchanged.
//!
//! Invariant: a host with a `cmd` channel is a *source* and must have
//! no inputs; a host without one is interior (or a sink) and must have
//! at least one input.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Select, Sender};
use ms_core::error::{Error, Result};
use ms_core::ids::{EpochId, OperatorId, PortId};
use ms_core::metrics::{BackpressureMeter, OperatorMeter};
use ms_core::operator::{DeferredSnapshot, Operator, OperatorContext, SnapshotPayload};
use ms_core::shard::shard_of;
use ms_core::time::SimTime;
use ms_core::tuple::{Fields, Tuple};

use crate::storage::{CkptState, CkptWrite, StableStore};

/// What travels on a live stream between two hosts.
#[derive(Debug)]
pub enum HostMsg {
    /// A data tuple.
    Data(Tuple),
    /// A run of data tuples delivered as one unit. Semantically
    /// identical to sending each tuple as [`HostMsg::Data`] in order —
    /// every tuple keeps its own `seq`, so replay and dedup are
    /// unchanged — but the batch crosses channels, inboxes, and the
    /// wire as a single message/frame. Shared so a fan-out edge can
    /// hand the same batch to several consumers without copying.
    DataBatch(Arc<[Tuple]>),
    /// A checkpoint token for the given epoch.
    Token(EpochId),
    /// End of stream: the upstream host drained and exited.
    Eos,
}

/// Controller commands delivered to source hosts.
#[derive(Debug, Clone, Copy)]
pub enum SourceCmd {
    /// Snapshot now, mark the stream boundary, emit a token.
    Checkpoint(EpochId),
    /// Finish generating and close the stream (graceful).
    Stop,
}

/// One persistence work item: an individual checkpoint on its way to
/// stable storage. The snapshot may still be deferred — the persister
/// thread resolves (serializes) it off the hot path.
pub struct PersistItem {
    /// Checkpoint epoch.
    pub epoch: EpochId,
    /// The operator the checkpoint belongs to.
    pub op: OperatorId,
    /// The state capture (possibly unserialized).
    pub snapshot: DeferredSnapshot,
    /// For a [`DeferredSnapshot::Delta`] capture, the epoch of the
    /// previous capture the delta builds on. Must be `Some` for delta
    /// captures — the persister refuses a delta without a base rather
    /// than persist an unfoldable chain link.
    pub base: Option<EpochId>,
    /// Next emission sequence at the boundary.
    pub next_seq: u64,
    /// The in-flight portion of the cut (input port, tuple).
    pub in_flight: Vec<(u32, Tuple)>,
    /// Per-input replay thresholds at the cut.
    pub resume_seq: Vec<u64>,
    /// Token-alignment wait for this cut (window opened → cut), µs.
    /// Zero for sources, which never align.
    pub align_us: u64,
    /// Per-operator meter the persister reports checkpoint bytes and
    /// phase timings into once the write lands. `None` disables
    /// telemetry for this item.
    pub meter: Option<Arc<OperatorMeter>>,
}

/// Called by the persister after each checkpoint write attempt with
/// the store's verdict: `Ok(complete)` or the storage error.
pub type DurableHook = Box<dyn Fn(EpochId, OperatorId, &Result<bool>) + Send>;

/// The background persister thread — the live stand-in for the forked
/// COW child of §III-B. Hosts hand it [`PersistItem`]s over a channel
/// and keep processing; it resolves deferred snapshots (the expensive
/// serialization) and writes them to the [`StableStore`]. Dropping
/// the `Persister` closes the channel and joins the thread, so every
/// queued checkpoint is durable before the owner proceeds.
pub struct Persister {
    handle: Option<JoinHandle<()>>,
    tx: Option<Sender<PersistItem>>,
}

impl Persister {
    /// Spawns the persister thread over a stable store.
    pub fn spawn(store: Arc<dyn StableStore>) -> Persister {
        Persister::spawn_with(store, None)
    }

    /// Spawns the persister with a hook invoked after every write —
    /// the TCP worker uses it to ack durable checkpoints to the
    /// controller (`CkptDone`), closing the epoch barrier.
    pub fn spawn_with(store: Arc<dyn StableStore>, on_durable: Option<DurableHook>) -> Persister {
        let (tx, rx) = unbounded::<PersistItem>();
        let handle = std::thread::spawn(move || {
            while let Ok(item) = rx.recv() {
                // Serialize phase: resolving the deferred capture is
                // where the expensive encoding happens.
                let serialize_start = Instant::now();
                let state = match (item.snapshot.resolve(), item.base) {
                    (SnapshotPayload::Full(s), _) => Ok(CkptState::Full(s)),
                    (SnapshotPayload::Delta(delta), Some(base)) => {
                        Ok(CkptState::Delta { base, delta })
                    }
                    (SnapshotPayload::Delta(_), None) => Err(Error::Storage(format!(
                        "delta capture {}/{} submitted without a base epoch",
                        item.epoch, item.op
                    ))),
                };
                let serialize_us = serialize_start.elapsed().as_micros() as u64;
                let encoded = match &state {
                    Ok(CkptState::Full(s)) => Some((s.data.len() as u64, false)),
                    Ok(CkptState::Delta { delta, .. }) => {
                        Some((delta.encoded_bytes() as u64, true))
                    }
                    Err(_) => None,
                };
                let persist_start = Instant::now();
                let outcome = state.and_then(|state| {
                    store.put_checkpoint(
                        item.epoch,
                        item.op,
                        CkptWrite {
                            state,
                            next_seq: item.next_seq,
                            in_flight: item.in_flight,
                            resume_seq: item.resume_seq,
                        },
                    )
                });
                if let Err(e) = &outcome {
                    eprintln!(
                        "persister: checkpoint {}/{} not persisted: {e}",
                        item.epoch, item.op
                    );
                } else if let (Some(m), Some((bytes, delta))) = (&item.meter, encoded) {
                    m.record_checkpoint(
                        item.epoch.0,
                        bytes,
                        delta,
                        item.align_us,
                        serialize_us,
                        persist_start.elapsed().as_micros() as u64,
                    );
                }
                if let Some(hook) = &on_durable {
                    hook(item.epoch, item.op, &outcome);
                }
            }
        });
        Persister {
            handle: Some(handle),
            tx: Some(tx),
        }
    }

    /// A sender handle for hosts to submit checkpoints on.
    pub fn sender(&self) -> Sender<PersistItem> {
        self.tx.as_ref().expect("persister running").clone()
    }
}

impl Drop for Persister {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

// ---------------- output routing ----------------

/// Extracts the routing key from a tuple — the same function on every
/// producer of a sharded consumer, so one key always lands on one
/// shard.
pub type RouteKeyFn = Arc<dyn Fn(&Tuple) -> u64 + Send + Sync>;

/// One transmit edge a host can push a [`HostMsg`] down: a crossbeam
/// channel to a co-located host, or (in `ms-wire`) an apply-pool inbox
/// or a buffered egress socket. Returns `false` when the consumer is
/// gone for good — the host stops emitting, exactly as it does today
/// when a channel send fails.
pub trait EdgeTx: Send {
    /// Pushes one message; `false` = consumer gone.
    fn send(&self, msg: HostMsg) -> bool;
}

impl EdgeTx for Sender<HostMsg> {
    fn send(&self, msg: HostMsg) -> bool {
        Sender::send(self, msg).is_ok()
    }
}

impl EdgeTx for Box<dyn EdgeTx> {
    fn send(&self, msg: HostMsg) -> bool {
        (**self).send(msg)
    }
}

/// Where one *logical* out-edge delivers: either a single physical
/// edge, or the full shard group of a key-partitioned consumer. Data
/// tuples go to exactly one target (the key's shard); tokens and EOS
/// are broadcast to every target, because each shard instance aligns
/// and checkpoints as a first-class HAU.
pub struct OutputRoute {
    targets: Vec<Box<dyn EdgeTx>>,
    key: Option<RouteKeyFn>,
}

impl OutputRoute {
    /// A plain one-edge route (the unsharded wiring).
    pub fn single(tx: impl EdgeTx + 'static) -> OutputRoute {
        OutputRoute {
            targets: vec![Box::new(tx)],
            key: None,
        }
    }

    /// A hash-sharded route over a consumer's instance group, shard
    /// order. `key` must be deterministic in the tuple alone.
    pub fn sharded(targets: Vec<Box<dyn EdgeTx>>, key: RouteKeyFn) -> OutputRoute {
        debug_assert!(!targets.is_empty(), "a route needs at least one target");
        OutputRoute {
            targets,
            key: Some(key),
        }
    }

    /// Number of physical edges behind this route.
    pub fn width(&self) -> usize {
        self.targets.len()
    }

    /// Delivers a data tuple to the key's shard (or the only target).
    /// `false` = that consumer is gone.
    pub fn data(&self, t: Tuple) -> bool {
        let idx = match &self.key {
            Some(key) if self.targets.len() > 1 => shard_of(key(&t), self.targets.len()),
            _ => 0,
        };
        self.targets[idx].send(HostMsg::Data(t))
    }

    /// Delivers a run of data tuples as [`HostMsg::DataBatch`]es —
    /// one message per *shard*, not per tuple. An unsharded route gets
    /// the whole run in one message; a sharded route partitions the
    /// run by key first (relative order within each shard preserved)
    /// and sends each shard its own batch. Returns `false` if any
    /// receiving shard is gone.
    pub fn data_batch(&self, tuples: &[Tuple]) -> bool {
        if tuples.is_empty() {
            return true;
        }
        match &self.key {
            Some(key) if self.targets.len() > 1 => {
                let mut shards: Vec<Vec<Tuple>> = Vec::new();
                shards.resize_with(self.targets.len(), Vec::new);
                for t in tuples {
                    shards[shard_of(key(t), self.targets.len())].push(t.clone());
                }
                let mut ok = true;
                for (idx, shard) in shards.into_iter().enumerate() {
                    if shard.is_empty() {
                        continue;
                    }
                    ok &= self.targets[idx].send(HostMsg::DataBatch(shard.into()));
                }
                ok
            }
            _ => {
                let batch: Arc<[Tuple]> = tuples.iter().cloned().collect();
                self.targets[0].send(HostMsg::DataBatch(batch))
            }
        }
    }

    /// Broadcasts a checkpoint token to every shard instance.
    pub fn token(&self, epoch: EpochId) {
        for tx in &self.targets {
            let _ = tx.send(HostMsg::Token(epoch));
        }
    }

    /// Broadcasts end-of-stream to every shard instance.
    pub fn eos(&self) {
        for tx in &self.targets {
            let _ = tx.send(HostMsg::Eos);
        }
    }
}

/// Everything a host needs to run one HAU.
pub struct HostWiring {
    /// The operator's id (stamped on emitted tuples).
    pub op_id: OperatorId,
    /// The operator itself.
    pub op: Box<dyn Operator>,
    /// One receiver per input port, in port order. Empty for sources.
    pub inputs: Vec<Receiver<HostMsg>>,
    /// One route per *logical* output port, in port order. A sharded
    /// consumer is one route over its whole instance group, so the
    /// operator's fanout (what `emit_all` sees) stays the logical one.
    pub outputs: Vec<OutputRoute>,
    /// Controller command channel — present iff this is a source.
    pub cmd: Option<Receiver<SourceCmd>>,
    /// First emission sequence (restored from a checkpoint, else 0).
    pub restored_seq: u64,
    /// Preserved tuples to resend before generating (recovery).
    pub replay: Vec<Tuple>,
    /// Restored per-input replay thresholds: a tuple arriving on input
    /// `i` with `seq < resume_seq[i]` was already accounted for by the
    /// restored cut (applied or captured in-flight) and is dropped.
    /// Empty means no filtering (fresh start).
    pub resume_seq: Vec<u64>,
    /// The restored cut's in-flight tuples, applied before any channel
    /// input is read.
    pub in_flight: Vec<(u32, Tuple)>,
    /// If true, an exhausted source closes its stream on its own
    /// (first silent tick ⇒ Eos) instead of waiting for an explicit
    /// [`SourceCmd::Stop`]. The in-process runtime keeps this `false`
    /// (its `finish()` drives the stop); the TCP runtime sets it so a
    /// finite stream drains without a controller round-trip.
    pub auto_stop: bool,
    /// Epoch of the checkpoint this host was restored from, if any.
    /// Seeds incremental capture: a delta-capable operator's first
    /// delta after recovery chains on the restored epoch (whose
    /// snapshot is exactly the state `restore` loaded). `None` on a
    /// fresh start — the first capture is always full.
    pub last_durable: Option<EpochId>,
    /// Whether a cut persists its buffered tuples as the checkpoint's
    /// in-flight portion (see the module docs). On — the historical
    /// behavior — requires every upstream producer to regenerate
    /// identical sequence numbers after a rollback; a host downstream
    /// of a fan-in producer must run with it off.
    pub persist_in_flight: bool,
    /// Backpressure gauges this host keeps current while it runs —
    /// input-queue depth and alignment-window occupancy. `None`
    /// disables metering (tests, benches).
    pub meter: Option<Arc<BackpressureMeter>>,
    /// Per-operator flow/checkpoint meter (tuples in/out, bytes,
    /// state-size gauge, checkpoint phases). Updated on the hot path
    /// with relaxed atomics; `None` disables telemetry.
    pub telemetry: Option<Arc<OperatorMeter>>,
}

/// How a host ended: the operator with its final state, plus the first
/// stable-storage error if one stopped the stream early.
pub struct HostExit {
    /// The operator's id.
    pub op_id: OperatorId,
    /// The operator with its final state.
    pub op: Box<dyn Operator>,
    /// `Some` if the host stopped on a storage failure rather than a
    /// drained stream.
    pub error: Option<Error>,
}

/// Collects emissions inside a host.
struct LiveCtx {
    op: OperatorId,
    fanout: usize,
    emissions: Vec<(PortId, Fields)>,
    seed: u64,
}

impl OperatorContext for LiveCtx {
    fn emit_fields(&mut self, port: PortId, fields: Fields) {
        self.emissions.push((port, fields));
    }
    fn emit_all_fields(&mut self, fields: Fields) {
        for p in 0..self.fanout {
            self.emissions.push((PortId(p as u32), fields.clone()));
        }
    }
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn self_id(&self) -> OperatorId {
        self.op
    }
    fn rand_f64(&mut self) -> f64 {
        (self.rand_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
    fn rand_u64(&mut self) -> u64 {
        self.seed = self.seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        self.seed
    }
}

/// Chooses the capture mode for one checkpoint: an incremental delta
/// chained on the previous capture when the operator supports it *and*
/// a previous capture exists, else a full snapshot. Returns the
/// capture plus the base epoch it builds on (`None` for fulls).
fn capture(
    op: &mut dyn Operator,
    last_captured: Option<EpochId>,
) -> (DeferredSnapshot, Option<EpochId>) {
    if let Some(base) = last_captured {
        if let Some(d) = op.snapshot_delta() {
            return (d, Some(base));
        }
    }
    (op.snapshot_deferred(), None)
}

/// One outstanding epoch in the alignment window of an interior host.
struct Window {
    epoch: EpochId,
    /// Which inputs have delivered this epoch's token.
    tokens: Vec<bool>,
    /// Tuples that arrived on a tokened input while this epoch was the
    /// youngest window covering that input — the in-flight portion of
    /// the cut.
    buffered: Vec<(u32, Tuple)>,
    /// When the first token opened this window — the cut's align-wait
    /// (the paper's "token collection" checkpoint phase) is measured
    /// from here.
    opened: Instant,
}

/// Stamps, meters, optionally preserves and routes a batch of
/// emissions. `Ok(true)`: keep going; `Ok(false)`: a consumer is gone;
/// `Err`: the preservation append failed.
fn route_emissions(
    op_id: OperatorId,
    outputs: &[OutputRoute],
    telemetry: &Option<Arc<OperatorMeter>>,
    next_seq: &mut u64,
    emissions: Vec<(PortId, Fields)>,
    preserve: Option<&Arc<dyn StableStore>>,
) -> Result<bool> {
    // Emission metering is batched: one pair of relaxed adds per call,
    // not per tuple.
    let mut emitted = 0u64;
    let mut emitted_bytes = 0u64;
    for (port, fields) in emissions {
        let t = Tuple::new(op_id, *next_seq, SimTime::ZERO, fields);
        *next_seq += 1;
        if telemetry.is_some() {
            emitted += 1;
            emitted_bytes += t.payload_bytes();
        }
        if let Some(store) = preserve {
            // Source preservation: stable storage *before* sending.
            store.append_log(op_id, t.clone())?;
        }
        if let Some(route) = outputs.get(port.index()) {
            if !route.data(t) {
                return Ok(false);
            }
        }
    }
    if let Some(m) = telemetry {
        if emitted > 0 {
            m.add_tuples_out(emitted, emitted_bytes);
        }
    }
    Ok(true)
}

/// The interior/sink half of the host protocol as a plain state
/// machine: feed it messages with [`InteriorCore::on_msg`] from
/// whatever execution engine owns the streams — a blocking
/// channel-select thread ([`run_host`]) or `ms-wire`'s apply pool —
/// and it runs token alignment, cuts checkpoints, and routes
/// downstream exactly as the threaded host always has.
pub struct InteriorCore {
    op_id: OperatorId,
    op: Box<dyn Operator>,
    outputs: Vec<OutputRoute>,
    n_in: usize,
    next_seq: u64,
    cut_seq: Vec<u64>,
    eos: Vec<bool>,
    windows: VecDeque<Window>,
    last_captured: Option<EpochId>,
    persist: Sender<PersistItem>,
    persist_in_flight: bool,
    meter: Option<Arc<BackpressureMeter>>,
    telemetry: Option<Arc<OperatorMeter>>,
    /// Applied-tuple counter driving the periodic state-gauge sample
    /// in [`InteriorCore::apply`].
    applied: u64,
    error: Option<Error>,
    done: bool,
}

/// How many applied tuples between state-size gauge samples. The
/// gauge used to be written only at checkpoint cuts, so heartbeats
/// between epochs reported the *previous* epoch's size — useless to
/// the live `+aa` profiler, which needs to see intra-epoch movement.
/// Sampling costs one `state_size()` call per 32 tuples, and that call
/// is not free for every operator: `KeyedStat`'s is
/// `DeltaTable::value_bytes`, which walks every entry (0.83–0.89 ms on
/// a 65,536-key table on a 2-vCPU Xeon VM), so the keyed interior
/// spends about 27 µs of it per applied tuple.
const STATE_GAUGE_SAMPLE_EVERY: u64 = 32;

impl InteriorCore {
    /// Builds the state machine from interior wiring (`cmd` must be
    /// `None`) and applies the restored cut's in-flight tuples — they
    /// were already inside this HAU at the cut, so they run before any
    /// stream input. May finish the host immediately (restored replay
    /// into a gone consumer); check [`InteriorCore::is_done`].
    pub fn new(mut w: HostWiring, persist: Sender<PersistItem>) -> InteriorCore {
        debug_assert!(w.cmd.is_none(), "a source host cannot run as InteriorCore");
        let n_in = w.inputs.len();
        debug_assert!(n_in > 0, "an interior host has at least one input");
        let cut_seq = if w.resume_seq.len() == n_in {
            w.resume_seq.clone()
        } else {
            vec![0; n_in]
        };
        let mut core = InteriorCore {
            op_id: w.op_id,
            op: w.op,
            outputs: w.outputs,
            n_in,
            next_seq: w.restored_seq,
            cut_seq,
            eos: vec![false; n_in],
            windows: VecDeque::new(),
            last_captured: w.last_durable,
            persist,
            persist_in_flight: w.persist_in_flight,
            meter: w.meter,
            telemetry: w.telemetry,
            applied: 0,
            error: None,
            done: false,
        };
        for (port, t) in std::mem::take(&mut w.in_flight) {
            if !core.apply(port, t) {
                core.done = true;
                break;
            }
        }
        core
    }

    /// Whether the host has finished (all inputs at EOS, a consumer
    /// gone, or a storage error). Once done, further messages are
    /// ignored.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Whether input `i` has delivered EOS.
    pub fn input_eos(&self, i: usize) -> bool {
        self.eos[i]
    }

    /// Publishes backpressure gauges: the driver supplies the queued
    /// input depth (it owns the queues); window occupancy comes from
    /// the alignment state here. No-op without a meter.
    pub fn publish_backpressure(&self, queued_inputs: u64) {
        if let Some(m) = &self.meter {
            m.set_queue_depth(queued_inputs);
            m.set_window_occupancy(
                self.windows.len() as u64,
                self.windows
                    .iter()
                    .map(|win| win.buffered.len())
                    .sum::<usize>() as u64,
            );
        }
    }

    /// Feeds one message from input `input`; returns `false` once the
    /// host is done and the driver should stop delivering.
    pub fn on_msg(&mut self, input: usize, msg: HostMsg) -> bool {
        if self.done {
            return false;
        }
        match msg {
            HostMsg::Data(t) => {
                // Replay filter: below the threshold means the restored
                // cut already accounted for this tuple.
                if t.seq < self.cut_seq[input] {
                    return true;
                }
                // Inside an alignment window for this input? Buffer
                // into the *youngest* window whose token this input has
                // delivered — the tuple arrived after that token.
                if let Some(win) = self.windows.iter_mut().rev().find(|win| win.tokens[input]) {
                    win.buffered.push((input as u32, t));
                    return true;
                }
                self.cut_seq[input] = t.seq + 1;
                if !self.apply(input as u32, t) {
                    self.done = true;
                }
            }
            HostMsg::DataBatch(batch) => {
                // A batch is exactly its tuples in order: each one runs
                // the full Data path (replay filter, window buffering,
                // apply) so alignment and recovery semantics cannot
                // drift from the per-tuple wire.
                for t in batch.iter() {
                    if !self.on_msg(input, HostMsg::Data(t.clone())) {
                        break;
                    }
                }
            }
            HostMsg::Token(epoch) => {
                if let Some(win) = self.windows.iter_mut().find(|win| win.epoch == epoch) {
                    win.tokens[input] = true;
                } else {
                    // Tokens ride each edge in epoch order, so a fresh
                    // epoch opens a new window at the back; the sorted
                    // insert is defensive.
                    let at = self.windows.partition_point(|win| win.epoch < epoch);
                    let mut tokens = vec![false; self.n_in];
                    tokens[input] = true;
                    self.windows.insert(
                        at,
                        Window {
                            epoch,
                            tokens,
                            buffered: Vec::new(),
                            opened: Instant::now(),
                        },
                    );
                }
                self.cut_ready_windows();
            }
            HostMsg::Eos => {
                self.eos[input] = true;
                self.cut_ready_windows();
                if self.eos.iter().all(|&e| e) {
                    self.done = true;
                }
            }
        }
        !self.done
    }

    /// Consumes the host: broadcasts EOS downstream and returns the
    /// exit record with the operator's final state.
    pub fn finish(mut self) -> HostExit {
        self.done = true;
        for route in &self.outputs {
            route.eos();
        }
        HostExit {
            op_id: self.op_id,
            op: self.op,
            error: self.error,
        }
    }

    fn apply(&mut self, port: u32, t: Tuple) -> bool {
        if let Some(m) = &self.telemetry {
            m.add_tuples_in(1);
            self.applied += 1;
            if self.applied % STATE_GAUGE_SAMPLE_EVERY == 0 {
                m.set_state_bytes(self.op.state_size());
            }
        }
        let mut ctx = LiveCtx {
            op: self.op_id,
            fanout: self.outputs.len(),
            emissions: Vec::new(),
            seed: t.seq ^ 0xA5A5_A5A5,
        };
        self.op.on_tuple(PortId(port), t, &mut ctx);
        match route_emissions(
            self.op_id,
            &self.outputs,
            &self.telemetry,
            &mut self.next_seq,
            ctx.emissions,
            None,
        ) {
            Ok(keep) => keep,
            Err(e) => {
                self.error = Some(e);
                false
            }
        }
    }

    /// Cuts every leading window whose tokens (or EOS) are complete.
    fn cut_ready_windows(&mut self) {
        while let Some(front) = self.windows.front() {
            if !(0..self.n_in).all(|i| front.tokens[i] || self.eos[i]) {
                break;
            }
            let win = self.windows.pop_front().expect("front window");
            let align_us = win.opened.elapsed().as_micros() as u64;
            let (in_flight, resume_seq) = if self.persist_in_flight {
                // Fold the in-flight portion into the replay thresholds
                // *before* recording them: the captured tuples count as
                // accounted-for by this cut.
                for (i, t) in &win.buffered {
                    let s = &mut self.cut_seq[*i as usize];
                    *s = (*s).max(t.seq + 1);
                }
                (win.buffered.clone(), self.cut_seq.clone())
            } else {
                // Sequence-agnostic cut (fan-in producers upstream):
                // thresholds recorded pre-fold, no in-flight persisted
                // — a rollback regenerates the buffered tuples and they
                // pass the threshold afresh.
                (Vec::new(), self.cut_seq.clone())
            };
            if let Some(m) = &self.telemetry {
                m.set_state_bytes(self.op.state_size());
            }
            let (snapshot, base) = capture(self.op.as_mut(), self.last_captured);
            self.last_captured = Some(win.epoch);
            let _ = self.persist.send(PersistItem {
                epoch: win.epoch,
                op: self.op_id,
                snapshot,
                base,
                next_seq: self.next_seq,
                in_flight,
                resume_seq,
                align_us,
                meter: self.telemetry.clone(),
            });
            for route in &self.outputs {
                route.token(win.epoch);
            }
            // The buffered tuples were only deferred for the cut:
            // apply them now, ahead of anything still in the streams.
            for (i, t) in win.buffered {
                if !self.persist_in_flight {
                    let s = &mut self.cut_seq[i as usize];
                    *s = (*s).max(t.seq + 1);
                }
                if !self.apply(i, t) {
                    self.done = true;
                    return;
                }
            }
        }
    }
}

/// Runs one HAU to completion on the current thread; returns a
/// [`HostExit`] with the operator (and its final state) for inspection
/// by the owner.
///
/// Sources: drain commands, tick the operator, preserve every emitted
/// tuple in the stable store *before* sending it (§III-A source
/// preservation), mark + snapshot + emit a token on
/// [`SourceCmd::Checkpoint`]. Interior/sink hosts: non-blocking
/// token alignment — see the module docs.
pub fn run_host(
    mut w: HostWiring,
    store: Arc<dyn StableStore>,
    persist: Sender<PersistItem>,
) -> HostExit {
    let fanout = w.outputs.len();
    let mut next_seq = w.restored_seq;
    let mut error: Option<Error> = None;

    if let Some(cmd) = w.cmd.take() {
        debug_assert!(w.inputs.is_empty(), "a source host has no inputs");
        // Replay preserved tuples first (recovery catch-up), then
        // fast-forward the operator through the replayed interval so
        // it does not regenerate the same data (the preserved log IS
        // that data — post-failure, a real sensor source could not
        // regenerate it). Live sources emit one tuple per tick.
        //
        // Replay goes through the routes, not a broadcast: a sharded
        // consumer must see each replayed tuple on the same shard the
        // original delivery used, which the deterministic hash
        // guarantees.
        let replayed = w.replay.len() as u64;
        for t in w.replay.drain(..) {
            for route in &w.outputs {
                let _ = route.data(t.clone());
            }
        }
        for _ in 0..replayed {
            let mut discard = LiveCtx {
                op: w.op_id,
                fanout,
                emissions: Vec::new(),
                seed: 0,
            };
            w.op.on_timer(&mut discard);
        }
        next_seq += replayed;
        let mut stopping = false;
        // Epoch of this host's previous capture — the base for an
        // incremental capture. Seeded from the restored checkpoint.
        let mut last_captured = w.last_durable;
        let mut take_checkpoint =
            |op: &mut dyn Operator, epoch: EpochId, next_seq: u64| -> Result<()> {
                // The mark is durable before the checkpoint is even
                // enqueued: an epoch that looks complete on disk always
                // has its replay boundary.
                store.mark_epoch(w.op_id, epoch, next_seq)?;
                if let Some(m) = &w.telemetry {
                    m.set_state_bytes(op.state_size());
                }
                let (snapshot, base) = capture(op, last_captured);
                last_captured = Some(epoch);
                let _ = persist.send(PersistItem {
                    epoch,
                    op: w.op_id,
                    snapshot,
                    base,
                    next_seq,
                    in_flight: Vec::new(),
                    resume_seq: Vec::new(),
                    align_us: 0,
                    meter: w.telemetry.clone(),
                });
                for route in &w.outputs {
                    route.token(epoch);
                }
                Ok(())
            };
        'source: loop {
            // Drain pending controller commands. Stop is graceful: the
            // source finishes its data before the stream closes.
            while let Ok(c) = cmd.try_recv() {
                match c {
                    SourceCmd::Checkpoint(epoch) => {
                        if let Err(e) = take_checkpoint(w.op.as_mut(), epoch, next_seq) {
                            error = Some(e);
                            break 'source;
                        }
                    }
                    SourceCmd::Stop => stopping = true,
                }
            }
            let mut ctx = LiveCtx {
                op: w.op_id,
                fanout,
                emissions: Vec::new(),
                seed: 0x5DEECE66D ^ w.op_id.0 as u64,
            };
            w.op.on_timer(&mut ctx);
            if ctx.emissions.is_empty() {
                // Exhausted source (convention: a silent tick means
                // the source is done) — close the stream, or wait for
                // Stop/Checkpoint if the controller drives shutdown.
                if stopping || w.auto_stop {
                    break;
                }
                match cmd.recv() {
                    Ok(SourceCmd::Checkpoint(epoch)) => {
                        if let Err(e) = take_checkpoint(w.op.as_mut(), epoch, next_seq) {
                            error = Some(e);
                            break;
                        }
                    }
                    _ => break,
                }
            } else {
                match route_emissions(
                    w.op_id,
                    &w.outputs,
                    &w.telemetry,
                    &mut next_seq,
                    ctx.emissions,
                    Some(&store),
                ) {
                    Ok(true) => {}
                    Ok(false) => break,
                    Err(e) => {
                        error = Some(e);
                        break;
                    }
                }
            }
        }
        for route in &w.outputs {
            route.eos();
        }
        return HostExit {
            op_id: w.op_id,
            op: w.op,
            error,
        };
    }

    // Interior/sink thread: the InteriorCore state machine driven by a
    // blocking channel select. Receiver clones don't hold the channel
    // open (senders do), so the core consuming the wiring is harmless.
    let inputs = w.inputs.clone();
    let mut core = InteriorCore::new(w, persist);
    while !core.is_done() {
        core.publish_backpressure(inputs.iter().map(Receiver::len).sum::<usize>() as u64);
        let readable: Vec<usize> = (0..inputs.len()).filter(|&i| !core.input_eos(i)).collect();
        if readable.is_empty() {
            break;
        }
        let mut sel = Select::new();
        for &i in &readable {
            sel.recv(&inputs[i]);
        }
        let oper = sel.select();
        let idx = readable[oper.index()];
        let msg = match oper.recv(&inputs[idx]) {
            Ok(msg) => msg,
            // A dropped sender is an implicit EOS (teardown).
            Err(_) => HostMsg::Eos,
        };
        core.on_msg(idx, msg);
    }
    core.finish()
}
