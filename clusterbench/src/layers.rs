//! In-process replays of the workload's own input through each layer's
//! public functions, timed by spans, plus the restore and replay of the
//! run's store and the single-threaded baseline of the whole job.

use std::fs;
use std::io::{ErrorKind, Read};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

use ms_core::codec::{frame, FrameDecoder, MAX_FILE_FRAME_BYTES};
use ms_core::delta::{self, StateDelta};
use ms_core::gate::GateConfig;
use ms_core::ids::{EpochId, OperatorId, PortId};
use ms_core::operator::{Operator, OperatorContext, SnapshotPayload};
use ms_core::time::SimTime;
use ms_core::tuple::{Fields, Tuple};
use ms_gate::{Admission, GateCore};
use ms_live::{ckpt_codec, CkptState, CkptWrite, Doubler, StableStore, Summer};
use ms_wire::apps::KeyedStat;
use ms_wire::{FsStore, WireMsg};

use crate::cluster::{TempDir, CHAIN_OPS, CKPT_MS, GATE_OP, INTERIOR_OP};
use crate::gen::{prefill_batches, BatchGen, Oracle, Workload, KEYS, PRODUCERS};
use crate::trace::{batch_trace, Tracer};

/// Encoded frames kept for the socket replay.
const NET_REPLAY_BYTES: usize = 32 << 20;
/// One MiB.
const MIB: f64 = 1_048_576.0;

/// An operator context that collects emissions.
struct Collect(Vec<Fields>);

impl OperatorContext for Collect {
    fn emit_fields(&mut self, _port: PortId, fields: Fields) {
        self.0.push(fields);
    }
    fn emit_all_fields(&mut self, fields: Fields) {
        self.0.push(fields);
    }
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn self_id(&self) -> OperatorId {
        OperatorId(INTERIOR_OP)
    }
    fn rand_f64(&mut self) -> f64 {
        0.0
    }
    fn rand_u64(&mut self) -> u64 {
        0
    }
}

/// One batch as the gate saw it: producer, batch id, events.
pub type Batch = (u64, u64, Vec<(u64, i64)>);

/// A delta chain: its full base snapshot, then the deltas oldest first.
pub type Chain = (Vec<u8>, Vec<StateDelta>);

/// Regenerates a cycle's input in a gate-like order: each producer's
/// prefill, then the timed batches, alternating between producers.
pub fn cycle_input(workload: Workload, seed: u64, cycle: u64, timed: &[u64]) -> Vec<Batch> {
    let mut per: Vec<Vec<Batch>> = (1..=PRODUCERS)
        .map(|p| {
            let mut v = Vec::new();
            let mut id = 1;
            if workload.prefills() {
                for events in prefill_batches(p) {
                    v.push((p, id, events));
                    id += 1;
                }
            }
            let mut gen = BatchGen::new(workload, seed, cycle, p);
            for _ in 0..timed[(p - 1) as usize] {
                v.push((p, id, gen.next_batch()));
                id += 1;
            }
            v
        })
        .collect();
    let mut out = Vec::new();
    let longest = per.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for v in &mut per {
            if let Some(b) = v.get_mut(i) {
                out.push(std::mem::take(b));
            }
        }
    }
    out
}

fn gate_core(workload: Workload) -> GateCore {
    GateCore::new(
        OperatorId(GATE_OP),
        GateConfig {
            preagg: workload.preagg(),
            expected_producers: PRODUCERS as u32,
            ..GateConfig::default()
        },
    )
}

fn admit(gate: &mut GateCore, seq: &mut u64, b: &Batch) -> Result<Vec<Tuple>, String> {
    match gate.admit(seq, b.0, b.1, &b.2) {
        Admission::Accept(t) => Ok(t),
        other => Err(format!(
            "replayed batch {}/{} not admitted: {other:?}",
            b.0, b.1
        )),
    }
}

fn interior(workload: Workload) -> Box<dyn Operator> {
    if workload.keyed_state() > 0 {
        Box::new(KeyedStat::new(workload.keyed_state()))
    } else {
        Box::new(Doubler::default())
    }
}

/// The whole job — admit, interior, `Summer` — in one thread with no
/// I/O. Returns events per second, after checking the sink against the
/// oracle of the same input.
pub fn baseline_eps(workload: Workload, input: &[Batch]) -> Result<f64, String> {
    let mut want = Oracle::default();
    for b in input {
        want.add_batch(&b.2, workload.preagg());
    }
    let (mut gate, mut op, mut sink) = (gate_core(workload), interior(workload), Summer::default());
    let (mut ctx, mut sink_ctx) = (Collect(Vec::new()), Collect(Vec::new()));
    let (mut seq, mut events) = (0u64, 0u64);
    let t = Instant::now();
    for b in input {
        events += b.2.len() as u64;
        for tuple in admit(&mut gate, &mut seq, b)? {
            op.on_tuple(PortId(0), tuple, &mut ctx);
        }
        for f in ctx.0.drain(..) {
            let t = Tuple::new(OperatorId(INTERIOR_OP), 0, SimTime::ZERO, f);
            sink.on_tuple(PortId(0), t, &mut sink_ctx);
        }
    }
    let secs = t.elapsed().as_secs_f64();
    if (sink.sum, sink.count) != (want.sum, want.count) {
        return Err(format!(
            "single-threaded baseline gives ({}, {}), oracle ({}, {})",
            sink.sum, sink.count, want.sum, want.count
        ));
    }
    Ok(events as f64 / secs)
}

/// What the traced replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Events in / tuples out of `GateCore::admit`.
    pub fold_ratio: f64,
    /// `FsStore` preservation-log writes per admitted batch.
    pub wal_writes_per_batch: f64,
    /// Tuples through the encode/decode and operator replays.
    pub tuples: u64,
    /// Milliseconds of `put_checkpoint` per MiB written.
    pub put_ckpt_ms_per_mib: f64,
    /// The in-process delta chain (full base, then deltas), for the
    /// fold measurement when the run's store holds no chain.
    pub chain: Option<Chain>,
    /// `write_frames` microseconds per MiB over loopback TCP.
    pub net_us_per_mib: f64,
}

/// Replays `input` through admit → WAL append → encode → decode →
/// operators, with a delta capture and `put_checkpoint` per epoch of
/// `epoch_tuples` tuples. Spans go to `tr`.
pub fn replay(
    workload: Workload,
    cycle: u64,
    input: &[Batch],
    epoch_tuples: u64,
    scratch: &Path,
    tr: &mut Tracer,
) -> Result<Replay, String> {
    let st = |e: ms_core::error::Error| e.to_string();
    let wal_dir = TempDir::create(scratch.join("replay_wal"))?;
    let ckpt_dir = TempDir::create(scratch.join("replay_ckpt"))?;
    let wal = FsStore::open(wal_dir.path(), CHAIN_OPS).map_err(st)?;
    let ckpts = FsStore::open(ckpt_dir.path(), 1).map_err(st)?;
    let mut gate = gate_core(workload);
    let (mut doubler, mut keyed, mut sink) =
        (Doubler::default(), KeyedStat::new(KEYS), Summer::default());
    let (mut dctx, mut kctx) = (Collect(Vec::new()), Collect(Vec::new()));
    let mut dec = FrameDecoder::new();
    let mut frames: Vec<Vec<u8>> = Vec::new();
    let mut frame_bytes = 0usize;
    let (mut seq, mut events_in, mut tuples_out, mut batches) = (0u64, 0u64, 0u64, 0u64);
    let (mut since_epoch, mut epoch) = (0u64, 0u64);
    let mut base: Option<Vec<u8>> = None;
    let mut chain: Vec<StateDelta> = Vec::new();
    let (mut put_secs, mut put_bytes) = (0.0f64, 0usize);

    for b in input {
        let trace = batch_trace(cycle, b.0, b.1);
        let root = tr.begin("replay.batch", None, trace);
        let s = tr.begin("gate.admit", Some(root), trace);
        let tuples = admit(&mut gate, &mut seq, b)?;
        tr.end(s);
        events_in += b.2.len() as u64;
        tuples_out += tuples.len() as u64;
        batches += 1;

        let s = tr.begin("store.wal_append", Some(root), trace);
        wal.append_log_batch(OperatorId(GATE_OP), &tuples)
            .map_err(st)?;
        tr.end(s);

        let msg = WireMsg::TupleBatch(tuples);
        let s = tr.begin("wire.encode", Some(root), trace);
        let bytes = frame(&msg.encode());
        tr.end(s);
        let s = tr.begin("wire.decode", Some(root), trace);
        dec.feed(&bytes);
        let payload = dec
            .next_frame()
            .map_err(st)?
            .ok_or("encoded batch did not decode to a frame")?;
        let decoded = WireMsg::decode(&payload).map_err(st)?;
        tr.end(s);
        let WireMsg::TupleBatch(tuples) = decoded else {
            return Err("tuple batch decoded to another message".into());
        };
        if frame_bytes < NET_REPLAY_BYTES {
            frame_bytes += bytes.len();
            frames.push(bytes);
        }

        let s = tr.begin("op.doubler", Some(root), trace);
        for t in &tuples {
            doubler.on_tuple(PortId(0), t.clone(), &mut dctx);
        }
        tr.end(s);
        let s = tr.begin("op.keyed", Some(root), trace);
        for t in &tuples {
            keyed.on_tuple(PortId(0), t.clone(), &mut kctx);
        }
        tr.end(s);
        // The sink consumes the workload's own interior's output.
        let (fed, idle) = if workload.keyed_state() > 0 {
            (&mut kctx, &mut dctx)
        } else {
            (&mut dctx, &mut kctx)
        };
        idle.0.clear();
        let s = tr.begin("op.summer", Some(root), trace);
        for f in fed.0.drain(..) {
            let t = Tuple::new(OperatorId(INTERIOR_OP), 0, SimTime::ZERO, f);
            sink.on_tuple(PortId(0), t, &mut Collect(Vec::new()));
        }
        tr.end(s);

        since_epoch += tuples.len() as u64;
        if since_epoch >= epoch_tuples.max(1) {
            since_epoch = 0;
            epoch += 1;
            let e = EpochId(epoch);
            let s = tr.begin("delta.capture", Some(root), trace);
            let captured = keyed
                .snapshot_delta()
                .ok_or("KeyedStat offers no delta capture")?
                .resolve();
            tr.end(s);
            let SnapshotPayload::Delta(d) = captured else {
                return Err("KeyedStat captured a full snapshot".into());
            };
            let write = match &base {
                None => {
                    // The chain's base: a full snapshot of the same state.
                    let snap = keyed.snapshot();
                    base = Some(snap.data.clone());
                    CkptWrite::full(snap, seq)
                }
                Some(_) => {
                    chain.push(d.clone());
                    CkptWrite {
                        state: CkptState::Delta {
                            base: EpochId(epoch - 1),
                            delta: d,
                        },
                        next_seq: seq,
                        in_flight: Vec::new(),
                        resume_seq: Vec::new(),
                    }
                }
            };
            let bytes = ckpt_codec::encode_ckpt(&write).len();
            let s = tr.begin("store.put_ckpt", Some(root), trace);
            let t = Instant::now();
            ckpts.put_checkpoint(e, OperatorId(0), write).map_err(st)?;
            put_secs += t.elapsed().as_secs_f64();
            tr.end(s);
            put_bytes += bytes;
        }
        tr.end(root);
    }

    let s = tr.begin("net.write_frames", None, 0);
    let net_us_per_mib = write_frames_us_per_mib(&frames)?;
    tr.end(s);
    Ok(Replay {
        fold_ratio: events_in as f64 / tuples_out.max(1) as f64,
        wal_writes_per_batch: wal.log_write_syscalls() as f64 / batches.max(1) as f64,
        tuples: tuples_out,
        put_ckpt_ms_per_mib: put_secs * 1e3 / (put_bytes as f64 / MIB).max(f64::MIN_POSITIVE),
        chain: base.map(|data| (data, chain)),
        net_us_per_mib,
    })
}

/// Writes `frames` through `ms_net::vectored::write_frames` into one
/// end of a loopback TCP pair, draining the other end on the same
/// thread; returns microseconds inside `write_frames` per MiB.
fn write_frames_us_per_mib(frames: &[Vec<u8>]) -> Result<f64, String> {
    let io = |e: std::io::Error| format!("loopback socket: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let mut tx = TcpStream::connect(listener.local_addr().map_err(io)?).map_err(io)?;
    let (mut rx, _) = listener.accept().map_err(io)?;
    tx.set_nonblocking(true).map_err(io)?;
    rx.set_nonblocking(true).map_err(io)?;
    let total: usize = frames.iter().map(Vec::len).sum();
    let (mut front, mut head, mut received) = (0usize, 0usize, 0usize);
    let mut inside = 0.0f64;
    let mut sink = vec![0u8; 1 << 16];
    while received < total {
        if front < frames.len() {
            let t = Instant::now();
            let r = ms_net::vectored::write_frames(
                &mut tx,
                frames[front..].iter().map(Vec::as_slice),
                head,
            );
            inside += t.elapsed().as_secs_f64();
            match r {
                Ok(mut n) => {
                    while n > 0 {
                        let left = frames[front].len() - head;
                        if n >= left {
                            n -= left;
                            front += 1;
                            head = 0;
                        } else {
                            head += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => return Err(io(e)),
            }
        }
        loop {
            match rx.read(&mut sink) {
                Ok(0) => return Err("loopback peer closed early".into()),
                Ok(n) => received += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(io(e)),
            }
        }
    }
    Ok(inside * 1e6 / (total as f64 / MIB).max(f64::MIN_POSITIVE))
}

/// What restoring from the run's store measured.
#[derive(Debug, Default)]
pub struct StoreRead {
    /// `get_checkpoint` of the interior at the latest complete epoch (ms).
    pub restore_ms: f64,
    /// Bytes that restore produced (MiB).
    pub restore_mib: f64,
    /// Records `replay_from` returned for the gate.
    pub replay_records: u64,
    /// `replay_from` time (ms).
    pub replay_ms: f64,
    /// `delta::fold` time per MiB folded, when the store holds a chain.
    pub fold_ms_per_mib: Option<f64>,
}

/// Restore and replay on a finished run's store: the interior's latest
/// complete checkpoint, and the gate's log from `replay_epoch` (the
/// epoch the recovery restored, else the latest complete one).
pub fn read_store(
    store_dir: &Path,
    replay_epoch: Option<u64>,
    tr: &mut Tracer,
) -> Result<StoreRead, String> {
    let store = FsStore::open(store_dir, CHAIN_OPS).map_err(|e| e.to_string())?;
    let latest = store
        .latest_complete()
        .ok_or("the run's store holds no complete checkpoint")?;
    let op = OperatorId(INTERIOR_OP);
    let s = tr.begin("store.restore", None, 0);
    let t = Instant::now();
    let ckpt = store
        .get_checkpoint(latest, op)
        .ok_or("latest complete checkpoint did not restore")?;
    let restore_ms = t.elapsed().as_secs_f64() * 1e3;
    tr.end(s);
    let from = replay_epoch.map_or(latest, EpochId);
    let s = tr.begin("store.replay", None, 0);
    let t = Instant::now();
    let records = store.replay_from(OperatorId(GATE_OP), from);
    let replay_ms = t.elapsed().as_secs_f64() * 1e3;
    tr.end(s);

    let fold_ms_per_mib = match read_chain(store_dir, latest, op)? {
        Some((base, deltas)) => {
            let s = tr.begin("delta.fold", None, 0);
            let r = fold_ms_per_mib(&base, &deltas)?;
            tr.end(s);
            Some(r)
        }
        None => None,
    };
    Ok(StoreRead {
        restore_ms,
        restore_mib: ckpt.snapshot.data.len() as f64 / MIB,
        replay_records: records.len() as u64,
        replay_ms,
        fold_ms_per_mib,
    })
}

/// `delta::fold` of a base and chain, in milliseconds per MiB produced.
pub fn fold_ms_per_mib(base: &[u8], deltas: &[StateDelta]) -> Result<f64, String> {
    let t = Instant::now();
    let out = delta::fold(base, deltas).map_err(|e| e.to_string())?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    Ok(ms / (out.len() as f64 / MIB).max(f64::MIN_POSITIVE))
}

fn read_ckpt_file(path: &Path) -> Option<Vec<u8>> {
    let bytes = fs::read(path).ok()?;
    let mut dec = FrameDecoder::with_limit(MAX_FILE_FRAME_BYTES);
    dec.feed(&bytes);
    dec.next_frame().ok().flatten()
}

/// The delta chain behind `(epoch, op)` in a store directory: its full
/// base and the deltas oldest first; `None` if `epoch` is itself a full.
fn read_chain(store_dir: &Path, epoch: EpochId, op: OperatorId) -> Result<Option<Chain>, String> {
    let file = |e: EpochId, ext: &str| {
        store_dir
            .join("ckpt")
            .join(format!("e{}_op{}.{ext}", e.0, op.0))
    };
    let mut deltas = Vec::new();
    let mut at = epoch;
    loop {
        if let Some(payload) = read_ckpt_file(&file(at, "ckpt")) {
            if deltas.is_empty() {
                return Ok(None);
            }
            let CkptState::Full(snap) = ckpt_codec::decode_full(&payload)
                .map_err(|e| e.to_string())?
                .state
            else {
                return Err("full checkpoint decoded as a delta".into());
            };
            deltas.reverse();
            return Ok(Some((snap.data, deltas)));
        }
        let payload =
            read_ckpt_file(&file(at, "delta")).ok_or(format!("chain broken at epoch {}", at.0))?;
        let CkptState::Delta { base, delta } = ckpt_codec::decode_delta(&payload)
            .map_err(|e| e.to_string())?
            .state
        else {
            return Err("delta checkpoint decoded as a full".into());
        };
        deltas.push(delta);
        if base >= at {
            return Err("delta chain points forward".into());
        }
        at = base;
    }
}

/// Tuples that pass the gate in one checkpoint period of a cycle.
pub fn epoch_tuples(tuples_per_sec: f64) -> u64 {
    (tuples_per_sec * CKPT_MS as f64 / 1e3).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_input_interleaves_producers_after_prefill() {
        let input = cycle_input(Workload::Keyed, 5, 0, &[3, 2]);
        let prefill = prefill_batches(1).len() + prefill_batches(2).len();
        assert_eq!(input.len(), prefill + 5);
        let timed: Vec<(u64, u64)> = input[prefill..].iter().map(|b| (b.0, b.1)).collect();
        let first = prefill_batches(1).len() as u64;
        assert_eq!(timed[0], (1, first + 1));
        assert_eq!(timed[1], (2, first + 1));
        assert_eq!(timed[4], (1, first + 3));
    }

    #[test]
    fn baseline_matches_the_oracle() {
        for w in [Workload::Ingest, Workload::Keyed] {
            let input = cycle_input(w, 9, 0, &[20, 20]);
            assert!(baseline_eps(w, &input).unwrap() > 0.0);
        }
    }

    #[test]
    fn replay_and_store_read_cover_every_layer() {
        let dir = TempDir::create(
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../.bench_tmp")
                .join(format!("test-{}", std::process::id())),
        )
        .unwrap();
        let input = cycle_input(Workload::Keyed, 2, 0, &[40, 40]);
        let mut tr = Tracer::new(true, Instant::now(), 1);
        let r = replay(Workload::Keyed, 0, &input, 2_000, dir.path(), &mut tr).unwrap();
        assert!(r.fold_ratio == 1.0 && r.wal_writes_per_batch == 1.0);
        let (base, deltas) = r.chain.unwrap();
        assert!(!deltas.is_empty());
        assert!(fold_ms_per_mib(&base, &deltas).unwrap() > 0.0);
        assert!(r.net_us_per_mib > 0.0 && r.put_ckpt_ms_per_mib > 0.0);
        let spans = tr.take();
        for name in [
            "gate.admit",
            "store.wal_append",
            "wire.encode",
            "wire.decode",
            "op.keyed",
            "delta.capture",
            "store.put_ckpt",
        ] {
            assert!(spans.iter().any(|s| s.name == name), "no {name} span");
        }
    }
}
