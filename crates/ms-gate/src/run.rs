//! [`run_gate`]: the gateway event loop — one thread, any number of
//! producer connections.
//!
//! The loop multiplexes a nonblocking listener plus every producer
//! socket on [`ms_net::ready::poll`], exactly like `ms-wire`'s
//! event-loop worker: no thread-per-connection, O(1) gateway threads
//! regardless of producer count. Per connection it keeps a
//! [`FrameDecoder`] for inbound frames and a pending-ack buffer
//! drained on write readiness, so a slow producer can never stall the
//! loop.
//!
//! The durability order per accepted batch is the whole contract:
//! admit → stamp tuples → append to the preservation log (`Err` is
//! fatal: the gate stops streaming rather than ack unpreserved data)
//! → route onto engine edges → queue `Accepted`. Under group commit
//! (the default), the loop *stages* every batch admitted during one
//! poll turn — across all ready producer connections — and commits
//! the lot with a single [`StableStore::append_log_batch`]: one lock,
//! one encode buffer, one `write(2)` for the whole group. Only after
//! that append returns are the tuples routed and the `Accepted` /
//! `FinOk` acks queued, so the contract is unchanged: an ack still
//! implies durability, and a storage error still kills the gate with
//! nothing from the group acked. A SIGKILL between WAL and ack
//! re-delivers via the producer's retry, which the rebuilt dedup
//! table answers with `Accepted` and no re-admission.
//!
//! Checkpoints ride the same [`SourceCmd`] channel as every source
//! host: mark the stream boundary durably, hand the dedup snapshot to
//! the persister, broadcast the token, reopen the admission window.

use std::fs;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{Receiver, Sender, TryRecvError};
use ms_core::codec::{frame, FrameDecoder, SnapshotWriter, FRAME_HEADER_BYTES};
use ms_core::error::{Error, Result};
use ms_core::gate::{GateConfig, GateMsg};
use ms_core::ids::{EpochId, OperatorId, PortId};
use ms_core::metrics::OperatorMeter;
use ms_core::operator::{DeferredSnapshot, Operator, OperatorContext, OperatorSnapshot};
use ms_core::tuple::Tuple;
use ms_live::{HostExit, OutputRoute, PersistItem, SourceCmd, StableStore};
use ms_net::ready::{poll, Interest, PollTarget};

use crate::admission::{Admission, GateCore};
use crate::meter::GateMeter;

/// Poll timeout: bounds how stale a [`SourceCmd`] can go unseen while
/// no socket is active.
const POLL_MS: i32 = 20;
const READ_CHUNK: usize = 64 * 1024;

#[cfg(unix)]
fn fd(sock: &impl std::os::unix::io::AsRawFd) -> PollTarget {
    sock.as_raw_fd()
}
#[cfg(not(unix))]
fn fd<T>(_sock: &T) -> PollTarget {
    0
}

/// Everything [`run_gate`] needs to host one gateway HAU.
pub struct GateWiring {
    /// The gateway's operator id (stamped on emitted tuples).
    pub op_id: OperatorId,
    /// Admission/pre-agg configuration.
    pub cfg: GateConfig,
    /// One route per logical consumer; every emitted tuple is
    /// delivered to each route (a gateway fans out like a source).
    pub outputs: Vec<OutputRoute>,
    /// Controller command channel (checkpoint/stop) — a gateway is a
    /// source host.
    pub cmd: Receiver<SourceCmd>,
    /// Listen address (`"127.0.0.1:0"` picks a free port).
    pub listen: String,
    /// Where to publish the bound address (temp file + atomic rename),
    /// so producers discover the gate after every (re)deploy. `None`
    /// skips publication.
    pub addr_file: Option<PathBuf>,
    /// Restored checkpoint (dedup snapshot + `next_seq`), if any.
    pub restored: Option<OperatorSnapshot>,
    /// First emission sequence (the restored checkpoint's `next_seq`,
    /// else 0).
    pub restored_seq: u64,
    /// Preserved tuples to resend before accepting traffic (recovery);
    /// also rebuilds the dedup table for batches WAL'd after the mark.
    pub replay: Vec<Tuple>,
    /// Gateway-specific counters (always on; cheap atomics).
    pub meter: Arc<GateMeter>,
    /// Standard per-operator meter (checkpoint phases, tuples out);
    /// `None` disables.
    pub telemetry: Option<Arc<OperatorMeter>>,
    /// Commit every batch admitted in one poll turn with a single
    /// group append (one WAL write across producers) instead of one
    /// append per tuple. Production gates keep this on; the off
    /// position exists to measure the per-tuple baseline.
    pub group_commit: bool,
}

/// The inert [`Operator`] a finished gateway hands back in its
/// [`HostExit`] — it carries the final dedup snapshot so generic exit
/// handling (which expects an operator) keeps working.
pub struct GateOp {
    state: OperatorSnapshot,
}

impl GateOp {
    /// Wraps a final gateway state.
    pub fn new(state: OperatorSnapshot) -> GateOp {
        GateOp { state }
    }
}

impl Operator for GateOp {
    fn kind(&self) -> &'static str {
        "Gate"
    }
    fn on_tuple(&mut self, _port: PortId, _tuple: Tuple, _ctx: &mut dyn OperatorContext) {}
    fn state_size(&self) -> u64 {
        self.state.logical_bytes
    }
    fn snapshot(&self) -> OperatorSnapshot {
        self.state.clone()
    }
    fn restore(&mut self, snapshot: &OperatorSnapshot) -> Result<()> {
        self.state = snapshot.clone();
        Ok(())
    }
}

/// One producer connection.
struct Conn {
    sock: TcpStream,
    dec: FrameDecoder,
    /// Pending ack bytes, drained on write readiness.
    out: Vec<u8>,
    /// Bound by the connection's `Hello`.
    producer: Option<u64>,
    gone: bool,
}

impl Conn {
    fn new(sock: TcpStream) -> Conn {
        Conn {
            sock,
            dec: FrameDecoder::new(),
            out: Vec::new(),
            producer: None,
            gone: false,
        }
    }

    fn queue(&mut self, msg: &GateMsg) {
        self.out.extend_from_slice(&frame(&msg.encode()));
    }

    /// Writes as much of the pending ack buffer as the socket takes.
    fn flush(&mut self) {
        while !self.out.is_empty() {
            match self.sock.write(&self.out) {
                Ok(0) => {
                    self.gone = true;
                    return;
                }
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.gone = true;
                    return;
                }
            }
        }
    }

    /// Reads everything currently available into the frame decoder.
    fn read_available(&mut self) {
        let mut buf = [0u8; READ_CHUNK];
        loop {
            match self.sock.read(&mut buf) {
                Ok(0) => {
                    self.gone = true;
                    return;
                }
                Ok(n) => self.dec.feed(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.gone = true;
                    return;
                }
            }
        }
    }
}

/// One accepted batch staged for this poll turn's group commit.
struct PendingAccept {
    /// Index of the producer connection to ack.
    conn: usize,
    /// Batch id for the `Accepted` ack.
    batch: u64,
    /// Producer events the batch carried (pre-agg input count).
    events: u64,
    /// `(offset, len)` of the batch's tuples inside [`Turn::wal`].
    range: (usize, usize),
    /// Admission instant, for the ack-latency meter.
    start: Instant,
}

/// Everything admitted during one poll turn, awaiting the turn's
/// single group append. Nothing in here is routed or acked until that
/// append returns — the staged form *is* the ack-after-WAL contract.
#[derive(Default)]
struct Turn {
    /// WAL records — pre-aggregated tuples and Fin markers — in
    /// admission (= sequence) order across every ready connection.
    wal: Vec<Tuple>,
    accepts: Vec<PendingAccept>,
    /// Connections owed a `FinOk` once the turn commits.
    fins: Vec<usize>,
}

impl Turn {
    fn is_empty(&self) -> bool {
        self.wal.is_empty() && self.accepts.is_empty() && self.fins.is_empty()
    }
}

/// Handles every decoded frame on one connection, staging admitted
/// work into `turn` for the end-of-turn group commit. Protocol
/// violations just drop the connection (producers are unreliable by
/// design); acks queued here (duplicates, sheds) are not flushed
/// until the turn commits, so no ack can overtake the group's WAL
/// append.
fn process_frames(
    conn_idx: usize,
    conn: &mut Conn,
    core: &mut GateCore,
    next_seq: &mut u64,
    turn: &mut Turn,
    meter: &GateMeter,
    all_fin: &mut bool,
) {
    while !conn.gone {
        let payload = match conn.dec.next_frame() {
            Ok(Some(p)) => p,
            Ok(None) => break,
            Err(_) => {
                conn.gone = true;
                break;
            }
        };
        let Ok(msg) = GateMsg::decode(&payload) else {
            conn.gone = true;
            break;
        };
        match msg {
            GateMsg::Hello { producer } => conn.producer = Some(producer),
            GateMsg::Batch { batch, events } => {
                let Some(producer) = conn.producer else {
                    conn.gone = true;
                    break;
                };
                let start = Instant::now();
                match core.admit(next_seq, producer, batch, &events) {
                    Admission::Accept(tuples) => {
                        // Stage for the group commit: the tuples are
                        // owned, so they move straight into the WAL
                        // batch — no per-tuple clone on this path.
                        let range = (turn.wal.len(), tuples.len());
                        turn.wal.extend(tuples);
                        turn.accepts.push(PendingAccept {
                            conn: conn_idx,
                            batch,
                            events: events.len() as u64,
                            range,
                            start,
                        });
                    }
                    Admission::Duplicate => {
                        // The original admission was WAL'd before its
                        // ack, so a duplicate can re-ack without
                        // touching storage. The queued bytes still
                        // only flush after this turn's commit.
                        conn.queue(&GateMsg::Accepted { batch });
                        meter.record_ack_us(start.elapsed().as_micros() as u64);
                    }
                    Admission::Shed => {
                        meter.record_shed();
                        conn.queue(&GateMsg::Busy {
                            batch,
                            retry_after_ms: core.retry_after_ms(),
                        });
                    }
                }
            }
            GateMsg::Fin { producer } => {
                conn.producer.get_or_insert(producer);
                // Ack-after-WAL for Fin too: the marker rides this
                // turn's group append, and FinOk is only queued after
                // it returns — so a durable FinOk still implies a
                // durable marker, a rollback past the last checkpoint
                // replays it, and the recovered gate counts the
                // producer as done. Retried Fins re-ack without
                // re-appending.
                if !core.is_finished(producer) {
                    let marker = core.fin_marker(next_seq, producer);
                    turn.wal.push(marker);
                }
                if core.fin(producer) {
                    *all_fin = true;
                }
                turn.fins.push(conn_idx);
            }
            // Gateway-to-producer messages arriving at the gateway are
            // a protocol violation.
            GateMsg::Accepted { .. } | GateMsg::Busy { .. } | GateMsg::FinOk => {
                conn.gone = true;
            }
        }
    }
}

/// Commits one poll turn: a single group append covering every batch
/// and Fin marker admitted this turn, then — and only then — routing,
/// metering, and ack queueing. `Err` means stable storage failed —
/// fatal for the whole gate, with nothing from the group acked.
#[allow(clippy::too_many_arguments)]
fn commit_turn(
    turn: &mut Turn,
    conns: &mut [Conn],
    outputs: &[OutputRoute],
    store: &Arc<dyn StableStore>,
    op_id: OperatorId,
    meter: &GateMeter,
    telemetry: &Option<Arc<OperatorMeter>>,
    group_commit: bool,
) -> Result<()> {
    if !turn.wal.is_empty() {
        if group_commit {
            store.append_log_batch(op_id, &turn.wal)?;
        } else {
            // Baseline mode: one lock/encode/write per tuple.
            for t in &turn.wal {
                store.append_log(op_id, t.clone())?;
            }
        }
    }
    for acc in turn.accepts.drain(..) {
        let tuples = &turn.wal[acc.range.0..acc.range.0 + acc.range.1];
        let mut wal_bytes = 0u64;
        let mut payload_bytes = 0u64;
        for t in tuples {
            wal_bytes += (SnapshotWriter::encoded_tuple_bytes(t) + FRAME_HEADER_BYTES) as u64;
            payload_bytes += t.payload_bytes();
        }
        for route in outputs {
            route.data_batch(tuples);
        }
        let n = tuples.len() as u64;
        if let Some(m) = telemetry {
            if n > 0 {
                m.add_tuples_out(n, payload_bytes);
            }
        }
        meter.record_accept(acc.events, n, wal_bytes);
        if let Some(c) = conns.get_mut(acc.conn) {
            c.queue(&GateMsg::Accepted { batch: acc.batch });
        }
        meter.record_ack_us(acc.start.elapsed().as_micros() as u64);
    }
    for ci in turn.fins.drain(..) {
        if let Some(c) = conns.get_mut(ci) {
            c.queue(&GateMsg::FinOk);
        }
    }
    turn.wal.clear();
    Ok(())
}

/// Runs one gateway HAU to completion on the current thread. Exits
/// when every expected producer has sent `Fin`, on [`SourceCmd::Stop`],
/// or on a stable-storage failure (reported in the exit record).
pub fn run_gate(
    mut w: GateWiring,
    store: Arc<dyn StableStore>,
    persist: Sender<PersistItem>,
) -> HostExit {
    let mut core = GateCore::new(w.op_id, w.cfg);
    let mut next_seq = w.restored_seq;
    let mut error: Option<Error> = None;

    let finish = |core: &GateCore, outputs: &[OutputRoute], error: Option<Error>| -> HostExit {
        for route in outputs {
            route.eos();
        }
        HostExit {
            op_id: w.op_id,
            op: Box::new(GateOp::new(core.snapshot())),
            error,
        }
    };

    if let Some(snapshot) = &w.restored {
        if let Err(e) = core.restore(snapshot) {
            return finish(&core, &w.outputs, Some(e));
        }
    }
    // Recovery: resend preserved tuples (they were durable — and their
    // batches possibly acked — before the crash), fold their batch ids
    // and Fin markers back into the admission state, and continue
    // sequence numbering past them. Fin markers are WAL-only and torn
    // batch runs were never acked: neither may reach downstream
    // operators, whose tuple counts would diverge from the unfailed
    // run.
    let resend = core.rebuild_from_replay(&mut next_seq, std::mem::take(&mut w.replay));
    if !resend.is_empty() {
        // The whole preserved run goes downstream as one batch per
        // route — replay is the worst case for per-tuple framing.
        for route in &w.outputs {
            let _ = route.data_batch(&resend);
        }
    }
    // Every expected producer already Fin'd before the crash: their
    // FinOk acks were durable promises, so the recovered gate closes
    // the stream instead of waiting forever for Fins that will never
    // be re-sent (the producers exited on their acks).
    let mut all_fin = core.all_finished();

    let listener = match TcpListener::bind(&w.listen) {
        Ok(l) => l,
        Err(e) => return finish(&core, &w.outputs, Some(e.into())),
    };
    if let Err(e) = listener.set_nonblocking(true) {
        return finish(&core, &w.outputs, Some(e.into()));
    }
    if let Some(path) = &w.addr_file {
        let addr = match listener.local_addr() {
            Ok(a) => a.to_string(),
            Err(e) => return finish(&core, &w.outputs, Some(e.into())),
        };
        let tmp = path.with_extension("tmp");
        if let Err(e) = fs::write(&tmp, &addr).and_then(|()| fs::rename(&tmp, path)) {
            return finish(&core, &w.outputs, Some(e.into()));
        }
    }

    let mut conns: Vec<Conn> = Vec::new();
    let mut stopping = false;
    let mut turn = Turn::default();
    'outer: loop {
        // Controller commands first: checkpoint marks must cut on the
        // batch boundary the loop currently sits at.
        loop {
            match w.cmd.try_recv() {
                Ok(SourceCmd::Checkpoint(epoch)) => {
                    if let Err(e) = take_checkpoint(
                        &core,
                        &store,
                        &persist,
                        w.op_id,
                        epoch,
                        next_seq,
                        &w.outputs,
                        &w.telemetry,
                    ) {
                        error = Some(e);
                        break 'outer;
                    }
                    core.reset_window();
                }
                Ok(SourceCmd::Stop) => stopping = true,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    stopping = true;
                    break;
                }
            }
        }
        if stopping || all_fin {
            break;
        }

        let mut entries: Vec<(PollTarget, usize, Interest)> = Vec::with_capacity(conns.len() + 1);
        entries.push((fd(&listener), 0, Interest::READ));
        for (i, c) in conns.iter().enumerate() {
            let want = if c.out.is_empty() {
                Interest::READ
            } else {
                Interest::BOTH
            };
            entries.push((fd(&c.sock), i + 1, want));
        }
        let ready = match poll(&entries, POLL_MS) {
            Ok(r) => r,
            Err(e) => {
                error = Some(e.into());
                break;
            }
        };
        for ev in ready {
            if ev.token == 0 {
                // Accept everything pending; each new socket joins the
                // poll set next iteration.
                loop {
                    match listener.accept() {
                        Ok((sock, _peer)) => {
                            let _ = sock.set_nodelay(true);
                            if sock.set_nonblocking(true).is_ok() {
                                conns.push(Conn::new(sock));
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => break,
                    }
                }
                continue;
            }
            let conn_idx = ev.token - 1;
            let Some(conn) = conns.get_mut(conn_idx) else {
                continue;
            };
            if ev.writable {
                conn.flush();
            }
            if ev.readable {
                conn.read_available();
            }
            process_frames(
                conn_idx,
                conn,
                &mut core,
                &mut next_seq,
                &mut turn,
                &w.meter,
                &mut all_fin,
            );
        }
        // Group commit: everything admitted this turn — across every
        // ready producer — goes durable in one append, and only then
        // are the acks queued and flushed. Connection indices are
        // stable here because retain() runs after.
        if !turn.is_empty() {
            if let Err(e) = commit_turn(
                &mut turn,
                &mut conns,
                &w.outputs,
                &store,
                w.op_id,
                &w.meter,
                &w.telemetry,
                w.group_commit,
            ) {
                error = Some(e);
                break 'outer;
            }
        }
        for c in &mut conns {
            if !c.out.is_empty() {
                c.flush();
            }
        }
        conns.retain(|c| !c.gone);
    }
    // Best-effort delivery of pending acks (FinOk mostly) before the
    // stream closes.
    for c in &mut conns {
        c.flush();
    }
    finish(&core, &w.outputs, error)
}

/// The source checkpoint protocol, verbatim: durable mark first, then
/// the snapshot to the persister, then the token downstream.
#[allow(clippy::too_many_arguments)]
fn take_checkpoint(
    core: &GateCore,
    store: &Arc<dyn StableStore>,
    persist: &Sender<PersistItem>,
    op_id: OperatorId,
    epoch: EpochId,
    next_seq: u64,
    outputs: &[OutputRoute],
    telemetry: &Option<Arc<OperatorMeter>>,
) -> Result<()> {
    store.mark_epoch(op_id, epoch, next_seq)?;
    let snap = core.snapshot();
    if let Some(m) = telemetry {
        m.set_state_bytes(snap.logical_bytes);
    }
    let _ = persist.send(PersistItem {
        epoch,
        op: op_id,
        snapshot: DeferredSnapshot::Ready(snap),
        base: None,
        next_seq,
        in_flight: Vec::new(),
        resume_seq: Vec::new(),
        align_us: 0,
        meter: telemetry.clone(),
    });
    for route in outputs {
        route.token(epoch);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use ms_core::gate::EVENT_BYTES;
    use ms_core::value::Value;
    use ms_live::{HostMsg, LiveStorage, Persister};
    use std::time::Duration;

    fn send(sock: &mut TcpStream, msg: &GateMsg) {
        sock.write_all(&frame(&msg.encode())).unwrap();
    }

    fn recv(sock: &mut TcpStream, dec: &mut FrameDecoder) -> GateMsg {
        loop {
            if let Some(p) = dec.next_frame().unwrap() {
                return GateMsg::decode(&p).unwrap();
            }
            let mut buf = [0u8; 4096];
            let n = sock.read(&mut buf).unwrap();
            assert!(n > 0, "gateway closed mid-conversation");
            dec.feed(&buf[..n]);
        }
    }

    fn recv_host(rx: &Receiver<HostMsg>) -> HostMsg {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match rx.try_recv() {
                Ok(m) => return m,
                Err(TryRecvError::Empty) => {
                    assert!(
                        Instant::now() < deadline,
                        "timed out waiting on engine edge"
                    );
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(TryRecvError::Disconnected) => panic!("gateway edge disconnected"),
            }
        }
    }

    fn wait_addr(path: &std::path::Path) -> String {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(s) = fs::read_to_string(path) {
                if !s.is_empty() {
                    return s;
                }
            }
            assert!(Instant::now() < deadline, "gateway never published addr");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    struct Gate {
        addr: String,
        cmd_tx: Sender<SourceCmd>,
        rx: Receiver<HostMsg>,
        store: Arc<LiveStorage>,
        handle: std::thread::JoinHandle<HostExit>,
        _dir: PathBuf,
    }

    fn start_gate(tag: &str, cfg: GateConfig) -> Gate {
        let dir = std::env::temp_dir().join(format!("ms_gate_run_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let store = Arc::new(LiveStorage::new(1));
        let persister = Persister::spawn(store.clone());
        let persist = persister.sender();
        let (cmd_tx, cmd_rx) = unbounded();
        let (tx, rx) = unbounded::<HostMsg>();
        let addr_file = dir.join("gate.addr");
        let wiring = GateWiring {
            op_id: OperatorId(0),
            cfg,
            outputs: vec![OutputRoute::single(tx)],
            cmd: cmd_rx,
            listen: "127.0.0.1:0".into(),
            addr_file: Some(addr_file.clone()),
            restored: None,
            restored_seq: 0,
            replay: Vec::new(),
            meter: Arc::new(GateMeter::new()),
            telemetry: None,
            group_commit: true,
        };
        let store2 = store.clone();
        let handle = std::thread::spawn(move || {
            let exit = run_gate(wiring, store2, persist);
            drop(persister);
            exit
        });
        let addr = wait_addr(&addr_file);
        Gate {
            addr,
            cmd_tx,
            rx,
            store,
            handle,
            _dir: dir,
        }
    }

    #[test]
    fn acks_after_wal_dedups_and_closes_on_fin() {
        let g = start_gate(
            "fin",
            GateConfig {
                expected_producers: 2,
                ..GateConfig::default()
            },
        );
        let mut a = TcpStream::connect(&g.addr).unwrap();
        let mut da = FrameDecoder::new();
        send(&mut a, &GateMsg::Hello { producer: 1 });
        send(
            &mut a,
            &GateMsg::Batch {
                batch: 1,
                events: vec![(5, 10), (5, 20), (8, 1)],
            },
        );
        assert_eq!(recv(&mut a, &mut da), GateMsg::Accepted { batch: 1 });
        // The ack means the WAL already holds the pre-aggregated
        // tuples: keys 5 and 8 → two records.
        assert_eq!(g.store.preserved_tuples(), 2);
        // A retry of the same batch re-acks without re-admitting.
        send(
            &mut a,
            &GateMsg::Batch {
                batch: 1,
                events: vec![(5, 10), (5, 20), (8, 1)],
            },
        );
        assert_eq!(recv(&mut a, &mut da), GateMsg::Accepted { batch: 1 });
        assert_eq!(g.store.preserved_tuples(), 2, "duplicate admitted nothing");
        // Checkpoint: the token rides the engine edge behind the data.
        g.cmd_tx.send(SourceCmd::Checkpoint(EpochId(1))).unwrap();
        let mut got_tuples = Vec::new();
        loop {
            match recv_host(&g.rx) {
                HostMsg::Data(t) => got_tuples.push(t),
                HostMsg::DataBatch(b) => got_tuples.extend(b.iter().cloned()),
                HostMsg::Token(e) => {
                    assert_eq!(e, EpochId(1));
                    break;
                }
                HostMsg::Eos => panic!("premature EOS"),
            }
        }
        assert_eq!(got_tuples.len(), 2);
        assert_eq!(
            got_tuples[0].field(0).and_then(Value::as_int),
            Some(30),
            "per-key fold: 10+20 on key 5"
        );
        // Fin from both producers closes the stream.
        send(&mut a, &GateMsg::Fin { producer: 1 });
        assert_eq!(recv(&mut a, &mut da), GateMsg::FinOk);
        let mut b = TcpStream::connect(&g.addr).unwrap();
        let mut db = FrameDecoder::new();
        send(&mut b, &GateMsg::Fin { producer: 2 });
        assert_eq!(recv(&mut b, &mut db), GateMsg::FinOk);
        loop {
            match recv_host(&g.rx) {
                HostMsg::Eos => break,
                _ => continue,
            }
        }
        let exit = g.handle.join().unwrap();
        assert!(exit.error.is_none());
        assert_eq!(exit.op.kind(), "Gate");
    }

    #[test]
    fn over_budget_batches_are_shed_with_retry_hint() {
        let g = start_gate(
            "shed",
            GateConfig {
                budget_bytes: EVENT_BYTES, // one event per window
                expected_producers: 1,
                retry_after_ms: 7,
                ..GateConfig::default()
            },
        );
        let mut a = TcpStream::connect(&g.addr).unwrap();
        let mut da = FrameDecoder::new();
        send(&mut a, &GateMsg::Hello { producer: 1 });
        send(
            &mut a,
            &GateMsg::Batch {
                batch: 1,
                events: vec![(1, 1), (2, 2)],
            },
        );
        assert_eq!(
            recv(&mut a, &mut da),
            GateMsg::Busy {
                batch: 1,
                retry_after_ms: 7
            }
        );
        assert_eq!(
            g.store.preserved_tuples(),
            0,
            "shed batches never touch the WAL"
        );
        // A within-budget batch still gets through.
        send(
            &mut a,
            &GateMsg::Batch {
                batch: 1,
                events: vec![(3, 3)],
            },
        );
        assert_eq!(recv(&mut a, &mut da), GateMsg::Accepted { batch: 1 });
        assert_eq!(g.store.preserved_tuples(), 1);
        send(&mut a, &GateMsg::Fin { producer: 1 });
        assert_eq!(recv(&mut a, &mut da), GateMsg::FinOk);
        let exit = g.handle.join().unwrap();
        assert!(exit.error.is_none());
    }

    #[test]
    fn fin_is_wal_durable_before_finok_and_retry_does_not_reappend() {
        let g = start_gate(
            "fin_wal",
            GateConfig {
                expected_producers: 2,
                ..GateConfig::default()
            },
        );
        let mut a = TcpStream::connect(&g.addr).unwrap();
        let mut da = FrameDecoder::new();
        send(&mut a, &GateMsg::Fin { producer: 1 });
        assert_eq!(recv(&mut a, &mut da), GateMsg::FinOk);
        assert_eq!(
            g.store.preserved_tuples(),
            1,
            "the FinOk ack implies the Fin marker is already durable"
        );
        // A retried Fin (the ack was lost, the producer resends)
        // re-acks without appending a second marker.
        send(&mut a, &GateMsg::Fin { producer: 1 });
        assert_eq!(recv(&mut a, &mut da), GateMsg::FinOk);
        assert_eq!(g.store.preserved_tuples(), 1);
        send(&mut a, &GateMsg::Fin { producer: 2 });
        assert_eq!(recv(&mut a, &mut da), GateMsg::FinOk);
        let exit = g.handle.join().unwrap();
        assert!(exit.error.is_none());
    }

    #[test]
    fn fins_replayed_from_wal_close_the_recovered_gate() {
        // The regression the Fin marker exists for: every producer
        // Fin'd (and was acked) after the last complete checkpoint,
        // then the gate's worker died. The recovered gate rebuilds the
        // finished set from replayed markers and closes the stream
        // instead of waiting forever for Fins that will never be
        // re-sent — and the markers themselves never reach downstream.
        let dir = std::env::temp_dir().join(format!("ms_gate_finrep_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let store = Arc::new(LiveStorage::new(1));
        let persister = Persister::spawn(store.clone());
        let persist = persister.sender();
        let (cmd_tx, cmd_rx) = unbounded();
        let (tx, rx) = unbounded::<HostMsg>();
        let mut pre = GateCore::new(
            OperatorId(0),
            GateConfig {
                expected_producers: 1,
                ..GateConfig::default()
            },
        );
        let mut seq = 0;
        let Admission::Accept(mut replay) = pre.admit(&mut seq, 7, 1, &[(1, 4)]) else {
            panic!("accept expected");
        };
        let data_tuples = replay.clone();
        replay.push(pre.fin_marker(&mut seq, 7));
        let wiring = GateWiring {
            op_id: OperatorId(0),
            cfg: GateConfig {
                expected_producers: 1,
                ..GateConfig::default()
            },
            outputs: vec![OutputRoute::single(tx)],
            cmd: cmd_rx,
            listen: "127.0.0.1:0".into(),
            addr_file: None,
            restored: None,
            restored_seq: 0,
            replay,
            meter: Arc::new(GateMeter::new()),
            telemetry: None,
            group_commit: true,
        };
        let handle = std::thread::spawn(move || run_gate(wiring, store, persist));
        // No producer ever connects. The gate must still terminate:
        // replayed data, then Eos — and no marker in between.
        let mut got = Vec::new();
        while got.len() < data_tuples.len() {
            match recv_host(&rx) {
                HostMsg::Data(t) => got.push(t),
                HostMsg::DataBatch(b) => got.extend(b.iter().cloned()),
                other => panic!("expected replayed data, got {other:?}"),
            }
        }
        assert_eq!(got, data_tuples);
        match recv_host(&rx) {
            HostMsg::Eos => {}
            other => panic!("expected Eos after replay, got {other:?}"),
        }
        let exit = handle.join().unwrap();
        assert!(exit.error.is_none());
        drop(cmd_tx);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_rebuilds_dedup_and_resends_preserved_tuples() {
        // Simulate recovery wiring directly: preserved tuples go back
        // out and their batch ids answer retries as duplicates.
        let dir = std::env::temp_dir().join(format!("ms_gate_replay_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let store = Arc::new(LiveStorage::new(1));
        let persister = Persister::spawn(store.clone());
        let persist = persister.sender();
        let (cmd_tx, cmd_rx) = unbounded();
        let (tx, rx) = unbounded::<HostMsg>();
        // Build the "pre-crash" tuples through a core.
        let mut pre = GateCore::new(OperatorId(0), GateConfig::default());
        let mut seq = 0;
        let Admission::Accept(walled) = pre.admit(&mut seq, 7, 3, &[(1, 4), (2, 6)]) else {
            panic!("accept expected");
        };
        let addr_file = dir.join("gate.addr");
        let wiring = GateWiring {
            op_id: OperatorId(0),
            cfg: GateConfig {
                expected_producers: 1,
                ..GateConfig::default()
            },
            outputs: vec![OutputRoute::single(tx)],
            cmd: cmd_rx,
            listen: "127.0.0.1:0".into(),
            addr_file: Some(addr_file.clone()),
            restored: None,
            restored_seq: 0,
            replay: walled.clone(),
            meter: Arc::new(GateMeter::new()),
            telemetry: None,
            group_commit: true,
        };
        let store2 = store.clone();
        let handle = std::thread::spawn(move || run_gate(wiring, store2, persist));
        let addr = wait_addr(&addr_file);
        // The replayed tuples arrive downstream before any new data.
        let mut got = Vec::new();
        while got.len() < walled.len() {
            match recv_host(&rx) {
                HostMsg::Data(t) => got.push(t),
                HostMsg::DataBatch(b) => got.extend(b.iter().cloned()),
                other => panic!("expected replayed data, got {other:?}"),
            }
        }
        assert_eq!(got, walled);
        // The producer retries the batch that was WAL'd pre-crash:
        // acked as duplicate, nothing re-emitted.
        let mut a = TcpStream::connect(&addr).unwrap();
        let mut da = FrameDecoder::new();
        send(&mut a, &GateMsg::Hello { producer: 7 });
        send(
            &mut a,
            &GateMsg::Batch {
                batch: 3,
                events: vec![(1, 4), (2, 6)],
            },
        );
        assert_eq!(recv(&mut a, &mut da), GateMsg::Accepted { batch: 3 });
        assert_eq!(store.preserved_tuples(), 0, "duplicate batch not re-logged");
        send(&mut a, &GateMsg::Fin { producer: 7 });
        assert_eq!(recv(&mut a, &mut da), GateMsg::FinOk);
        let exit = handle.join().unwrap();
        assert!(exit.error.is_none());
        drop(cmd_tx);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Runs a recovered gate (`restored: None`, the given replay) to
    /// its Eos, driving `producer` against it once it is up; returns
    /// every `(key, value)` that reached the engine edge.
    fn recovered_gate_run(
        tag: &str,
        store: Arc<LiveStorage>,
        replay: Vec<Tuple>,
        producer: impl FnOnce(&str),
    ) -> Vec<(i64, i64)> {
        let dir = std::env::temp_dir().join(format!("ms_gate_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let persister = Persister::spawn(store.clone());
        let persist = persister.sender();
        let (_cmd_tx, cmd_rx) = unbounded();
        let (tx, rx) = unbounded::<HostMsg>();
        let addr_file = dir.join("gate.addr");
        let wiring = GateWiring {
            op_id: OperatorId(0),
            cfg: GateConfig {
                expected_producers: 1,
                ..GateConfig::default()
            },
            outputs: vec![OutputRoute::single(tx)],
            cmd: cmd_rx,
            listen: "127.0.0.1:0".into(),
            addr_file: Some(addr_file.clone()),
            restored: None,
            restored_seq: 0,
            replay,
            meter: Arc::new(GateMeter::new()),
            telemetry: None,
            group_commit: true,
        };
        let handle = std::thread::spawn(move || run_gate(wiring, store, persist));
        producer(&wait_addr(&addr_file));
        let mut events = Vec::new();
        loop {
            let batch = match recv_host(&rx) {
                HostMsg::Data(t) => vec![t],
                HostMsg::DataBatch(b) => b.to_vec(),
                HostMsg::Token(_) => continue,
                HostMsg::Eos => break,
            };
            for t in batch {
                let int = |f| t.field(f).and_then(Value::as_int).unwrap();
                events.push((int(crate::field::KEY), int(crate::field::VALUE)));
            }
        }
        let exit = handle.join().unwrap();
        assert!(exit.error.is_none());
        drop(persister);
        let _ = fs::remove_dir_all(&dir);
        events.sort_unstable();
        events
    }

    #[test]
    fn torn_batch_retry_reaches_the_engine_exactly_once() {
        // Producer 7's batch 1 is durable and acked. The crash tore
        // batch 2 after two of its three WAL records: the replay ends
        // in a complete-frame prefix of the batch with no LAST flag.
        let b1 = [(1, 10), (2, 20)];
        let b2 = [(3, 300), (4, 400), (5, 500)];
        let mut pre = GateCore::new(OperatorId(0), GateConfig::default());
        let mut seq = 0;
        let Admission::Accept(mut replay) = pre.admit(&mut seq, 7, 1, &b1) else {
            panic!("accept expected");
        };
        let Admission::Accept(walled) = pre.admit(&mut seq, 7, 2, &b2) else {
            panic!("accept expected");
        };
        replay.extend(walled.into_iter().take(2));
        let mut once: Vec<(i64, i64)> = b1.iter().chain(&b2).map(|&(k, v)| (k as i64, v)).collect();
        once.sort_unstable();

        // The recovered gate: the producer retries the unacked batch 2,
        // then finishes.
        let store = Arc::new(LiveStorage::new(1));
        let got = recovered_gate_run("torn", store.clone(), replay.clone(), |addr| {
            let mut a = TcpStream::connect(addr).unwrap();
            let mut da = FrameDecoder::new();
            send(&mut a, &GateMsg::Hello { producer: 7 });
            send(
                &mut a,
                &GateMsg::Batch {
                    batch: 2,
                    events: b2.to_vec(),
                },
            );
            assert_eq!(recv(&mut a, &mut da), GateMsg::Accepted { batch: 2 });
            send(&mut a, &GateMsg::Fin { producer: 7 });
            assert_eq!(recv(&mut a, &mut da), GateMsg::FinOk);
        });
        assert_eq!(got, once, "every event reaches the engine exactly once");

        // A later failure replays the same log again, now holding the
        // torn run, then the retry WAL'd under the same batch id, then
        // the Fin marker. The replay alone must still deliver every
        // event exactly once.
        let mut later = replay;
        later.extend(store.replay_from(OperatorId(0), EpochId(0)));
        let got = recovered_gate_run("torn_later", Arc::new(LiveStorage::new(1)), later, |_| {});
        assert_eq!(got, once, "a later replay still delivers exactly once");
    }
}
