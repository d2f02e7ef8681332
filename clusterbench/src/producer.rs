//! One producer connection: stop-and-wait batches over the gate's TCP
//! protocol on an open-loop schedule, riding out a gate outage by
//! re-reading the published address and resending.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ms_core::codec::{frame, FrameDecoder};
use ms_core::gate::GateMsg;

use crate::cluster::read_addr;
use crate::gen::{prefill_batches, BatchGen, Oracle, Workload, BATCH_EVENTS, PRODUCERS};
use crate::trace::{batch_trace, Span, Tracer};

/// How long a silent gate connection is trusted before a resend.
const READ_TIMEOUT: Duration = Duration::from_millis(1_000);
/// Pause between reconnect attempts while the gate is down.
const RECONNECT_PAUSE: Duration = Duration::from_millis(1);

/// What a producer tells the orchestrating thread.
pub enum Event {
    /// Connected and `Hello` sent.
    Connected,
    /// The prefill is acknowledged.
    Prefilled,
}

/// When the timed input phase runs.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// First due time.
    pub start: Instant,
    /// No batch is due at or after this instant.
    pub end: Instant,
}

/// One timed batch, as the producer saw it.
#[derive(Clone, Copy, Debug)]
pub struct BatchRecord {
    /// The batch's schedule slot. Ack latency runs from here, so a
    /// stall is charged to every batch queued behind it.
    pub due: Instant,
    /// When `Accepted` arrived.
    pub accepted: Instant,
    /// Whether the first send was answered `Accepted`.
    pub first_ok: bool,
    /// Events in the batch.
    pub events: u32,
    /// How late the generator itself woke for this batch, if it had to
    /// wait for the slot at all.
    pub gen_late: Option<Duration>,
}

/// Everything one producer measured.
pub struct ProducerOut {
    /// When the first `Accepted` (prefill or timed) arrived.
    pub first_accept: Instant,
    /// Timed batches, in order.
    pub records: Vec<BatchRecord>,
    /// Expected sink contribution of every acknowledged batch
    /// (prefill included).
    pub oracle: Oracle,
    /// When `FinOk` arrived.
    pub fin_ok: Instant,
    /// Spans recorded by this producer (empty when untraced).
    pub spans: Vec<Span>,
}

/// A producer's fixed parameters.
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The run seed.
    pub seed: u64,
    /// The cycle within the run.
    pub cycle: u64,
    /// Producer id, `1..=PRODUCERS`.
    pub producer: u64,
    /// The published gate address.
    pub addr_file: PathBuf,
    /// Hard deadline of the whole run.
    pub deadline: Instant,
    /// Set when the run is abandoned.
    pub abort: Arc<AtomicBool>,
    /// Span recorder (possibly disabled).
    pub tracer: Tracer,
}

struct GateConn {
    sock: Option<TcpStream>,
    dec: FrameDecoder,
}

impl Plan {
    fn check_deadline(&self) -> Result<(), String> {
        if Instant::now() >= self.deadline {
            return Err(format!("producer {}: run deadline passed", self.producer));
        }
        if self.abort.load(Ordering::SeqCst) {
            return Err(format!("producer {}: run abandoned", self.producer));
        }
        Ok(())
    }

    /// Connects (re-reading the published address each attempt, since a
    /// replacement gate binds a new port) and sends `Hello`.
    fn connect(
        &mut self,
        conn: &mut GateConn,
        parent: Option<u64>,
        trace: u64,
    ) -> Result<(), String> {
        let span = self.tracer.begin("gate.connect", parent, trace);
        loop {
            self.check_deadline()?;
            if let Some(addr) = read_addr(&self.addr_file) {
                if let Ok(mut sock) = TcpStream::connect(&addr) {
                    let hello = frame(
                        &GateMsg::Hello {
                            producer: self.producer,
                        }
                        .encode(),
                    );
                    let ok = sock.set_read_timeout(Some(READ_TIMEOUT)).is_ok()
                        && sock.set_nodelay(true).is_ok()
                        && sock.write_all(&hello).is_ok();
                    if ok {
                        conn.sock = Some(sock);
                        conn.dec = FrameDecoder::new();
                        self.tracer.end(span);
                        return Ok(());
                    }
                }
            }
            thread::sleep(RECONNECT_PAUSE);
        }
    }

    /// Sends one framed message and returns the reply, reconnecting and
    /// resending until one arrives (the gate deduplicates resent batch
    /// ids). The flag says whether the first send was answered.
    fn exchange(
        &mut self,
        conn: &mut GateConn,
        bytes: &[u8],
        parent: Option<u64>,
        trace: u64,
    ) -> Result<(GateMsg, bool), String> {
        let mut first = true;
        loop {
            self.check_deadline()?;
            if conn.sock.is_none() {
                self.connect(conn, parent, trace)?;
            }
            let span = self.tracer.begin("gate.send", parent, trace);
            let reply = round_trip(conn, bytes);
            self.tracer.end(span);
            match reply {
                Some(msg) => return Ok((msg, first)),
                None => {
                    conn.sock = None;
                    first = false;
                }
            }
        }
    }

    /// Sends a batch until it is `Accepted`; returns when, and whether
    /// the first send already was.
    fn send_batch(
        &mut self,
        conn: &mut GateConn,
        batch: u64,
        bytes: &[u8],
        parent: Option<u64>,
        trace: u64,
    ) -> Result<(Instant, bool), String> {
        let mut first_ok = true;
        loop {
            let (reply, answered) = self.exchange(conn, bytes, parent, trace)?;
            match reply {
                GateMsg::Accepted { batch: b } if b == batch => {
                    return Ok((Instant::now(), first_ok && answered));
                }
                GateMsg::Busy { retry_after_ms, .. } => {
                    first_ok = false;
                    thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 100)));
                }
                other => {
                    return Err(format!(
                        "producer {} batch {batch}: unexpected reply {other:?}",
                        self.producer
                    ))
                }
            }
        }
    }
}

/// Writes `bytes` and reads one reply; `None` when the connection died
/// (reset, EOF, or silent past the read timeout).
fn round_trip(conn: &mut GateConn, bytes: &[u8]) -> Option<GateMsg> {
    let sock = conn.sock.as_mut()?;
    sock.write_all(bytes).ok()?;
    let mut buf = [0u8; 256];
    loop {
        match conn.dec.next_frame() {
            Ok(Some(p)) => return GateMsg::decode(&p).ok(),
            Ok(None) => {}
            Err(_) => return None,
        }
        match sock.read(&mut buf) {
            Ok(0) | Err(_) => return None,
            Ok(n) => conn.dec.feed(&buf[..n]),
        }
    }
}

fn encode_batch(batch: u64, events: Vec<(u64, i64)>) -> (Vec<u8>, Vec<(u64, i64)>) {
    let msg = GateMsg::Batch { batch, events };
    let bytes = frame(&msg.encode());
    let GateMsg::Batch { events, .. } = msg else {
        unreachable!("constructed as a batch")
    };
    (bytes, events)
}

/// Runs one producer: connect, prefill, the timed phase, `Fin`.
pub fn run(
    mut plan: Plan,
    events: Sender<Event>,
    start: Receiver<Phase>,
) -> Result<ProducerOut, String> {
    let p = plan.producer;
    let preagg = plan.workload.preagg();
    let mut conn = GateConn {
        sock: None,
        dec: FrameDecoder::new(),
    };
    let mut oracle = Oracle::default();
    plan.connect(&mut conn, None, batch_trace(plan.cycle, p, 0))?;
    let _ = events.send(Event::Connected);
    let mut first_accept = None;

    let mut next_id = 1u64;
    if plan.workload.prefills() {
        for batch in prefill_batches(p) {
            let (bytes, batch) = encode_batch(next_id, batch);
            let trace = batch_trace(plan.cycle, p, next_id);
            let span = plan.tracer.begin("producer.prefill_batch", None, trace);
            let (accepted, _) = plan.send_batch(&mut conn, next_id, &bytes, Some(span), trace)?;
            plan.tracer.end(span);
            first_accept.get_or_insert(accepted);
            oracle.add_batch(&batch, preagg);
            next_id += 1;
        }
        let _ = events.send(Event::Prefilled);
    }

    let phase = start
        .recv()
        .map_err(|_| format!("producer {p}: run aborted before the timed phase"))?;
    let mut gen = BatchGen::new(plan.workload, plan.seed, plan.cycle, p);
    let mut records = Vec::new();
    // Producer p's slots are offset by its share of one interval, so the
    // two producers interleave evenly.
    let interval =
        Duration::from_secs_f64(BATCH_EVENTS as f64 * PRODUCERS as f64 / plan.workload.rate_eps());
    let offset = interval * (p - 1) as u32 / PRODUCERS as u32;
    let (mut bytes, mut batch) = encode_batch(next_id, gen.next_batch());
    for slot in 0u32.. {
        let due = phase.start + offset + interval * slot;
        if due >= phase.end {
            break;
        }
        // A batch the system made late (its predecessor's ack came
        // after this slot) is sent at once and charged from its slot;
        // only a batch the generator slept for measures the generator.
        let mut gen_late = None;
        let now = Instant::now();
        if now < due {
            thread::sleep(due - now);
            gen_late = Some(Instant::now() - due);
        }
        let trace = batch_trace(plan.cycle, p, next_id);
        let span = plan.tracer.begin("producer.batch", None, trace);
        let (accepted, first_ok) =
            plan.send_batch(&mut conn, next_id, &bytes, Some(span), trace)?;
        plan.tracer.end(span);
        first_accept.get_or_insert(accepted);
        oracle.add_batch(&batch, preagg);
        records.push(BatchRecord {
            due,
            accepted,
            first_ok,
            events: batch.len() as u32,
            gen_late,
        });
        next_id += 1;
        (bytes, batch) = encode_batch(next_id, gen.next_batch());
    }

    let fin = frame(&GateMsg::Fin { producer: p }.encode());
    let trace = batch_trace(plan.cycle, p, next_id);
    let span = plan.tracer.begin("producer.fin", None, trace);
    let (reply, _) = plan.exchange(&mut conn, &fin, Some(span), trace)?;
    plan.tracer.end(span);
    if reply != GateMsg::FinOk {
        return Err(format!("producer {p}: Fin answered {reply:?}"));
    }
    Ok(ProducerOut {
        first_accept: first_accept.ok_or(format!("producer {p}: no batch was due"))?,
        records,
        oracle,
        fin_ok: Instant::now(),
        spans: plan.tracer.take(),
    })
}
