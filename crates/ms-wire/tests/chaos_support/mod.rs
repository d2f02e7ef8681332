//! Shared harness for the correlated-failure chaos matrix
//! (`chaos_matrix.rs`) and the failure-detector tests
//! (`crash_detect.rs`): process-cluster plumbing, fault-injection env
//! wiring, the shared unfailed reference run, store/ledger auditing,
//! and a minimal gateway producer.
//!
//! Every scenario runs real OS processes (the `ms-controller` and
//! `ms-worker` binaries) against a throwaway store directory, injects
//! faults via SIGKILL and the `MS_FAULT_PLAN` / `MS_FAULT_STORE` env
//! vars, and holds the run to the same gold bar as `kill_recover`:
//! the sink's final state must be byte-identical to an unfailed run,
//! and the run ledger must stay epoch-contiguous inside every
//! generation.

use std::collections::HashMap;
use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use ms_core::codec::{frame, FrameDecoder, SnapshotReader};
use ms_core::gate::GateMsg;
use ms_wire::{read_ledger, LedgerRecord, LEDGER_FILE};

/// Tuples each demo source emits. Shared by every chain-shaped
/// scenario so all of them can diff against one reference run.
pub const LIMIT: u64 = 4000;
pub const DELAY_US: u64 = 300;
/// Operators in the `chain3` demo graph.
pub const CHAIN_OPS: usize = 3;

/// Kills every still-running child on drop so a failing assert never
/// leaks processes.
pub struct Cluster(pub Vec<Child>);

impl Cluster {
    pub fn push(&mut self, c: Child) -> usize {
        self.0.push(c);
        self.0.len() - 1
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Per-scenario controller knobs; everything not listed here is pinned
/// so the chain scenarios stay byte-comparable to one reference run.
#[derive(Clone)]
pub struct CtrlOpts {
    pub ckpt_ms: u64,
    /// `--hb-timeout-ms`: the silent-failure detector's patience.
    pub hb_timeout_ms: u64,
    /// 0 = stall detection off.
    pub barrier_stall_ms: u64,
    /// 0 = demo sources; >0 = gateway mode expecting this many
    /// producers.
    pub gate_producers: u64,
}

impl Default for CtrlOpts {
    fn default() -> CtrlOpts {
        CtrlOpts {
            ckpt_ms: 120,
            hb_timeout_ms: 500,
            barrier_stall_ms: 0,
            gate_producers: 0,
        }
    }
}

pub fn controller(dir: &Path, opts: &CtrlOpts) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ms-controller"));
    cmd.args(["--store".as_ref(), dir.join("store").as_os_str()])
        .args(["--addr-file".as_ref(), dir.join("addr").as_os_str()])
        .args(["--result-file".as_ref(), dir.join("result").as_os_str()])
        .args(["--workers", "2", "--shape", "chain3"])
        .args(["--limit", &LIMIT.to_string()])
        .args(["--delay-us", &DELAY_US.to_string()])
        .args(["--ckpt-ms", &opts.ckpt_ms.to_string()])
        .args(["--hb-timeout-ms", &opts.hb_timeout_ms.to_string()])
        .args(["--respawn-wait-ms", "3000", "--deadline-secs", "90"]);
    if opts.barrier_stall_ms > 0 {
        cmd.args(["--barrier-stall-ms", &opts.barrier_stall_ms.to_string()]);
    }
    if opts.gate_producers > 0 {
        cmd.args(["--gate-producers", &opts.gate_producers.to_string()])
            .args(["--gate-retry-ms", "25"]);
    }
    cmd.stdout(Stdio::null()).stderr(Stdio::inherit());
    cmd
}

/// A worker process; `envs` carries the fault-injection variables
/// (`MS_FAULT_PLAN`, `MS_FAULT_STORE`) for chaos scenarios.
pub fn worker(dir: &Path, name: &str, envs: &[(&str, &str)]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ms-worker"));
    cmd.args(["--name", name])
        .args(["--store".as_ref(), dir.join("store").as_os_str()])
        .args(["--controller-file".as_ref(), dir.join("addr").as_os_str()])
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd
}

pub fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ms_chaos_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

pub fn wait_exit(child: &mut Child, budget: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + budget;
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        assert!(
            Instant::now() < deadline,
            "process did not exit within {budget:?}"
        );
        thread::sleep(Duration::from_millis(25));
    }
}

/// Polls `cond` until it holds, asserting it does within `budget`.
pub fn wait_until(what: &str, budget: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + budget;
    while !cond() {
        assert!(Instant::now() < deadline, "{what}: not within {budget:?}");
        thread::sleep(Duration::from_millis(5));
    }
}

/// The unfailed chain3 run every chain scenario diffs against: run
/// once per test binary, shared across scenarios (they use identical
/// graph knobs, so their sink bytes must match it exactly).
static REFERENCE: OnceLock<Vec<String>> = OnceLock::new();

pub fn reference_sinks() -> &'static [String] {
    REFERENCE.get_or_init(|| {
        let dir = fresh_dir("ref");
        let mut cluster = Cluster(Vec::new());
        let ctl = cluster.push(controller(&dir, &CtrlOpts::default()).spawn().unwrap());
        cluster.push(worker(&dir, "wa", &[]).spawn().unwrap());
        cluster.push(worker(&dir, "wb", &[]).spawn().unwrap());
        let status = wait_exit(&mut cluster.0[ctl], Duration::from_secs(80));
        assert!(status.success(), "reference controller failed: {status:?}");
        let (rec, sinks) = parse_result(&dir.join("result"));
        assert_eq!(recoveries(&rec), 0);
        assert_eq!(sinks.len(), 1);
        let (sum, count) = decode_sink(&sinks[0]);
        assert_eq!((sum, count), chain_expected());
        check_ledger(&dir.join("store"), CHAIN_OPS, 1, None);
        drop(cluster);
        let _ = fs::remove_dir_all(&dir);
        sinks
    })
}

/// Blocks until at least `n` complete application checkpoints exist,
/// and asserts the stream has not already finished — a kill landing
/// after completion tests nothing.
pub fn wait_checkpoints_mid_stream(dir: &Path, n: u64) {
    let store = dir.join("store");
    wait_until("complete checkpoint", Duration::from_secs(40), || {
        max_complete_epoch(&store, CHAIN_OPS) >= n
    });
    assert!(
        !dir.join("result").exists(),
        "stream finished before the fault; raise --limit"
    );
}

/// Checkpoint files per epoch in the store (`e{E}_op{N}.*` under
/// `ckpt/`). One file per operator per epoch, full or delta.
fn ckpt_files_per_epoch(store: &Path) -> HashMap<u64, usize> {
    let mut per_epoch = HashMap::new();
    let Ok(entries) = fs::read_dir(store.join("ckpt")) else {
        return per_epoch;
    };
    for e in entries.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        if let Some(epoch) = name
            .strip_prefix('e')
            .and_then(|r| r.split_once("_op"))
            .and_then(|(e, _)| e.parse::<u64>().ok())
        {
            *per_epoch.entry(epoch).or_insert(0usize) += 1;
        }
    }
    per_epoch
}

/// Highest *complete* application checkpoint epoch (all `n_ops`
/// operators renamed their file into place). The store GCs obsolete
/// epochs, so this takes the max rather than counting retained ones.
pub fn max_complete_epoch(store: &Path, n_ops: usize) -> u64 {
    ckpt_files_per_epoch(store)
        .iter()
        .filter(|(_, &n)| n >= n_ops)
        .map(|(&e, _)| e)
        .max()
        .unwrap_or(0)
}

/// An epoch newer than the newest complete one with *some* but not all
/// checkpoint files in place: an application checkpoint actively in
/// flight. (Only epochs above the complete watermark count — GC of an
/// obsolete epoch also passes through partial states.)
pub fn partial_epoch(store: &Path, n_ops: usize) -> Option<u64> {
    let complete = max_complete_epoch(store, n_ops);
    ckpt_files_per_epoch(store)
        .iter()
        .filter(|&(&e, &n)| e > complete && n >= 1 && n < n_ops)
        .map(|(&e, _)| e)
        .max()
}

/// Full audit of the run ledger: every row parses, every ledger epoch
/// covers all `n_ops` operators, each generation's epochs are
/// contiguous (the epoch in flight at a failure may vanish *between*
/// generations, but none may go missing inside one), the trail spans
/// at least `min_generations`, and it reaches the newest complete
/// checkpoint in the store minus one epoch of slack for a barrier
/// still closing at the cut. Rows of `gate_op` skip the byte gauges —
/// a gateway's telemetry races its first admission.
pub fn check_ledger(
    store: &Path,
    n_ops: usize,
    min_generations: usize,
    gate_op: Option<u32>,
) -> Vec<LedgerRecord> {
    use std::collections::{BTreeMap, BTreeSet};

    let records = read_ledger(&store.join(LEDGER_FILE)).expect("run ledger must parse");
    assert!(!records.is_empty(), "run ledger is empty");
    let mut by_epoch: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
    let mut by_gen: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for r in &records {
        if Some(r.op) != gate_op {
            assert!(
                r.state_bytes > 0,
                "op{} epoch {}: state-size gauge never sampled",
                r.op,
                r.epoch
            );
            assert!(
                r.ckpt_bytes > 0,
                "op{} epoch {}: checkpoint bytes missing",
                r.op,
                r.epoch
            );
        }
        assert!(r.barrier_us > 0, "epoch {}: zero barrier latency", r.epoch);
        by_epoch.entry(r.epoch).or_default().insert(r.op);
        by_gen.entry(r.generation).or_default().insert(r.epoch);
    }
    for (epoch, ops) in &by_epoch {
        assert_eq!(
            ops.len(),
            n_ops,
            "epoch {epoch} covers ops {ops:?}, want all {n_ops} operators"
        );
    }
    for (gen, epochs) in &by_gen {
        let lo = *epochs.iter().next().unwrap();
        let hi = *epochs.iter().last().unwrap();
        assert_eq!(
            epochs.len() as u64,
            hi - lo + 1,
            "generation {gen} ledger has an epoch hole: {epochs:?}"
        );
    }
    assert!(
        by_gen.len() >= min_generations,
        "ledger spans {} generation(s), want >= {min_generations}",
        by_gen.len()
    );
    let max_ledger = *by_epoch.keys().last().unwrap();
    let max_store = max_complete_epoch(store, n_ops);
    assert!(
        max_ledger + 1 >= max_store,
        "ledger stops at epoch {max_ledger} but the store holds complete epoch {max_store}"
    );
    records
}

/// `(recoveries line, sink lines)` from a result file.
pub fn parse_result(path: &Path) -> (String, Vec<String>) {
    let text = fs::read_to_string(path).unwrap();
    let mut lines = text.lines();
    let recoveries = lines.next().unwrap().to_string();
    (recoveries, lines.map(str::to_string).collect())
}

/// Parses the count out of a `recoveries=N` result line.
pub fn recoveries(line: &str) -> u64 {
    line.strip_prefix("recoveries=")
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("malformed recoveries line {line:?}"))
}

/// Decodes a `sink op{N} {hex}` line into the Summer's `(sum, count)`.
pub fn decode_sink(line: &str) -> (i64, u64) {
    let hex = line.rsplit(' ').next().unwrap();
    let bytes: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect();
    let mut r = SnapshotReader::new(&bytes);
    (r.get_i64().unwrap(), r.get_u64().unwrap())
}

/// The chain3 demo answer: the Doubler doubles every source value on
/// its way to the Summer sink.
pub fn chain_expected() -> (i64, u64) {
    (2 * (0..LIMIT as i64).sum::<i64>(), LIMIT)
}

// --- Gateway producer machinery (scenario: gate-host kill under live
// --- producers). A trimmed-down version of the `gate_recover`
// --- producer: stop-and-wait batches, reconnect through outages,
// --- retry everything un-acked.

pub const EVENTS_PER_BATCH: u64 = 16;
pub const KEYS: u64 = 8;
const PRODUCER_DEADLINE: Duration = Duration::from_secs(120);

/// The deterministic event value of producer `p`, batch `b`, slot `j`.
pub fn value(p: u64, b: u64, j: u64) -> i64 {
    (p * 100_000 + b * 100 + j) as i64
}

struct GateConn {
    sock: TcpStream,
    dec: FrameDecoder,
}

impl GateConn {
    fn send(&mut self, msg: &GateMsg) -> std::io::Result<()> {
        self.sock.write_all(&frame(&msg.encode()))
    }

    /// One reply, or `None` when the connection is dead (reset, EOF,
    /// or silent past the read timeout) — the caller reconnects.
    fn recv(&mut self) -> Option<GateMsg> {
        loop {
            match self.dec.next_frame() {
                Ok(Some(p)) => return GateMsg::decode(&p).ok(),
                Ok(None) => {}
                Err(_) => return None,
            }
            let mut buf = [0u8; 4096];
            match self.sock.read(&mut buf) {
                Ok(0) | Err(_) => return None,
                Ok(n) => self.dec.feed(&buf[..n]),
            }
        }
    }
}

/// Connects (or reconnects) to the gateway, re-reading the published
/// address on every attempt — after a recovery the replacement gate
/// binds a fresh port and rewrites the file.
fn connect_gate(addr_file: &Path, producer: u64, deadline: Instant) -> GateConn {
    loop {
        assert!(
            Instant::now() < deadline,
            "producer {producer} could not reach the gateway in time"
        );
        if let Ok(addr) = fs::read_to_string(addr_file) {
            let addr = addr.trim();
            if !addr.is_empty() {
                if let Ok(sock) = TcpStream::connect(addr) {
                    sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
                    let _ = sock.set_nodelay(true);
                    let mut conn = GateConn {
                        sock,
                        dec: FrameDecoder::new(),
                    };
                    if conn.send(&GateMsg::Hello { producer }).is_ok() {
                        return conn;
                    }
                }
            }
        }
        thread::sleep(Duration::from_millis(50));
    }
}

/// One stop-and-wait exchange, resending across reconnects until the
/// gateway answers. Resends are safe: the gateway dedups on batch id
/// and re-acks `Fin`s without re-appending their WAL marker.
fn exchange(
    conn: &mut GateConn,
    addr_file: &Path,
    producer: u64,
    deadline: Instant,
    msg: &GateMsg,
) -> GateMsg {
    loop {
        assert!(
            Instant::now() < deadline,
            "producer {producer} got no answer in time"
        );
        if conn.send(msg).is_err() {
            *conn = connect_gate(addr_file, producer, deadline);
            continue;
        }
        match conn.recv() {
            Some(reply) => return reply,
            None => *conn = connect_gate(addr_file, producer, deadline),
        }
    }
}

/// A well-behaved producer: `batches` strictly increasing batches, each
/// retried until `Accepted`, then `Fin` retried until `FinOk`. With a
/// `fin_gate`, the `Fin` is held until the flag flips — the scenario
/// uses this to land a `FinOk` just before a SIGKILL, so the fin's
/// only durable trace is its preservation-log marker. The producer
/// exits on `FinOk` and never returns: if the recovered gate forgot
/// the fin, the run hangs to the controller deadline.
pub fn run_producer(
    addr_file: PathBuf,
    producer: u64,
    batches: u64,
    pace: Duration,
    fin_gate: Option<Arc<AtomicBool>>,
    finished: Arc<AtomicUsize>,
) {
    let deadline = Instant::now() + PRODUCER_DEADLINE;
    let mut conn = connect_gate(&addr_file, producer, deadline);
    for b in 1..=batches {
        let msg = GateMsg::Batch {
            batch: b,
            events: (0..EVENTS_PER_BATCH)
                .map(|j| (j % KEYS, value(producer, b, j)))
                .collect(),
        };
        loop {
            match exchange(&mut conn, &addr_file, producer, deadline, &msg) {
                GateMsg::Accepted { batch } if batch == b => break,
                GateMsg::Busy { retry_after_ms, .. } => {
                    thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 100)));
                }
                other => panic!("producer {producer} batch {b}: unexpected reply {other:?}"),
            }
        }
        thread::sleep(pace);
    }
    if let Some(gate) = fin_gate {
        while !gate.load(Ordering::SeqCst) {
            assert!(
                Instant::now() < deadline,
                "producer {producer} never released to fin"
            );
            thread::sleep(Duration::from_millis(5));
        }
    }
    match exchange(
        &mut conn,
        &addr_file,
        producer,
        deadline,
        &GateMsg::Fin { producer },
    ) {
        GateMsg::FinOk => {}
        other => panic!("producer {producer} fin: unexpected reply {other:?}"),
    }
    finished.fetch_add(1, Ordering::SeqCst);
}
