//! End-to-end recovery of a real 3-process cluster on localhost.
//!
//! Reference run: controller + two workers stream to completion with
//! no failure. Failure run: same cluster, but the worker hosting the
//! middle operator is SIGKILLed mid-stream once a complete application
//! checkpoint exists; a spare worker is started in its place. The
//! controller must detect the crash (the victim's control connection
//! closes), roll back, restore the latest complete checkpoint, replay
//! the preserved source log — and the sink's final state must be
//! byte-identical to the reference run.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ms_core::codec::SnapshotReader;
use ms_wire::{read_ledger, LedgerRecord, LEDGER_FILE};

const LIMIT: u64 = 4000;
const DELAY_US: u64 = 300;

/// Kills every still-running child on drop so a failing assert never
/// leaks processes.
struct Cluster(Vec<Child>);

impl Cluster {
    fn push(&mut self, c: Child) -> usize {
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

fn controller(dir: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ms-controller"));
    cmd.args(["--store".as_ref(), dir.join("store").as_os_str()])
        .args(["--addr-file".as_ref(), dir.join("addr").as_os_str()])
        .args(["--result-file".as_ref(), dir.join("result").as_os_str()])
        .args(["--workers", "2", "--shape", "chain3"])
        .args(["--limit", &LIMIT.to_string()])
        .args(["--delay-us", &DELAY_US.to_string()])
        .args(["--ckpt-ms", "120", "--hb-timeout-ms", "500"])
        .args(["--respawn-wait-ms", "3000", "--deadline-secs", "90"])
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    cmd
}

fn worker(dir: &Path, name: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ms-worker"));
    cmd.args(["--name", name])
        .args(["--store".as_ref(), dir.join("store").as_os_str()])
        .args(["--controller-file".as_ref(), dir.join("addr").as_os_str()])
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    cmd
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ms_wire_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn wait_exit(child: &mut Child, budget: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + budget;
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        assert!(
            Instant::now() < deadline,
            "process did not exit within {budget:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Highest *complete* application checkpoint epoch in the store: an
/// epoch is complete when all three operators have renamed their
/// checkpoint file into place. Epochs count up from 1, so a return of
/// `n` means `n` checkpoints have completed — the store GCs epochs
/// made obsolete by newer complete ones, so counting retained epochs
/// would understate progress.
fn max_complete_epoch(store: &Path) -> u64 {
    let mut per_epoch = std::collections::HashMap::new();
    let Ok(entries) = fs::read_dir(store.join("ckpt")) else {
        return 0;
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
        .iter()
        .filter(|(_, &n)| n >= 3)
        .map(|(&e, _)| e)
        .max()
        .unwrap_or(0)
}

/// Full audit of the run ledger next to the checkpoints: every row
/// parses and satisfies the schema invariants, every ledger epoch
/// covers all three chain operators, each generation's epochs are
/// contiguous (the epoch in flight at a failure may vanish *between*
/// generations, but none may go missing inside one), and the trail
/// reaches the newest complete checkpoint in the store — minus one
/// epoch of slack for a barrier still closing at the cut.
fn check_ledger(store: &Path, min_generations: usize) -> Vec<LedgerRecord> {
    use std::collections::{BTreeMap, BTreeSet};

    let records = read_ledger(&store.join(LEDGER_FILE)).expect("run ledger must parse");
    assert!(!records.is_empty(), "run ledger is empty");
    let mut by_epoch: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
    let mut by_gen: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for r in &records {
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
        assert!(r.barrier_us > 0, "epoch {}: zero barrier latency", r.epoch);
        by_epoch.entry(r.epoch).or_default().insert(r.op);
        by_gen.entry(r.generation).or_default().insert(r.epoch);
    }
    for (epoch, ops) in &by_epoch {
        assert_eq!(
            ops.len(),
            3,
            "epoch {epoch} covers ops {ops:?}, want all 3 chain operators"
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
    let max_store = max_complete_epoch(store);
    assert!(
        max_ledger + 1 >= max_store,
        "ledger stops at epoch {max_ledger} but the store holds complete epoch {max_store}"
    );
    records
}

/// `(recoveries line, sink lines)` from a result file.
fn parse_result(path: &Path) -> (String, Vec<String>) {
    let text = fs::read_to_string(path).unwrap();
    let mut lines = text.lines();
    let recoveries = lines.next().unwrap().to_string();
    (recoveries, lines.map(str::to_string).collect())
}

/// Decodes a `sink op{N} {hex}` line into the Summer's `(sum, count)`.
fn decode_sink(line: &str) -> (i64, u64) {
    let hex = line.rsplit(' ').next().unwrap();
    let bytes: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect();
    let mut r = SnapshotReader::new(&bytes);
    (r.get_i64().unwrap(), r.get_u64().unwrap())
}

#[test]
fn sigkill_mid_stream_recovers_to_identical_answer() {
    // --- Reference run: no failure. ---
    let ref_dir = fresh_dir("ref");
    let mut cluster = Cluster(Vec::new());
    let ctl = cluster.push(controller(&ref_dir).spawn().unwrap());
    cluster.push(worker(&ref_dir, "wa").spawn().unwrap());
    cluster.push(worker(&ref_dir, "wb").spawn().unwrap());
    let status = wait_exit(&mut cluster.0[ctl], Duration::from_secs(80));
    assert!(status.success(), "reference controller failed: {status:?}");
    let (recoveries, ref_sinks) = parse_result(&ref_dir.join("result"));
    assert_eq!(recoveries, "recoveries=0");
    assert_eq!(ref_sinks.len(), 1);
    // A failure-free run leaves a single-generation telemetry trail.
    check_ledger(&ref_dir.join("store"), 1);
    drop(cluster);

    // --- Failure run: SIGKILL the middle-operator worker mid-stream. ---
    let dir = fresh_dir("kill");
    let mut cluster = Cluster(Vec::new());
    let ctl = cluster.push(controller(&dir).spawn().unwrap());
    cluster.push(worker(&dir, "wa").spawn().unwrap());
    // Placement is round-robin over sorted names: op0,op2 → wa and
    // op1 → wb, so killing wb severs the middle of the chain.
    let victim = cluster.push(worker(&dir, "wb").spawn().unwrap());

    // Let the stream run until at least two application checkpoints
    // are complete — the recovery then genuinely rolls back.
    let deadline = Instant::now() + Duration::from_secs(30);
    while max_complete_epoch(&dir.join("store")) < 2 {
        assert!(
            Instant::now() < deadline,
            "no complete checkpoint appeared in time"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        !dir.join("result").exists(),
        "stream finished before the kill; raise --limit"
    );
    cluster.0[victim].kill().unwrap(); // SIGKILL on unix
    let _ = cluster.0[victim].wait();
    // Spare worker takes the bench.
    cluster.push(worker(&dir, "wc").spawn().unwrap());

    let status = wait_exit(&mut cluster.0[ctl], Duration::from_secs(80));
    assert!(status.success(), "recovery controller failed: {status:?}");
    let (recoveries, sinks) = parse_result(&dir.join("result"));
    assert_eq!(recoveries, "recoveries=1");

    // The recovered answer is byte-identical to the unfailed run.
    assert_eq!(sinks, ref_sinks);
    let (sum, count) = decode_sink(&sinks[0]);
    assert_eq!(
        count, LIMIT,
        "exactly-once violated: lost or duplicated tuples"
    );
    let expected: i64 = 2 * (0..LIMIT as i64).sum::<i64>();
    assert_eq!(sum, expected);

    // The ledger survived the SIGKILL boundary: rows from both the
    // failed and the recovery generation, no epoch holes inside
    // either, and coverage up to the store's newest complete epoch.
    check_ledger(&dir.join("store"), 2);

    let _ = fs::remove_dir_all(&ref_dir);
    let _ = fs::remove_dir_all(&dir);
}
