//! The real cluster under test: `ms-controller` plus `ms-worker`
//! processes on a fresh store, with kill-on-drop guards, `/proc`
//! readers, and the result-file check against the oracle.

use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use ms_core::codec::SnapshotReader;
use ms_wire::{read_ledger, LedgerRecord, LEDGER_FILE};

use crate::gen::{Oracle, Workload, PRODUCERS};

/// Checkpoint period of every workload (`--ckpt-ms`).
pub const CKPT_MS: u64 = 200;
/// Heartbeat timeout of every workload (`--hb-timeout-ms`).
pub const HB_TIMEOUT_MS: u64 = 500;
/// Operators of the `chain3` shape: gate, interior, sink.
pub const CHAIN_OPS: usize = 3;
/// The gate operator.
pub const GATE_OP: u32 = 0;
/// The interior operator (`Doubler` or `KeyedStat`).
pub const INTERIOR_OP: u32 = 1;
/// `/proc/<pid>/stat` CPU times are in USER_HZ ticks, 100 per second
/// on Linux (a fixed user-space ABI constant).
const TICKS_PER_SEC: f64 = 100.0;

/// Where the cluster binaries live.
#[derive(Clone, Debug)]
pub struct Bins {
    /// `ms-controller`.
    pub controller: PathBuf,
    /// `ms-worker`.
    pub worker: PathBuf,
}

impl Bins {
    /// The binaries inside a cargo output directory.
    pub fn in_dir(dir: &Path) -> Result<Bins, String> {
        let bins = Bins {
            controller: dir.join("ms-controller"),
            worker: dir.join("ms-worker"),
        };
        for b in [&bins.controller, &bins.worker] {
            if !b.is_file() {
                return Err(format!("cluster binary {} not found", b.display()));
            }
        }
        Ok(bins)
    }
}

/// A child process that is SIGKILLed and reaped when dropped.
pub struct ChildGuard {
    /// Name for messages (`ctl`, `wa`, ...).
    pub name: String,
    child: Option<Child>,
    pid: u32,
}

impl ChildGuard {
    fn new(name: &str, child: Child) -> ChildGuard {
        ChildGuard {
            name: name.to_string(),
            pid: child.id(),
            child: Some(child),
        }
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// SIGKILLs the process and reaps it.
    pub fn kill(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }

    /// Waits until the process has exited (it stays a zombie, so its
    /// `/proc` CPU times remain readable until [`ChildGuard::reap`]).
    /// Returns false if it is still running at `deadline`.
    pub fn wait_exited(&self, deadline: Instant) -> bool {
        loop {
            match proc_stat(self.pid) {
                Some(s) if s.state != 'Z' && s.state != 'X' => {}
                _ => return true,
            }
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// Reaps the process, waiting until `deadline` for it to become
    /// reapable (a zombie leader can still have threads exiting), and
    /// returns its exit status, or `None` if it had to be killed.
    pub fn reap(&mut self, deadline: Instant) -> Option<ExitStatus> {
        let mut c = self.child.take()?;
        loop {
            match c.try_wait() {
                Ok(Some(status)) => return Some(status),
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(1)),
                _ => {
                    let _ = c.kill();
                    let _ = c.wait();
                    return None;
                }
            }
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A directory removed, with everything in it, when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `path` afresh (removing any leftover first).
    pub fn create(path: PathBuf) -> Result<TempDir, String> {
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Cluster processes run at this niceness. The load generator shares
/// the machine's cores with the cluster; a lower priority for every cluster
/// process (all alike, so their relative scheduling is unchanged) keeps
/// the generator on its schedule when the cluster saturates the box.
const CLUSTER_NICE: &str = "10";

/// A command that runs `bin` under `nice`.
fn niced(bin: &Path) -> Command {
    let mut cmd = Command::new("nice");
    cmd.args(["-n", CLUSTER_NICE]).arg(bin);
    cmd
}

/// One running `chain3` gate cluster.
pub struct Cluster {
    dir: PathBuf,
    bins: Bins,
    /// The controller.
    pub ctl: ChildGuard,
    /// Workers by spawn order (`wa`, `wb`, then spares).
    pub workers: Vec<ChildGuard>,
}

impl Cluster {
    /// Spawns the controller and, once it has published its address,
    /// workers `wa` and `wb`, on a store under `dir`, configured for
    /// `workload`.
    pub fn spawn(
        bins: &Bins,
        dir: &Path,
        workload: Workload,
        deadline: Instant,
    ) -> Result<Cluster, String> {
        let out = |name: &str| -> Result<File, String> {
            File::create(dir.join(name)).map_err(|e| format!("{name}: {e}"))
        };
        let mut cmd = niced(&bins.controller);
        cmd.arg("--store")
            .arg(dir.join("store"))
            .arg("--addr-file")
            .arg(dir.join("ctl.addr"))
            .arg("--result-file")
            .arg(dir.join("result"))
            .args(["--workers", "2", "--shape", "chain3"])
            .args(["--gate-producers", &PRODUCERS.to_string()])
            .args(["--gate-preagg", if workload.preagg() { "1" } else { "0" }])
            .args(["--keyed-state", &workload.keyed_state().to_string()])
            .args(["--ckpt-ms", &CKPT_MS.to_string()])
            .args(["--hb-timeout-ms", &HB_TIMEOUT_MS.to_string()])
            .args(["--respawn-wait-ms", "3000", "--deadline-secs", "150"])
            .stdin(Stdio::null())
            .stdout(out("ctl.out")?)
            .stderr(out("ctl.err")?);
        let ctl = cmd
            .spawn()
            .map_err(|e| format!("spawn ms-controller: {e}"))?;
        let mut cluster = Cluster {
            dir: dir.to_path_buf(),
            bins: bins.clone(),
            ctl: ChildGuard::new("ctl", ctl),
            workers: Vec::new(),
        };
        while read_addr(&dir.join("ctl.addr")).is_none() {
            if Instant::now() >= deadline
                || proc_stat(cluster.ctl.pid()).is_none_or(|s| s.state == 'Z')
            {
                return Err(format!(
                    "controller published no address: {}",
                    cluster.ctl_stderr_tail()
                ));
            }
            thread::sleep(Duration::from_millis(1));
        }
        cluster.spawn_worker("wa")?;
        cluster.spawn_worker("wb")?;
        Ok(cluster)
    }

    /// Starts one more worker named `name`.
    pub fn spawn_worker(&mut self, name: &str) -> Result<(), String> {
        let log = File::create(self.dir.join(format!("{name}.log")))
            .map_err(|e| format!("{name}.log: {e}"))?;
        let child = niced(&self.bins.worker)
            .args(["--name", name])
            .arg("--store")
            .arg(self.dir.join("store"))
            .arg("--controller-file")
            .arg(self.dir.join("ctl.addr"))
            .stdin(Stdio::null())
            .stdout(log.try_clone().map_err(|e| e.to_string())?)
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn ms-worker {name}: {e}"))?;
        self.workers.push(ChildGuard::new(name, child));
        Ok(())
    }

    /// The worker called `name`.
    pub fn worker(&mut self, name: &str) -> Option<&mut ChildGuard> {
        self.workers.iter_mut().find(|w| w.name == name)
    }

    /// The shared store directory.
    pub fn store(&self) -> PathBuf {
        self.dir.join("store")
    }

    /// The file the gate host publishes its producer address to.
    pub fn gate_addr_file(&self) -> PathBuf {
        self.store().join(format!("gate_op{GATE_OP}.addr"))
    }

    /// The controller's result file.
    pub fn result_file(&self) -> PathBuf {
        self.dir.join("result")
    }

    /// The controller's standard output.
    pub fn ctl_stdout(&self) -> String {
        fs::read_to_string(self.dir.join("ctl.out")).unwrap_or_default()
    }

    /// The tail of the controller's error output, for failure messages.
    pub fn ctl_stderr_tail(&self) -> String {
        let text = fs::read_to_string(self.dir.join("ctl.err")).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        lines[lines.len().saturating_sub(5)..].join(" | ")
    }
}

/// The published gate address, if present and non-empty.
pub fn read_addr(path: &Path) -> Option<String> {
    let s = fs::read_to_string(path).ok()?;
    let s = s.trim();
    (!s.is_empty()).then(|| s.to_string())
}

/// State and cumulative CPU of a process from `/proc/<pid>/stat`.
#[derive(Clone, Copy, Debug)]
pub struct ProcStat {
    /// One-letter process state (`R`, `S`, `Z`, ...).
    pub state: char,
    /// utime + stime, seconds.
    pub cpu_s: f64,
}

/// Reads `/proc/<pid>/stat`; `None` once the process is reaped.
pub fn proc_stat(pid: u32) -> Option<ProcStat> {
    let text = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces or parentheses; fields resume
    // after the last ')'. Field 3 is the state, 14 utime, 15 stime.
    let rest = &text[text.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
    Some(ProcStat {
        state: f.first()?.chars().next()?,
        cpu_s: ticks as f64 / TICKS_PER_SEC,
    })
}

/// Peak resident set (`VmHWM`, KiB) of a live process.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let text = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Socket inode of the TCP listener bound to `port`, from
/// `/proc/net/tcp{,6}`.
fn listener_inode(port: u16) -> Option<u64> {
    for table in ["/proc/net/tcp", "/proc/net/tcp6"] {
        let Ok(text) = fs::read_to_string(table) else {
            continue;
        };
        for line in text.lines().skip(1) {
            let f: Vec<&str> = line.split_whitespace().collect();
            let (Some(local), Some(state), Some(inode)) = (f.get(1), f.get(3), f.get(9)) else {
                continue;
            };
            let local_port = local
                .rsplit(':')
                .next()
                .and_then(|p| u16::from_str_radix(p, 16).ok());
            if *state == "0A" && local_port == Some(port) {
                return inode.parse().ok();
            }
        }
    }
    None
}

/// Whether process `pid` holds the listening socket of `addr`
/// (`host:port`): the proof that `pid` hosts the gate.
pub fn owns_listener(pid: u32, addr: &str) -> bool {
    let Some(port) = addr.rsplit(':').next().and_then(|p| p.parse().ok()) else {
        return false;
    };
    let Some(inode) = listener_inode(port) else {
        return false;
    };
    let want = format!("socket:[{inode}]");
    let Ok(fds) = fs::read_dir(format!("/proc/{pid}/fd")) else {
        return false;
    };
    fds.flatten()
        .any(|fd| fs::read_link(fd.path()).is_ok_and(|l| l.to_string_lossy() == want))
}

/// The controller's result file, parsed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SinkResult {
    /// `recoveries=N`.
    pub recoveries: u64,
    /// The `Summer` sink's sum.
    pub sum: i64,
    /// The `Summer` sink's tuple count.
    pub count: u64,
}

/// Parses a complete result file (`recoveries=N` then one `sink` line);
/// `None` while it is absent or still being written.
pub fn parse_result(text: &str) -> Option<SinkResult> {
    if !text.ends_with('\n') {
        return None;
    }
    let mut lines = text.lines();
    let recoveries = lines.next()?.strip_prefix("recoveries=")?.parse().ok()?;
    let hex = lines.next()?.strip_prefix("sink ")?.rsplit(' ').next()?;
    if hex.len() % 2 != 0 {
        return None;
    }
    let bytes: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(hex.get(i..i + 2)?, 16).ok())
        .collect::<Option<_>>()?;
    let mut r = SnapshotReader::new(&bytes);
    let (sum, count) = (r.get_i64().ok()?, r.get_u64().ok()?);
    Some(SinkResult {
        recoveries,
        sum,
        count,
    })
}

/// Checks the sink against the oracle and the recovery count.
pub fn verify(got: &SinkResult, want: &Oracle, recoveries: u64) -> Result<(), String> {
    if got.recoveries != recoveries {
        return Err(format!(
            "result says recoveries={}, expected {recoveries}",
            got.recoveries
        ));
    }
    if (got.sum, got.count) != (want.sum, want.count) {
        return Err(format!(
            "sink (sum, count) = ({}, {}) but the acked batches imply ({}, {})",
            got.sum, got.count, want.sum, want.count
        ));
    }
    Ok(())
}

/// Reads the run ledger and checks it: it parses, every epoch covers
/// all operators, and each generation's epochs are contiguous.
pub fn audit_ledger(store: &Path) -> Result<Vec<LedgerRecord>, String> {
    use std::collections::{BTreeMap, BTreeSet};
    let records = read_ledger(&store.join(LEDGER_FILE)).map_err(|e| format!("run ledger: {e}"))?;
    if records.is_empty() {
        return Err("run ledger is empty".into());
    }
    let mut ops: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
    let mut by_gen: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for r in &records {
        ops.entry(r.epoch).or_default().insert(r.op);
        by_gen.entry(r.generation).or_default().insert(r.epoch);
    }
    if let Some((e, seen)) = ops.iter().find(|(_, s)| s.len() != CHAIN_OPS) {
        return Err(format!("ledger epoch {e} covers operators {seen:?}"));
    }
    for (g, epochs) in &by_gen {
        let (lo, hi) = (epochs.first().copied(), epochs.last().copied());
        if let (Some(lo), Some(hi)) = (lo, hi) {
            if hi - lo + 1 != epochs.len() as u64 {
                return Err(format!("ledger generation {g} skips epochs: {epochs:?}"));
            }
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_core::codec::SnapshotWriter;

    fn result_text(recoveries: u64, sum: i64, count: u64) -> String {
        let mut w = SnapshotWriter::new();
        w.put_i64(sum).put_u64(count);
        let hex: String = w.finish().iter().map(|b| format!("{b:02x}")).collect();
        format!("recoveries={recoveries}\nsink op2 {hex}\n")
    }

    #[test]
    fn result_file_roundtrips() {
        let got = parse_result(&result_text(1, -42, 9)).unwrap();
        assert_eq!(
            got,
            SinkResult {
                recoveries: 1,
                sum: -42,
                count: 9
            }
        );
        // Partially written files are not results yet.
        let full = result_text(0, 5, 5);
        assert!(parse_result(&full[..full.len() - 1]).is_none());
        assert!(parse_result("recoveries=0\n").is_none());
    }

    #[test]
    fn corrupted_expected_value_fails_verification() {
        let got = parse_result(&result_text(0, 1_000, 10)).unwrap();
        let good = Oracle {
            sum: 1_000,
            count: 10,
        };
        assert!(verify(&got, &good, 0).is_ok());
        let bad_sum = Oracle { sum: 1_001, ..good };
        assert!(verify(&got, &bad_sum, 0).is_err());
        let bad_count = Oracle { count: 11, ..good };
        assert!(verify(&got, &bad_count, 0).is_err());
        assert!(verify(&got, &good, 1).is_err(), "recoveries must match");
    }

    #[test]
    fn own_stat_is_readable() {
        let s = proc_stat(std::process::id()).unwrap();
        assert!(matches!(s.state, 'R' | 'S'), "state {}", s.state);
        assert!(vm_hwm_kib(std::process::id()).unwrap() > 0);
    }

    #[test]
    fn listener_ownership_is_detected() {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap().to_string();
        assert!(owns_listener(std::process::id(), &addr));
        assert!(!owns_listener(std::process::id(), "127.0.0.1:1"));
    }
}
