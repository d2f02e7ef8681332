//! The controller's two failure detectors, each on a real 3-process
//! chain3 cluster held to the `kill_recover` bar (a byte-identical
//! sink and an epoch-contiguous ledger):
//!
//! | case | fault | detector that must fire |
//! |---|---|---|
//! | crash | SIGKILL the interior's worker, `--hb-timeout-ms 30000` | connection closed, long before any timeout |
//! | stale identity | a fake registers `wa`, the real `wa` re-registers, then the fake's connection closes | none: a superseded connection proves nothing |
//! | silent failure | SIGSTOP the interior's worker (its sockets stay open) | heartbeat timeout |

#[allow(dead_code)]
mod chaos_support;

use std::fs;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::thread;
use std::time::{Duration, Instant};

use chaos_support::*;
use ms_wire::{send_msg, WireMsg};

/// Asserts the recovered run's outcome: `want` recoveries, the
/// reference answer, and an epoch-contiguous ledger over at least
/// `generations` generations.
fn assert_outcome(dir: &Path, want: u64, generations: usize) {
    let (rec, sinks) = parse_result(&dir.join("result"));
    assert_eq!(recoveries(&rec), want, "wrong recovery count: {rec}");
    assert_eq!(
        sinks,
        reference_sinks(),
        "recovered sink differs from unfailed run"
    );
    check_ledger(&dir.join("store"), CHAIN_OPS, generations, None);
}

/// A crashed process closes its control connection, so the controller
/// must recover from a SIGKILL without waiting out the heartbeat
/// timeout — here 30 s, twice the whole budget of the run after the
/// kill.
#[test]
fn sigkill_is_detected_by_connection_close_not_timeout() {
    reference_sinks();
    let dir = fresh_dir("crash_eof");
    let opts = CtrlOpts {
        hb_timeout_ms: 30_000,
        ..CtrlOpts::default()
    };
    let mut cluster = Cluster(Vec::new());
    let ctl = cluster.push(controller(&dir, &opts).spawn().unwrap());
    cluster.push(worker(&dir, "wa", &[]).spawn().unwrap());
    // Round-robin over sorted names puts op1, the interior, on wb.
    let victim = cluster.push(worker(&dir, "wb", &[]).spawn().unwrap());

    wait_checkpoints_mid_stream(&dir, 2);
    cluster.0[victim].kill().unwrap(); // SIGKILL on unix
    let _ = cluster.0[victim].wait();
    cluster.push(worker(&dir, "wc", &[]).spawn().unwrap());

    let status = wait_exit(&mut cluster.0[ctl], Duration::from_secs(15));
    assert!(status.success(), "recovery controller failed: {status:?}");
    assert_outcome(&dir, 1, 2);

    drop(cluster);
    let _ = fs::remove_dir_all(&dir);
}

/// Lines of a child's standard output, streamed as they are written.
fn stdout_lines(child: &mut std::process::Child) -> Receiver<String> {
    let out = child.stdout.take().expect("stdout piped");
    let (tx, rx) = channel();
    thread::spawn(move || {
        for line in BufReader::new(out).lines().map_while(|l| l.ok()) {
            if tx.send(line).is_err() {
                return;
            }
        }
    });
    rx
}

/// Waits for the next line satisfying `pred`, asserting one arrives
/// within `budget`.
fn wait_line(lines: &Receiver<String>, budget: Duration, pred: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + budget;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match lines.recv_timeout(left) {
            Ok(line) if pred(&line) => return line,
            Ok(_) => {}
            Err(e) => panic!("no matching controller line within {budget:?}: {e}"),
        }
    }
}

/// Loss is keyed by connection, not by name: once the real `wa`
/// re-registers, the close of the fake `wa`'s connection is the close
/// of a superseded registration and must not count as `wa` dying.
#[test]
fn superseded_registration_closing_is_not_a_failure() {
    reference_sinks();
    let dir = fresh_dir("stale_id");
    let mut cmd = controller(&dir, &CtrlOpts::default());
    cmd.stdout(Stdio::piped());
    let mut cluster = Cluster(Vec::new());
    let ctl = cluster.push(cmd.spawn().unwrap());
    let lines = stdout_lines(&mut cluster.0[ctl]);
    let budget = Duration::from_secs(20);

    wait_line(&lines, budget, |l| l.contains("listening on"));
    let addr = fs::read_to_string(dir.join("addr")).unwrap();
    let mut fake = TcpStream::connect(addr.trim()).unwrap();
    send_msg(
        &mut fake,
        &WireMsg::Register {
            name: "wa".into(),
            data_addr: "127.0.0.1:9".into(),
        },
    )
    .unwrap();
    let registered = |l: &str| l.contains("worker wa registered");
    wait_line(&lines, budget, registered);
    cluster.push(worker(&dir, "wa", &[]).spawn().unwrap());
    wait_line(&lines, budget, registered);

    drop(fake);
    wait_line(&lines, budget, |l| {
        l.contains("lost connection to wa") || l.contains("worker wa failed")
    });
    cluster.push(worker(&dir, "wb", &[]).spawn().unwrap());

    let status = wait_exit(&mut cluster.0[ctl], Duration::from_secs(60));
    assert!(status.success(), "controller failed: {status:?}");
    assert_outcome(&dir, 0, 1);

    drop(cluster);
    let _ = fs::remove_dir_all(&dir);
}

/// A stopped process keeps its sockets open, so no connection closes:
/// only the heartbeat timeout can see it.
#[test]
fn sigstop_is_detected_by_heartbeat_timeout() {
    reference_sinks();
    let dir = fresh_dir("hb_stop");
    let mut cmd = controller(&dir, &CtrlOpts::default());
    cmd.stdout(Stdio::piped());
    let mut cluster = Cluster(Vec::new());
    let ctl = cluster.push(cmd.spawn().unwrap());
    let lines = stdout_lines(&mut cluster.0[ctl]);
    cluster.push(worker(&dir, "wa", &[]).spawn().unwrap());
    let victim = cluster.push(worker(&dir, "wb", &[]).spawn().unwrap());

    wait_checkpoints_mid_stream(&dir, 2);
    let pid = cluster.0[victim].id().to_string();
    let stopped = Command::new("kill").args(["-STOP", &pid]).status().unwrap();
    assert!(stopped.success(), "SIGSTOP failed: {stopped:?}");
    cluster.push(worker(&dir, "wc", &[]).spawn().unwrap());

    wait_line(&lines, Duration::from_secs(20), |l| {
        l.contains("worker wb failed (heartbeat timeout)")
    });
    let status = wait_exit(&mut cluster.0[ctl], Duration::from_secs(30));
    assert!(status.success(), "recovery controller failed: {status:?}");
    assert_outcome(&dir, 1, 2);

    // SIGKILL ends a stopped process too.
    cluster.0[victim].kill().unwrap();
    let _ = cluster.0[victim].wait();
    drop(cluster);
    let _ = fs::remove_dir_all(&dir);
}
