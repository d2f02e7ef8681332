//! End to end through the real cluster: a short `ingest` run passes its
//! oracle check and prints a result, and the same run fed a corrupted
//! expected sum fails with a nonzero exit and prints no result.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// Builds `ms-controller` and `ms-worker` and returns their directory.
fn cluster_bins() -> PathBuf {
    let root = repo_root();
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
    let target = if target.is_absolute() {
        target
    } else {
        root.join(target)
    };
    let status = Command::new(env!("CARGO"))
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", &target)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "ms-wire",
        ])
        .args(["--bin", "ms-controller", "--bin", "ms-worker"])
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building the cluster binaries failed");
    target.join("release")
}

fn run_bench(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_clusterbench"))
        .current_dir(repo_root())
        .args(["--workload", "ingest", "--seed", "3", "--seconds", "2"])
        .args(["--trace", "0", "--bin-dir"])
        .arg(cluster_bins())
        .args(extra)
        .output()
        .expect("the benchmark runs")
}

#[test]
fn sink_matching_the_oracle_passes_and_a_corrupted_oracle_fails() {
    let good = run_bench(&[]);
    let stdout = String::from_utf8_lossy(&good.stdout);
    assert!(
        good.status.success(),
        "clean run failed: {}",
        String::from_utf8_lossy(&good.stderr)
    );
    let last = stdout.lines().last().unwrap_or_default();
    assert!(
        last.starts_with("{\"correct\": true"),
        "no result line: {last}"
    );
    assert!(last.contains("\"ack_p50_ms\""));

    let bad = run_bench(&["--corrupt-oracle"]);
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(
        !bad.status.success(),
        "a corrupted oracle must fail the run"
    );
    assert!(
        !String::from_utf8_lossy(&bad.stdout).contains("\"correct\""),
        "a failed run must print no result"
    );
    assert!(
        stderr.contains("but the acked batches imply"),
        "the failure must name the oracle mismatch: {stderr}"
    );
}
