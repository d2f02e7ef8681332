//! `clusterbench`: the repository benchmark. Drives a real
//! `ms-controller` + two `ms-worker` cluster on the `chain3` shape with
//! a two-producer gate, checks the sink against an oracle, and prints
//! one JSON line of end-to-end metrics (`--trace 0`) or per-layer
//! metrics (`--trace 1`). See `README.md` beside this crate.

mod cluster;
mod gen;
mod layers;
mod producer;
mod run;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cluster::{Bins, TempDir, GATE_OP, INTERIOR_OP};
use gen::Workload;
use run::{CycleOut, Env};
use stats::{median, percentile};
use trace::{durations_us, Tracer};

/// Cluster cycles per run; every per-cycle figure is their median.
const CYCLES: u64 = 6;
/// A run must finish within this, or it fails.
const RUN_DEADLINE: Duration = Duration::from_secs(150);
/// Median generator lateness beyond which a run is invalid, in
/// inter-batch intervals of one producer: past it, the generator is
/// systematically behind its schedule rather than hit by a host stall.
const MAX_GEN_LATE_INTERVALS: f64 = 1.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    bin_dir: PathBuf,
    corrupt_oracle: bool,
}

fn usage() -> String {
    "usage: clusterbench --workload ingest|keyed|recover --seed N --seconds N \
     --trace 0|1 --bin-dir DIR [--corrupt-oracle]"
        .into()
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |k: &str| {
        args.iter()
            .position(|a| a == k)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {k}; {}", usage()))
    };
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k} takes a whole number"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(&workload).ok_or(format!("unknown workload {workload}"))?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        bin_dir: PathBuf::from(get("--bin-dir")?),
        corrupt_oracle: args.iter().any(|a| a == "--corrupt-oracle"),
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn per_cycle(outs: &[&CycleOut], f: impl Fn(&CycleOut) -> f64) -> f64 {
    median(&outs.iter().map(|o| f(o)).collect::<Vec<_>>())
}

fn pooled(outs: &[&CycleOut], f: impl Fn(&CycleOut) -> &[f64]) -> Vec<f64> {
    outs.iter().flat_map(|o| f(o).iter().copied()).collect()
}

/// The end-to-end metrics of untraced cycles.
fn end_to_end(outs: &[&CycleOut]) -> Vec<Metric> {
    let events: u64 = outs.iter().map(|o| o.events).sum();
    let attempted: u64 = outs.iter().map(|o| o.ack_ms.len() as u64).sum();
    let first_fail: u64 = outs.iter().map(|o| o.first_fail).sum();
    let cpu: f64 = outs.iter().map(|o| o.cpu.total()).sum();
    vec![
        m("setup_s", per_cycle(outs, |o| o.setup_s), "s"),
        m(
            "ingest_eps",
            per_cycle(outs, |o| o.events as f64 / o.input_s),
            "events/s",
        ),
        m(
            "result_eps",
            per_cycle(outs, |o| o.events as f64 / o.result_s),
            "events/s",
        ),
        m(
            "ack_p50_ms",
            per_cycle(outs, |o| percentile(&o.ack_ms, 0.50)),
            "ms",
        ),
        m("outage_ms", per_cycle(outs, |o| o.outage_ms), "ms"),
        m(
            "first_ok_frac",
            1.0 - first_fail as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        m("cpu_s_per_mevent", cpu / (events as f64 / 1e6), "s"),
        m("worker_rss_mb", per_cycle(outs, |o| o.rss_mb), "MiB"),
    ]
}

/// Ledger rows of `op` across cycles.
fn rows(outs: &[&CycleOut], op: u32) -> Vec<ms_wire::LedgerRecord> {
    outs.iter()
        .flat_map(|o| o.ledger.iter().filter(|r| r.op == op).cloned())
        .collect()
}

/// The last row of each generation of `op` in one cycle (the ledger's
/// flow and gate counters are cumulative per generation).
fn generation_totals(o: &CycleOut, op: u32) -> Vec<ms_wire::LedgerRecord> {
    let mut last: Vec<ms_wire::LedgerRecord> = Vec::new();
    for r in o.ledger.iter().filter(|r| r.op == op) {
        match last.iter_mut().find(|l| l.generation == r.generation) {
            Some(l) if r.epoch > l.epoch => *l = r.clone(),
            Some(_) => {}
            None => last.push(r.clone()),
        }
    }
    last
}

/// Events a generation's gate had admitted after `accepted` batches:
/// the first generation admits the prefill first.
fn events_admitted(workload: Workload, first_generation: bool, accepted: u64) -> u64 {
    let timed = gen::BATCH_EVENTS as u64;
    if !(workload.prefills() && first_generation) {
        return accepted * timed;
    }
    let prefill: Vec<u64> = (1..=gen::PRODUCERS)
        .flat_map(|p| gen::prefill_batches(p).into_iter().map(|b| b.len() as u64))
        .collect();
    let n = (accepted as usize).min(prefill.len());
    prefill[..n].iter().sum::<u64>() + (accepted - n as u64) * timed
}

/// The per-layer metrics of a traced run: `traced` cycles recorded
/// spans, `plain` is the untraced cycle of the same workload.
fn per_layer(
    args: &Args,
    env: &Env,
    traced: &[&CycleOut],
    plain: &CycleOut,
) -> Result<(Vec<Metric>, Vec<trace::Span>), String> {
    let w = args.workload;
    let last = traced.last().ok_or("no traced cycle")?;
    let mut tr = Tracer::new(true, env.origin, 1 << 20);

    // In-process replays of the last traced cycle's own input.
    let input = layers::cycle_input(w, args.seed, last.cycle, &last.batches);
    let base = layers::baseline_eps(w, &input)?;
    let prefill_n: usize = if w.prefills() {
        (1..=gen::PRODUCERS)
            .map(|p| gen::prefill_batches(p).len())
            .sum()
    } else {
        0
    };
    let timed_tuples: u64 = input[prefill_n..]
        .iter()
        .map(|b| {
            if w.preagg() {
                gen::distinct_keys(&b.2)
            } else {
                b.2.len() as u64
            }
        })
        .sum();
    let tuples_per_sec = timed_tuples as f64 / last.input_s;
    let replay = layers::replay(
        w,
        last.cycle,
        &input,
        layers::epoch_tuples(tuples_per_sec),
        &env.scratch,
        &mut tr,
    )?;
    let kept = last
        .kept
        .as_ref()
        .ok_or("the last traced cycle's store was not kept")?;
    let store = layers::read_store(&kept.path().join("store"), last.restore_epoch, &mut tr)?;
    let fold = match store.fold_ms_per_mib {
        Some(f) => f,
        None => {
            let (b, d) = replay.chain.as_ref().ok_or("no delta chain to fold")?;
            layers::fold_ms_per_mib(b, d)?
        }
    };

    let mut spans = tr.take();
    for o in traced {
        spans.extend(o.spans.iter().cloned());
    }
    let per_call = |name: &str| median(&durations_us(&spans, name));
    let per_tuple_ns = |name: &str| {
        durations_us(&spans, name).iter().sum::<f64>() * 1e3 / replay.tuples.max(1) as f64
    };

    // Ledger-derived figures.
    let gate_rows = rows(traced, GATE_OP);
    let interior = rows(traced, INTERIOR_OP);
    let all_rows: Vec<&ms_wire::LedgerRecord> =
        traced.iter().flat_map(|o| o.ledger.iter()).collect();
    let f = |v: u64| v as f64;
    let (mut wal_bytes, mut wal_events, mut shed) = (0u64, 0u64, 0u64);
    let (mut bytes_out, mut tuples_out) = (0u64, 0u64);
    for o in traced {
        let mut totals = generation_totals(o, GATE_OP);
        totals.sort_by_key(|r| r.generation);
        for (i, r) in totals.iter().enumerate() {
            wal_bytes += r.gate_wal_bytes;
            wal_events += events_admitted(w, i == 0, r.gate_accepted);
            shed += r.gate_shed;
        }
        for op in [GATE_OP, INTERIOR_OP] {
            for r in generation_totals(o, op) {
                bytes_out += r.bytes_out;
                tuples_out += r.tuples_out;
            }
        }
    }
    let persist_ms: Vec<f64> = interior.iter().map(|r| f(r.persist_us) / 1e3).collect();
    // One barrier per (generation, epoch) of each cycle's own ledger.
    let mut barriers: Vec<(u64, u64, f64)> = Vec::new();
    for o in traced {
        let mut own: Vec<(u64, u64, f64)> = o
            .ledger
            .iter()
            .map(|r| (r.generation, r.epoch, f(r.barrier_us) / 1e3))
            .collect();
        own.sort_by_key(|b| (b.0, b.1));
        own.dedup_by(|a, b| (a.0, a.1) == (b.0, b.1));
        barriers.extend(own);
    }
    let barrier_ms: Vec<f64> = barriers.iter().map(|b| b.2).collect();
    let lifetime: f64 = traced.iter().map(|o| o.lifetime_s).sum();
    let ckpt_bytes: u64 = all_rows.iter().map(|r| r.ckpt_bytes).sum();
    let dirty: Vec<f64> = interior
        .iter()
        .filter(|r| r.state_bytes > 0)
        .map(|r| f(r.ckpt_bytes) / f(r.state_bytes))
        .collect();
    let full_frac =
        interior.iter().filter(|r| !r.delta).count() as f64 / interior.len().max(1) as f64;
    let recovery_ms = per_cycle(traced, |o| {
        o.decisions
            .iter()
            .find(|d| d.reason == "recovery")
            .map_or(o.first_barrier_ms, |d| f(d.recovery_us) / 1e3)
    });
    let queued: Vec<f64> = all_rows.iter().map(|r| f(r.queued_tuples)).collect();
    let gate_ack_p99: Vec<f64> = gate_rows
        .iter()
        .filter(|r| r.gate_ack_p99_us > 0)
        .map(|r| f(r.gate_ack_p99_us))
        .collect();
    let gen_late = pooled(traced, |o| &o.gen_late_us);
    let ack_traced = percentile(&pooled(traced, |o| &o.ack_ms), 0.5);
    let ack_plain = percentile(&plain.ack_ms, 0.5);

    let metrics = vec![
        m("gate.admit_us", per_call("gate.admit"), "us"),
        m("gate.fold_ratio", replay.fold_ratio, "ratio"),
        m("gate.ack_p99_us", median(&gate_ack_p99), "us"),
        m("gate.shed", f(shed), "count"),
        m("gate.reopen_ms", per_cycle(traced, |o| o.reopen_ms), "ms"),
        m("store.wal_append_us", per_call("store.wal_append"), "us"),
        m(
            "store.wal_writes_per_batch",
            replay.wal_writes_per_batch,
            "count",
        ),
        m(
            "store.wal_bytes_per_event",
            f(wal_bytes) / f(wal_events.max(1)),
            "B",
        ),
        m("store.persist_ms_p50", percentile(&persist_ms, 0.5), "ms"),
        m("store.persist_ms_p99", percentile(&persist_ms, 0.99), "ms"),
        m(
            "store.ckpt_mb_per_s",
            f(ckpt_bytes) / 1_048_576.0 / lifetime,
            "MiB/s",
        ),
        m(
            "store.put_ckpt_ms_per_mib",
            replay.put_ckpt_ms_per_mib,
            "ms/MiB",
        ),
        m("store.restore_ms", store.restore_ms, "ms"),
        m("store.restore_mib", store.restore_mib, "MiB"),
        m("store.replay_records", f(store.replay_records), "count"),
        m("store.replay_ms", store.replay_ms, "ms"),
        m("delta.capture_us", per_call("delta.capture"), "us"),
        m("delta.dirty_frac", median(&dirty), "ratio"),
        m("delta.full_frac", full_frac, "ratio"),
        m("delta.fold_ms_per_mib", fold, "ms/MiB"),
        m(
            "wire.encode_ns_per_tuple",
            per_tuple_ns("wire.encode"),
            "ns",
        ),
        m(
            "wire.decode_ns_per_tuple",
            per_tuple_ns("wire.decode"),
            "ns",
        ),
        m(
            "wire.bytes_per_tuple",
            f(bytes_out) / f(tuples_out.max(1)),
            "B",
        ),
        m(
            "net.write_frames_us_per_mib",
            replay.net_us_per_mib,
            "us/MiB",
        ),
        m("op.doubler_ns", per_tuple_ns("op.doubler"), "ns"),
        m("op.keyed_ns", per_tuple_ns("op.keyed"), "ns"),
        m("op.summer_ns", per_tuple_ns("op.summer"), "ns"),
        m("baseline.eps", base, "events/s"),
        m("worker.queued_p99", percentile(&queued, 0.99), "count"),
        m(
            "worker.cpu_s.gate_host",
            per_cycle(traced, |o| o.cpu.gate_host),
            "s",
        ),
        m(
            "worker.cpu_s.sink_host",
            per_cycle(traced, |o| o.cpu.sink_host),
            "s",
        ),
        m("ctl.cpu_s", per_cycle(traced, |o| o.cpu.ctl), "s"),
        m("sink.drain_s", per_cycle(traced, |o| o.drain_s), "s"),
        m("ctl.barrier_ms_p50", percentile(&barrier_ms, 0.5), "ms"),
        m("ctl.barrier_ms_p99", percentile(&barrier_ms, 0.99), "ms"),
        m("ctl.epochs_per_s", barriers.len() as f64 / lifetime, "1/s"),
        m(
            "ctl.redeploy_ms",
            per_cycle(traced, |o| o.redeploy_ms),
            "ms",
        ),
        m("ctl.recovery_ms", recovery_ms, "ms"),
        m(
            "producer.ack_p75_ms",
            per_cycle(traced, |o| percentile(&o.ack_ms, 0.75)),
            "ms",
        ),
        m(
            "producer.ack_p90_ms",
            per_cycle(traced, |o| percentile(&o.ack_ms, 0.90)),
            "ms",
        ),
        m(
            "producer.ack_p99_ms",
            per_cycle(traced, |o| percentile(&o.ack_ms, 0.99)),
            "ms",
        ),
        m("gen.oversleep_p99_us", percentile(&gen_late, 0.99), "us"),
        m("trace.overhead_frac", ack_traced / ack_plain - 1.0, "ratio"),
    ];
    Ok((metrics, spans))
}

fn json_line(attempted: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<String, String> {
    let origin = Instant::now();
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let scratch = TempDir::create(
        cwd.join(".bench_tmp")
            .join(format!("run-{}", std::process::id())),
    )?;
    let env = Env {
        workload: args.workload,
        seed: args.seed,
        phase: Duration::from_secs_f64(args.seconds as f64 / CYCLES as f64),
        bins: Bins::in_dir(&args.bin_dir)?,
        scratch: scratch.path().to_path_buf(),
        origin,
        deadline: origin + RUN_DEADLINE,
        corrupt_oracle: args.corrupt_oracle,
    };
    // A traced run adds one untraced cycle first, its reference for the
    // tracing overhead; its last traced cycle keeps its store.
    let total = CYCLES + u64::from(args.trace);
    let late_limit_us =
        MAX_GEN_LATE_INTERVALS * 1e6 * gen::BATCH_EVENTS as f64 * gen::PRODUCERS as f64
            / args.workload.rate_eps();
    let mut outs = Vec::new();
    for c in 0..total {
        let traced = args.trace && c > 0;
        let out = run::run_cycle(&env, c, traced, traced && c + 1 == total)?;
        // A cycle whose generator fell behind its schedule makes the
        // run invalid, not slow.
        let late = percentile(&out.gen_late_us, 0.5);
        if late > late_limit_us {
            return Err(format!(
                "cycle {c}: generator median lateness {late:.0} µs exceeds \
                 {late_limit_us:.0} µs: the generator fell behind its schedule, run invalid"
            ));
        }
        outs.push(out);
    }
    let attempted: u64 = outs.iter().map(|o| o.ack_ms.len() as u64).sum();
    for (i, o) in outs.iter().enumerate() {
        eprintln!(
            "clusterbench: {} cycle {i}{}: setup {:.3}s, {} events in {:.2}s, result at {:.2}s, {} acks (p50 {:.3} ms, p75 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms), outage {:.1} ms, first-send failures {}, cpu {:.2}s, rss {:.1} MiB, generator lateness p50 {:.0} us, p99 {:.0} us",
            args.workload.name(),
            if o.traced { " (traced)" } else { "" },
            o.setup_s,
            o.events,
            o.input_s,
            o.result_s,
            o.ack_ms.len(),
            percentile(&o.ack_ms, 0.5),
            percentile(&o.ack_ms, 0.75),
            percentile(&o.ack_ms, 0.9),
            percentile(&o.ack_ms, 0.99),
            o.outage_ms,
            o.first_fail,
            o.cpu.total(),
            o.rss_mb,
            percentile(&o.gen_late_us, 0.5),
            percentile(&o.gen_late_us, 0.99),
        );
    }
    let metrics = if args.trace {
        let traced: Vec<&CycleOut> = outs.iter().filter(|o| o.traced).collect();
        let (metrics, spans) = per_layer(args, &env, &traced, &outs[0])?;
        let out_dir = cwd.join(".bench_out");
        std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
        let path = out_dir.join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        trace::write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "clusterbench: {} spans written to {}",
            spans.len(),
            path.display()
        );
        metrics
    } else {
        let plain: Vec<&CycleOut> = outs.iter().collect();
        end_to_end(&plain)
    };
    for x in &metrics {
        eprintln!("clusterbench: {:<28} {:>16.6} {}", x.name, x.value, x.unit);
    }
    eprintln!("clusterbench: ack latency percentiles over {attempted} batches");
    Ok(json_line(attempted, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("clusterbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("clusterbench: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
