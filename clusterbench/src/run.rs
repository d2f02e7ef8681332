//! One cluster cycle: spawn, connect, (prefill), the timed phase, (the
//! kill), the wait for a verified result, and teardown.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ms_wire::{read_decisions, read_ledger, DecisionRecord, LedgerRecord, LEDGER_FILE};

use crate::cluster::{
    audit_ledger, owns_listener, parse_result, proc_stat, read_addr, verify, vm_hwm_kib, Bins,
    Cluster, SinkResult, TempDir, INTERIOR_OP,
};
use crate::gen::{Oracle, Workload, KEYS, PRODUCERS};
use crate::producer::{self, Event, Phase, Plan, ProducerOut};
use crate::trace::{cycle_trace, Span, Tracer};

/// Share of the timed phase that passes before the `recover` kill.
const KILL_AT: f64 = 0.4;
/// How often the orchestrating thread samples worker memory.
const RSS_EVERY: Duration = Duration::from_millis(20);
/// How long processes get to exit after the result is written.
const EXIT_GRACE: Duration = Duration::from_secs(10);

/// Run-wide settings shared by every cycle.
pub struct Env {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Timed input per cycle.
    pub phase: Duration,
    /// The cluster binaries.
    pub bins: Bins,
    /// Scratch space inside the checkout, one subdirectory per cycle.
    pub scratch: PathBuf,
    /// The clock origin of every span.
    pub origin: Instant,
    /// Hard deadline of the whole run.
    pub deadline: Instant,
    /// Test hook: perturb the expected sink sum so verification fails.
    pub corrupt_oracle: bool,
}

/// Timed-phase CPU seconds of each process role.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuSplit {
    /// The controller.
    pub ctl: f64,
    /// The gate host (`wb`, then the spare `wc` in `recover`).
    pub gate_host: f64,
    /// The sink host (`wa`).
    pub sink_host: f64,
}

impl CpuSplit {
    /// All processes together.
    pub fn total(&self) -> f64 {
        self.ctl + self.gate_host + self.sink_host
    }
}

/// Everything one cycle measured.
pub struct CycleOut {
    /// The cycle's index within the run (it seeds the cycle's input).
    pub cycle: u64,
    /// Whether spans were recorded.
    pub traced: bool,
    /// Spawn → gate address published and both `Hello`s sent.
    pub setup_s: f64,
    /// First due time → last `Accepted`.
    pub input_s: f64,
    /// First due time → verified result file.
    pub result_s: f64,
    /// Events accepted in the timed phase.
    pub events: u64,
    /// Timed batches per producer (ids `1..=PRODUCERS`).
    pub batches: Vec<u64>,
    /// Ack latency of every timed batch (ms).
    pub ack_ms: Vec<f64>,
    /// Timed batches whose first send was not `Accepted`.
    pub first_fail: u64,
    /// Producer-visible outage (ms): the SIGKILL (`recover`) or the
    /// cluster spawn (no failure) to each producer's first `Accepted`
    /// from the gate deployed after it, max over producers.
    pub outage_ms: f64,
    /// Timed-phase CPU per process role.
    pub cpu: CpuSplit,
    /// Sum of the final workers' peak RSS (MiB).
    pub rss_mb: f64,
    /// Generator lateness samples (µs).
    pub gen_late_us: Vec<f64>,
    /// Last `FinOk` → verified result (s).
    pub drain_s: f64,
    /// SIGKILL → new gate address (`recover`); spawn → first gate
    /// address otherwise (ms).
    pub redeploy_ms: f64,
    /// Gate address (re)published → first `Accepted` (ms).
    pub reopen_ms: f64,
    /// Gate address published → first ledger row (ms): the cold-start
    /// counterpart of the controller's recovery clock.
    pub first_barrier_ms: f64,
    /// Spawn → verified result (s).
    pub lifetime_s: f64,
    /// The verified ledger rows.
    pub ledger: Vec<LedgerRecord>,
    /// Decision rows of the ledger.
    pub decisions: Vec<DecisionRecord>,
    /// The epoch the recovery restored (from the controller's report).
    pub restore_epoch: Option<u64>,
    /// Spans of this cycle.
    pub spans: Vec<Span>,
    /// The cycle's directory, kept for the layer replays when asked.
    pub kept: Option<TempDir>,
}

/// Samples that the orchestrating thread takes while it waits.
struct Watch {
    rss_kib: Vec<(String, u64)>,
    last_rss: Instant,
    ledger_seen: Option<Instant>,
    addr_seen: Option<Instant>,
}

impl Watch {
    fn poll(&mut self, cluster: &Cluster) {
        let now = Instant::now();
        if self.addr_seen.is_none() && read_addr(&cluster.gate_addr_file()).is_some() {
            self.addr_seen = Some(now);
        }
        if self.ledger_seen.is_none()
            && fs::metadata(cluster.store().join(LEDGER_FILE)).is_ok_and(|m| m.len() > 0)
        {
            self.ledger_seen = Some(now);
        }
        if now.duration_since(self.last_rss) >= RSS_EVERY {
            self.last_rss = now;
            for w in &cluster.workers {
                if let Some(kib) = vm_hwm_kib(w.pid()) {
                    match self.rss_kib.iter_mut().find(|(n, _)| *n == w.name) {
                        Some(slot) => slot.1 = kib,
                        None => self.rss_kib.push((w.name.clone(), kib)),
                    }
                }
            }
        }
    }
}

fn check(deadline: Instant, what: &str) -> Result<(), String> {
    if Instant::now() >= deadline {
        return Err(format!("run deadline passed while {what}"));
    }
    Ok(())
}

/// What the orchestrating thread measured, before producers are joined.
struct Orchestrated {
    setup_s: f64,
    phase: Phase,
    cpu_start: Vec<(String, f64)>,
    cpu_end: Vec<(String, f64)>,
    kill_at: Option<Instant>,
    republished: Option<Instant>,
    result: SinkResult,
    result_at: Instant,
    watch: Watch,
}

fn cpu_of(cluster: &Cluster) -> Vec<(String, f64)> {
    let mut v = vec![(
        "ctl".to_string(),
        proc_stat(cluster.ctl.pid()).map_or(0.0, |s| s.cpu_s),
    )];
    for w in &cluster.workers {
        if let Some(s) = proc_stat(w.pid()) {
            v.push((w.name.clone(), s.cpu_s));
        }
    }
    v
}

/// The cycle's root span and trace id.
struct Root {
    span: u64,
    trace: u64,
}

fn orchestrate(
    env: &Env,
    cluster: &mut Cluster,
    tracer: &mut Tracer,
    root: Root,
    t_spawn: Instant,
    events: Receiver<Event>,
    starts: Vec<Sender<Phase>>,
) -> Result<Orchestrated, String> {
    let Root {
        span: cycle_span,
        trace,
    } = root;
    let mut watch = Watch {
        rss_kib: Vec::new(),
        last_rss: t_spawn,
        ledger_seen: None,
        addr_seen: None,
    };
    let wait_events = |want: fn(&Event) -> bool,
                       what: &str,
                       cluster: &Cluster,
                       watch: &mut Watch|
     -> Result<(), String> {
        let mut n = 0;
        while n < PRODUCERS {
            check(env.deadline, what)?;
            watch.poll(cluster);
            match events.recv_timeout(Duration::from_millis(1)) {
                Ok(e) if want(&e) => n += 1,
                Ok(_) | Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(format!("a producer stopped while {what}"))
                }
            }
        }
        Ok(())
    };

    let spawn_span = tracer.record("cluster.spawn", Some(cycle_span), trace, t_spawn, t_spawn);
    wait_events(
        |e| matches!(e, Event::Connected),
        "connecting producers",
        cluster,
        &mut watch,
    )?;
    let setup_done = Instant::now();
    tracer.close_at(spawn_span, setup_done);
    let setup_s = (setup_done - t_spawn).as_secs_f64();
    watch.poll(cluster);

    if env.workload.prefills() {
        let span = tracer.begin("cluster.prefill", Some(cycle_span), trace);
        wait_events(
            |e| matches!(e, Event::Prefilled),
            "prefilling",
            cluster,
            &mut watch,
        )?;
        // Settle: a barrier has closed over the whole prefill, so the
        // interior's state is full and checkpointed before timing.
        let ledger = cluster.store().join(LEDGER_FILE);
        loop {
            check(env.deadline, "waiting for the prefill checkpoint")?;
            watch.poll(cluster);
            let settled = read_ledger(&ledger).is_ok_and(|rows| {
                rows.iter()
                    .any(|r| r.op == INTERIOR_OP && r.tuples_in >= KEYS)
            });
            if settled {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        tracer.end(span);
    }

    let cpu_start = cpu_of(cluster);
    let start = Instant::now() + Duration::from_millis(1);
    let phase = Phase {
        start,
        end: start + env.phase,
    };
    for s in &starts {
        s.send(phase)
            .map_err(|_| "a producer stopped before the timed phase".to_string())?;
    }
    drop(starts);
    let input_span = tracer.record("cluster.input", Some(cycle_span), trace, start, start);

    let mut cpu_end = Vec::new();
    let mut kill_at = None;
    let mut republished = None;
    if env.workload.kills() {
        let at = start + env.phase.mul_f64(KILL_AT);
        while Instant::now() < at {
            check(env.deadline, "waiting to kill")?;
            watch.poll(cluster);
            thread::sleep(RSS_EVERY.min(at.saturating_duration_since(Instant::now())));
        }
        let addr_file = cluster.gate_addr_file();
        let old = read_addr(&addr_file).ok_or("no gate address before the kill")?;
        let victim = cluster.worker("wb").ok_or("no worker wb")?;
        if !owns_listener(victim.pid(), &old) {
            return Err(format!("wb does not host the gate at {old}"));
        }
        let pid = victim.pid();
        cpu_end.push(("wb".to_string(), proc_stat(pid).map_or(0.0, |s| s.cpu_s)));
        let span = tracer.begin("cluster.kill", Some(cycle_span), trace);
        let t_kill = Instant::now();
        victim.kill();
        cluster.spawn_worker("wc")?;
        tracer.end(span);
        kill_at = Some(t_kill);
        let span = tracer.begin("cluster.republish", Some(cycle_span), trace);
        loop {
            check(env.deadline, "waiting for the gate to move")?;
            watch.poll(cluster);
            if read_addr(&addr_file).is_some_and(|a| a != old) {
                republished = Some(Instant::now());
                break;
            }
            thread::sleep(Duration::from_millis(1));
        }
        tracer.end(span);
    }

    // Stay out of the way while input flows: wake only to sample memory.
    while Instant::now() < phase.end {
        check(env.deadline, "waiting out the input phase")?;
        watch.poll(cluster);
        thread::sleep(RSS_EVERY.min(phase.end.saturating_duration_since(Instant::now())));
    }
    let span = tracer.begin("cluster.result_wait", Some(cycle_span), trace);
    let result_file = cluster.result_file();
    let (result, result_at) = loop {
        check(env.deadline, "waiting for the result")?;
        watch.poll(cluster);
        if let Some(r) = fs::read_to_string(&result_file)
            .ok()
            .and_then(|t| parse_result(&t))
        {
            break (r, Instant::now());
        }
        if proc_stat(cluster.ctl.pid()).is_none_or(|s| s.state == 'Z') {
            // Exited: one last look, since the file may have landed
            // between the read and the stat.
            if let Some(r) = fs::read_to_string(&result_file)
                .ok()
                .and_then(|t| parse_result(&t))
            {
                break (r, Instant::now());
            }
            return Err(format!(
                "controller exited without a result: {}",
                cluster.ctl_stderr_tail()
            ));
        }
        thread::sleep(Duration::from_millis(1));
    };
    tracer.end(span);
    tracer.close_at(input_span, result_at);
    // CPU of the timed phase ends with the verified result; the killed
    // `wb` was read just before its SIGKILL.
    cpu_end.extend(
        cpu_of(cluster)
            .into_iter()
            .filter(|(n, _)| !(n == "wb" && kill_at.is_some())),
    );

    // Teardown: every process exits on the controller's shutdown.
    let grace = Instant::now() + EXIT_GRACE;
    if !cluster.ctl.wait_exited(grace) {
        return Err("controller did not exit after writing its result".into());
    }
    for w in &cluster.workers {
        if w.name == "wb" && kill_at.is_some() {
            continue;
        }
        if !w.wait_exited(grace) {
            return Err(format!("worker {} did not exit after shutdown", w.name));
        }
    }
    match cluster.ctl.reap(grace) {
        Some(status) if status.success() => {}
        status => {
            return Err(format!(
                "controller failed ({status:?}): {}",
                cluster.ctl_stderr_tail()
            ))
        }
    }
    for w in &mut cluster.workers {
        w.reap(grace);
    }
    Ok(Orchestrated {
        setup_s,
        phase,
        cpu_start,
        cpu_end,
        kill_at,
        republished,
        result,
        result_at,
        watch,
    })
}

/// Runs one cycle of `env.workload`.
pub fn run_cycle(env: &Env, cycle: u64, traced: bool, keep: bool) -> Result<CycleOut, String> {
    let dir = TempDir::create(env.scratch.join(format!("cycle{cycle}")))?;
    let ctrace = cycle_trace(cycle);
    let mut tracer = Tracer::new(traced, env.origin, cycle * 8);
    let cycle_span = tracer.begin("cycle", None, ctrace);
    let t_spawn = Instant::now();
    let mut cluster = Cluster::spawn(&env.bins, dir.path(), env.workload, env.deadline)?;
    let abort = Arc::new(AtomicBool::new(false));

    let (orch, outs) = thread::scope(|s| {
        let (ev_tx, ev_rx) = mpsc::channel();
        let mut starts = Vec::new();
        let mut handles = Vec::new();
        for p in 1..=PRODUCERS {
            let (stx, srx) = mpsc::channel();
            starts.push(stx);
            let plan = Plan {
                workload: env.workload,
                seed: env.seed,
                cycle,
                producer: p,
                addr_file: cluster.gate_addr_file(),
                deadline: env.deadline,
                abort: abort.clone(),
                tracer: Tracer::new(traced, env.origin, cycle * 8 + p),
            };
            let tx: Sender<Event> = ev_tx.clone();
            handles.push(s.spawn(move || producer::run(plan, tx, srx)));
        }
        drop(ev_tx);
        let orch = orchestrate(
            env,
            &mut cluster,
            &mut tracer,
            Root {
                span: cycle_span,
                trace: ctrace,
            },
            t_spawn,
            ev_rx,
            starts,
        );
        if orch.is_err() {
            abort.store(true, Ordering::SeqCst);
            cluster.ctl.kill();
            for w in &mut cluster.workers {
                w.kill();
            }
        }
        let outs: Vec<Result<ProducerOut, String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("producer thread panicked".into()))
            })
            .collect();
        (orch, outs)
    });
    let orch = orch?;
    let outs: Vec<ProducerOut> = outs.into_iter().collect::<Result<_, _>>()?;
    tracer.end(cycle_span);

    // Correctness: the sink against the acked batches, the recovery
    // count, and the ledger.
    let mut oracle = Oracle::default();
    for o in &outs {
        oracle.merge(o.oracle);
    }
    if env.corrupt_oracle {
        oracle.sum += 1;
    }
    let recoveries = u64::from(env.workload.kills());
    verify(&orch.result, &oracle, recoveries)?;
    let ledger = audit_ledger(&cluster.store())?;
    let decisions = read_decisions(&cluster.store().join(LEDGER_FILE))
        .map_err(|e| format!("ledger decisions: {e}"))?;
    if env.workload.kills() && !decisions.iter().any(|d| d.reason == "recovery") {
        return Err("the ledger holds no recovery decision row".into());
    }

    Ok(summarize(
        cycle,
        traced,
        &cluster,
        orch,
        outs,
        ledger,
        decisions,
        tracer,
        t_spawn,
        keep.then_some(dir),
    ))
}

#[allow(clippy::too_many_arguments)]
fn summarize(
    cycle: u64,
    traced: bool,
    cluster: &Cluster,
    orch: Orchestrated,
    outs: Vec<ProducerOut>,
    ledger: Vec<LedgerRecord>,
    decisions: Vec<DecisionRecord>,
    mut tracer: Tracer,
    t_spawn: Instant,
    kept: Option<TempDir>,
) -> CycleOut {
    let start = orch.phase.start;
    let records = || outs.iter().flat_map(|o| o.records.iter());
    let last_accept = records().map(|r| r.accepted).max().unwrap_or(start);
    let events: u64 = records().map(|r| u64::from(r.events)).sum();
    let ack_ms: Vec<f64> = records()
        .map(|r| (r.accepted - r.due).as_secs_f64() * 1e3)
        .collect();
    // Outage: from the SIGKILL (or, without a failure, the spawn) to
    // each producer's first `Accepted` from the gate deployed after it.
    let outage_ms = match (orch.kill_at, orch.republished) {
        (Some(k), Some(r)) => outs
            .iter()
            .filter_map(|o| o.records.iter().find(|rec| rec.accepted > r))
            .map(|rec| (rec.accepted - k).as_secs_f64() * 1e3)
            .fold(0.0, f64::max),
        _ => outs
            .iter()
            .map(|o| (o.first_accept - t_spawn).as_secs_f64() * 1e3)
            .fold(0.0, f64::max),
    };
    let cpu_delta = |name: &str| {
        let end = orch
            .cpu_end
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |c| c.1);
        let begin = orch
            .cpu_start
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |c| c.1);
        (end - begin).max(0.0)
    };
    let cpu = CpuSplit {
        ctl: cpu_delta("ctl"),
        gate_host: cpu_delta("wb") + cpu_delta("wc"),
        sink_host: cpu_delta("wa"),
    };
    let live_workers: Vec<&str> = if orch.kill_at.is_some() {
        vec!["wa", "wc"]
    } else {
        vec!["wa", "wb"]
    };
    let rss_kib: u64 = orch
        .watch
        .rss_kib
        .iter()
        .filter(|(n, _)| live_workers.contains(&n.as_str()))
        .map(|(_, k)| k)
        .sum();
    let gate_open = orch.republished.or(orch.watch.addr_seen).unwrap_or(t_spawn);
    let reopen_ms = outs
        .iter()
        .map(|o| o.first_accept)
        .chain(records().map(|r| r.accepted))
        .filter(|&a| a > gate_open)
        .min()
        .map_or(0.0, |a| (a - gate_open).as_secs_f64() * 1e3);
    let redeploy_ms = match (orch.kill_at, orch.republished) {
        (Some(k), Some(r)) => (r - k).as_secs_f64() * 1e3,
        _ => orch
            .watch
            .addr_seen
            .map_or(0.0, |a| (a - t_spawn).as_secs_f64() * 1e3),
    };
    let first_barrier_ms = match (orch.watch.addr_seen, orch.watch.ledger_seen) {
        (Some(a), Some(l)) if l > a => (l - a).as_secs_f64() * 1e3,
        _ => 0.0,
    };
    let last_fin = outs
        .iter()
        .map(|o| o.fin_ok)
        .max()
        .unwrap_or(orch.result_at);
    let restore_epoch = cluster
        .ctl_stdout()
        .lines()
        .find_map(|l| l.split("restore_epochs=").nth(1).map(str::to_string))
        .and_then(|s| {
            let digits: String = s
                .split("EpochId(")
                .nth(1)?
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().ok()
        });
    let mut spans = tracer.take();
    let mut batches = Vec::new();
    let mut first_fail = 0;
    let mut gen_late_us = Vec::new();
    for o in outs {
        batches.push(o.records.len() as u64);
        first_fail += o.records.iter().filter(|r| !r.first_ok).count() as u64;
        gen_late_us.extend(
            o.records
                .iter()
                .filter_map(|r| r.gen_late)
                .map(|d| d.as_secs_f64() * 1e6),
        );
        spans.extend(o.spans);
    }
    CycleOut {
        cycle,
        traced,
        setup_s: orch.setup_s,
        input_s: (last_accept - start).as_secs_f64(),
        result_s: (orch.result_at - start).as_secs_f64(),
        events,
        batches,
        ack_ms,
        first_fail,
        outage_ms,
        cpu,
        rss_mb: rss_kib as f64 / 1024.0,
        gen_late_us,
        drain_s: orch
            .result_at
            .saturating_duration_since(last_fin)
            .as_secs_f64(),
        redeploy_ms,
        reopen_ms,
        first_barrier_ms,
        lifetime_s: (orch.result_at - t_spawn).as_secs_f64(),
        ledger,
        decisions,
        restore_epoch,
        spans,
        kept,
    }
}
