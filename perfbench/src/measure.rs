//! Untraced runs: one simulation at a time, the output checks, and the
//! end-to-end metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use hermes_net::{ConservationReport, PoolStats};
use hermes_runtime::{SimStats, Simulation};
use hermes_sim::Time;
use hermes_workload::{FlowRecord, SMALL_FLOW_BYTES};

use crate::reference::Reference;
use crate::stats::{median, ratio, tail, tail_at, Tail};
use crate::workload::{setup, Input, FAULT_CLEAR, FAULT_ONSET};

/// Set-ups timed on their own before each simulation, for `setup_s`.
const SETUP_REPS: usize = 25;

/// What one finished simulation left behind.
pub struct Outcome {
    pub digest: u64,
    pub stats: SimStats,
    pub trains_inlined: u64,
    pub queue_clamps: u64,
    pub conservation: ConservationReport,
    pub pool: PoolStats,
    pub ecn_marks: u64,
    pub records: Vec<FlowRecord>,
    pub horizon: Time,
    pub sim_time: Time,
    pub n_flows: usize,
}

impl Outcome {
    pub fn capture(sim: &Simulation, horizon: Time, n_flows: usize) -> Outcome {
        Outcome {
            digest: sim.trace_digest(),
            stats: sim.stats,
            trains_inlined: sim.trains_inlined(),
            queue_clamps: sim.queue_clamps(),
            conservation: sim.conservation(),
            pool: sim.fabric().pool_stats(),
            ecn_marks: sim.fabric().total_ecn_marks(),
            records: sim.records().to_vec(),
            horizon,
            sim_time: sim.now(),
            n_flows,
        }
    }

    /// The output checks every simulation must pass. Unfinished flows
    /// are model output, not failures.
    pub fn problems(&self) -> Vec<String> {
        let mut p = Vec::new();
        if !self.conservation.balanced() {
            p.push(format!(
                "packet conservation unbalanced: {}",
                self.conservation
            ));
        }
        if self.queue_clamps != 0 {
            p.push(format!("{} past-time schedules clamped", self.queue_clamps));
        }
        if self.records.len() != self.n_flows {
            p.push(format!(
                "{} flow records for {} flows scheduled",
                self.records.len(),
                self.n_flows
            ));
        }
        p
    }

    /// Whether `other` replayed this run: same digest and event count.
    pub fn same_trace(&self, other: &Outcome) -> bool {
        self.digest == other.digest && self.stats.events == other.stats.events
    }

    /// Data packets (≈ ACKs): everything injected except probe traffic,
    /// halved, as every data packet delivered draws one ACK.
    pub fn data_pkts(&self) -> u64 {
        self.conservation
            .injected
            .saturating_sub(self.stats.probes_sent + self.stats.probe_responses)
            / 2
    }
}

/// Run `f`, turning a panic into an error naming `what`.
pub fn guarded<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        let msg = e
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        format!("{what} panicked: {msg}")
    })
}

/// Seconds this thread has run on a CPU, from the scheduler's own
/// accounting: time spent waiting for a CPU, and time a hypervisor with
/// steal accounting gave the CPU to someone else, are not in it. `None`
/// where the kernel does not expose it.
pub fn thread_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns: u64 = stat.split_whitespace().next()?.parse().ok()?;
    Some(ns as f64 / 1e9)
}

/// Host time of one `run_to_completion` call.
#[derive(Clone, Copy, Debug)]
pub struct RunTime {
    pub wall_s: f64,
    /// CPU seconds of the thread, if the kernel exposes them.
    pub cpu_s: Option<f64>,
}

/// One untraced simulation: set up, run to completion, capture.
pub fn run_once(input: &Input) -> Result<(Outcome, RunTime), String> {
    guarded(&input.label(), || {
        let mut ready = setup(input);
        let cpu0 = thread_cpu_s();
        let t0 = Instant::now();
        ready.sim.run_to_completion(ready.horizon);
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = thread_cpu_s().zip(cpu0).map(|(b, a)| b - a);
        let out = Outcome::capture(&ready.sim, ready.horizon, input.n_flows());
        (out, RunTime { wall_s, cpu_s })
    })
}

/// Attempt and failure counts, with the reasons for each failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.errors.extend(problems);
        }
    }
}

/// FCT figures of the pooled flows of a run, in ms of simulated time.
pub struct FctReport {
    pub p50_ms: f64,
    /// p99 over all flows.
    pub tail: Tail,
    /// Highest percentile with ten small flows beyond it.
    pub small_tail: Tail,
    /// p99 over the flows that started inside the fault window.
    pub fault_tail: Tail,
    /// Highest percentile with ten flows beyond it, for all flows,
    /// small flows and fault-window flows (printed, not gated).
    pub top: (Tail, Tail, Tail),
    pub finished_frac: f64,
}

/// Percentile of the gated all-flow and fault-window tails. The highest
/// percentile with ten flows beyond it is an extreme order statistic:
/// its spread over seeds does not shrink as a run grows, while p99's
/// does (p99 still leaves ~30 flows beyond it here).
const TAIL_PCT: f64 = 99.0;

/// FCTs of the pooled records, unfinished flows charged at their
/// simulation's horizon (as `summarize` does).
pub fn fct_report(outcomes: &[Outcome]) -> FctReport {
    let mut all = Vec::new();
    let mut small = Vec::new();
    let mut in_window = Vec::new();
    let mut finished = 0usize;
    for o in outcomes {
        for r in &o.records {
            let ms = r.fct_at(o.horizon).as_millis_f64();
            all.push(ms);
            if r.size < SMALL_FLOW_BYTES {
                small.push(ms);
            }
            if r.start >= FAULT_ONSET && r.start < FAULT_CLEAR {
                in_window.push(ms);
            }
            finished += usize::from(r.finish.is_some());
        }
    }
    let scheduled: usize = outcomes.iter().map(|o| o.n_flows).sum();
    FctReport {
        p50_ms: median(&all),
        tail: tail_at(&all, TAIL_PCT),
        small_tail: tail(&small),
        fault_tail: tail_at(&in_window, TAIL_PCT),
        top: (tail(&all), tail(&small), tail(&in_window)),
        finished_frac: ratio(finished as f64, scheduled as f64),
    }
}

/// The end-to-end figures of an untraced run.
pub struct EndToEnd {
    /// `run_s` below is scaled by this to nominal host speed.
    pub host_scale: f64,
    /// Median reference-block CPU time of the run.
    pub reference_s: f64,
    /// `run_s` before scaling.
    pub raw_run_s: f64,
    pub setup_s: f64,
    pub run_s: f64,
    pub pkts_per_s: f64,
    pub peak_rss_mb: f64,
    pub fct: FctReport,
    /// Outcome of each input, in input order.
    pub outcomes: Vec<Outcome>,
    /// Host seconds the whole measurement took.
    pub elapsed_s: f64,
}

/// Run each input once: an untimed warm-up set-up, [`SETUP_REPS`]
/// set-ups timed on their own, the simulation, then a block of the
/// reference kernel. Each input is one attempt, failed if any of its
/// set-ups or its simulation panicked or its output checks failed. The
/// work is fixed, so every run takes the same samples; `seconds` is the
/// budget it was sized to and is only checked against. `run_s` is
/// reported at nominal host speed (see [`crate::reference`]).
pub fn measure(inputs: &[Input], seconds: u64, tally: &mut Tally) -> Option<EndToEnd> {
    let started = Instant::now();
    let mut setup_samples = Vec::new();
    let mut outcomes = Vec::new();
    let mut raw_run_s = 0.0;
    let mut rss_kb = None;
    let mut wall_only = false;
    let mut reference: Option<Reference> = None;
    for input in inputs {
        let mut problems = Vec::new();
        // The first set-up pays one-off costs (page faults, lazy statics)
        // that a user pays once per process, not per simulation.
        if let Err(e) = guarded(&input.label(), || setup(input)) {
            problems.push(e);
        }
        for _ in 0..SETUP_REPS {
            match guarded(&input.label(), || setup(input).times()) {
                Ok(t) => setup_samples.push(t.total()),
                Err(e) => problems.push(e),
            }
        }
        match run_once(input) {
            Ok((out, t)) => {
                raw_run_s += t.cpu_s.unwrap_or_else(|| {
                    wall_only = true;
                    t.wall_s
                });
                // The peak after the first simulation: later ones land
                // on a heap the earlier ones fragmented, which moves
                // the process-wide peak by seed order, not by program.
                if rss_kb.is_none() {
                    rss_kb = Some(peak_rss_kb());
                }
                problems.extend(out.problems());
                outcomes.push(out);
            }
            Err(e) => problems.push(e),
        }
        tally.record(problems);
        // Created after the first simulation's peak RSS is read, so
        // the reference table stays out of `peak_rss_mb`.
        reference.get_or_insert_with(Reference::new).sample();
    }

    let elapsed_s = started.elapsed().as_secs_f64();
    if elapsed_s > seconds as f64 {
        eprintln!("note: the run took {elapsed_s:.1} s, over the {seconds} s budget");
    }
    if wall_only {
        eprintln!("note: thread CPU time is unavailable here; run_s is wall time, unscaled");
    }
    if outcomes.len() != inputs.len() || setup_samples.is_empty() {
        return None;
    }
    raw_run_s /= inputs.len() as f64;
    let injected: u64 = outcomes.iter().map(|o| o.conservation.injected).sum();
    let reference_s = reference.as_ref().map_or(0.0, Reference::median_s);
    // 1 where the thread CPU clock is missing: the reference then took
    // no samples.
    let scale = reference.as_ref().map_or(1.0, Reference::scale);
    let run_s = raw_run_s * scale;
    Some(EndToEnd {
        host_scale: scale,
        reference_s,
        raw_run_s,
        setup_s: median(&setup_samples),
        run_s,
        pkts_per_s: ratio(injected as f64, run_s * inputs.len() as f64),
        peak_rss_mb: rss_kb.unwrap_or(0) as f64 / 1024.0,
        fct: fct_report(&outcomes),
        outcomes,
        elapsed_s,
    })
}

/// `VmHWM` of this process in KiB (0 if unreadable).
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}
