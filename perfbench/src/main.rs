//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <websearch_hermes|websearch_ecmp|spine_fault_hermes> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` makes the
//! traced run and reports the per-layer metrics, writing its spans to
//! `perfbench/out/`. Human-readable lines come first; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is nonzero when an output
//! check failed. See `perfbench/README.md`.

mod kernels;
mod measure;
mod reference;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;

use measure::{measure, Tally};
use workload::{inputs, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: hermes-perfbench --workload <websearch_hermes|websearch_ecmp|\
spine_fault_hermes> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        tally.attempted, tally.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let inputs = inputs(args.workload, args.seed);
    let mut tally = Tally::default();
    let metrics = if args.trace {
        trace::traced_run(args.workload, args.seed, &inputs, &mut tally)
    } else {
        end_to_end(args.workload, &inputs, args.seconds, &mut tally)
    };
    for e in &tally.errors {
        eprintln!("check failed: {e}");
    }
    let correct = tally.failed == 0 && metrics.is_some();
    println!(
        "{}",
        result_line(correct, &tally, metrics.as_deref().unwrap_or(&[]))
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn end_to_end(
    workload: Workload,
    inputs: &[workload::Input],
    seconds: u64,
    tally: &mut Tally,
) -> Option<Vec<Metric>> {
    let e = measure(inputs, seconds, tally)?;
    println!(
        "workload {} ({:.1} s; run_s x{:.4} to nominal speed: reference {:.5} s, \
         raw run_s {:.4} s)",
        workload.name(),
        e.elapsed_s,
        e.host_scale,
        e.reference_s,
        e.raw_run_s
    );
    for o in &e.outcomes {
        println!(
            "  sim: flows {:>5}  events {:>9}  injected {:>8}  sim {:>7.3} ms  digest {:#018x}",
            o.n_flows,
            o.stats.events,
            o.conservation.injected,
            o.sim_time.as_millis_f64(),
            o.digest
        );
    }
    let f = &e.fct;
    for (name, t, top) in [
        ("fct_tail_ms", f.tail, f.top.0),
        ("fct_small_tail_ms", f.small_tail, f.top.1),
        ("fault_fct_tail_ms", f.fault_tail, f.top.2),
    ] {
        println!(
            "  {name}: p{:.2} of n={} -> {:.4} ms (highest with 10 beyond: p{:.2} -> {:.4} ms)",
            t.percentile, t.n, t.value, top.percentile, top.value
        );
    }
    let metrics = vec![
        ("setup_s", e.setup_s, "s"),
        ("run_s", e.run_s, "s"),
        ("pkts_per_s", e.pkts_per_s, "pkt/s"),
        ("peak_rss_mb", e.peak_rss_mb, "MB"),
        ("fct_p50_ms", f.p50_ms, "ms"),
        ("fct_tail_ms", f.tail.value, "ms"),
        ("fct_small_tail_ms", f.small_tail.value, "ms"),
        ("finished_frac", f.finished_frac, "ratio"),
        ("fault_fct_tail_ms", f.fault_tail.value, "ms"),
    ];
    for (name, value, unit) in &metrics {
        println!("  {name:<20} {value:>16.6} {unit}");
    }
    Some(metrics)
}
