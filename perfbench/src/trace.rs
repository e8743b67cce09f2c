//! The traced run: spans recorded from the benchmark's own code around
//! each call into a layer, the per-layer metrics, and the reconciliation
//! of isolated kernel costs against the run time.
//!
//! Each input is run twice: untraced, as the reference, then traced,
//! with `run_to_completion` called up to successive [`SLICE`]
//! boundaries of simulated time. The traced run must reproduce the
//! reference's digest and event count. Spans are kept in memory and
//! written to `perfbench/out/trace-<workload>-<seed>.json` at the end.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use hermes_net::Topology;
use hermes_sim::Time;
use hermes_workload::{summarize, FlowRecord};

use crate::kernels;
use crate::measure::{guarded, run_once, Outcome, Tally};
use crate::stats::{median, ratio};
use crate::workload::{setup, Input, SetupTimes, Workload, FAULT_CLEAR, FAULT_ONSET};
use crate::Metric;

/// Simulated time per `run_to_completion` slice of the traced run.
const SLICE: Time = Time::from_ms(1);

/// Slices with fewer events than this are left out of the ns/event
/// figures: their few events make the ratio mostly timer noise.
const MIN_SLICE_EVENTS: u64 = 1_000;

/// Output ports every inter-rack packet crosses: host NIC, leaf uplink,
/// spine downlink, leaf downlink.
const PORTS_PER_PKT: u64 = 4;

/// One recorded span. Spans of one simulation share `run`.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    run: usize,
    start_ns: u64,
    end_ns: u64,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        run: usize,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            parent,
            run,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Open a span now; [`Tracer::close`] sets its end.
    fn open(&mut self, name: &'static str, parent: Option<usize>, run: usize) -> usize {
        let now = Instant::now();
        self.record(name, parent, run, now, now)
    }

    fn close(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        self.spans[id].end_ns = end;
    }

    /// Host ns per span name not covered by the span's children.
    fn self_ns(&self) -> Vec<(&'static str, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: Vec<(&'static str, u64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*c);
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, total)) => *total += own,
                None => by_name.push((s.name, own)),
            }
        }
        by_name
    }
}

/// One `run_to_completion` slice.
struct Slice {
    ns: f64,
    events: u64,
    /// Packets inside the fabric at the slice's end.
    in_flight: u64,
    /// Simulated time at the slice's end.
    end: Time,
    /// Hermes path changes up to the slice's end.
    path_changes: u64,
}

struct TracedSim {
    outcome: Outcome,
    times: SetupTimes,
    slices: Vec<Slice>,
}

/// Set up and run one input with spans around every layer call.
fn traced_sim(tr: &mut Tracer, run: usize, input: &Input) -> TracedSim {
    let sim_span = tr.open("sim", None, run);
    let mut ready = setup(input);
    let m = ready.marks;
    let setup_span = tr.record("setup", Some(sim_span), run, m[0], m[4]);
    for (i, name) in [
        "runtime.new",
        "runtime.install",
        "workload.gen",
        "runtime.add_flows",
    ]
    .into_iter()
    .enumerate()
    {
        tr.record(name, Some(setup_span), run, m[i], m[i + 1]);
    }

    let run_span = tr.open("runtime.run", Some(sim_span), run);
    let mut slices = Vec::new();
    let mut boundary = SLICE;
    loop {
        let h = boundary.min(ready.horizon);
        let events_before = ready.sim.stats.events;
        let t0 = Instant::now();
        ready.sim.run_to_completion(h);
        let t1 = Instant::now();
        tr.record("runtime.slice", Some(run_span), run, t0, t1);
        slices.push(Slice {
            ns: (t1 - t0).as_nanos() as f64,
            events: ready.sim.stats.events - events_before,
            in_flight: ready.sim.conservation().in_flight,
            end: h,
            path_changes: ready.sim.stats.path_changes,
        });
        if ready.sim.stats.flows_completed == input.n_flows() || h >= ready.horizon {
            break;
        }
        boundary += SLICE;
    }
    tr.close(run_span);

    let t0 = Instant::now();
    black_box(summarize(ready.sim.records(), ready.horizon));
    tr.record(
        "workload.summarize",
        Some(sim_span),
        run,
        t0,
        Instant::now(),
    );
    let outcome = Outcome::capture(&ready.sim, ready.horizon, input.n_flows());
    tr.close(sim_span);
    TracedSim {
        outcome,
        times: ready.times(),
        slices,
    }
}

/// A per-layer metric with the end-to-end metric it should move.
struct LayerMetric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    moves: &'static str,
}

/// An isolated kernel's cost and the run's matching operation count.
struct Kernel {
    name: &'static str,
    ns_per_op: f64,
    ops_per_sim: f64,
}

/// The traced run of `inputs`; returns the per-layer metrics.
pub fn traced_run(
    workload: Workload,
    seed: u64,
    inputs: &[Input],
    tally: &mut Tally,
) -> Option<Vec<Metric>> {
    let mut tr = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let mut untraced_run_s = 0.0;
    let mut sims: Vec<TracedSim> = Vec::new();
    for (run, input) in inputs.iter().enumerate() {
        let reference = match run_once(input) {
            Ok((out, t)) => {
                untraced_run_s += t.wall_s;
                out
            }
            Err(e) => {
                tally.record(vec![e]);
                continue;
            }
        };
        match guarded(&input.label(), || traced_sim(&mut tr, run, input)) {
            Ok(t) => {
                let mut problems = t.outcome.problems();
                if !reference.same_trace(&t.outcome) {
                    problems.push(format!(
                        "seed {:#x}: traced run diverged: digest {:#018x} events {} vs \
                         untraced {:#018x} events {}",
                        input.seed,
                        t.outcome.digest,
                        t.outcome.stats.events,
                        reference.digest,
                        reference.stats.events
                    ));
                }
                tally.record(problems);
                sims.push(t);
            }
            Err(e) => tally.record(vec![e]),
        }
    }
    if sims.len() != inputs.len() {
        return None;
    }

    // The kernels are one more attempt, whether or not they fail, so
    // `attempted` is the same on every traced run.
    let layers = guarded("per-layer kernels", || {
        layer_metrics(workload, &sims, untraced_run_s)
    });
    let layers = match layers {
        Ok(l) => {
            tally.record(Vec::new());
            l
        }
        Err(e) => {
            tally.record(vec![e]);
            return None;
        }
    };
    println!("workload {} traced ({} sims)", workload.name(), sims.len());
    for s in &sims {
        let o = &s.outcome;
        println!(
            "  sim: flows {:>5}  events {:>9}  slices {:>4}  digest {:#018x}",
            o.n_flows,
            o.stats.events,
            s.slices.len(),
            o.digest
        );
    }
    for l in &layers {
        println!(
            "  {:<34} {:>18.6} {:<6} -> {}",
            l.name, l.value, l.unit, l.moves
        );
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let file = format!("{path}/trace-{}-{seed}.json", workload.name());
    let written = std::fs::create_dir_all(path)
        .and_then(|()| std::fs::write(&file, trace_json(workload, seed, &tr, &sims, &layers)));
    if let Err(e) = written {
        eprintln!("writing {file}: {e}");
        return None;
    }
    println!("  trace written to {file}");
    Some(layers.iter().map(|l| (l.name, l.value, l.unit)).collect())
}

/// Path changes inside the fault window, from the slices ending at its
/// bounds (0 if the run ended before the window opened).
fn window_path_changes(slices: &[Slice]) -> u64 {
    let at = |t: Time| {
        slices
            .iter()
            .take_while(|x| x.end <= t)
            .last()
            .map_or(0, |x| x.path_changes)
    };
    at(FAULT_CLEAR) - at(FAULT_ONSET)
}

fn layer_metrics(workload: Workload, sims: &[TracedSim], untraced_run_s: f64) -> Vec<LayerMetric> {
    let n = sims.len() as f64;
    let mean = |f: &dyn Fn(&TracedSim) -> f64| sims.iter().map(f).sum::<f64>() / n;
    let count = |f: &dyn Fn(&Outcome) -> u64| mean(&|s| f(&s.outcome) as f64);

    let run_s = mean(&|s| s.slices.iter().map(|x| x.ns).sum::<f64>() / 1e9);
    let slices: Vec<&Slice> = sims.iter().flat_map(|s| &s.slices).collect();
    let per_event: Vec<f64> = slices
        .iter()
        .filter(|x| x.events >= MIN_SLICE_EVENTS)
        .map(|x| x.ns / x.events as f64)
        .collect();
    let per_event_max = per_event.iter().copied().fold(0.0, f64::max);
    let in_flight: Vec<f64> = slices.iter().map(|x| x.in_flight as f64).collect();
    let in_flight_p50 = median(&in_flight);

    let events = count(&|o| o.stats.events);
    let trains = count(&|o| o.trains_inlined);
    let injected = count(&|o| o.conservation.injected);
    let delivered = count(&|o| o.conservation.delivered);
    let ecn_marks = count(&|o| o.ecn_marks);
    let probes = count(&|o| o.stats.probes_sent);
    let responses = count(&|o| o.stats.probe_responses);
    let data_pkts = count(&|o| o.data_pkts());
    let flows = mean(&|s| s.outcome.n_flows as f64);
    let pool_reused = count(&|o| o.pool.reused);
    let pool_fresh = count(&|o| o.pool.fresh);

    // Kernel inputs sized from this run.
    let ecn_ratio = ratio(ecn_marks, delivered);
    let pkts_per_flow = ratio(data_pkts, flows).round() as u64;
    let depth = in_flight_p50.round() as usize;
    let sizes: Vec<u64> = sims
        .iter()
        .flat_map(|s| s.outcome.records.iter().map(|r| r.size))
        .collect();
    let (on_ack_ns, select_ns) = kernels::hermes(pkts_per_flow, ecn_ratio);
    let hermes_ops = if workload.is_hermes() { data_pkts } else { 0.0 };
    let ecmp_ops = if workload.is_hermes() { 0.0 } else { data_pkts };
    let kernels = [
        Kernel {
            name: "sim.queue_ns_per_op",
            ns_per_op: kernels::queue(depth),
            ops_per_sim: events - trains,
        },
        Kernel {
            name: "net.port_ns_per_pkt",
            ns_per_op: kernels::port(depth / fabric_ports()),
            ops_per_sim: delivered * PORTS_PER_PKT as f64,
        },
        Kernel {
            name: "transport.ack_ns",
            ns_per_op: kernels::sender(&sizes, ecn_ratio),
            ops_per_sim: data_pkts,
        },
        Kernel {
            name: "transport.data_ns",
            ns_per_op: kernels::receiver(&sizes, ecn_ratio),
            ops_per_sim: data_pkts,
        },
        Kernel {
            name: "core.select_ns",
            ns_per_op: select_ns,
            ops_per_sim: hermes_ops,
        },
        Kernel {
            name: "core.on_ack_ns",
            ns_per_op: on_ack_ns,
            ops_per_sim: hermes_ops,
        },
        Kernel {
            name: "lb.ecmp_select_ns",
            ns_per_op: kernels::ecmp(pkts_per_flow),
            ops_per_sim: ecmp_ops,
        },
    ];
    let records: Vec<(&[FlowRecord], Time)> = sims
        .iter()
        .map(|s| (s.outcome.records.as_slice(), s.outcome.horizon))
        .collect();
    let summarize_s = kernels::summarize_s(&records);
    let accounted_s: f64 = kernels
        .iter()
        .map(|k| k.ns_per_op * k.ops_per_sim / 1e9)
        .sum();

    let m = |name, value, unit, moves| LayerMetric {
        name,
        value,
        unit,
        moves,
    };
    let mut out = vec![
        m("runtime.new_s", mean(&|s| s.times.new_s), "s", "setup_s"),
        m(
            "runtime.install_s",
            mean(&|s| s.times.install_s),
            "s",
            "setup_s",
        ),
        m("workload.gen_s", mean(&|s| s.times.gen_s), "s", "setup_s"),
        m(
            "runtime.add_flows_s",
            mean(&|s| s.times.add_flows_s),
            "s",
            "setup_s",
        ),
        m("runtime.run_s", run_s, "s", "run_s"),
        m(
            "runtime.slice_ns_per_event_p50",
            median(&per_event),
            "ns",
            "run_s",
        ),
        m(
            "runtime.slice_ns_per_event_max",
            per_event_max,
            "ns",
            "run_s",
        ),
        m(
            "runtime.trace_overhead_frac",
            ratio(run_s * n, untraced_run_s) - 1.0,
            "ratio",
            "run_s",
        ),
        m("runtime.events", events, "count", "run_s"),
        m(
            "runtime.sim_ms",
            mean(&|s| s.outcome.sim_time.as_millis_f64()),
            "ms",
            "run_s",
        ),
        m(
            "runtime.flows_completed",
            count(&|o| o.stats.flows_completed as u64),
            "count",
            "finished_frac",
        ),
        m(
            "runtime.events_per_pkt",
            ratio(events, injected),
            "ratio",
            "pkts_per_s",
        ),
        m("sim.trains_inlined", trains, "count", "run_s"),
        m(
            "sim.trains_inlined_frac",
            ratio(trains, events),
            "ratio",
            "run_s",
        ),
        m(
            "sim.queue_clamps",
            count(&|o| o.queue_clamps),
            "count",
            "run_s",
        ),
        m("net.injected", injected, "pkt", "pkts_per_s"),
        m("net.delivered", delivered, "pkt", "fct_tail_ms"),
        m(
            "net.delivered_frac",
            ratio(delivered, injected),
            "ratio",
            "fct_tail_ms",
        ),
        m(
            "net.drops_full",
            count(&|o| o.conservation.drops_full),
            "pkt",
            "fct_small_tail_ms",
        ),
        m(
            "net.drops_failure",
            count(&|o| o.conservation.drops_failure),
            "pkt",
            "fault_fct_tail_ms",
        ),
        m("net.ecn_marks", ecn_marks, "pkt", "fct_p50_ms"),
        m("net.in_flight_p50", in_flight_p50, "pkt", "fct_p50_ms"),
        m(
            "net.pool_reuse_frac",
            ratio(pool_reused, pool_reused + pool_fresh),
            "ratio",
            "run_s",
        ),
        m("net.pool_fresh", pool_fresh, "count", "peak_rss_mb"),
        m("core.probes_sent", probes, "count", "run_s"),
        m(
            "core.probe_response_frac",
            ratio(responses, probes),
            "ratio",
            "fault_fct_tail_ms",
        ),
        m(
            "core.probe_timeouts",
            count(&|o| o.stats.probe_timeouts),
            "count",
            "fault_fct_tail_ms",
        ),
        m(
            "core.path_changes",
            count(&|o| o.stats.path_changes),
            "count",
            "fault_fct_tail_ms",
        ),
        m(
            "core.path_changes_in_window",
            mean(&|s| window_path_changes(&s.slices) as f64),
            "count",
            "fault_fct_tail_ms",
        ),
    ];
    for k in &kernels {
        out.push(m(k.name, k.ns_per_op, "ns", "run_s"));
    }
    out.push(m(
        "workload.summarize_s",
        summarize_s,
        "s",
        "none (after run_s)",
    ));
    out.push(m(
        "accounted_frac",
        ratio(accounted_s, run_s),
        "ratio",
        "run_s",
    ));
    out.push(m("residual_s", run_s - accounted_s, "s", "run_s"));
    out
}

/// Output ports in the fabric: a NIC and a leaf downlink per host, an
/// uplink and a spine downlink per leaf–spine pair. The kernel's
/// standing queue is the run's median in-flight packets spread over
/// them.
fn fabric_ports() -> usize {
    let t = Topology::sim_baseline();
    2 * t.n_hosts() + 2 * t.n_leaves * t.n_spines
}

fn trace_json(
    workload: Workload,
    seed: u64,
    tr: &Tracer,
    sims: &[TracedSim],
    layers: &[LayerMetric],
) -> String {
    let mut j = String::new();
    let _ = write!(
        j,
        "{{\n\"workload\": \"{}\",\n\"seed\": {seed},\n\"slice_ns\": {},\n\"sims\": [",
        workload.name(),
        SLICE.as_ns()
    );
    for (i, s) in sims.iter().enumerate() {
        let o = &s.outcome;
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            j,
            "{sep}\n  {{\"run\": {i}, \"flows\": {}, \"events\": {}, \"digest\": \"{:#018x}\", \
             \"sim_ms\": {}}}",
            o.n_flows,
            o.stats.events,
            o.digest,
            o.sim_time.as_millis_f64()
        );
    }
    j.push_str("\n],\n\"metrics\": {");
    for (i, l) in layers.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let value = if l.value.is_finite() { l.value } else { 0.0 };
        let _ = write!(
            j,
            "{sep}\n  \"{}\": {{\"value\": {value}, \"unit\": \"{}\", \"moves\": \"{}\"}}",
            l.name, l.unit, l.moves
        );
    }
    j.push_str("\n},\n\"self_ns\": {");
    for (i, (name, ns)) in tr.self_ns().iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(j, "{sep}\n  \"{name}\": {ns}");
    }
    j.push_str("\n},\n\"spans\": [");
    for (i, s) in tr.spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            j,
            "{sep}\n  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"run\": {}, \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.name, s.run, s.start_ns, s.end_ns
        );
    }
    j.push_str("\n]\n}\n");
    j
}
