//! The benchmark's workloads and the inputs it generates for them.
//!
//! Every input comes from the `--seed` argument: a run splits it into
//! [`SIMS_PER_RUN`] simulation seeds, and each simulation seed fixes
//! the Poisson flow schedule, the faulty spine and the simulator's own
//! random streams. The program under test only ever sees the resulting
//! `FlowSpec`s and `FaultPlan`.

use std::time::Instant;

use hermes_core::HermesParams;
use hermes_net::{FaultPlan, SpineId, Topology};
use hermes_runtime::{Probe, Scheme, SimConfig, Simulation};
use hermes_sim::{SimRng, Time};
use hermes_workload::{FlowGen, FlowSizeDist, FlowSpec};

/// Simulations per run, each on its own seed. Pooling several flow
/// schedules keeps the FCT tails steady from one `--seed` to the next.
pub const SIMS_PER_RUN: usize = 4;

/// Payload bytes offered per simulation: the flow count is this over the
/// web-search mean, and stratified sizes make the flows add up to it, so
/// the work per simulation does not swing with the seed.
pub const BYTE_BUDGET: u64 = 1_600_000_000;

/// How far a schedule's offered load may stray from the nominal load.
pub const LOAD_TOLERANCE: f64 = 0.01;

/// The window in which `spine_fault_hermes` drops packets on one spine.
/// `fault_fct_tail_ms` looks at flows that started inside it on every
/// workload, so the healthy workloads report the same window unfaulted.
pub const FAULT_ONSET: Time = Time::from_ms(10);
pub const FAULT_CLEAR: Time = Time::from_ms(35);
/// Silent drop probability on the faulty spine while the window is open.
pub const FAULT_DROP_RATE: f64 = 0.02;

/// How long past the last arrival a simulation may run before unfinished
/// flows are charged at the horizon.
pub const DRAIN: Time = Time::from_secs(1);

/// Queue/goodput sampler period, as in the repository's perf points.
const SAMPLER_INTERVAL: Time = Time::from_ms(1);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WebsearchHermes,
    WebsearchEcmp,
    SpineFaultHermes,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WebsearchHermes,
        Workload::WebsearchEcmp,
        Workload::SpineFaultHermes,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WebsearchHermes => "websearch_hermes",
            Workload::WebsearchEcmp => "websearch_ecmp",
            Workload::SpineFaultHermes => "spine_fault_hermes",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Offered load against the fabric's uplink capacity.
    fn load(self) -> f64 {
        match self {
            Workload::WebsearchHermes | Workload::WebsearchEcmp => 0.8,
            Workload::SpineFaultHermes => 0.5,
        }
    }

    pub fn is_hermes(self) -> bool {
        self != Workload::WebsearchEcmp
    }

    fn scheme(self, topo: &Topology) -> Scheme {
        if self.is_hermes() {
            Scheme::Hermes(HermesParams::from_topology(topo))
        } else {
            Scheme::Ecmp
        }
    }
}

/// One simulation's inputs, fixed before anything is timed.
#[derive(Clone, Debug)]
pub struct Input {
    pub workload: Workload,
    pub seed: u64,
    /// Payload bytes of each flow `FlowGen` schedules from `seed`.
    pub sizes: Vec<u64>,
    pub fault: Option<FaultPlan>,
}

impl Input {
    pub fn n_flows(&self) -> usize {
        self.sizes.len()
    }

    /// Names this input in failure messages.
    pub fn label(&self) -> String {
        format!("seed {:#x}", self.seed)
    }
}

/// The simulation seeds of one run. `websearch_hermes` and
/// `websearch_ecmp` get the same seeds, hence the same flows.
pub fn inputs(workload: Workload, seed: u64) -> Vec<Input> {
    let root = SimRng::new(seed);
    let dist = FlowSizeDist::web_search();
    let n_flows = (BYTE_BUDGET as f64 / dist.mean_bytes()).round() as usize;
    (0..SIMS_PER_RUN)
        .map(|i| {
            let mut candidates = root.split(i as u64 + 1);
            let sim_seed = loop {
                let s = candidates.u64();
                if at_load(workload, s, n_flows) {
                    break s;
                }
            };
            let mut rng = SimRng::new(sim_seed).split(0x512E);
            let sizes = stratified_sizes(&dist, n_flows, &mut rng);
            let fault = (workload == Workload::SpineFaultHermes).then(|| {
                let n_spines = Topology::sim_baseline().n_spines;
                FaultPlan::new().random_drop_window(
                    SpineId(rng.below(n_spines) as u16),
                    FAULT_DROP_RATE,
                    FAULT_ONSET,
                    FAULT_CLEAR,
                )
            });
            Input {
                workload,
                seed: sim_seed,
                sizes,
                fault,
            }
        })
        .collect()
}

fn flow_gen(workload: Workload, topo: &Topology, seed: u64) -> FlowGen {
    FlowGen::new(
        topo,
        FlowSizeDist::web_search(),
        workload.load(),
        None,
        SimRng::new(seed).split(0x6E4),
    )
}

/// Whether `n` flows of `seed`'s schedule arrive over a span that makes
/// [`BYTE_BUDGET`] the workload's nominal load, within
/// [`LOAD_TOLERANCE`].
fn at_load(workload: Workload, seed: u64, n: usize) -> bool {
    let topo = Topology::sim_baseline();
    let mut gen = flow_gen(workload, &topo, seed);
    let span = (0..n)
        .map(|_| gen.next_flow().start)
        .last()
        .unwrap_or(Time::ZERO);
    let offered = BYTE_BUDGET as f64 * 8.0 / (span.as_secs_f64() * topo.total_uplink_bps() as f64);
    (offered / workload.load() - 1.0).abs() <= LOAD_TOLERANCE
}

/// `n` web-search sizes, one from each of `n` equal-probability strata
/// of the CDF, in random order.
fn stratified_sizes(dist: &FlowSizeDist, n: usize, rng: &mut SimRng) -> Vec<u64> {
    let mut sizes: Vec<u64> = (0..n)
        .map(|i| (dist.quantile((i as f64 + rng.f64()) / n as f64).round() as u64).max(1))
        .collect();
    for i in (1..n).rev() {
        sizes.swap(i, rng.below(i + 1));
    }
    sizes
}

/// Host seconds spent in each part of set-up.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    /// Topology, scheme parameters and `Simulation::new`.
    pub new_s: f64,
    /// Fault plan and sampler installation.
    pub install_s: f64,
    /// `FlowGen::schedule` and the size assignment.
    pub gen_s: f64,
    /// `Simulation::add_flows`.
    pub add_flows_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.new_s + self.install_s + self.gen_s + self.add_flows_s
    }
}

/// A simulation ready to run.
pub struct Ready {
    pub sim: Simulation,
    pub horizon: Time,
    /// Host instants around each set-up step: before `Simulation::new`,
    /// then after it, after installing the fault plan and sampler,
    /// after `FlowGen::schedule` and after `add_flows`.
    pub marks: [Instant; 5],
}

impl Ready {
    pub fn times(&self) -> SetupTimes {
        let secs = |i: usize| (self.marks[i + 1] - self.marks[i]).as_secs_f64();
        SetupTimes {
            new_s: secs(0),
            install_s: secs(1),
            gen_s: secs(2),
            add_flows_s: secs(3),
        }
    }
}

/// Inputs → ready `Simulation`, marking the host time of each step.
pub fn setup(input: &Input) -> Ready {
    let t0 = Instant::now();
    let topo = Topology::sim_baseline();
    let scheme = input.workload.scheme(&topo);
    let mut sim = Simulation::new(SimConfig::new(topo.clone(), scheme).with_seed(input.seed));
    let t1 = Instant::now();
    sim.add_sampler(SAMPLER_INTERVAL, Probe::TotalGoodput);
    if let Some(plan) = &input.fault {
        sim.set_fault_plan(plan);
    }
    let t2 = Instant::now();
    let mut specs: Vec<FlowSpec> =
        flow_gen(input.workload, &topo, input.seed).schedule(input.n_flows());
    for (spec, &size) in specs.iter_mut().zip(&input.sizes) {
        spec.size = size;
    }
    let t3 = Instant::now();
    let last_arrival = specs.last().map_or(Time::ZERO, |s| s.start);
    sim.add_flows(specs);
    let t4 = Instant::now();
    Ready {
        sim,
        horizon: last_arrival + DRAIN,
        marks: [t0, t1, t2, t3, t4],
    }
}
