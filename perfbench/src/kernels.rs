//! Isolated per-layer kernels: one public function of one layer, timed
//! in a loop with inputs sized from the traced run. They run only in
//! the traced run, after its simulations, so they never disturb the
//! end-to-end numbers.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use hermes_core::{Hermes, HermesParams, RackSensing};
use hermes_lb::Ecmp;
use hermes_net::{
    EdgeLb, Enqueue, FlowCtx, FlowId, HostId, LeafId, Packet, PathId, Port, Topology, MSS,
};
use hermes_sim::{EventQueue, SimRng, Time};
use hermes_transport::{Receiver, SegmentIn, SendAction, Sender, TransportCfg};
use hermes_workload::{summarize, FlowRecord};

use crate::stats::median;

/// Timed rounds per kernel; the kernel reports their median.
const ROUNDS: usize = 5;
/// Host time per round.
const ROUND_TIME: Duration = Duration::from_millis(40);

/// Median over [`ROUNDS`] rounds of host ns per operation. `chunk` runs
/// a batch of operations and returns how many it ran; a round repeats
/// it until [`ROUND_TIME`] is spent.
fn ns_per_op(mut chunk: impl FnMut() -> u64) -> f64 {
    chunk();
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            let mut ops = 0u64;
            while t0.elapsed() < ROUND_TIME {
                ops += chunk();
            }
            t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Spreads CE marks evenly at a given fraction of packets.
struct Marker {
    ratio: f64,
    acc: f64,
}

impl Marker {
    fn new(ratio: f64) -> Marker {
        Marker {
            ratio: ratio.clamp(0.0, 1.0),
            acc: 0.0,
        }
    }

    fn next(&mut self) -> bool {
        self.acc += self.ratio;
        if self.acc >= 1.0 {
            self.acc -= 1.0;
            true
        } else {
            false
        }
    }
}

const QUEUE_CHUNK: usize = 1024;

/// `sim.queue_ns_per_op`: one `EventQueue` pop plus one schedule, with
/// `depth` events pending. Delays are fabric-like (1–21 µs for
/// serialization and propagation) with one RTO-scale timer in 16.
pub fn queue(depth: usize) -> f64 {
    let mut rng = SimRng::new(0x0E0E);
    let delays: Vec<Time> = (0..4096u64)
        .map(|i| {
            if i % 16 == 0 {
                Time::from_ms(10)
            } else {
                Time::from_ns(1_000 + rng.below(20_000) as u64)
            }
        })
        .collect();
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..depth.max(1) {
        q.schedule(delays[i % delays.len()], i as u64);
    }
    let mut k = 0usize;
    ns_per_op(|| {
        let mut n = 0;
        for _ in 0..QUEUE_CHUNK {
            let Some((t, v)) = q.pop() else { break };
            q.schedule(t + delays[k % delays.len()], black_box(v));
            k += 1;
            n += 1;
        }
        n
    })
}

const PORT_CHUNK: usize = 1024;

/// `net.port_ns_per_pkt`: one packet through a 10G `Port` (enqueue,
/// `begin_tx`, `complete_tx`) behind a standing queue of `depth`.
pub fn port(depth: usize) -> f64 {
    let topo = Topology::sim_baseline();
    let link = topo.host_link;
    let buffer = topo.queue.buffer(link.rate_bps);
    let mut port = Port::new(link, topo.queue.ecn_threshold(link.rate_bps), buffer);
    let pkt_bytes = u64::from(MSS) * 2;
    let depth = depth.clamp(1, (buffer / pkt_bytes).max(1) as usize);
    for i in 0..depth as u64 {
        let pkt = Packet::data(
            FlowId(1),
            HostId(0),
            HostId(16),
            i * u64::from(MSS),
            MSS,
            false,
        );
        let _ = port.enqueue(Box::new(pkt));
    }
    ns_per_op(|| {
        let mut n = 0;
        for _ in 0..PORT_CHUNK {
            if port.begin_tx().is_none() {
                break;
            }
            let pkt = port.complete_tx();
            if let Enqueue::Dropped(_) = port.enqueue(black_box(pkt)) {
                break;
            }
            n += 1;
        }
        n
    })
}

/// `transport.ack_ns`: `Sender::on_ack` over whole flows of the run's
/// sizes, ACKed in order with the run's CE-mark ratio. One chunk is one
/// flow, `Sender::new` and `start` included.
pub fn sender(sizes: &[u64], ecn_ratio: f64) -> f64 {
    let cfg = TransportCfg::dctcp();
    let rtt = Time::from_us(60);
    let mut marks = Marker::new(ecn_ratio);
    let mut out = Vec::new();
    let mut unacked: VecDeque<u64> = VecDeque::new();
    let mut next = 0usize;
    let mut now = Time::ZERO;
    ns_per_op(|| {
        let size = sizes[next % sizes.len()].max(1);
        next += 1;
        let mut snd = Sender::new(cfg, size);
        out.clear();
        unacked.clear();
        snd.start(now, &mut out);
        let mut acks = 0;
        loop {
            for a in out.drain(..) {
                if let SendAction::Tx { seq, len, .. } = a {
                    unacked.push_back(seq + u64::from(len));
                }
            }
            let Some(ack) = unacked.pop_front() else {
                break;
            };
            now += Time::from_ns(1_200);
            snd.on_ack(ack, marks.next(), Some(rtt), now, &mut out);
            acks += 1;
        }
        acks
    })
}

/// `transport.data_ns`: `Receiver::on_data` over whole flows of the
/// run's sizes, delivered in order.
pub fn receiver(sizes: &[u64], ecn_ratio: f64) -> f64 {
    let cfg = TransportCfg::dctcp();
    let mss = u64::from(cfg.mss);
    let mut marks = Marker::new(ecn_ratio);
    let mut out = Vec::new();
    let mut next = 0usize;
    let mut now = Time::ZERO;
    ns_per_op(|| {
        let size = sizes[next % sizes.len()].max(1);
        next += 1;
        let mut rcv = Receiver::new(size, None, cfg.dupack_thresh);
        let mut seq = 0;
        let mut n = 0;
        while seq < size {
            let len = (size - seq).min(mss);
            let seg = SegmentIn {
                seq,
                len: u32::try_from(len).unwrap_or(cfg.mss),
                ecn: marks.next(),
                sent_at: now,
                path: PathId(0),
                retx: false,
            };
            now += Time::from_ns(1_200);
            out.clear();
            rcv.on_data(seg, now, &mut out);
            seq += len;
            n += 1;
        }
        n
    })
}

/// Concurrent flows one host's load balancer juggles in the LB kernels.
const LB_FLOWS: usize = 32;
const LB_CHUNK: usize = 256;

/// Flows from leaf 0 to every other leaf, restarted after
/// `pkts_per_flow` packets, for the edge-LB kernels.
struct LbFlows {
    ctx: Vec<FlowCtx>,
    sent: Vec<u64>,
    candidates: Vec<Vec<PathId>>,
    pkts_per_flow: u64,
    next_id: u64,
    k: usize,
}

impl LbFlows {
    fn new(topo: &Topology, pkts_per_flow: u64) -> LbFlows {
        // Indexed by destination leaf; leaf 0 is the source rack.
        let candidates = (0..topo.n_leaves)
            .map(|l| match l {
                0 => Vec::new(),
                _ => topo.path_candidates(LeafId(0), LeafId(l as u16)),
            })
            .collect();
        let mut f = LbFlows {
            ctx: Vec::new(),
            sent: vec![0; LB_FLOWS],
            candidates,
            pkts_per_flow: pkts_per_flow.max(1),
            next_id: 0,
            k: 0,
        };
        for i in 0..LB_FLOWS {
            let dst_leaf = 1 + i % (topo.n_leaves - 1);
            let ctx = FlowCtx {
                flow: FlowId(0),
                src: HostId((i % topo.hosts_per_leaf) as u32),
                dst: HostId((dst_leaf * topo.hosts_per_leaf) as u32),
                src_leaf: LeafId(0),
                dst_leaf: LeafId(dst_leaf as u16),
                bytes_sent: 0,
                rate_bps: 0.0,
                current_path: PathId::UNSET,
                is_new: true,
                timed_out: false,
                since_change: Time::MAX,
            };
            f.ctx.push(ctx);
            f.restart(i);
        }
        f
    }

    fn restart(&mut self, i: usize) {
        let c = &mut self.ctx[i];
        c.flow = FlowId(self.next_id);
        c.bytes_sent = 0;
        c.current_path = PathId::UNSET;
        c.is_new = true;
        self.sent[i] = 0;
        self.next_id += 1;
    }

    /// The next flow to send a packet, round-robin.
    fn next(&mut self) -> usize {
        let i = self.k % LB_FLOWS;
        self.k += 1;
        i
    }

    /// `select_path` on flow `i`, then account the packet.
    fn select(&mut self, lb: &mut dyn EdgeLb, i: usize, now: Time, rng: &mut SimRng) {
        let d = self.ctx[i].dst_leaf.0 as usize;
        let p = lb.select_path(&self.ctx[i], &self.candidates[d], now, rng);
        let c = &mut self.ctx[i];
        c.current_path = black_box(p);
        c.is_new = false;
        c.bytes_sent += u64::from(MSS);
        c.rate_bps = 5e9;
        self.sent[i] += 1;
        if self.sent[i] >= self.pkts_per_flow {
            lb.on_flow_finished(&self.ctx[i], now);
            self.restart(i);
        }
    }
}

/// Per-packet `select_path` cost of `lb`.
fn select_kernel(lb: &mut dyn EdgeLb, flows: &mut LbFlows) -> f64 {
    let mut rng = SimRng::new(0x5E1);
    let mut now = Time::ZERO;
    ns_per_op(|| {
        for _ in 0..LB_CHUNK {
            now += Time::from_ns(100);
            let i = flows.next();
            flows.select(lb, i, now, &mut rng);
        }
        LB_CHUNK as u64
    })
}

/// `core.on_ack_ns` and `core.select_ns`: Hermes `on_ack` (with the
/// run's CE-mark ratio and RTTs around the fabric's base RTT) and
/// `select_path`, on one rack's shared sensing state. The ACK kernel
/// runs first so path selection sees sensed paths.
pub fn hermes(pkts_per_flow: u64, ecn_ratio: f64) -> (f64, f64) {
    let topo = Topology::sim_baseline();
    let params = HermesParams::from_topology(&topo);
    let mut lb = Hermes::new(RackSensing::shared(&topo, LeafId(0), params), false);
    let mut flows = LbFlows::new(&topo, pkts_per_flow);
    let mut rng = SimRng::new(0xAC);
    let mut marks = Marker::new(ecn_ratio);
    let mut now = Time::ZERO;
    for i in 0..LB_FLOWS {
        flows.select(&mut lb, i, now, &mut rng);
    }
    let base = topo.base_rtt();
    let on_ack = ns_per_op(|| {
        for _ in 0..LB_CHUNK {
            now += Time::from_ns(100);
            let i = flows.next();
            let ctx = &flows.ctx[i];
            let rtt = base + Time::from_us((flows.k % 8) as u64 * 10);
            lb.on_ack(
                ctx,
                ctx.current_path,
                Some(rtt),
                marks.next(),
                u64::from(MSS),
                now,
            );
        }
        LB_CHUNK as u64
    });
    let select = select_kernel(&mut lb, &mut flows);
    (on_ack, select)
}

/// `lb.ecmp_select_ns`: per-packet ECMP `select_path`.
pub fn ecmp(pkts_per_flow: u64) -> f64 {
    let topo = Topology::sim_baseline();
    let mut flows = LbFlows::new(&topo, pkts_per_flow);
    select_kernel(&mut Ecmp::new(), &mut flows)
}

/// `workload.summarize_s`: one `summarize` call over each simulation's
/// records; the mean over simulations of the median call.
pub fn summarize_s(runs: &[(&[FlowRecord], Time)]) -> f64 {
    let per_sim: Vec<f64> = runs
        .iter()
        .map(|&(records, horizon)| {
            let samples: Vec<f64> = (0..ROUNDS * 4)
                .map(|_| {
                    let t0 = Instant::now();
                    black_box(summarize(black_box(records), horizon));
                    t0.elapsed().as_secs_f64()
                })
                .collect();
            median(&samples)
        })
        .collect();
    per_sim.iter().sum::<f64>() / per_sim.len().max(1) as f64
}
