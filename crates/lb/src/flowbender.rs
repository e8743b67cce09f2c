//! FlowBender (Kabbani et al., CoNEXT 2014) — end-host flow-level
//! adaptive rerouting.
//!
//! Each flow monitors the fraction of ECN-echoed ACKs over a window;
//! when it exceeds a threshold the flow is re-hashed onto a random
//! different path (blind — no view of where it lands). Timeouts also
//! trigger a re-hash. The paper characterizes this as "reactive and
//! random rerouting": timely, but neither congestion-informed in its
//! *choice* nor cautious, which costs it under high load.

use std::collections::BTreeMap;

use hermes_net::{EdgeLb, FlowCtx, FlowId, PathId};
use hermes_sim::{SimRng, Time};

/// FlowBender parameters (defaults per the original paper).
#[derive(Clone, Copy, Debug)]
pub struct FlowBenderCfg {
    /// Fraction of marked ACKs that triggers a reroute.
    pub ecn_threshold: f64,
    /// ACKs per observation window (≈ one congestion window).
    pub window_acks: u32,
}

impl Default for FlowBenderCfg {
    fn default() -> FlowBenderCfg {
        FlowBenderCfg {
            ecn_threshold: 0.05,
            window_acks: 16,
        }
    }
}

struct FlowState {
    path: PathId,
    acks: u32,
    marked: u32,
    want_reroute: bool,
}

/// FlowBender.
pub struct FlowBender {
    cfg: FlowBenderCfg,
    flows: BTreeMap<FlowId, FlowState>,
}

impl FlowBender {
    pub fn new(cfg: FlowBenderCfg) -> FlowBender {
        FlowBender {
            cfg,
            flows: BTreeMap::new(),
        }
    }
}

impl EdgeLb for FlowBender {
    fn select_path(
        &mut self,
        ctx: &FlowCtx,
        candidates: &[PathId],
        now: Time,
        rng: &mut SimRng,
    ) -> PathId {
        let st = self.flows.entry(ctx.flow).or_insert_with(|| FlowState {
            path: candidates[rng.below(candidates.len())],
            acks: 0,
            marked: 0,
            want_reroute: false,
        });
        let dead = !candidates.contains(&st.path);
        if st.want_reroute || dead {
            st.want_reroute = false;
            let from = st.path;
            // Re-hash to a *different* live path when possible.
            let others: Vec<PathId> = candidates
                .iter()
                .copied()
                .filter(|&p| p != st.path)
                .collect();
            st.path = if others.is_empty() {
                candidates[rng.below(candidates.len())]
            } else {
                others[rng.below(others.len())]
            };
            let to = st.path;
            hermes_telemetry::emit_with(now, || hermes_telemetry::Record::Reroute {
                flow: ctx.flow.0,
                dst_leaf: u32::from(ctx.dst_leaf.0),
                from_path: i64::from(from.0),
                to_path: i64::from(to.0),
                verdict: hermes_telemetry::RerouteVerdict::Bounce,
            });
        }
        st.path
    }

    fn on_ack(
        &mut self,
        ctx: &FlowCtx,
        _path: PathId,
        _rtt: Option<Time>,
        ecn: bool,
        _bytes_acked: u64,
        _now: Time,
    ) {
        let Some(st) = self.flows.get_mut(&ctx.flow) else {
            return;
        };
        st.acks += 1;
        if ecn {
            st.marked += 1;
        }
        if st.acks >= self.cfg.window_acks {
            let frac = st.marked as f64 / st.acks as f64;
            if frac > self.cfg.ecn_threshold {
                st.want_reroute = true;
            }
            st.acks = 0;
            st.marked = 0;
        }
    }

    fn on_timeout(&mut self, ctx: &FlowCtx, _path: PathId, _now: Time) {
        if let Some(st) = self.flows.get_mut(&ctx.flow) {
            st.want_reroute = true;
        }
    }

    fn on_flow_finished(&mut self, ctx: &FlowCtx, _now: Time) {
        self.flows.remove(&ctx.flow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_net::{HostId, LeafId};

    fn ctx(flow: u64) -> FlowCtx {
        FlowCtx {
            flow: FlowId(flow),
            src: HostId(0),
            dst: HostId(20),
            src_leaf: LeafId(0),
            dst_leaf: LeafId(1),
            bytes_sent: 0,
            rate_bps: 0.0,
            current_path: PathId::UNSET,
            is_new: true,
            timed_out: false,
            since_change: Time::MAX,
        }
    }

    const CANDS: [PathId; 4] = [PathId(0), PathId(1), PathId(2), PathId(3)];

    #[test]
    fn stable_without_congestion() {
        let mut lb = FlowBender::new(FlowBenderCfg::default());
        let mut rng = SimRng::new(9);
        let p = lb.select_path(&ctx(1), &CANDS, Time::ZERO, &mut rng);
        for _ in 0..200 {
            lb.on_ack(&ctx(1), p, None, false, 1460, Time::ZERO);
            assert_eq!(lb.select_path(&ctx(1), &CANDS, Time::ZERO, &mut rng), p);
        }
    }

    #[test]
    fn sustained_marks_cause_reroute() {
        let mut lb = FlowBender::new(FlowBenderCfg::default());
        let mut rng = SimRng::new(9);
        let p = lb.select_path(&ctx(1), &CANDS, Time::ZERO, &mut rng);
        for _ in 0..16 {
            lb.on_ack(&ctx(1), p, None, true, 1460, Time::ZERO);
        }
        let q = lb.select_path(&ctx(1), &CANDS, Time::ZERO, &mut rng);
        assert_ne!(p, q, "marked window must move the flow");
    }

    #[test]
    fn below_threshold_does_not_reroute() {
        let cfg = FlowBenderCfg {
            ecn_threshold: 0.5,
            window_acks: 10,
        };
        let mut lb = FlowBender::new(cfg);
        let mut rng = SimRng::new(9);
        let p = lb.select_path(&ctx(1), &CANDS, Time::ZERO, &mut rng);
        // 3 of 10 marked < 50%.
        for i in 0..10 {
            lb.on_ack(&ctx(1), p, None, i < 3, 1460, Time::ZERO);
        }
        assert_eq!(lb.select_path(&ctx(1), &CANDS, Time::ZERO, &mut rng), p);
    }

    #[test]
    fn sustained_streaks_keep_bouncing_window_after_window() {
        // FlowBender under persistent congestion is *restless*: every
        // completed window of marked ACKs re-hashes again — it never
        // settles while the marks keep coming.
        let mut lb = FlowBender::new(FlowBenderCfg::default());
        let mut rng = SimRng::new(21);
        let mut path = lb.select_path(&ctx(1), &CANDS, Time::ZERO, &mut rng);
        let mut bounces = 0;
        for _ in 0..8 {
            for _ in 0..16 {
                lb.on_ack(&ctx(1), path, None, true, 1460, Time::ZERO);
            }
            let next = lb.select_path(&ctx(1), &CANDS, Time::ZERO, &mut rng);
            assert_ne!(next, path, "a fully-marked window must bounce the flow");
            path = next;
            bounces += 1;
        }
        assert_eq!(bounces, 8);
    }

    #[test]
    fn window_boundary_resets_the_mark_count() {
        // Marks do not accumulate across windows: 8 marked ACKs in one
        // window then 8 in the next (threshold 60% of a 16-ACK window)
        // never reaches the threshold, even though 16 total marks
        // arrived.
        let cfg = FlowBenderCfg {
            ecn_threshold: 0.6,
            window_acks: 16,
        };
        let mut lb = FlowBender::new(cfg);
        let mut rng = SimRng::new(22);
        let p = lb.select_path(&ctx(1), &CANDS, Time::ZERO, &mut rng);
        for window in 0..2 {
            let _ = window;
            for i in 0..16 {
                lb.on_ack(&ctx(1), p, None, i < 8, 1460, Time::ZERO);
            }
            assert_eq!(
                lb.select_path(&ctx(1), &CANDS, Time::ZERO, &mut rng),
                p,
                "50% marks under a 60% threshold must not reroute"
            );
        }
    }

    #[test]
    fn rehash_avoids_the_current_path_when_alternatives_exist() {
        // Every trigger over many trials lands on a *different* path
        // than the one the flow was on — the re-hash excludes the
        // current path whenever others are live.
        let mut lb = FlowBender::new(FlowBenderCfg::default());
        let mut rng = SimRng::new(23);
        let mut path = lb.select_path(&ctx(1), &CANDS, Time::ZERO, &mut rng);
        for _ in 0..64 {
            lb.on_timeout(&ctx(1), path, Time::ZERO);
            let next = lb.select_path(&ctx(1), &CANDS, Time::ZERO, &mut rng);
            assert_ne!(next, path);
            path = next;
        }
    }

    #[test]
    fn dead_path_forces_rehash_onto_survivors() {
        let mut lb = FlowBender::new(FlowBenderCfg::default());
        let mut rng = SimRng::new(24);
        let p = lb.select_path(&ctx(1), &CANDS, Time::ZERO, &mut rng);
        // The flow's path disappears from the candidate set (link cut):
        // the next selection must move to a surviving path unprompted.
        let survivors: Vec<PathId> = CANDS.iter().copied().filter(|&c| c != p).collect();
        let q = lb.select_path(&ctx(1), &survivors, Time::ZERO, &mut rng);
        assert!(survivors.contains(&q));
    }

    #[test]
    fn telemetry_bounce_records_fire_on_rehash_only() {
        use hermes_telemetry::{Record, RerouteVerdict};
        hermes_telemetry::install(hermes_telemetry::SinkConfig::default());
        let mut lb = FlowBender::new(FlowBenderCfg::default());
        let mut rng = SimRng::new(9);
        // Initial blind pick: no reroute record.
        let p = lb.select_path(&ctx(1), &CANDS, Time::ZERO, &mut rng);
        assert!(hermes_telemetry::drain().is_empty());
        // A fully marked window bounces the flow: exactly one record.
        for _ in 0..16 {
            lb.on_ack(&ctx(1), p, None, true, 1460, Time::ZERO);
        }
        let q = lb.select_path(&ctx(1), &CANDS, Time::from_us(7), &mut rng);
        let evs = hermes_telemetry::drain();
        assert_eq!(evs.len(), 1);
        assert_eq!(
            evs[0].record,
            Record::Reroute {
                flow: 1,
                dst_leaf: 1,
                from_path: i64::from(p.0),
                to_path: i64::from(q.0),
                verdict: RerouteVerdict::Bounce,
            }
        );
        assert_eq!(evs[0].at, Time::from_us(7));
        hermes_telemetry::uninstall();
    }

    #[test]
    fn timeout_triggers_reroute() {
        let mut lb = FlowBender::new(FlowBenderCfg::default());
        let mut rng = SimRng::new(9);
        let p = lb.select_path(&ctx(1), &CANDS, Time::ZERO, &mut rng);
        lb.on_timeout(&ctx(1), p, Time::from_ms(10));
        let q = lb.select_path(&ctx(1), &CANDS, Time::ZERO, &mut rng);
        assert_ne!(p, q);
    }
}
