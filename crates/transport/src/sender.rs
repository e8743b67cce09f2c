//! The sender state machine: TCP NewReno with the DCTCP extension.
//!
//! The sender is a pure state machine — it performs no I/O and sets no
//! timers itself. Every input (`start`, `on_ack`, `on_rto`) appends
//! [`SendAction`]s to a caller-provided buffer; the runtime turns those
//! into packets on the fabric and timer events on the queue. This keeps
//! the window arithmetic unit-testable without a network.
//!
//! Implemented behaviour:
//! * slow start / congestion avoidance with byte-counted increase,
//! * fast retransmit + NewReno fast recovery (partial-ACK hole repair,
//!   window inflation/deflation),
//! * RTO with exponential backoff and go-back-N resend,
//! * DCTCP: per-window ECN fraction `F`, `α ← (1−g)α + g·F`, and a
//!   single multiplicative reduction `cwnd ← cwnd(1 − α/2)` per marked
//!   window (§5.1 of the paper; Alizadeh et al. 2010),
//! * Karn-compliant RTT estimation (the runtime only feeds RTT samples
//!   from unretransmitted segments, via the fabric's timestamp echo).

use hermes_sim::Time;

use crate::config::TransportCfg;

/// RFC 6298 clock granularity `G`: the floor on the RTO variance term
/// `max(G, 4·RTTVAR)`. The simulation clock ticks in whole nanoseconds
/// ([`Time`] is integer ns), so G is one tick — the finest granularity
/// the RFC's formula is defined over here, and exactly enough that a
/// perfectly stable RTT (integer truncation drives rttvar to 0) never
/// yields `rto == srtt`.
const RTO_GRANULARITY: Time = Time::from_ns(1);

/// An instruction from the sender to the runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendAction {
    /// Transmit payload bytes `[seq, seq+len)`. `retx` is true when any
    /// part of the range was previously transmitted.
    Tx { seq: u64, len: u32, retx: bool },
    /// (Re)arm the retransmission timer for this absolute deadline,
    /// replacing any previously armed deadline.
    ArmRto { deadline: Time },
    /// Cancel the retransmission timer.
    DisarmRto,
    /// Every payload byte has been cumulatively acknowledged.
    FullyAcked,
}

/// Sender-side counters exposed for load balancers and metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct SenderStats {
    /// Segments retransmitted (fast retransmit + RTO + go-back-N).
    pub retx_segments: u64,
    /// Fast retransmits triggered by duplicate ACKs.
    pub fast_retx: u64,
    /// RTO expirations.
    pub timeouts: u64,
    /// Fast-recovery episodes detected as spurious (reordering) and
    /// undone.
    pub spurious_retx: u64,
    /// Total data segments handed to the fabric (incl. retransmissions).
    pub segments_sent: u64,
}

/// One flow's sender.
pub struct Sender {
    cfg: TransportCfg,
    /// Total payload bytes to deliver.
    size: u64,
    snd_una: u64,
    snd_nxt: u64,
    /// Highest byte ever transmitted (for marking go-back-N resends).
    max_sent: u64,
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    /// NewReno fast-recovery marker: in recovery until `ack > recover`.
    recover: Option<u64>,
    // --- Reordering resilience (Linux-style) ---
    /// Current duplicate-ACK threshold; starts at the configured value
    /// and grows when fast retransmits turn out to be spurious
    /// (reordering, not loss) — mirroring Linux's `tcp_reordering`
    /// adaptation.
    dyn_dupthresh: u32,
    /// Window state saved at fast-recovery entry, for spurious-recovery
    /// undo (the DSACK/Eifel behaviour of real stacks).
    prior_cwnd: f64,
    prior_ssthresh: f64,
    recovery_start: Time,
    episode_retx: u32,
    // --- DCTCP ---
    alpha: f64,
    win_acked: u64,
    win_marked: u64,
    win_end: u64,
    // --- RTT / RTO ---
    srtt: Option<Time>,
    rttvar: Time,
    rto: Time,
    backoff: u32,
    finished: bool,
    /// Telemetry label (the runtime's flow id); 0 until assigned. Only
    /// read when emitting trace records — never drives transport logic.
    label: u64,
    pub stats: SenderStats,
}

impl Sender {
    /// A sender for a flow of `size` payload bytes.
    pub fn new(cfg: TransportCfg, size: u64) -> Sender {
        assert!(size > 0, "zero-byte flow");
        let cwnd = (cfg.init_cwnd as u64 * cfg.mss as u64) as f64;
        Sender {
            cfg,
            size,
            snd_una: 0,
            snd_nxt: 0,
            max_sent: 0,
            cwnd,
            ssthresh: f64::INFINITY,
            dup_acks: 0,
            recover: None,
            dyn_dupthresh: cfg.dupack_thresh,
            prior_cwnd: 0.0,
            prior_ssthresh: 0.0,
            recovery_start: Time::ZERO,
            episode_retx: 0,
            alpha: 0.0,
            win_acked: 0,
            win_marked: 0,
            win_end: 0,
            srtt: None,
            rttvar: Time::ZERO,
            rto: cfg.min_rto,
            backoff: 0,
            finished: false,
            label: 0,
            stats: SenderStats::default(),
        }
    }

    /// Attach the flow id used to label this sender's trace records.
    pub fn set_label(&mut self, label: u64) {
        self.label = label;
    }

    /// Telemetry: emit a window/α/RTO snapshot.
    #[inline]
    fn trace_cwnd(&self, now: Time) {
        let (flow, cwnd, alpha) = (self.label, self.cwnd, self.alpha);
        let rto_ns = self.current_rto().as_ns();
        hermes_telemetry::emit_with(now, || hermes_telemetry::Record::CwndUpdate {
            flow,
            cwnd,
            alpha,
            rto_ns,
        });
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cwnd as u64
    }

    /// Current DCTCP α estimate.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Smoothed RTT, if measured.
    pub fn srtt(&self) -> Option<Time> {
        self.srtt
    }

    /// The current (adaptive) duplicate-ACK threshold.
    pub fn dupack_threshold(&self) -> u32 {
        self.dyn_dupthresh
    }

    /// Payload bytes handed to the fabric so far, retransmissions
    /// included (the paper's `s_sent`).
    pub fn bytes_sent(&self) -> u64 {
        self.stats.segments_sent * self.cfg.mss as u64
    }

    /// Bytes in flight (sent and not cumulatively acknowledged).
    pub fn in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Whether every byte has been cumulatively acknowledged.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Flow size in payload bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Begin transmitting. Emits the initial window and arms the RTO.
    pub fn start(&mut self, now: Time, out: &mut Vec<SendAction>) {
        debug_assert_eq!(self.snd_nxt, 0, "start() called twice");
        self.win_end = 0; // first rollover happens at first ACK
        self.send_window(out);
        out.push(SendAction::ArmRto {
            deadline: now + self.current_rto(),
        });
    }

    /// Process a cumulative ACK.
    ///
    /// * `ack` — next byte expected by the receiver.
    /// * `ecn_echo` — CE echo for the triggering data packet.
    /// * `rtt` — RTT sample, present only for unretransmitted triggers.
    pub fn on_ack(
        &mut self,
        ack: u64,
        ecn_echo: bool,
        rtt: Option<Time>,
        now: Time,
        out: &mut Vec<SendAction>,
    ) {
        if self.finished {
            return;
        }
        if let Some(sample) = rtt {
            self.update_rtt(sample);
        }
        if ack > self.snd_una {
            self.on_new_ack(ack, ecn_echo, now, out);
        } else {
            self.on_dup_ack(ecn_echo, now, out);
        }
    }

    fn on_new_ack(&mut self, ack: u64, ecn_echo: bool, now: Time, out: &mut Vec<SendAction>) {
        let delta = ack - self.snd_una;
        self.snd_una = ack;
        // A spurious RTO rewinds snd_nxt (go-back-N); a late ACK for the
        // original transmission can then overtake it. The ACKed data
        // needs no resend, so resume from the ACK point.
        self.snd_nxt = self.snd_nxt.max(self.snd_una);
        self.backoff = 0;
        // DCTCP per-window mark accounting (bytes, as in the DCTCP paper).
        self.win_acked += delta;
        if ecn_echo {
            self.win_marked += delta;
        }
        match self.recover {
            // RFC 6582: exit recovery once the ACK covers `recover`;
            // anything short of it is a partial ACK.
            Some(rec) if ack < rec => {
                // Partial ACK: repair the next hole, deflate the window.
                let len = self.segment_len_at(self.snd_una);
                if len > 0 {
                    self.stats.retx_segments += 1;
                    self.stats.segments_sent += 1;
                    self.episode_retx += 1;
                    out.push(SendAction::Tx {
                        seq: self.snd_una,
                        len,
                        retx: true,
                    });
                }
                self.cwnd =
                    (self.cwnd - delta as f64 + self.cfg.mss as f64).max(self.cfg.mss as f64);
            }
            Some(_) => {
                // Recovery complete. If it completed within a fraction
                // of an RTT after a single retransmission, the "loss"
                // was reordering: the original packet arrived and filled
                // the hole before our retransmission could have. Undo
                // the window reduction (as Linux does on DSACK/Eifel
                // detection) and raise the dupACK threshold.
                let spurious = self.episode_retx <= 1
                    && self.srtt.is_some_and(|rtt| {
                        now.saturating_sub(self.recovery_start) < rtt.mul_f64(0.75)
                    });
                self.recover = None;
                self.dup_acks = 0;
                if spurious {
                    self.cwnd = self.prior_cwnd.max(self.cfg.mss as f64);
                    self.ssthresh = self.prior_ssthresh;
                    self.dyn_dupthresh =
                        (self.dyn_dupthresh + 2).min(16.max(self.cfg.dupack_thresh));
                    self.stats.spurious_retx += 1;
                } else {
                    self.cwnd = self.ssthresh.max(self.cfg.mss as f64);
                }
            }
            None => {
                self.dup_acks = 0;
                let mss = self.cfg.mss as f64;
                if self.cwnd < self.ssthresh {
                    // Slow start: byte-counted exponential growth.
                    self.cwnd += (delta.min(self.cfg.mss as u64)) as f64;
                } else {
                    // Congestion avoidance: +MSS per window.
                    self.cwnd += mss * delta as f64 / self.cwnd;
                }
                self.cwnd = self.cwnd.min(self.cfg.max_cwnd as f64);
            }
        }
        // DCTCP window rollover.
        if self.snd_una >= self.win_end {
            let f = if self.win_acked > 0 {
                self.win_marked as f64 / self.win_acked as f64
            } else {
                0.0
            };
            self.alpha = (1.0 - self.cfg.dctcp_g) * self.alpha + self.cfg.dctcp_g * f;
            if self.cfg.ecn && self.win_marked > 0 && self.recover.is_none() {
                self.cwnd = (self.cwnd * (1.0 - self.alpha / 2.0)).max(self.cfg.mss as f64);
                self.ssthresh = self.cwnd;
            }
            self.win_acked = 0;
            self.win_marked = 0;
            self.win_end = self.snd_nxt.max(self.snd_una + 1);
            if hermes_telemetry::enabled() {
                // One snapshot per DCTCP observation window: α just
                // rolled, and the window may have been cut.
                self.trace_cwnd(now);
            }
        }
        if self.snd_una >= self.size {
            self.finished = true;
            out.push(SendAction::DisarmRto);
            out.push(SendAction::FullyAcked);
            return;
        }
        self.send_window(out);
        out.push(SendAction::ArmRto {
            deadline: now + self.current_rto(),
        });
    }

    fn on_dup_ack(&mut self, _ecn_echo: bool, now: Time, out: &mut Vec<SendAction>) {
        if self.snd_nxt == self.snd_una {
            return; // nothing outstanding: stale duplicate
        }
        self.dup_acks += 1;
        let mss = self.cfg.mss as f64;
        if self.recover.is_some() {
            // Window inflation per additional duplicate.
            self.cwnd = (self.cwnd + mss).min(self.cfg.max_cwnd as f64 + 3.0 * mss);
            self.send_window(out);
        } else if self.dup_acks == self.dyn_dupthresh {
            // Fast retransmit.
            self.prior_cwnd = self.cwnd;
            self.prior_ssthresh = self.ssthresh;
            self.recovery_start = now;
            self.episode_retx = 1;
            self.ssthresh = (self.cwnd / 2.0).max(2.0 * mss);
            self.recover = Some(self.snd_nxt);
            let len = self.segment_len_at(self.snd_una);
            self.stats.retx_segments += 1;
            self.stats.fast_retx += 1;
            self.stats.segments_sent += 1;
            out.push(SendAction::Tx {
                seq: self.snd_una,
                len,
                retx: true,
            });
            self.cwnd = self.ssthresh + 3.0 * mss;
            out.push(SendAction::ArmRto {
                deadline: now + self.current_rto(),
            });
        } else if self.dup_acks > self.dyn_dupthresh {
            self.cwnd = (self.cwnd + mss).min(self.cfg.max_cwnd as f64 + 3.0 * mss);
            self.send_window(out);
        }
    }

    /// The retransmission timer fired.
    pub fn on_rto(&mut self, now: Time, out: &mut Vec<SendAction>) {
        if self.finished {
            return;
        }
        debug_assert!(self.snd_nxt > self.snd_una, "RTO with nothing outstanding");
        self.stats.timeouts += 1;
        let mss = self.cfg.mss as f64;
        self.ssthresh = (self.cwnd / 2.0).max(2.0 * mss);
        self.cwnd = mss;
        self.recover = None;
        self.dup_acks = 0;
        // Go-back-N: resume from the first unacknowledged byte. Segments
        // up to max_sent are retransmissions.
        self.snd_nxt = self.snd_una;
        self.win_acked = 0;
        self.win_marked = 0;
        self.win_end = self.snd_una + 1;
        self.backoff = (self.backoff + 1).min(10);
        if hermes_telemetry::enabled() {
            // Window collapsed to one MSS and the RTO backed off.
            self.trace_cwnd(now);
        }
        let len = self.segment_len_at(self.snd_una);
        if len > 0 {
            self.stats.retx_segments += 1;
            self.stats.segments_sent += 1;
            self.snd_nxt = self.snd_una + len as u64;
            out.push(SendAction::Tx {
                seq: self.snd_una,
                len,
                retx: true,
            });
        }
        out.push(SendAction::ArmRto {
            deadline: now + self.current_rto(),
        });
    }

    /// Effective RTO including backoff.
    fn current_rto(&self) -> Time {
        let base = self.rto.max(self.cfg.min_rto);
        let backed = base * (1u64 << self.backoff.min(10));
        backed.min(self.cfg.max_rto)
    }

    fn update_rtt(&mut self, sample: Time) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                // Jacobson/Karels, RFC 6298 coefficients.
                let err = if sample > srtt {
                    sample - srtt
                } else {
                    srtt - sample
                };
                self.rttvar = Time::from_ns((self.rttvar.as_ns() * 3 + err.as_ns()) / 4);
                self.srtt = Some(Time::from_ns((srtt.as_ns() * 7 + sample.as_ns()) / 8));
            }
        }
        let srtt = self.srtt.expect("both arms above set srtt");
        // RFC 6298 §2.3: RTO = SRTT + max(G, 4·RTTVAR). Perfectly stable
        // RTTs drive rttvar to zero; without the clock-granularity floor
        // the timer would collapse onto srtt itself and fire on the very
        // next on-time ACK.
        let var_term = (self.rttvar * 4).max(RTO_GRANULARITY);
        self.rto = (srtt + var_term).clamp(self.cfg.min_rto, self.cfg.max_rto);
    }

    /// Length of the segment starting at `seq` (full MSS, flow tail, or
    /// zero when `seq` is at/past the end — a spurious-RTO rewind racing
    /// a late cumulative ACK can ask about such a seq).
    fn segment_len_at(&self, seq: u64) -> u32 {
        (self.size.saturating_sub(seq).min(self.cfg.mss as u64)) as u32
    }

    /// Emit new segments while the window allows.
    fn send_window(&mut self, out: &mut Vec<SendAction>) {
        while self.snd_nxt < self.size {
            let inflight = self.snd_nxt - self.snd_una;
            if inflight >= self.cwnd as u64 {
                break;
            }
            let len = self.segment_len_at(self.snd_nxt);
            if len == 0 {
                break; // nothing left to cut a segment from
            }
            let retx = self.snd_nxt < self.max_sent;
            if retx {
                self.stats.retx_segments += 1;
            }
            self.stats.segments_sent += 1;
            out.push(SendAction::Tx {
                seq: self.snd_nxt,
                len,
                retx,
            });
            self.snd_nxt += len as u64;
            self.max_sent = self.max_sent.max(self.snd_nxt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u64 = 1460;

    fn sender(size: u64) -> Sender {
        Sender::new(TransportCfg::dctcp(), size)
    }

    fn txs(actions: &[SendAction]) -> Vec<(u64, u32, bool)> {
        actions
            .iter()
            .filter_map(|a| match a {
                SendAction::Tx { seq, len, retx } => Some((*seq, *len, *retx)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn start_sends_initial_window() {
        let mut s = sender(100 * MSS);
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        let t = txs(&out);
        assert_eq!(t.len(), 10, "IW = 10 segments");
        for (i, (seq, len, retx)) in t.iter().enumerate() {
            assert_eq!(*seq, i as u64 * MSS);
            assert_eq!(*len as u64, MSS);
            assert!(!retx);
        }
        assert!(matches!(out.last(), Some(SendAction::ArmRto { .. })));
    }

    #[test]
    fn small_flow_sends_exact_tail() {
        let mut s = sender(2000);
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        let t = txs(&out);
        assert_eq!(t.len(), 2);
        assert_eq!(t[0], (0, 1460, false));
        assert_eq!(t[1], (1460, 540, false));
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = sender(10_000 * MSS);
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        let w0 = s.cwnd();
        // ACK the whole initial window, one ACK per segment.
        for i in 1..=10u64 {
            out.clear();
            s.on_ack(
                i * MSS,
                false,
                Some(Time::from_us(60)),
                Time::from_us(60),
                &mut out,
            );
        }
        assert_eq!(s.cwnd(), w0 * 2, "slow start doubles after one window");
    }

    #[test]
    fn congestion_avoidance_is_linear() {
        let mut s = sender(10_000 * MSS);
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        // Force CA by setting ssthresh below cwnd via a fake loss episode.
        s.ssthresh = s.cwnd;
        let w0 = s.cwnd();
        for i in 1..=10u64 {
            out.clear();
            s.on_ack(i * MSS, false, None, Time::from_us(60), &mut out);
        }
        let grown = s.cwnd() - w0;
        // +≈MSS per window (a bit less, since the divisor grows as cwnd
        // grows ~10% over the window).
        assert!(
            (grown as i64 - MSS as i64).unsigned_abs() <= 100,
            "CA grew {grown} bytes in one window, expected ≈{MSS}"
        );
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let mut s = sender(100 * MSS);
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        out.clear();
        // Segment 0 lost; ACKs for later segments are duplicates of 0.
        s.on_ack(0, false, None, Time::from_us(100), &mut out);
        s.on_ack(0, false, None, Time::from_us(101), &mut out);
        assert!(txs(&out).is_empty(), "below threshold: no retransmit");
        s.on_ack(0, false, None, Time::from_us(102), &mut out);
        let t = txs(&out);
        assert_eq!(t, vec![(0, 1460, true)]);
        assert_eq!(s.stats.fast_retx, 1);
        // Recovery exit restores ssthresh.
        out.clear();
        s.on_ack(10 * MSS, false, None, Time::from_us(200), &mut out);
        assert!(s.recover.is_none());
    }

    #[test]
    fn partial_ack_repairs_next_hole() {
        let mut s = sender(100 * MSS);
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        out.clear();
        for _ in 0..3 {
            s.on_ack(0, false, None, Time::from_us(100), &mut out);
        }
        assert_eq!(txs(&out), vec![(0, 1460, true)]);
        out.clear();
        // Partial ACK up to 2*MSS (< recover point 10*MSS): hole at 2*MSS.
        s.on_ack(2 * MSS, false, None, Time::from_us(150), &mut out);
        let t = txs(&out);
        assert_eq!(t, vec![(2 * MSS, 1460, true)]);
        assert!(s.recover.is_some(), "still in recovery");
    }

    #[test]
    fn rto_backs_off_and_goes_back_n() {
        let mut s = sender(100 * MSS);
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        out.clear();
        s.on_rto(Time::from_ms(10), &mut out);
        assert_eq!(txs(&out), vec![(0, 1460, true)]);
        assert_eq!(s.cwnd(), MSS);
        assert_eq!(s.stats.timeouts, 1);
        let d1 = match out.last() {
            Some(SendAction::ArmRto { deadline }) => *deadline,
            _ => panic!("no rearm"),
        };
        // Second RTO doubles the deadline offset.
        out.clear();
        s.on_rto(d1, &mut out);
        let d2 = match out.last() {
            Some(SendAction::ArmRto { deadline }) => *deadline,
            _ => panic!("no rearm"),
        };
        assert_eq!(
            (d2 - d1).as_ns(),
            2 * (d1 - Time::from_ms(10)).as_ns(),
            "exponential backoff"
        );
        // ACK progress after RTO resends the rest as retransmissions.
        out.clear();
        s.on_ack(MSS, false, None, d2, &mut out);
        let t = txs(&out);
        assert!(!t.is_empty());
        assert!(t.iter().all(|(_, _, retx)| *retx), "go-back-N marks retx");
    }

    #[test]
    fn rto_backoff_saturates_at_max_rto() {
        let mut s = sender(100 * MSS);
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        // Fire timeouts back to back and track the armed offsets: they
        // double up to max_rto and then stay pinned there — never
        // beyond, no overflow after many expirations.
        let max_rto = s.cfg.max_rto;
        let mut at = Time::from_ms(10);
        let mut offsets = Vec::new();
        for _ in 0..12 {
            out.clear();
            s.on_rto(at, &mut out);
            let Some(SendAction::ArmRto { deadline }) = out.last() else {
                panic!("RTO must rearm");
            };
            offsets.push(*deadline - at);
            at = *deadline;
        }
        for w in offsets.windows(2) {
            if w[0] < max_rto {
                assert!(
                    w[1] == max_rto.min(w[0] * 2),
                    "backoff must double toward the cap: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        }
        assert_eq!(*offsets.last().expect("nonempty"), max_rto);
        assert!(
            offsets.iter().filter(|&&o| o == max_rto).count() >= 2,
            "the cap must hold across repeated expirations: {offsets:?}"
        );
    }

    #[test]
    fn fast_retransmit_beats_the_rto_clock() {
        // The point of dup-ACK recovery: the hole is repaired well
        // before the armed RTO deadline, without any timeout firing or
        // backoff accruing.
        let mut s = sender(100 * MSS);
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        let Some(SendAction::ArmRto { deadline }) = out.last().copied() else {
            panic!("start must arm an RTO");
        };
        out.clear();
        // Three duplicate ACKs arrive a few µs in — far inside the
        // min-RTO window.
        let t_dup = Time::from_us(100);
        assert!(t_dup + Time::from_us(2) < deadline);
        for i in 0..3u64 {
            s.on_ack(0, false, None, t_dup + Time::from_us(i), &mut out);
        }
        assert_eq!(txs(&out), vec![(0, 1460, true)]);
        assert_eq!(s.stats.fast_retx, 1);
        assert_eq!(s.stats.timeouts, 0, "no RTO may fire");
        assert_eq!(s.backoff, 0, "dup-ACK recovery must not back off the RTO");
    }

    #[test]
    fn alpha_converges_to_the_marking_fraction() {
        // DCTCP's estimator: with a fixed fraction F of each window
        // marked, α converges geometrically to F (gain g = 1/16).
        // Mark every 4th ACK → F = 0.25 per rolled-over window.
        let mut s = sender(1_000_000 * MSS);
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        s.ssthresh = s.cwnd; // congestion avoidance
        let mut ack = 0u64;
        for i in 0..4_000u64 {
            ack += MSS;
            out.clear();
            s.on_ack(ack, i % 4 == 0, None, Time::from_us(60), &mut out);
        }
        let f = 0.25;
        assert!(
            (s.alpha() - f).abs() < 0.1,
            "alpha {} must converge near the marking fraction {f}",
            s.alpha()
        );
        // And the same estimator driven at F = 1/2 lands higher.
        let mut s2 = sender(1_000_000 * MSS);
        out.clear();
        s2.start(Time::ZERO, &mut out);
        s2.ssthresh = s2.cwnd;
        let mut ack2 = 0u64;
        for i in 0..4_000u64 {
            ack2 += MSS;
            out.clear();
            s2.on_ack(ack2, i % 2 == 0, None, Time::from_us(60), &mut out);
        }
        assert!(
            s2.alpha() > s.alpha() + 0.1,
            "estimator must order marking fractions: {} vs {}",
            s2.alpha(),
            s.alpha()
        );
    }

    #[test]
    fn dctcp_reduces_under_persistent_marking() {
        let mut s = sender(100_000 * MSS);
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        s.ssthresh = s.cwnd; // start in CA
        let w0 = s.cwnd();
        // Every ACK marked: F = 1 every window, so α → 1 and the
        // per-window halving dominates the +MSS/window CA growth.
        let mut ack = 0u64;
        for _ in 0..300 {
            ack += MSS;
            out.clear();
            s.on_ack(ack, true, None, Time::from_us(60), &mut out);
        }
        assert!(
            s.alpha() > 0.5,
            "alpha {} must converge toward 1",
            s.alpha()
        );
        assert!(
            s.cwnd() < w0 / 2,
            "persistently marked flow must shrink: {} vs {w0}",
            s.cwnd()
        );
        assert!(s.cwnd() >= MSS);
    }

    #[test]
    fn dctcp_alpha_tracks_single_marked_window() {
        let mut s = sender(10_000 * MSS);
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        // First ACK marked: the first (degenerate) window rolls over with
        // F = 1, so α = g·1 = 1/16 exactly.
        out.clear();
        s.on_ack(MSS, true, None, Time::from_us(60), &mut out);
        assert!((s.alpha() - 1.0 / 16.0).abs() < 1e-9, "alpha {}", s.alpha());
    }

    #[test]
    fn telemetry_snapshots_window_rollover_and_rto() {
        use hermes_telemetry::Record;
        hermes_telemetry::install(hermes_telemetry::SinkConfig::default());
        let mut s = sender(10_000 * MSS);
        s.set_label(42);
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        // Marked first ACK rolls the degenerate first window: α = 1/16.
        s.on_ack(MSS, true, None, Time::from_us(60), &mut out);
        let evs: Vec<_> = hermes_telemetry::drain();
        let cw: Vec<_> = evs
            .iter()
            .filter_map(|e| match e.record {
                Record::CwndUpdate {
                    flow, alpha, cwnd, ..
                } => Some((flow, alpha, cwnd)),
                _ => None,
            })
            .collect();
        assert_eq!(cw.len(), 1, "one snapshot per window rollover: {evs:?}");
        assert_eq!(cw[0].0, 42, "labelled with the flow id");
        assert!((cw[0].1 - 1.0 / 16.0).abs() < 1e-9);
        // RTO: window collapses to one MSS, snapshot carries backoff.
        s.on_rto(Time::from_ms(10), &mut out);
        let rto_snap: Vec<_> = hermes_telemetry::drain()
            .into_iter()
            .filter_map(|e| match e.record {
                Record::CwndUpdate { flow, cwnd, .. } => Some((flow, cwnd)),
                _ => None,
            })
            .collect();
        assert_eq!(rto_snap, vec![(42, MSS as f64)]);
        hermes_telemetry::uninstall();
    }

    #[test]
    fn alpha_decays_when_unmarked() {
        let mut s = sender(10_000 * MSS);
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        s.alpha = 0.5;
        for i in 1..=10u64 {
            out.clear();
            s.on_ack(i * MSS, false, None, Time::from_us(60), &mut out);
        }
        assert!(s.alpha() < 0.5, "alpha must decay toward 0 without marks");
    }

    #[test]
    fn plain_tcp_ignores_ecn_echo() {
        let mut s = Sender::new(TransportCfg::tcp(), 10_000 * MSS);
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        s.ssthresh = s.cwnd;
        let w0 = s.cwnd();
        for i in 1..=10u64 {
            out.clear();
            s.on_ack(i * MSS, true, None, Time::from_us(60), &mut out);
        }
        assert!(s.cwnd() >= w0, "NewReno must not shrink on ECN echo");
    }

    #[test]
    fn finishes_and_disarms() {
        let mut s = sender(3000);
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        out.clear();
        s.on_ack(
            3000,
            false,
            Some(Time::from_us(50)),
            Time::from_us(50),
            &mut out,
        );
        assert!(s.finished());
        assert!(out.contains(&SendAction::DisarmRto));
        assert!(out.contains(&SendAction::FullyAcked));
        // Further inputs are ignored.
        out.clear();
        s.on_ack(3000, false, None, Time::from_us(60), &mut out);
        s.on_rto(Time::from_ms(20), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn rtt_estimator_converges_and_bounds_rto() {
        let mut s = sender(10_000 * MSS);
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        for i in 1..=100u64 {
            out.clear();
            s.on_ack(
                i * MSS,
                false,
                Some(Time::from_us(100)),
                Time::from_us(100),
                &mut out,
            );
        }
        let srtt = s.srtt().unwrap();
        assert!((srtt.as_us() as i64 - 100).abs() <= 2, "srtt {srtt}");
        // RTO floors at min_rto even for tiny RTTs.
        assert!(s.current_rto() >= TransportCfg::dctcp().min_rto);
    }

    #[test]
    fn window_never_exceeds_cap_or_drops_below_mss() {
        let mut cfg = TransportCfg::dctcp();
        cfg.max_cwnd = 20 * 1460;
        let mut s = Sender::new(cfg, 10_000 * MSS);
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        for i in 1..=200u64 {
            out.clear();
            s.on_ack(i * MSS, false, None, Time::from_us(60), &mut out);
            assert!(s.cwnd() <= cfg.max_cwnd);
        }
        out.clear();
        s.on_rto(Time::from_ms(50), &mut out);
        assert!(s.cwnd() >= MSS);
    }

    #[test]
    fn dupacks_with_nothing_outstanding_are_ignored() {
        let mut s = sender(1460);
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        out.clear();
        s.on_ack(1460, false, None, Time::from_us(60), &mut out);
        assert!(s.finished());
    }

    #[test]
    fn segment_len_clamps_at_and_past_flow_end() {
        // Regression: `size - seq` underflowed (debug panic / wrap in
        // release) when asked about a seq at or beyond the flow end.
        let s = sender(10 * MSS);
        assert_eq!(s.segment_len_at(0) as u64, MSS);
        assert_eq!(s.segment_len_at(10 * MSS - 100), 100);
        assert_eq!(s.segment_len_at(10 * MSS), 0, "at end: zero, not underflow");
        assert_eq!(s.segment_len_at(10 * MSS + 3 * MSS), 0, "past end: zero");
    }

    #[test]
    fn stable_rtt_never_collapses_rto_onto_srtt() {
        // RFC 6298 §2.3: a long run of identical RTT samples decays
        // rttvar to zero; the granularity floor G must keep the timer
        // strictly above srtt or every on-time ACK races the RTO.
        // min_rto = 0 exposes the raw estimator (the default 10ms floor
        // would mask the collapse).
        let mut cfg = TransportCfg::dctcp();
        cfg.min_rto = Time::ZERO;
        let mut s = Sender::new(cfg, 10_000 * MSS);
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        let rtt = Time::from_us(100);
        for i in 1..=1_000u64 {
            out.clear();
            s.on_ack(i * MSS, false, Some(rtt), Time::from_us(100) * i, &mut out);
            let srtt = s.srtt().expect("sample fed");
            assert!(s.rto > srtt, "rto {} collapsed onto srtt {srtt}", s.rto);
        }
        // rttvar is fully decayed by now: only the granularity floor
        // separates the timer from the estimate.
        let srtt = s.srtt().expect("sample fed");
        assert_eq!(srtt, rtt);
        assert_eq!(s.rttvar, Time::ZERO, "truncation decays rttvar to zero");
        assert!(s.rto >= srtt + Time::from_ns(1));
    }

    #[test]
    fn high_dupack_threshold_masks_reordering() {
        let mut cfg = TransportCfg::dctcp();
        cfg.dupack_thresh = 500; // the paper's §2.2.2 setting
        let mut s = Sender::new(cfg, 100 * MSS);
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        out.clear();
        for _ in 0..50 {
            s.on_ack(0, false, None, Time::from_us(100), &mut out);
        }
        assert!(
            txs(&out).iter().all(|(seq, _, _)| *seq != 0),
            "no spurious fast retransmit below threshold"
        );
        assert_eq!(s.stats.fast_retx, 0);
    }
}
