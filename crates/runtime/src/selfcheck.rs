//! Determinism self-check: run a scenario twice from the same seed and
//! demand bit-identical behavior.
//!
//! A [`RunFingerprint`] condenses one run into the rolling event-trace
//! digest, the event count, the per-flow completion times, and the
//! packet-conservation report. [`assert_deterministic`] builds and runs
//! the same scenario twice and panics with a precise diff if any of
//! those disagree — the cheapest possible detector for nondeterminism
//! creeping in via map iteration order, uninitialized state, or
//! wall-clock leakage.

use hermes_net::ConservationReport;
use hermes_sim::Time;

use crate::sim::Simulation;

/// Everything that must be identical between two same-seed runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunFingerprint {
    /// Rolling FNV digest of the full event trace.
    pub digest: u64,
    /// Number of events dispatched.
    pub events: u64,
    /// `(flow id, completion time)` per scheduled flow, in record order.
    pub fcts: Vec<(u64, Option<Time>)>,
    /// Packet accounting at the end of the run.
    pub conservation: ConservationReport,
    /// Past-time schedules the event queue clamped to `now` (release
    /// builds). Must be 0: a nonzero count is a causality violation that
    /// release builds would otherwise paper over silently.
    pub queue_clamps: u64,
}

impl RunFingerprint {
    /// Panic with a precise diff unless `self` and `other` describe
    /// indistinguishable runs.
    pub fn assert_matches(&self, other: &RunFingerprint) {
        assert_eq!(
            self.events, other.events,
            "same-seed runs dispatched different event counts"
        );
        assert_eq!(
            self.fcts, other.fcts,
            "same-seed runs produced different FCTs"
        );
        assert_eq!(
            self.digest, other.digest,
            "same-seed runs diverged: event traces differ"
        );
        assert_eq!(
            self.conservation, other.conservation,
            "same-seed runs accounted packets differently"
        );
        assert_eq!(
            self.queue_clamps, other.queue_clamps,
            "same-seed runs clamped differently"
        );
    }
}

/// Run `sim` to completion (bounded by `horizon`) and fingerprint it.
pub fn fingerprint(mut sim: Simulation, horizon: Time) -> RunFingerprint {
    sim.run_to_completion(horizon);
    let fcts = sim.records().iter().map(|r| (r.id.0, r.finish)).collect();
    RunFingerprint {
        digest: sim.trace_digest(),
        events: sim.stats.events,
        fcts,
        conservation: sim.conservation(),
        queue_clamps: sim.queue_clamps(),
    }
}

/// Build and run the same scenario twice; panic unless the two runs are
/// indistinguishable and every packet is accounted for.
///
/// `build` must construct the simulation from scratch each time (config,
/// seed, workload); any shared mutable state between the two builds
/// would defeat the check.
pub fn assert_deterministic<F: FnMut() -> Simulation>(
    mut build: F,
    horizon: Time,
) -> RunFingerprint {
    let a = fingerprint(build(), horizon);
    let b = fingerprint(build(), horizon);
    a.assert_matches(&b);
    assert!(
        a.conservation.balanced(),
        "packet conservation violated: {}",
        a.conservation
    );
    assert_eq!(
        a.queue_clamps, 0,
        "causality violation: the event queue clamped past-time schedules"
    );
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> RunFingerprint {
        RunFingerprint {
            digest: 0xD1,
            events: 100,
            fcts: vec![(1, Some(Time::from_us(5)))],
            conservation: ConservationReport {
                injected: 10,
                delivered: 10,
                drops_failure: 0,
                drops_disconnected: 0,
                drops_full: 0,
                in_flight: 0,
            },
            queue_clamps: 0,
        }
    }

    #[test]
    fn matching_fingerprints_pass() {
        clean().assert_matches(&clean());
    }

    #[test]
    #[should_panic(expected = "event traces differ")]
    fn a_digest_mismatch_fails_the_check() {
        let mut b = clean();
        b.digest ^= 1;
        clean().assert_matches(&b);
    }

    #[test]
    #[should_panic(expected = "clamped differently")]
    fn a_queue_clamp_mismatch_fails_the_check() {
        let mut b = clean();
        b.queue_clamps = 1;
        clean().assert_matches(&b);
    }

    #[test]
    #[should_panic(expected = "accounted packets differently")]
    fn a_conservation_mismatch_fails_the_check() {
        let mut b = clean();
        b.conservation.delivered -= 1;
        b.conservation.drops_full += 1;
        clean().assert_matches(&b);
    }
}
