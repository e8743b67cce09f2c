//! A fixed reference workload that tracks the host's speed.
//!
//! The machine this benchmark runs on is a shared VM: neighbours'
//! memory traffic and frequency changes slowed the same simulation by up
//! to 30% from one minute to the next. The reference kernel uses the
//! standard library only, so no change to the program moves it, and it
//! leans on the same resources as the simulator: a binary-heap event
//! queue, ordered-map updates, boxed allocations and random reads over a
//! 16 MiB table.
//!
//! The reference is timed on the clock `run_s` is read from, the
//! thread's CPU time ([`thread_cpu_s`]), so both leave out the same
//! waits for a CPU and the same hypervisor steal, and both see the same
//! cache, memory and frequency effects. `run_s` is reported scaled by
//! `REFERENCE_NOMINAL_S / median(reference blocks)`, i.e. in seconds of
//! a host running at the speed the constant was taken at.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;

use crate::measure::thread_cpu_s;
use crate::stats::median;

/// Median CPU time of one reference block on the 2-vCPU Xeon VM the
/// bounds in `BENCHMARK.json` were set on.
const REFERENCE_NOMINAL_S: f64 = 0.52;

/// Rounds timed together as one block. The thread's CPU clock advances
/// in scheduler ticks (4 ms here), so a block must be long enough for a
/// tick to be a small part of it: eight rounds take about half a second.
const ROUNDS_PER_BLOCK: usize = 8;

const TABLE_LEN: usize = 1 << 21;
const OPS: u64 = 200_000;

pub struct Reference {
    table: Vec<u64>,
    samples: Vec<f64>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Reference {
    pub fn new() -> Reference {
        Reference {
            table: (0..TABLE_LEN as u64).collect(),
            samples: Vec::new(),
        }
    }

    /// Time one block of the reference kernel in thread CPU time. Does
    /// nothing where the kernel does not expose that clock.
    pub fn sample(&mut self) {
        let Some(t0) = thread_cpu_s() else {
            return;
        };
        for _ in 0..ROUNDS_PER_BLOCK {
            self.round();
        }
        if let Some(t1) = thread_cpu_s() {
            self.samples.push(t1 - t0);
        }
    }

    fn round(&self) {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..2048u32)
            .map(|i| Reverse((xorshift(&mut s) % 100_000, i)))
            .collect();
        let mut map: BTreeMap<u64, u64> = BTreeMap::new();
        let mut boxes: Vec<Box<[u64; 16]>> = Vec::new();
        let mut acc = 0u64;
        for k in 0..OPS {
            if let Some(Reverse((t, v))) = heap.pop() {
                heap.push(Reverse((t + 1 + xorshift(&mut s) % 20_000, v)));
                acc ^= t;
            }
            *map.entry(xorshift(&mut s) % 16_384).or_insert(0) += 1;
            if k % 3 == 0 {
                boxes.push(Box::new([k; 16]));
            }
            if boxes.len() > 4096 {
                boxes.swap_remove((xorshift(&mut s) % 4096) as usize);
            }
            acc = acc.wrapping_add(self.table[(xorshift(&mut s) as usize) % TABLE_LEN]);
        }
        black_box((acc, map.len(), boxes.len()));
    }

    /// Median reference-block time so far (0 before any sample).
    pub fn median_s(&self) -> f64 {
        median(&self.samples)
    }

    /// Factor that converts this host's times to nominal-speed times.
    pub fn scale(&self) -> f64 {
        let m = self.median_s();
        if m > 0.0 {
            REFERENCE_NOMINAL_S / m
        } else {
            1.0
        }
    }
}
