//! Host-speed probe for the untraced run.
//!
//! The benchmark runs on shared hosts whose speed drifts by 20-60% over
//! seconds to minutes as neighbours load the caches and memory: a fixed
//! kernel timed every 10 ms had 3-s medians between 0.72x and 1.20x of
//! its overall median within 150 s on a 2-vCPU Xeon VM, and the simulator
//! swings with it. Repetitions and medians do not remove a drift that
//! lasts longer than a run.
//!
//! A [`Pace`] times a fixed kernel, random read-modify-writes over an
//! 8 MiB table (L3 and memory) and over a 128 KiB table (L1 and L2), about
//! 0.5 ms in all. The benchmark probes it between the pieces of work it
//! times and scales each measured time by [`NOMINAL_PROBE_NS`] over the
//! mean probe time of the same interval ([`Probes::scale`]): a time
//! measured while the host ran at 0.8x of its nominal speed is reported
//! as the time it would have taken at 1x. On GUPS on FGDRAM and STREAM on
//! QB-HBM the scaled time of 10-15-s windows spread 0.04-0.07 (middle
//! half over median) where the raw time spread 0.10-0.19.
//!
//! The probe's own time is never part of a measured interval, but it
//! evicts some of the simulator's cache lines: probing every simulated µs
//! made GUPS on FGDRAM about 2-3% slower than probing three times per
//! cell, the same for every commit measured.

use std::hint::black_box;
use std::time::Instant;

/// 64-bit words of the large table (8 MiB).
const BIG_WORDS: usize = 1 << 20;

/// 64-bit words of the small table (128 KiB).
const SMALL_WORDS: usize = 1 << 14;

/// Read-modify-writes per probe on each table; the two take about the
/// same time.
const BIG_OPS: u32 = 10_000;
const SMALL_OPS: u32 = 35_000;

/// What one probe takes on the reference host, a 2.1 GHz Xeon VM with
/// 2 vCPUs, at its median speed. Scaled times read in seconds of that
/// host.
pub const NOMINAL_PROBE_NS: f64 = 500_000.0;

/// The probe kernel and its tables.
#[derive(Debug)]
pub struct Pace {
    big: Vec<u64>,
    small: Vec<u64>,
    x: u64,
    acc: u64,
}

impl Default for Pace {
    fn default() -> Pace {
        Pace::new()
    }
}

impl Pace {
    /// Allocates and touches both tables, so they are resident before the
    /// first probe.
    pub fn new() -> Pace {
        let fill =
            |n: usize| (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        let mut p = Pace {
            big: fill(BIG_WORDS),
            small: fill(SMALL_WORDS),
            x: 0x2545_F491_4F6C_DD1D,
            acc: 0,
        };
        p.probe();
        p
    }

    /// Bytes of memory the tables hold; the untraced run takes them out
    /// of its peak resident set.
    pub const TABLE_BYTES: usize = (BIG_WORDS + SMALL_WORDS) * std::mem::size_of::<u64>();

    /// Runs the kernel once and returns the host ns it took.
    pub fn probe(&mut self) -> f64 {
        let t0 = Instant::now();
        rmw(&mut self.big, BIG_OPS, &mut self.x, &mut self.acc);
        rmw(&mut self.small, SMALL_OPS, &mut self.x, &mut self.acc);
        black_box(self.acc);
        t0.elapsed().as_nanos() as f64
    }
}

/// `ops` read-modify-writes at xorshift-random indices of `table` (its
/// length a power of two).
fn rmw(table: &mut [u64], ops: u32, x: &mut u64, acc: &mut u64) {
    let mask = table.len() as u64 - 1;
    for i in 0..ops {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        let j = (*x & mask) as usize;
        let y = table[j];
        if y & 3 == 1 {
            *acc = acc.wrapping_add(y >> 2);
        } else {
            *acc ^= y.rotate_left(i & 31);
        }
        table[j] = y.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ *acc;
    }
}

/// The probes taken during one measured interval.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Probes {
    /// Probes taken.
    pub count: u32,
    /// Their total host ns.
    pub ns: f64,
}

impl Probes {
    /// Probes `pace` once and counts it.
    pub fn take(&mut self, pace: &mut Pace) {
        self.ns += pace.probe();
        self.count += 1;
    }

    /// Adds `other`'s probes.
    pub fn add(&mut self, other: Probes) {
        self.count += other.count;
        self.ns += other.ns;
    }

    /// Host seconds the probes took.
    pub fn secs(&self) -> f64 {
        self.ns * 1e-9
    }

    /// How fast the host ran against the reference: nominal over mean
    /// probe time (1 when nothing was probed).
    pub fn speed(&self) -> f64 {
        if self.count == 0 || self.ns <= 0.0 {
            1.0
        } else {
            NOMINAL_PROBE_NS * f64::from(self.count) / self.ns
        }
    }

    /// `raw_s` host seconds measured during these probes, in seconds of
    /// the reference host.
    pub fn scale(&self, raw_s: f64) -> f64 {
        raw_s * self.speed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_follows_the_mean_probe_time() {
        assert_eq!(Probes::default().scale(3.0), 3.0);
        let slow = Probes { count: 4, ns: 4.0 * 2.0 * NOMINAL_PROBE_NS };
        assert_eq!(slow.speed(), 0.5);
        assert_eq!(slow.scale(3.0), 1.5);
        let mut both = slow;
        both.add(Probes { count: 4, ns: 4.0 * NOMINAL_PROBE_NS / 2.0 });
        assert!((both.speed() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn a_probe_takes_time_and_is_counted() {
        let mut pace = Pace::new();
        let mut probes = Probes::default();
        probes.take(&mut pace);
        probes.take(&mut pace);
        assert_eq!(probes.count, 2);
        assert!(probes.ns > 0.0 && probes.secs() < 1.0, "{probes:?}");
    }
}
