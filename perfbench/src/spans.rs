//! Span aggregates for the traced run.
//!
//! Every timed call site keeps, in memory, the number of calls, their
//! total duration and a log2 histogram of durations, plus the name of the
//! span that encloses it. Nothing is written while the simulation runs;
//! [`Spans::write_table`] prints the aggregates once at exit.
//!
//! Spans are read from the CPU's time-stamp counter on x86-64 (about
//! 13 ns per span on a 2.1 GHz Xeon VM, half what `Instant::now` costs
//! there) and from `Instant` elsewhere; [`ns_per_tick`] converts. The
//! counter must tick at a constant rate on every core, as it does where
//! Linux uses it as its clock source.
//!
//! Even so, reading the clock costs about as much as a small layer call,
//! so raw spans overstate short calls and the timed calls slow the run
//! down. [`TimerCost::calibrate`] measures at start-up what an empty span
//! records (inside the span) and what else timing one call costs (outside
//! it); [`TimerCost::span_ns`] and [`TimerCost::self_ns`] subtract them.

use std::hint::black_box;
use std::io::Write;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use fgdram_model::stats::Log2Histogram;

/// A timed call site. The names follow the layer that owns the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// `EventWheel::push`.
    WheelPush,
    /// `EventWheel::pop_due`.
    WheelPop,
    /// `EventWheel::next_time`.
    WheelNext,
    /// `Gpu::issue`.
    GpuIssue,
    /// `Gpu::sector_done`.
    GpuSectorDone,
    /// `Gpu::next_event`.
    GpuNextEvent,
    /// `L2Cache::access`.
    L2Access,
    /// `L2Cache::fill_done_into`.
    L2Fill,
    /// `L2Cache::take_writebacks_into`.
    L2Writebacks,
    /// `Controller::try_enqueue`.
    CtrlEnqueue,
    /// `Controller::tick` (the DRAM device runs inside it).
    CtrlTick,
    /// A cell's captured command trace replayed through a fresh
    /// `DramDevice` (`earliest` + `issue` per command), timed as a whole.
    DramReplay,
    /// One whole cell inside the `run_cells` closure.
    ExecCell,
    /// The empty span timed by the calibration loop.
    Calibrate,
}

impl Site {
    /// Every site, in report order.
    pub const ALL: [Site; 14] = [
        Site::WheelPush,
        Site::WheelPop,
        Site::WheelNext,
        Site::GpuIssue,
        Site::GpuSectorDone,
        Site::GpuNextEvent,
        Site::L2Access,
        Site::L2Fill,
        Site::L2Writebacks,
        Site::CtrlEnqueue,
        Site::CtrlTick,
        Site::DramReplay,
        Site::ExecCell,
        Site::Calibrate,
    ];

    /// The call site's name.
    pub fn name(self) -> &'static str {
        match self {
            Site::WheelPush => "wheel.push",
            Site::WheelPop => "wheel.pop_due",
            Site::WheelNext => "wheel.next_time",
            Site::GpuIssue => "gpu.issue",
            Site::GpuSectorDone => "gpu.sector_done",
            Site::GpuNextEvent => "gpu.next_event",
            Site::L2Access => "l2.access",
            Site::L2Fill => "l2.fill_done_into",
            Site::L2Writebacks => "l2.take_writebacks_into",
            Site::CtrlEnqueue => "ctrl.try_enqueue",
            Site::CtrlTick => "ctrl.tick",
            Site::DramReplay => "dram.replay",
            Site::ExecCell => "exec.cell",
            Site::Calibrate => "timer.empty",
        }
    }

    /// The span that encloses every call of this site.
    pub fn parent(self) -> &'static str {
        match self {
            Site::DramReplay => "perfbench.traced",
            Site::ExecCell => "exec.run_cells",
            Site::Calibrate => "timer.calibrate",
            _ => "core.run_for",
        }
    }
}

/// In-memory aggregates of every call site.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    sites: [Log2Histogram; Site::ALL.len()],
}

impl Spans {
    /// Empty aggregates.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f`, adding its duration to `site`.
    #[inline(always)]
    pub fn time<R>(&mut self, site: Site, f: impl FnOnce() -> R) -> R {
        let t0 = ticks();
        let r = f();
        let t1 = ticks();
        self.sites[site as usize].record(t1.wrapping_sub(t0));
        r
    }

    /// Adds one span of `ns`, timed by the caller, to `site`.
    pub fn record(&mut self, site: Site, ns: u64) {
        self.sites[site as usize].record((ns as f64 / ns_per_tick()).round() as u64);
    }

    /// Calls made at `site`.
    pub fn count(&self, site: Site) -> u64 {
        self.sites[site as usize].stat().count()
    }

    /// Raw total ns recorded at `site` (timer cost included).
    pub fn raw_ns(&self, site: Site) -> f64 {
        self.sites[site as usize].stat().sum() as f64 * ns_per_tick()
    }

    /// Adds every aggregate of `other` to `self`.
    pub fn merge(&mut self, other: &Spans) {
        for (a, b) in self.sites.iter_mut().zip(&other.sites) {
            a.merge(b);
        }
    }

    /// Writes one line per site that was called: name, parent, count,
    /// total and mean ns (timer cost subtracted), and the non-empty log2
    /// buckets of raw durations as `upper_edge_ticks:count`.
    pub fn write_table(&self, cost: &TimerCost, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(
            out,
            "# span            parent            calls      total_ns      mean_ns  log2 histogram (raw ticks of {:.4} ns)",
            ns_per_tick()
        )?;
        for site in Site::ALL {
            let n = self.count(site);
            if n == 0 {
                continue;
            }
            let total = cost.span_ns(self, site);
            let hist: Vec<String> =
                self.sites[site as usize].iter().map(|(hi, c)| format!("{hi}:{c}")).collect();
            writeln!(
                out,
                "{:<19} {:<17} {:>9} {:>13.0} {:>12.1}  {}",
                site.name(),
                site.parent(),
                n,
                total,
                total / n as f64,
                hist.join(" ")
            )?;
        }
        Ok(())
    }
}

/// Reads the span clock, in ticks.
#[inline(always)]
fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: RDTSC reads a register; it has no preconditions and every
    // x86-64 CPU has it.
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// ns per tick of the span clock, measured once against `Instant` over
/// 50 ms (the median of 5 intervals of 10 ms).
pub fn ns_per_tick() -> f64 {
    static NS_PER_TICK: OnceLock<f64> = OnceLock::new();
    *NS_PER_TICK.get_or_init(|| {
        if cfg!(not(target_arch = "x86_64")) {
            return 1.0;
        }
        let mut rates: Vec<f64> = (0..5)
            .map(|_| {
                let (t0, i0) = (ticks(), Instant::now());
                std::thread::sleep(Duration::from_millis(10));
                let (t1, ns) = (ticks(), i0.elapsed().as_nanos());
                ns as f64 / t1.wrapping_sub(t0).max(1) as f64
            })
            .collect();
        rates.sort_by(f64::total_cmp);
        rates[2]
    })
}

/// What timing one call costs, measured on empty spans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimerCost {
    /// ns an empty span records: the part of the clock reads that falls
    /// inside the span.
    pub recorded_ns: f64,
    /// ns one timed empty call takes in all, inside and outside the span.
    pub added_ns: f64,
}

impl TimerCost {
    /// Times 5 rounds of `N` empty spans and keeps, per figure, the median
    /// round. Within a round `recorded_ns` is the median span, not the
    /// mean: one descheduling would otherwise add its whole length to it.
    pub fn calibrate() -> TimerCost {
        const N: usize = 20_000;
        let mut each = vec![0u64; N];
        let mut recorded = Vec::new();
        let mut added = Vec::new();
        for _ in 0..5 {
            let mut s = Spans::new();
            let t0 = Instant::now();
            for i in 0..N {
                s.time(Site::Calibrate, || black_box(i));
            }
            added.push(t0.elapsed().as_nanos() as f64 / N as f64);
            // The same clock reads `Spans::time` makes around an empty call.
            for (i, t) in each.iter_mut().enumerate() {
                let t0 = ticks();
                black_box(i);
                *t = ticks().wrapping_sub(t0);
            }
            each.sort_unstable();
            recorded.push(each[N / 2] as f64 * ns_per_tick());
        }
        let mid = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        TimerCost { recorded_ns: mid(&mut recorded), added_ns: mid(&mut added) }
    }

    /// Total ns spent in `site`'s calls, less what the clock recorded
    /// inside their spans. Not clamped: a negative total would mean the
    /// calibration overstates the clock's cost, and shows as such.
    pub fn span_ns(&self, spans: &Spans, site: Site) -> f64 {
        spans.raw_ns(site) - spans.count(site) as f64 * self.recorded_ns
    }

    /// Time of code that ran `wall_ns` and made the timed calls of
    /// `sites` in `spans`, outside those calls: the wall time less the raw
    /// spans, less what each timed call cost outside its span. Not
    /// clamped, like [`Self::span_ns`].
    pub fn self_ns(&self, wall_ns: f64, spans: &Spans, sites: &[Site]) -> f64 {
        let raw: f64 = sites.iter().map(|&s| spans.raw_ns(s)).sum();
        let calls: u64 = sites.iter().map(|&s| spans.count(s)).sum();
        wall_ns - raw - calls as f64 * (self.added_ns - self.recorded_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_empty_span_costs_nothing() {
        let cost = TimerCost::calibrate();
        assert!(cost.recorded_ns >= 0.0 && cost.added_ns > 0.0);
        let mut s = Spans::new();
        for i in 0..1000u64 {
            s.time(Site::Calibrate, || black_box(i));
        }
        // The correction removes what the clock records; allow 3x jitter.
        assert!(cost.span_ns(&s, Site::Calibrate).abs() < 1000.0 * 3.0 * cost.recorded_ns.max(1.0));
    }

    #[test]
    fn merge_adds_counts_and_totals() {
        let mut a = Spans::new();
        let mut b = Spans::new();
        a.record(Site::CtrlTick, 10);
        b.record(Site::CtrlTick, 30);
        b.record(Site::L2Access, 5);
        a.merge(&b);
        assert_eq!(a.count(Site::CtrlTick), 2);
        // Spans are kept in clock ticks: each record rounds to one.
        assert!(
            (a.raw_ns(Site::CtrlTick) - 40.0).abs() <= ns_per_tick(),
            "{}",
            a.raw_ns(Site::CtrlTick)
        );
        assert_eq!(a.count(Site::L2Access), 1);
    }
}
