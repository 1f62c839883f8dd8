//! The stack-level memory controller: address decode, per-channel
//! schedulers, and the tick loop.
//!
//! The controller mirrors the device's lane sharding (see
//! `fgdram_dram::DevLane`): each [`CtrlLane`] owns the schedulers, wake
//! wheel, completion buffer, and statistics for one contiguous
//! bus-aligned channel slice. A tick runs in three phases — collect due
//! channels per lane (serial, cheap), run every lane's pass (moved to the
//! worker pool when enough channels are due, inline otherwise), merge
//! completions/stats/next-wake in lane order (serial). Lanes never read
//! each other's state and the merge is order-fixed, so output is
//! byte-identical at any thread count.

use fgdram_dram::{DevLane, DramDevice, LaneDevice, ProtocolError};
use fgdram_model::addr::{AddressMapper, Location, MemRequest};
use fgdram_model::cmd::{Completion, TimedCommand};
use fgdram_model::config::{ConfigError, CtrlConfig, DramConfig};
use fgdram_model::units::Ns;
use fgdram_model::wheel::EventWheel;

use crate::pool::{LaneJob, TickPool};
use crate::scheduler::{ChannelSched, Pending};
use crate::stats::CtrlStats;

/// Minimum total due channels in a tick before the pass phase is worth
/// scattering to worker threads; below this the condvar round trip costs
/// more than the passes themselves.
const PARALLEL_DUE_THRESHOLD: usize = 16;

/// One engine lane of the controller: everything the pass phase touches
/// for a contiguous slice of channels, owned by value so a worker thread
/// can run it with no synchronisation.
#[derive(Debug)]
pub(crate) struct CtrlLane {
    base_ch: u32,
    scheds: Vec<ChannelSched>,
    /// Lazy wake-time queue over this lane's schedulers, keyed by
    /// **global** channel id (see the invariant note on [`Controller`]).
    due: EventWheel<u32>,
    /// Channels due this tick, ascending and deduped (reusable scratch).
    due_scratch: Vec<u32>,
    /// Raw `(time, channel)` entries drained from the wheel each tick
    /// (reusable scratch for the unordered bulk drain).
    drain_scratch: Vec<(Ns, u32)>,
    /// One bit per lane channel, set while the channel is due this tick:
    /// walking the set bits yields the ascending deduped due list without
    /// sorting (the wheel drain is unordered).
    due_bits: Vec<u64>,
    /// Completions produced by this lane's passes, drained by the merge
    /// phase each tick (pre-sized; no steady-state allocation).
    out: Vec<Completion>,
    /// Pass-side statistics (row hits, precharge kinds, refreshes, read
    /// latency). Enqueue-side stats live on the controller front end.
    stats: CtrlStats,
    /// Earliest time any of this lane's channels next needs attention.
    next: Ns,
    /// First protocol error of the pass, if any. Recorded rather than
    /// returned so a worker lane's pass has an infallible signature; the
    /// merge phase surfaces the first error in lane order. A
    /// `ProtocolError` is terminal (the system aborts the run), so the
    /// serial engine's abort-mid-tick and the parallel engine's
    /// finish-then-report differ only after determinism stops mattering.
    err: Option<ProtocolError>,
}

impl CtrlLane {
    fn effective_next(&self, ch: u32) -> Ns {
        let s = &self.scheds[(ch - self.base_ch) as usize];
        s.next_try.max(s.stalled_until)
    }

    /// Phase A: pops every wheel entry due at `now`; valid ones name the
    /// channels to run. A stale entry's channel has a valid entry
    /// elsewhere in the wheel (pushed when its wake time changed), so
    /// dropping the stale one loses nothing. Returns the due count (the
    /// parallel gate's input).
    fn collect_due(&mut self, now: Ns) -> usize {
        self.due_scratch.clear();
        self.drain_scratch.clear();
        // Bulk drain: a GUPS-like workload keeps every grain busy, which
        // parks hundreds of wake entries on the *same* nanosecond — a
        // per-entry `pop_due` loop would sort that slot to pop it in order.
        // The unordered drain unlinks each chain once; the stale filter is
        // order-independent and the bitmap walk below restores the exact
        // serial order (ascending, deduped) without a sort, so the result
        // is identical.
        self.due.drain_due_unordered(now, &mut self.drain_scratch);
        for i in 0..self.drain_scratch.len() {
            let (t, ch) = self.drain_scratch[i];
            if t == self.effective_next(ch) {
                let local = (ch - self.base_ch) as usize;
                self.due_bits[local / 64] |= 1 << (local % 64);
            }
        }
        // Ascending channel order, deduped: lanes are contiguous ascending
        // slices, so lane-order concatenation of these lists reproduces the
        // exact global issue order of the serial engine.
        for w in 0..self.due_bits.len() {
            let mut bits = self.due_bits[w];
            self.due_bits[w] = 0;
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                self.due_scratch.push(self.base_ch + (w * 64) as u32 + b);
            }
        }
        self.due_scratch.len()
    }

    /// Phase B: runs the pass for every due channel against this lane's
    /// device shard, then recomputes `next` as the earliest wheel time
    /// holding a valid entry, dropping the stale entries in front of it.
    /// Which valid entry of that time is found first does not matter:
    /// `collect_due` rebuilds ascending channel order from its bitmap.
    pub(crate) fn run_pass(
        &mut self,
        dev: &mut DevLane,
        trace: Option<&mut Vec<TimedCommand>>,
        now: Ns,
    ) {
        let mut ld = LaneDevice::new(dev, trace);
        for i in 0..self.due_scratch.len() {
            let ch = self.due_scratch[i];
            let sched = &mut self.scheds[(ch - self.base_ch) as usize];
            if let Err(e) = sched.pass(&mut ld, now, &mut self.stats, &mut self.out) {
                self.err = Some(e);
                break;
            }
            self.due.push(sched.next_try.max(sched.stalled_until), ch);
        }
        let (scheds, base_ch) = (&self.scheds, self.base_ch);
        self.next = self
            .due
            .next_valid_time(|t, ch| {
                let s = &scheds[(ch - base_ch) as usize];
                t == s.next_try.max(s.stalled_until)
            })
            .unwrap_or(Ns::MAX);
    }
}

/// GPU memory controller for one DRAM stack.
///
/// The controller owns request queues and scheduling; the [`DramDevice`]
/// (owned by the caller) owns timing truth. Every command is issued at a
/// time the device itself reported legal, so a [`ProtocolError`] escaping
/// [`Controller::tick`] indicates a scheduler bug, not a workload effect.
///
/// # Examples
///
/// ```
/// use fgdram_ctrl::Controller;
/// use fgdram_dram::DramDevice;
/// use fgdram_model::addr::{MemRequest, PhysAddr, ReqId};
/// use fgdram_model::config::{CtrlConfig, DramConfig, DramKind};
///
/// let cfg = DramConfig::new(DramKind::Fgdram);
/// let mut dev = DramDevice::new(cfg.clone());
/// let mut ctrl = Controller::new(&cfg, CtrlConfig::default())?;
/// ctrl.try_enqueue(MemRequest { id: ReqId(1), addr: PhysAddr(0x1000), is_write: false }, 0);
/// let mut done = Vec::new();
/// let mut now = 0;
/// while done.is_empty() {
///     now = ctrl.tick(&mut dev, now, &mut done)?.max(now + 1);
/// }
/// assert_eq!(done[0].req, ReqId(1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Controller {
    mapper: AddressMapper,
    /// Per-lane scheduler state. `None` only while a lane is checked out
    /// to a worker during the parallel pass phase; every other method
    /// expects lanes home.
    lanes: Vec<Option<Box<CtrlLane>>>,
    /// Owning lane index per channel (the enqueue-path routing table).
    lane_of: Vec<u16>,
    seq: u64,
    /// Enqueue-side statistics (accepted/rejected/queue depth); the pass
    /// side accumulates per lane and [`Self::stats`] merges on demand.
    front_stats: CtrlStats,
    /// Graceful degradation: grains excluded from the address map, one
    /// bit per channel (FGDRAM's 512 grains fit in 8 words, so the `route`
    /// probe on the hot enqueue path stays in one cache line). With
    /// nothing excluded, `route` is exactly `mapper.decode` and the faults
    /// machinery is invisible to scheduling.
    excluded: Vec<u64>,
    /// Channels still in the map, ascending; the remap target table.
    live: Vec<u32>,
    /// Total queued requests, maintained incrementally: +1 per accepted
    /// enqueue, -1 per completion (every dequeue emits exactly one).
    ///
    /// Each lane's wake wheel holds entries `(t, ch)` valid iff `t`
    /// equals channel `ch`'s current effective wake time
    /// (`next_try.max(stalled_until)`). A fresh entry is pushed whenever
    /// that time changes, so every channel always has exactly one valid
    /// entry; stale ones are discarded as they surface. This keeps
    /// per-tick work O(due + stale) instead of O(channels) — ruinous with
    /// FGDRAM's 512 grains, of which a handful are due. An [`EventWheel`]
    /// rather than a `BinaryHeap`: pops come out in the same ascending
    /// `(t, ch)` order, but push/pop are O(1) instead of a heap sift.
    /// Wheel invariant `t >= base` holds because every pushed time is
    /// `>= now` (`enqueue` clamps `next_try` no lower than `now`, passes
    /// set `next_try > now`) and `base` never passes the minimum entry;
    /// every lane's base advances identically because `collect_due` runs
    /// on all lanes every tick.
    total_pending: usize,
    /// Worker pool for the pass phase; `None` when single-lane.
    pool: Option<TickPool>,
    /// Reusable per-worker job slots for scatter/gather (index = lane-1).
    job_scratch: Vec<Option<LaneJob>>,
}

impl Controller {
    /// Builds a single-lane (serial) controller for `dram` with policy
    /// `ctrl`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the DRAM geometry is invalid.
    pub fn new(dram: &DramConfig, ctrl: CtrlConfig) -> Result<Self, ConfigError> {
        Self::with_threads(dram, ctrl, 1)
    }

    /// Builds a controller sharded for `engine_threads` workers. The lane
    /// count is clamped to the command-channel count (see
    /// `DramConfig::lane_plan`), so any value is safe and `1` reproduces
    /// the serial engine exactly. The paired [`DramDevice`] must be built
    /// with the same thread count (`DramDevice::with_lanes`).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the DRAM geometry is invalid.
    pub fn with_threads(
        dram: &DramConfig,
        ctrl: CtrlConfig,
        engine_threads: usize,
    ) -> Result<Self, ConfigError> {
        let mapper = AddressMapper::new(dram)?;
        let channels = dram.channels;
        let plan = dram.lane_plan(engine_threads);
        let mut lane_of = vec![0u16; channels];
        let mut lanes = Vec::with_capacity(plan.len());
        for (li, &(base, width)) in plan.iter().enumerate() {
            let scheds = (base..base + width)
                .map(|ch| {
                    // Stagger refresh across channels to avoid refresh storms.
                    // Phases must stay in [0, t_refi): without the modulo the
                    // last channel gets phase == t_refi, pushing its first
                    // refresh a full interval late.
                    let phase =
                        dram.timing.t_refi * (ch as u64 + 1) / channels as u64 % dram.timing.t_refi;
                    ChannelSched::new(
                        ch,
                        dram.banks_per_channel,
                        dram.atoms_per_activation() as u32,
                        dram.is_grain_based(),
                        ctrl,
                        dram.timing.t_refi,
                        phase,
                        dram.slices_per_row() as usize
                            * if dram.salp { dram.subarrays_per_bank } else { 1 },
                    )
                })
                .collect();
            for ch in base..base + width {
                lane_of[ch as usize] = li as u16;
            }
            lanes.push(Some(Box::new(CtrlLane {
                base_ch: base,
                scheds,
                // Every scheduler starts with an effective wake time of 0.
                due: {
                    let mut w = EventWheel::new();
                    (base..base + width).for_each(|ch| w.push(0, ch));
                    w
                },
                due_scratch: Vec::with_capacity(width as usize),
                // Each channel keeps one valid wheel entry plus a bounded
                // number of stale ones; 2x width covers the steady state.
                drain_scratch: Vec::with_capacity(2 * width as usize),
                due_bits: vec![0u64; (width as usize).div_ceil(64)],
                // Bounded by what one tick's passes can complete; sized so
                // growth stops well before the measurement window.
                out: Vec::with_capacity(256),
                stats: CtrlStats::new(),
                next: 0,
                err: None,
            })));
        }
        let workers = lanes.len().saturating_sub(1);
        Ok(Controller {
            mapper,
            lanes,
            lane_of,
            seq: 0,
            front_stats: CtrlStats::new(),
            excluded: vec![0u64; channels.div_ceil(64)],
            live: (0..channels as u32).collect(),
            total_pending: 0,
            pool: (workers > 0).then(|| TickPool::new(workers)),
            job_scratch: (0..workers).map(|_| None).collect(),
        })
    }

    /// Number of engine lanes the controller is sharded into.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Whether `ch`'s grain has been excluded from the address map.
    #[inline]
    fn is_excluded(&self, ch: u32) -> bool {
        self.excluded[ch as usize / 64] & (1u64 << (ch % 64)) != 0
    }

    /// The scheduler owning global channel `ch`.
    #[inline]
    fn sched(&self, ch: u32) -> &ChannelSched {
        let lane =
            self.lanes[self.lane_of[ch as usize] as usize].as_deref().expect("lane checked out");
        &lane.scheds[(ch - lane.base_ch) as usize]
    }

    /// The owning lane of `ch`, mutably.
    #[inline]
    fn lane_of_mut(&mut self, ch: u32) -> &mut CtrlLane {
        self.lanes[self.lane_of[ch as usize] as usize].as_deref_mut().expect("lane checked out")
    }

    /// The controller's address mapping.
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// Accumulated statistics: the enqueue front end merged with every
    /// lane's pass-side stats. Counter sums and histogram bucket adds are
    /// integer-exact and commutative, so the result is independent of the
    /// lane split. O(channels·ε) — fine for reports and telemetry epochs;
    /// the per-step watchdog uses [`Self::progress_probe`] instead.
    pub fn stats(&self) -> CtrlStats {
        let mut s = self.front_stats.clone();
        for lane in &self.lanes {
            s.merge(&lane.as_deref().expect("lane checked out").stats);
        }
        s
    }

    /// Cheap monotone progress witness for the stall watchdog: accepted
    /// requests plus issued refreshes, O(lanes).
    pub fn progress_probe(&self) -> u64 {
        let mut p = self.front_stats.reads_accepted.get() + self.front_stats.writes_accepted.get();
        for lane in &self.lanes {
            p += lane.as_deref().expect("lane checked out").stats.refreshes.get();
        }
        p
    }

    /// Zeroes accumulated statistics (end-of-warmup bookkeeping).
    pub fn reset_stats(&mut self) {
        self.front_stats = CtrlStats::new();
        for lane in &mut self.lanes {
            lane.as_deref_mut().expect("lane checked out").stats = CtrlStats::new();
        }
    }

    /// Total queued requests. O(1): maintained incrementally, because the
    /// system consults this every simulation step.
    pub fn pending(&self) -> usize {
        debug_assert_eq!(
            self.total_pending,
            self.lanes
                .iter()
                .flat_map(|l| l.as_deref().expect("lane checked out").scheds.iter())
                .map(ChannelSched::pending)
                .sum::<usize>(),
            "pending counter diverged from the queues"
        );
        self.total_pending
    }

    /// Decodes `addr` and remaps it off any excluded grain: requests whose
    /// home grain has been excluded are served round-robin by the
    /// remaining live grains (the simulator models timing, not contents,
    /// so the aliased capacity costs nothing extra).
    pub fn route(&self, addr: fgdram_model::addr::PhysAddr) -> Location {
        let mut loc = self.mapper.decode(addr);
        if self.is_excluded(loc.channel) {
            loc.channel = self.live[loc.channel as usize % self.live.len()];
        }
        loc
    }

    /// Removes `channel` from the address map. Returns `false` (a no-op)
    /// when it is already excluded or is the last live grain; queued and
    /// in-flight requests on the grain drain normally either way.
    pub fn exclude_channel(&mut self, channel: u32) -> bool {
        let ch = channel as usize;
        if ch >= self.lane_of.len() || self.is_excluded(channel) || self.live.len() == 1 {
            return false;
        }
        self.excluded[ch / 64] |= 1u64 << (channel % 64);
        self.live.retain(|&c| c != channel);
        true
    }

    /// Grains currently excluded from the address map.
    pub fn excluded_count(&self) -> usize {
        self.excluded.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fault injection: `channel` issues nothing before `until`.
    pub fn stall_channel(&mut self, channel: u32, until: Ns) {
        if (channel as usize) >= self.lane_of.len() {
            return;
        }
        let lane = self.lane_of_mut(channel);
        let sched = &mut lane.scheds[(channel - lane.base_ch) as usize];
        let before = sched.next_try.max(sched.stalled_until);
        sched.stalled_until = sched.stalled_until.max(until);
        let after = sched.next_try.max(sched.stalled_until);
        if after != before {
            lane.due.push(after, channel);
        }
    }

    /// Fault injection: wedges every channel until `until` (pass
    /// `Ns::MAX` for a permanent wedge the watchdog must catch).
    pub fn stall_all(&mut self, until: Ns) {
        for ch in 0..self.lane_of.len() as u32 {
            self.stall_channel(ch, until);
        }
    }

    /// Whether the target channel queue can accept `req` right now.
    pub fn can_accept(&self, req: &MemRequest) -> bool {
        let loc = self.route(req.addr);
        self.sched(loc.channel).can_accept(req.is_write)
    }

    /// Enqueues `req`, returning `false` (and counting a rejection) when
    /// the target queue is full — the caller should retry later.
    pub fn try_enqueue(&mut self, req: MemRequest, now: Ns) -> bool {
        let loc = self.route(req.addr);
        if !self.sched(loc.channel).can_accept(req.is_write) {
            self.front_stats.rejected.incr();
            return false;
        }
        self.seq += 1;
        if req.is_write {
            self.front_stats.writes_accepted.incr();
        } else {
            self.front_stats.reads_accepted.incr();
        }
        let seq = self.seq;
        let lane = self.lane_of_mut(loc.channel);
        let sched = &mut lane.scheds[(loc.channel - lane.base_ch) as usize];
        let before = sched.next_try.max(sched.stalled_until);
        sched.enqueue(Pending::new(req, loc, now, seq), now);
        let depth = sched.pending() as u64;
        let after = sched.next_try.max(sched.stalled_until);
        if after != before {
            lane.due.push(after, loc.channel);
        }
        self.total_pending += 1;
        self.front_stats.queue_depth.record(depth);
        true
    }

    /// Runs every channel scheduler that is due at `now`, appending data
    /// completions to `out`. Returns the earliest time any channel next
    /// needs attention.
    ///
    /// Three phases: per-lane due collection (serial), per-lane passes
    /// (scattered to the worker pool when at least
    /// [`PARALLEL_DUE_THRESHOLD`] channels are due and tracing is off;
    /// inline otherwise), and an order-fixed merge. Because no lane reads
    /// another lane's state and the merge walks lanes in base-channel
    /// order, the result is bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// A [`ProtocolError`] here means the scheduler issued an illegal
    /// command — an internal bug, never a workload condition. (The
    /// parallel engine finishes every lane before reporting the first
    /// error in lane order; the error itself is terminal either way.)
    pub fn tick(
        &mut self,
        dev: &mut DramDevice,
        now: Ns,
        out: &mut Vec<Completion>,
    ) -> Result<Ns, ProtocolError> {
        debug_assert_eq!(dev.lane_count(), self.lanes.len(), "device/controller lane mismatch");
        // Phase A: collect due channels per lane (cheap; also the gate
        // input for the parallel decision).
        let mut total_due = 0;
        for lane in &mut self.lanes {
            total_due += lane.as_deref_mut().expect("lane checked out").collect_due(now);
        }
        // Phase B: run the passes.
        let (dev_lanes, mut trace) = dev.lane_parts();
        let parallel =
            self.pool.is_some() && trace.is_none() && total_due >= PARALLEL_DUE_THRESHOLD;
        if parallel {
            let pool = self.pool.as_ref().expect("pool checked above");
            for (slot, (lane, dlane)) in self
                .job_scratch
                .iter_mut()
                .zip(self.lanes[1..].iter_mut().zip(dev_lanes[1..].iter_mut()))
            {
                *slot = Some(LaneJob {
                    ctrl: lane.take().expect("lane checked out"),
                    dev: dlane.take().expect("device lane checked out"),
                    now,
                });
            }
            pool.scatter(&mut self.job_scratch);
            // Lane 0 runs on this thread while the workers run theirs.
            self.lanes[0].as_deref_mut().expect("lane checked out").run_pass(
                dev_lanes[0].as_deref_mut().expect("device lane checked out"),
                None,
                now,
            );
            pool.gather(&mut self.job_scratch);
            for (slot, (lane, dlane)) in self
                .job_scratch
                .iter_mut()
                .zip(self.lanes[1..].iter_mut().zip(dev_lanes[1..].iter_mut()))
            {
                let job = slot.take().expect("gathered job");
                *lane = Some(job.ctrl);
                *dlane = Some(job.dev);
            }
        } else {
            for (slot, dlane) in self.lanes.iter_mut().zip(dev_lanes.iter_mut()) {
                slot.as_deref_mut().expect("lane checked out").run_pass(
                    dlane.as_deref_mut().expect("device lane checked out"),
                    trace.as_deref_mut(),
                    now,
                );
            }
        }
        // Phase C: merge in lane (= ascending channel) order.
        let mut next = Ns::MAX;
        let mut err = None;
        for slot in &mut self.lanes {
            let lane = slot.as_deref_mut().expect("lane checked out");
            if let Some(e) = lane.err.take() {
                err.get_or_insert(e);
            }
            // Every completion is exactly one request leaving a queue.
            self.total_pending -= lane.out.len();
            out.append(&mut lane.out);
            next = next.min(lane.next);
        }
        match err {
            Some(e) => Err(e),
            None => Ok(next),
        }
    }

    /// Test-only variant of [`Self::tick`] that runs the lane passes in
    /// *descending* lane order — the worst-case reordering a racing
    /// worker could produce. Lanes share no state within a fence, so the
    /// output must be byte-identical to the ascending-order tick; the
    /// fence-protocol property test asserts exactly that.
    #[cfg(test)]
    fn tick_lanes_reversed(
        &mut self,
        dev: &mut DramDevice,
        now: Ns,
        out: &mut Vec<Completion>,
    ) -> Result<Ns, ProtocolError> {
        for lane in &mut self.lanes {
            lane.as_deref_mut().expect("lane checked out").collect_due(now);
        }
        let (dev_lanes, _trace) = dev.lane_parts();
        for (slot, dlane) in self.lanes.iter_mut().zip(dev_lanes.iter_mut()).rev() {
            slot.as_deref_mut().expect("lane checked out").run_pass(
                dlane.as_deref_mut().expect("device lane checked out"),
                None,
                now,
            );
        }
        // The merge stays in ascending lane order regardless.
        let mut next = Ns::MAX;
        let mut err = None;
        for slot in &mut self.lanes {
            let lane = slot.as_deref_mut().expect("lane checked out");
            if let Some(e) = lane.err.take() {
                err.get_or_insert(e);
            }
            self.total_pending -= lane.out.len();
            out.append(&mut lane.out);
            next = next.min(lane.next);
        }
        match err {
            Some(e) => Err(e),
            None => Ok(next),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdram_model::addr::{PhysAddr, ReqId};
    use fgdram_model::config::DramKind;

    fn setup(kind: DramKind) -> (DramDevice, Controller) {
        let cfg = DramConfig::new(kind);
        let dev = DramDevice::new(cfg.clone());
        let ctrl = Controller::new(&cfg, CtrlConfig::default()).unwrap();
        (dev, ctrl)
    }

    fn run_until_drained(
        dev: &mut DramDevice,
        ctrl: &mut Controller,
        limit: Ns,
    ) -> Vec<Completion> {
        let mut out = Vec::new();
        let mut now = 0;
        while ctrl.pending() > 0 && now < limit {
            let next = ctrl.tick(dev, now, &mut out).unwrap();
            now = next.max(now + 1);
        }
        out
    }

    #[test]
    fn single_read_completes_with_expected_latency() {
        let (mut dev, mut ctrl) = setup(DramKind::QbHbm);
        let req = MemRequest { id: ReqId(1), addr: PhysAddr(0), is_write: false };
        assert!(ctrl.try_enqueue(req, 0));
        let done = run_until_drained(&mut dev, &mut ctrl, 10_000);
        assert_eq!(done.len(), 1);
        // ACT at ~0, RD at tRCD=16, data end at 16+tCL+tBURST = 34.
        assert_eq!(done[0].at, 34);
        assert_eq!(ctrl.stats().activates.get(), 1);
    }

    #[test]
    fn row_hits_are_reordered_ahead_of_conflicts() {
        let (mut dev, mut ctrl) = setup(DramKind::QbHbm);
        let m = ctrl.mapper().clone();
        use fgdram_model::addr::Location;
        // Three requests to one bank: row A, row B (conflict), row A again.
        let a0 = m.encode(Location { channel: 0, bank: 0, row: 10, col: 0 });
        let b0 = m.encode(Location { channel: 0, bank: 0, row: 20, col: 0 });
        let a1 = m.encode(Location { channel: 0, bank: 0, row: 10, col: 1 });
        for (i, addr) in [a0, b0, a1].into_iter().enumerate() {
            assert!(ctrl.try_enqueue(MemRequest { id: ReqId(i as u64), addr, is_write: false }, 0));
        }
        let done = run_until_drained(&mut dev, &mut ctrl, 10_000);
        assert_eq!(done.len(), 3);
        // FR-FCFS: the second row-A access (id 2) completes before row B.
        let pos = |id: u64| done.iter().position(|c| c.req == ReqId(id)).unwrap();
        assert!(pos(2) < pos(1), "row hit should bypass the conflict");
        assert!(ctrl.stats().row_hits.get() >= 1);
        // The last row-10 hit sees no further reuse, so the controller
        // closes the row via auto-precharge instead of an explicit
        // conflict precharge.
        assert!(ctrl.stats().auto_precharges.get() + ctrl.stats().conflict_precharges.get() >= 1);
    }

    #[test]
    fn writes_drain_in_batches() {
        let (mut dev, mut ctrl) = setup(DramKind::QbHbm);
        // Fill past the high watermark with writes to one channel.
        let m = ctrl.mapper().clone();
        use fgdram_model::addr::Location;
        let mut sent = 0;
        'outer: for row in 0..128u32 {
            for col in 0..4u32 {
                let addr = m.encode(Location { channel: 1, bank: (row % 4), row, col });
                if !ctrl.try_enqueue(MemRequest { id: ReqId(sent), addr, is_write: true }, 0) {
                    break 'outer;
                }
                sent += 1;
            }
        }
        // Enough to cross the high watermark and trigger batch draining.
        assert!(sent as usize >= CtrlConfig::default().write_high_watermark, "filled {sent}");
        let done = run_until_drained(&mut dev, &mut ctrl, 100_000);
        assert_eq!(done.len(), sent as usize);
        assert!(ctrl.stats().drain_entries.get() >= 1);
    }

    #[test]
    fn backpressure_rejects_when_full() {
        let (_, mut ctrl) = setup(DramKind::QbHbm);
        let m = ctrl.mapper().clone();
        use fgdram_model::addr::Location;
        let mut accepted = 0u64;
        for i in 0..100_000u64 {
            let addr = m.encode(Location {
                channel: 0,
                bank: (i % 4) as u32,
                row: (i / 4) as u32 % 16_384,
                col: 0,
            });
            if ctrl.try_enqueue(MemRequest { id: ReqId(i), addr, is_write: false }, 0) {
                accepted += 1;
            } else {
                break;
            }
        }
        // read_queue_depth plus the crossbar overflow queue.
        let cfg = CtrlConfig::default();
        assert_eq!(accepted as usize, cfg.read_queue_depth + cfg.xbar_queue_depth);
        assert_eq!(ctrl.stats().rejected.get(), 1);
        assert!(!ctrl.can_accept(&MemRequest {
            id: ReqId(0),
            addr: m.encode(Location { channel: 0, bank: 0, row: 0, col: 0 }),
            is_write: false
        }));
    }

    #[test]
    fn fgdram_grain_conflicts_are_resolved() {
        let (mut dev, mut ctrl) = setup(DramKind::Fgdram);
        let m = ctrl.mapper().clone();
        use fgdram_model::addr::Location;
        // Pseudobank 0 row 3 and pseudobank 1 row 7 share subarray 0.
        let a = m.encode(Location { channel: 0, bank: 0, row: 3, col: 0 });
        let b = m.encode(Location { channel: 0, bank: 1, row: 7, col: 0 });
        ctrl.try_enqueue(MemRequest { id: ReqId(0), addr: a, is_write: false }, 0);
        ctrl.try_enqueue(MemRequest { id: ReqId(1), addr: b, is_write: false }, 0);
        let done = run_until_drained(&mut dev, &mut ctrl, 100_000);
        assert_eq!(done.len(), 2, "both requests complete despite the conflict");
    }

    #[test]
    fn refresh_happens_periodically() {
        let (mut dev, mut ctrl) = setup(DramKind::QbHbm);
        let mut out = Vec::new();
        let mut now = 0;
        // Idle controller for ~3 refresh intervals.
        while now < 12_000 {
            let next = ctrl.tick(&mut dev, now, &mut out).unwrap();
            now = next.max(now + 1);
        }
        let expected = dev.config().channels as u64 * 2; // >= 2 per channel
        assert!(
            ctrl.stats().refreshes.get() >= expected,
            "refreshes {} < {expected}",
            ctrl.stats().refreshes.get()
        );
    }

    #[test]
    fn excluded_channel_remaps_to_live_grains() {
        let (mut dev, mut ctrl) = setup(DramKind::QbHbm);
        let m = ctrl.mapper().clone();
        use fgdram_model::addr::Location;
        let addr = m.encode(Location { channel: 3, bank: 0, row: 10, col: 0 });
        assert_eq!(ctrl.route(addr).channel, 3);
        assert!(ctrl.exclude_channel(3));
        assert!(!ctrl.exclude_channel(3), "double exclusion is a no-op");
        assert_eq!(ctrl.excluded_count(), 1);
        let re = ctrl.route(addr);
        assert_ne!(re.channel, 3, "excluded grain must not be routed to");
        // Requests to the dead grain still complete, on the remap target.
        assert!(ctrl.try_enqueue(MemRequest { id: ReqId(1), addr, is_write: false }, 0));
        let done = run_until_drained(&mut dev, &mut ctrl, 10_000);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn cannot_exclude_the_last_live_grain() {
        let (_, mut ctrl) = setup(DramKind::QbHbm);
        let channels = DramConfig::new(DramKind::QbHbm).channels as u32;
        for ch in 0..channels - 1 {
            assert!(ctrl.exclude_channel(ch));
        }
        assert!(!ctrl.exclude_channel(channels - 1), "last grain must stay in the map");
        assert_eq!(ctrl.excluded_count(), channels as usize - 1);
    }

    #[test]
    fn stalled_channel_issues_nothing_until_the_fence() {
        let (mut dev, mut ctrl) = setup(DramKind::QbHbm);
        let req = MemRequest { id: ReqId(1), addr: PhysAddr(0), is_write: false };
        ctrl.stall_channel(0, 500);
        assert!(ctrl.try_enqueue(req, 0));
        let mut out = Vec::new();
        let mut now = 0;
        while out.is_empty() && now < 10_000 {
            let next = ctrl.tick(&mut dev, now, &mut out).unwrap();
            now = next.max(now + 1);
        }
        // Unstalled latency is 34 ns; the stall defers issue to t=500.
        assert_eq!(out.len(), 1);
        assert!(out[0].at >= 500 + 34, "completion at {} leaked through the stall", out[0].at);
    }

    #[test]
    fn sequential_stream_gets_high_hit_rate() {
        let (mut dev, mut ctrl) = setup(DramKind::QbHbm);
        let mut now = 0;
        let mut out = Vec::new();
        let mut issued = 0u64;
        let mut next_addr = 0u64;
        while issued < 2_000 || ctrl.pending() > 0 {
            while issued < 2_000
                && ctrl.try_enqueue(
                    MemRequest { id: ReqId(issued), addr: PhysAddr(next_addr), is_write: false },
                    now,
                )
            {
                issued += 1;
                next_addr += 32;
            }
            let next = ctrl.tick(&mut dev, now, &mut out).unwrap();
            now = next.max(now + 1);
            assert!(now < 1_000_000, "stream run diverged");
        }
        assert_eq!(out.len(), 2_000);
        let s = ctrl.stats();
        assert!(s.hit_rate() > 0.8, "hit rate {}", s.hit_rate());
    }

    /// Fence-protocol property: no worker observes cross-channel state
    /// newer than the fence. Lanes are fully isolated within a fence, so
    /// (a) an 8-lane engine must match a 1-lane engine at *every* fence,
    /// and (b) executing the lane passes in descending lane order — the
    /// worst-case schedule a racing worker could produce — must still
    /// yield byte-identical completions, wake times, and stats. Any
    /// cross-lane read-after-write inside a fence would flip at least one
    /// of these under a pseudo-random mixed read/write stream that
    /// touches every channel.
    #[test]
    fn fence_protocol_isolates_lanes_within_a_fence() {
        use fgdram_model::addr::Location;
        for kind in [DramKind::QbHbm, DramKind::Fgdram] {
            let cfg = DramConfig::new(kind);
            let mk = |threads: usize| {
                let dev = DramDevice::with_lanes(cfg.clone(), threads);
                let ctrl = Controller::with_threads(&cfg, CtrlConfig::default(), threads).unwrap();
                (dev, ctrl)
            };
            let (mut dev_ser, mut ctrl_ser) = mk(1);
            let (mut dev_fwd, mut ctrl_fwd) = mk(8);
            let (mut dev_rev, mut ctrl_rev) = mk(8);
            let m = ctrl_ser.mapper().clone();

            // xorshift64 request stream; deterministic, spans all channels.
            let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
            let mut step = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let mut now = 0;
            let mut id = 0u64;
            let (mut out_ser, mut out_fwd, mut out_rev) = (Vec::new(), Vec::new(), Vec::new());
            for fence in 0..1_500u32 {
                for _ in 0..step() % 8 {
                    let loc = Location {
                        channel: (step() % cfg.channels as u64) as u32,
                        bank: (step() % cfg.banks_per_channel as u64) as u32,
                        row: (step() % 512) as u32,
                        col: (step() % 8) as u32,
                    };
                    let req = MemRequest {
                        id: ReqId(id),
                        addr: m.encode(loc),
                        is_write: step() % 3 == 0,
                    };
                    id += 1;
                    let a = ctrl_ser.try_enqueue(req, now);
                    assert_eq!(a, ctrl_fwd.try_enqueue(req, now), "admission diverged");
                    assert_eq!(a, ctrl_rev.try_enqueue(req, now), "admission diverged");
                }
                let n_ser = ctrl_ser.tick(&mut dev_ser, now, &mut out_ser).unwrap();
                let n_fwd = ctrl_fwd.tick(&mut dev_fwd, now, &mut out_fwd).unwrap();
                let n_rev = ctrl_rev.tick_lanes_reversed(&mut dev_rev, now, &mut out_rev).unwrap();
                assert_eq!(n_ser, n_fwd, "fence {fence}: 8-lane wake time diverged");
                assert_eq!(n_ser, n_rev, "fence {fence}: reversed-order wake time diverged");
                assert_eq!(out_ser, out_fwd, "fence {fence}: 8-lane completions diverged");
                assert_eq!(out_ser, out_rev, "fence {fence}: reversed-order completions diverged");
                assert_eq!(ctrl_ser.pending(), ctrl_fwd.pending());
                assert_eq!(ctrl_ser.pending(), ctrl_rev.pending());
                out_ser.clear();
                out_fwd.clear();
                out_rev.clear();
                now = n_ser.max(now + 1);
            }
            assert!(id > 1_000, "stream too short to exercise the fence protocol");
            let stats = format!("{:?}", ctrl_ser.stats());
            assert_eq!(stats, format!("{:?}", ctrl_fwd.stats()), "8-lane stats diverged");
            assert_eq!(stats, format!("{:?}", ctrl_rev.stats()), "reversed-order stats diverged");
        }
    }
}
