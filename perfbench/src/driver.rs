//! The traced step driver.
//!
//! [`Driver`] rebuilds `System::step`'s phase order from the layers'
//! public calls only, and times each call into a layer: `EventWheel`
//! push/pop_due/next_time, `Gpu` issue/sector_done/next_event, `L2Cache`
//! access/fill_done_into/take_writebacks_into, and `Controller`
//! try_enqueue/tick. What is left of the driver's wall time after those
//! spans is the step loop's own bookkeeping (`core` self time).
//!
//! The driver is a second copy of the step loop, so it is only useful
//! while it reproduces the program: the benchmark compares its retired,
//! read, write, activate and refresh counts with the untraced `SimReport`
//! of the same cell on every traced run. It runs the fault-free path
//! (faults and telemetry stay off in every workload) and builds the
//! serial engine (`Controller::new`, `DramDevice::new`).

use std::collections::VecDeque;

use fgdram_core::SimError;
use fgdram_ctrl::Controller;
use fgdram_dram::DramDevice;
use fgdram_faults::DEFAULT_WATCHDOG_NS;
use fgdram_gpu::{AccessToken, Gpu, L2Access, L2Cache, SectorAccess};
use fgdram_model::addr::{MemRequest, PhysAddr, ReqId};
use fgdram_model::cmd::Completion;
use fgdram_model::config::{CtrlConfig, DramConfig, DramKind, GpuConfig};
use fgdram_model::fxhash::FxHashMap;
use fgdram_model::units::Ns;
use fgdram_model::wheel::EventWheel;
use fgdram_workloads::Workload;

use crate::spans::{Site, Spans};

/// `System`'s backpressure thresholds (private constants there).
const MAX_L2_BLOCKED: usize = 1_024;
const MAX_RETRY: usize = 8_192;

/// `System`'s event kinds on the fault-free path. The variant order is
/// the same, so same-time events pop in the same order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Fill(ReqId),
    Wake(u64),
}

/// Work the step loop did, counted where it happens.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Calls of the step function.
    pub steps: u64,
    /// `try_enqueue` calls the controller refused.
    pub rejects: u64,
    /// Sum over `tick` calls of the controller's queued requests just
    /// before the call.
    pub pending_sum: u64,
    /// Sector accesses `Gpu::issue` emitted.
    pub sectors: u64,
    /// `L2Cache::access` calls answered `Blocked`.
    pub l2_blocked: u64,
    /// Sum over steps of the blocked-access backlog length.
    pub backlog_sum: u64,
}

impl Work {
    /// Adds `other`'s counts to `self`.
    pub fn add(&mut self, other: &Work) {
        self.steps += other.steps;
        self.rejects += other.rejects;
        self.pending_sum += other.pending_sum;
        self.sectors += other.sectors;
        self.l2_blocked += other.l2_blocked;
        self.backlog_sum += other.backlog_sum;
    }
}

/// The counts the driver must share with the untraced `SimReport`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Warp memory instructions retired in the window.
    pub retired: u64,
    /// DRAM atoms read in the window.
    pub read_atoms: u64,
    /// DRAM atoms written in the window.
    pub write_atoms: u64,
    /// Row activations in the window.
    pub activates: u64,
    /// Refreshes in the window.
    pub refreshes: u64,
}

impl Counts {
    /// The same counts as read from a report.
    pub fn of(r: &fgdram_core::SimReport) -> Counts {
        Counts {
            retired: r.retired,
            read_atoms: r.read_atoms,
            write_atoms: r.write_atoms,
            activates: r.activates,
            refreshes: r.refreshes,
        }
    }
}

/// A GPU + L2 + controller + DRAM stack advanced by the rebuilt step loop.
#[derive(Debug)]
pub struct Driver {
    gpu_cfg: GpuConfig,
    dev: DramDevice,
    ctrl: Controller,
    gpu: Gpu,
    l2: L2Cache,
    events: EventWheel<Event>,
    fill_dest: FxHashMap<u64, PhysAddr>,
    retry_reqs: VecDeque<MemRequest>,
    l2_blocked: VecDeque<SectorAccess>,
    access_buf: Vec<SectorAccess>,
    completion_buf: Vec<Completion>,
    wb_buf: Vec<PhysAddr>,
    waiter_buf: Vec<u64>,
    now: Ns,
    next_req: u64,
    ctrl_next: Ns,
    last_issue: Ns,
    progress_sig: u64,
    progress_at: Ns,
    /// Per-call spans of every layer call.
    pub spans: Spans,
    /// Work counted by the step loop.
    pub work: Work,
}

impl Driver {
    /// Builds the same stack `SystemBuilder::new(kind).workload(w).build()`
    /// builds, from the layers' own constructors.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] for an invalid geometry.
    pub fn new(w: &Workload, kind: DramKind) -> Result<Driver, SimError> {
        let dram = DramConfig::new(kind);
        let mut gpu_cfg =
            GpuConfig { max_outstanding_per_warp: w.mlp.max(1), ..Default::default() };
        gpu_cfg.l2.sector_bytes = dram.atom_bytes;
        dram.validate()?;
        let ctrl = Controller::new(&dram, CtrlConfig::for_dram(&dram))?;
        let dev = DramDevice::new(dram);
        let n_warps = gpu_cfg.sms * gpu_cfg.warps_per_sm;
        let gpu = Gpu::new(gpu_cfg.clone(), w.streams(n_warps));
        let l2 = L2Cache::new(gpu_cfg.l2, 16_384);
        Ok(Driver {
            gpu_cfg,
            dev,
            ctrl,
            gpu,
            l2,
            events: EventWheel::new(),
            fill_dest: FxHashMap::with_capacity_and_hasher(16_384, Default::default()),
            retry_reqs: VecDeque::with_capacity(MAX_RETRY),
            l2_blocked: VecDeque::with_capacity(MAX_L2_BLOCKED),
            access_buf: Vec::with_capacity(256),
            completion_buf: Vec::with_capacity(256),
            wb_buf: Vec::with_capacity(4096),
            waiter_buf: Vec::with_capacity(1024),
            now: 0,
            next_req: 0,
            ctrl_next: 0,
            last_issue: 0,
            progress_sig: 0,
            progress_at: 0,
            spans: Spans::new(),
            work: Work::default(),
        })
    }

    /// Zeroes every layer's statistics (end of warm-up).
    pub fn reset_stats(&mut self) {
        self.dev.reset_counters();
        self.ctrl.reset_stats();
        self.l2.reset_stats();
        self.gpu.reset_stats();
    }

    /// The report counts since the last [`Self::reset_stats`].
    pub fn counts(&self) -> Counts {
        let k = self.dev.total_counters();
        Counts {
            retired: self.gpu.stats().retired,
            read_atoms: k.read_atoms,
            write_atoms: k.write_atoms,
            activates: k.activates,
            refreshes: k.refreshes,
        }
    }

    /// Advances simulated time by `duration`.
    ///
    /// # Errors
    ///
    /// The [`SimError`] `System::run_for` would return.
    pub fn run_for(&mut self, duration: Ns) -> Result<(), SimError> {
        let end = self.now.saturating_add(duration);
        while self.now < end {
            self.step(end)?;
        }
        Ok(())
    }

    fn schedule(&mut self, at: Ns, ev: Event) {
        self.spans.time(Site::WheelPush, || self.events.push(at, ev));
    }

    fn enqueue(&mut self, req: MemRequest, now: Ns) -> bool {
        let ok = self.spans.time(Site::CtrlEnqueue, || self.ctrl.try_enqueue(req, now));
        if !ok {
            self.work.rejects += 1;
        }
        ok
    }

    fn step(&mut self, end: Ns) -> Result<(), SimError> {
        let now = self.now;
        self.work.steps += 1;
        self.work.backlog_sum += self.l2_blocked.len() as u64;

        // 1. Deliver due events.
        while let Some((_, ev)) = self.spans.time(Site::WheelPop, || self.events.pop_due(now)) {
            match ev {
                Event::Fill(req) => {
                    if let Some(sector) = self.fill_dest.remove(&req.0) {
                        let at = now + self.gpu_cfg.xbar_latency + self.gpu_cfg.core_latency;
                        let mut waiters = std::mem::take(&mut self.waiter_buf);
                        self.spans
                            .time(Site::L2Fill, || self.l2.fill_done_into(sector, &mut waiters));
                        for &token in &waiters {
                            self.schedule(at, Event::Wake(token));
                        }
                        self.waiter_buf = waiters;
                    }
                }
                Event::Wake(token) => {
                    let token = AccessToken::from_u64(token);
                    self.spans.time(Site::GpuSectorDone, || self.gpu.sector_done(token, now));
                }
            }
        }

        // 2. Retry requests the controller rejected.
        while let Some(&req) = self.retry_reqs.front() {
            if self.enqueue(req, now) {
                self.retry_reqs.pop_front();
            } else {
                break;
            }
        }

        // 3. Retry sector accesses the L2 blocked.
        while let Some(&access) = self.l2_blocked.front() {
            if self.process_access(access, now) {
                self.l2_blocked.pop_front();
            } else {
                break;
            }
        }

        // 4. Issue new GPU work unless backpressured.
        if self.l2_blocked.len() < MAX_L2_BLOCKED && self.retry_reqs.len() < MAX_RETRY {
            let dt = (now - self.last_issue).clamp(1, 8) as usize;
            let budget = self.gpu_cfg.issue_per_ns * dt;
            let mut buf = std::mem::take(&mut self.access_buf);
            buf.clear();
            self.spans.time(Site::GpuIssue, || self.gpu.issue(now, budget, &mut buf));
            self.work.sectors += buf.len() as u64;
            self.last_issue = now;
            for access in buf.drain(..) {
                if !self.process_access(access, now) {
                    self.l2_blocked.push_back(access);
                }
            }
            self.access_buf = buf;
        }

        // 5. L2 evictions become DRAM writes.
        let mut wbs = std::mem::take(&mut self.wb_buf);
        self.spans.time(Site::L2Writebacks, || self.l2.take_writebacks_into(&mut wbs));
        for wb in wbs.drain(..) {
            self.next_req += 1;
            let req = MemRequest { id: ReqId(self.next_req), addr: wb, is_write: true };
            if !self.enqueue(req, now) {
                self.retry_reqs.push_back(req);
            }
        }
        self.wb_buf = wbs;

        // 6. Run the memory controller.
        if now >= self.ctrl_next {
            self.work.pending_sum += self.ctrl.pending() as u64;
            let mut comps = std::mem::take(&mut self.completion_buf);
            comps.clear();
            self.ctrl_next = self
                .spans
                .time(Site::CtrlTick, || self.ctrl.tick(&mut self.dev, now, &mut comps))?;
            let xbar = self.gpu_cfg.xbar_latency;
            for c in comps.drain(..) {
                if !c.is_write {
                    self.schedule(c.at + xbar, Event::Fill(c.req));
                }
            }
            self.completion_buf = comps;
        }

        // 6b. Forward-progress watchdog.
        let sig = self.progress_signature();
        if sig != self.progress_sig {
            self.progress_sig = sig;
            self.progress_at = now;
        } else if now.saturating_sub(self.progress_at) >= DEFAULT_WATCHDOG_NS
            && self.has_pending_work()
        {
            return Err(SimError::Stall {
                at: now,
                pending: self.ctrl.pending()
                    + self.retry_reqs.len()
                    + self.l2_blocked.len()
                    + self.events.len(),
                idle_ns: now - self.progress_at,
                bound: DEFAULT_WATCHDOG_NS,
            });
        }

        // 7. Advance to the next interesting time.
        let mut next = end;
        if let Some(t) = self.spans.time(Site::WheelNext, || self.events.next_time()) {
            next = next.min(t);
        }
        next = next.min(self.ctrl_next);
        if let Some(t) = self.spans.time(Site::GpuNextEvent, || self.gpu.next_event()) {
            next = next.min(t);
        }
        if !self.retry_reqs.is_empty() || !self.l2_blocked.is_empty() {
            next = next.min(now + 1);
        }
        if self.has_pending_work() {
            next = next.min(self.progress_at.saturating_add(DEFAULT_WATCHDOG_NS));
        }
        self.now = next.max(now + 1).min(end.max(now + 1));
        Ok(())
    }

    fn progress_signature(&self) -> u64 {
        let g = self.gpu.stats();
        let k = self.dev.total_counters();
        g.retired
            .wrapping_add(g.sectors)
            .wrapping_add(g.loads_issued)
            .wrapping_add(g.stores_issued)
            .wrapping_add(self.ctrl.progress_probe())
            .wrapping_add(k.activates)
            .wrapping_add(k.read_atoms)
            .wrapping_add(k.write_atoms)
    }

    fn has_pending_work(&self) -> bool {
        self.ctrl.pending() > 0
            || !self.retry_reqs.is_empty()
            || !self.l2_blocked.is_empty()
            || !self.events.is_empty()
            || !self.fill_dest.is_empty()
    }

    /// Routes one sector access through the L2; `false` means blocked.
    fn process_access(&mut self, access: SectorAccess, now: Ns) -> bool {
        let token = access.token.as_u64();
        match self
            .spans
            .time(Site::L2Access, || self.l2.access(access.addr, access.is_store, token))
        {
            L2Access::Hit => {
                let done = now + self.gpu_cfg.l2.hit_latency + 2 * self.gpu_cfg.xbar_latency;
                self.schedule(done, Event::Wake(token));
                true
            }
            L2Access::StoreDone | L2Access::Merged => true,
            L2Access::Miss { fill } => {
                self.next_req += 1;
                let req = MemRequest { id: ReqId(self.next_req), addr: fill, is_write: false };
                self.fill_dest.insert(self.next_req, fill);
                if !self.enqueue(req, now) {
                    self.retry_reqs.push_back(req);
                }
                true
            }
            L2Access::Blocked => {
                self.work.l2_blocked += 1;
                false
            }
        }
    }
}
