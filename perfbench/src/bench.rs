//! The benchmark's workloads and the runs that measure them.
//!
//! Every workload is a list of cells (workload x DRAM kind) at a fixed
//! horizon. The untraced run ([`untraced`]) times the program's own entry
//! points and reports the end-to-end metrics; the traced run ([`traced`])
//! re-runs the same cells through the traced [`Driver`], replays each
//! cell's DRAM command trace, and reports the per-layer metrics. Both
//! check every output (see [`crate::check`]).

use std::sync::Mutex;
use std::time::Instant;

use fgdram_core::experiments::{run_cells, Parallelism, Scale};
use fgdram_core::suite::{render_report, SuiteKind, SuiteSpec, SUITE_KINDS};
use fgdram_core::{SimError, SimReport, System, SystemBuilder};
use fgdram_dram::{DramDevice, ProtocolChecker};
use fgdram_model::cmd::TimedCommand;
use fgdram_model::config::{DramConfig, DramKind};
use fgdram_model::units::Ns;
use fgdram_workloads::{suites, Workload};

use crate::check::{self, Pinned};
use crate::driver::{Counts, Driver, Work};
use crate::pace::{Pace, Probes};
use crate::spans::{Site, Spans, TimerCost};

/// The seed the suites are defined with: at `--seed` equal to this, every
/// workload keeps its own suite seed and the pinned digests apply.
pub const SUITE_SEED: u64 = 0x5EED_2017;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["gups-fgdram", "stream-qbhbm", "compute-sweep"];

/// End-to-end metrics (name, unit), measured with tracing off.
pub const END_TO_END: [(&str, &str); 4] =
    [("sim_ns_per_s", "ns/s"), ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics (name, unit), measured by the traced run.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("ctrl.tick_share", "frac"),
    ("ctrl.tick_ns_per_cmd", "ns"),
    ("ctrl.ticks_per_sim_ns", "1/ns"),
    ("ctrl.enqueue_share", "frac"),
    ("ctrl.enqueue_reject_frac", "frac"),
    ("ctrl.pending_mean", "count"),
    ("dram.replay_ns_per_cmd", "ns"),
    ("dram.replay_share", "frac"),
    ("dram.cmds_per_sim_ns", "1/ns"),
    ("wheel.share", "frac"),
    ("wheel.ops_per_sim_ns", "1/ns"),
    ("gpu.issue_share", "frac"),
    ("gpu.issue_ns_per_sector", "ns"),
    ("gpu.sector_done_share", "frac"),
    ("gpu.sectors_per_sim_ns", "1/ns"),
    ("l2.access_share", "frac"),
    ("l2.access_ns_per_call", "ns"),
    ("l2.blocked_frac", "frac"),
    ("l2.blocked_backlog_mean", "count"),
    ("core.steps_per_sim_ns", "1/ns"),
    ("core.self_share", "frac"),
    ("exec.parallel_efficiency", "frac"),
    ("exec.tail_s", "s"),
    ("exec.cell_s_p50", "s"),
    ("exec.cell_s_max", "s"),
    ("ctrl.row_hit_rate", "frac"),
    ("l2.hit_rate", "frac"),
    ("dram.atoms_per_act", "count"),
    ("trace.overhead_frac", "frac"),
];

/// One workload: its cells, their horizon and the executor's job count.
#[derive(Debug, Clone)]
pub struct Bench {
    /// The horizon of every cell; a sweep's cells run through its
    /// `run_cell`.
    pub spec: SuiteSpec,
    /// The (reseeded) workloads; cells are `workloads x kinds`,
    /// workload-major, as `run_cells` orders them.
    pub workloads: Vec<Workload>,
    /// The DRAM kinds of each workload.
    pub kinds: Vec<DramKind>,
    /// Worker threads of `run_cells`.
    pub jobs: usize,
    /// Simulated ns a cell runs between two host-speed probes.
    pub chunk: Ns,
    /// Whether this is a suite sweep (cells through `SuiteSpec::run_cell`,
    /// output through `render_report`).
    pub sweep: bool,
    /// Digests the outputs must match (default seed and horizon only).
    pub pinned: Option<Pinned>,
}

impl Bench {
    /// The workload `name` with every workload seed derived from `seed`;
    /// `None` for an unknown name.
    pub fn new(name: &str, seed: u64) -> Option<Bench> {
        let by_name = |n: &str| suites::by_name(n).expect("named workload is in the suite");
        let (workloads, kinds, jobs) = match name {
            "gups-fgdram" => (vec![by_name("GUPS")], vec![DramKind::Fgdram], 1),
            "stream-qbhbm" => (vec![by_name("STREAM")], vec![DramKind::QbHbm], 1),
            "compute-sweep" => (suites::compute_suite(), SUITE_KINDS.to_vec(), 2),
            _ => return None,
        };
        // Horizons are sized so one repetition takes about a second (single
        // cells) or three (the sweep) on a 2-core x86-64 host, so a run
        // holds several repetitions to take the median of.
        let (warmup, window) = match name {
            "gups-fgdram" => (2_000, 18_000),
            "stream-qbhbm" => (2_000, 28_000),
            _ => (1_000, 4_000),
        };
        let sweep = name == "compute-sweep";
        // About 30-60 ms of host time between probes in a single cell. A
        // sweep cell probes once before its build, its warm-up and its
        // window.
        let chunk = if sweep { warmup + window } else { 1_000 };
        let workloads = workloads
            .into_iter()
            .map(|mut w| {
                // Identity at the suite seed; any other seed moves every
                // workload to a fresh, still distinct, stream.
                w.seed ^= seed ^ SUITE_SEED;
                w
            })
            .collect();
        let spec = SuiteSpec {
            which: SuiteKind::Compute,
            warmup,
            window,
            max_workloads: None,
            telemetry_epoch: None,
        };
        let pinned = if seed == SUITE_SEED { check::pinned(name) } else { None };
        Some(Bench { spec, workloads, kinds, jobs, chunk, sweep, pinned })
    }

    /// The same workload at another horizon and with at most
    /// `max_workloads` workloads (pinned digests no longer apply).
    pub fn with_horizon(mut self, warmup: Ns, window: Ns, max_workloads: usize) -> Bench {
        self.spec.warmup = warmup;
        self.spec.window = window;
        self.workloads.truncate(max_workloads);
        self.pinned = None;
        self
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.workloads.len() * self.kinds.len()
    }

    /// The workload and kind of cell `i`.
    pub fn cell(&self, i: usize) -> (&Workload, DramKind) {
        (&self.workloads[i / self.kinds.len()], self.kinds[i % self.kinds.len()])
    }

    /// Simulated ns of one cell (warm-up + window).
    pub fn cell_ns(&self) -> Ns {
        self.spec.warmup + self.spec.window
    }

    /// One cell through the program's entry point: `SuiteSpec::run_cell`
    /// for a sweep, `SystemBuilder::run` for a single cell.
    ///
    /// # Errors
    ///
    /// The cell's [`SimError`].
    pub fn run_cell(&self, w: &Workload, kind: DramKind) -> Result<SimReport, SimError> {
        if self.sweep {
            self.spec.run_cell(w, kind).map(|c| c.report)
        } else {
            SystemBuilder::new(kind).workload(w.clone()).run(self.spec.warmup, self.spec.window)
        }
    }

    /// [`run_system`] at this workload's horizon and probe interval.
    fn run_system(
        &self,
        w: &Workload,
        kind: DramKind,
        pace: &mut Pace,
    ) -> Result<(SimReport, CellTimes), SimError> {
        run_system(w, kind, (self.spec.warmup, self.spec.window), self.chunk, pace)
    }
}

/// Host seconds of one [`run_system`] call, not counting its probes.
#[derive(Debug, Clone, Copy)]
struct CellTimes {
    /// `SystemBuilder::build`.
    build_s: f64,
    /// `run_for` / `reset_stats` / `run_for` / `report`.
    run_s: f64,
    /// Everything, including dropping the system.
    wall_s: f64,
    /// The host-speed probes taken between the timed pieces.
    probes: Probes,
}

/// `SystemBuilder::build`, then `System::run_for` / `reset_stats` /
/// `run_for` / `report` — what `SystemBuilder::run` does, and what
/// `SuiteSpec::run_cell` does with telemetry off — timed. `pace` is
/// probed before the build and before every `run_for` of at most `chunk`
/// ns; the warm-up and the window are each such a sequence of `run_for`
/// calls, which simulates exactly what one call would.
fn run_system(
    w: &Workload,
    kind: DramKind,
    (warmup, window): (Ns, Ns),
    chunk: Ns,
    pace: &mut Pace,
) -> Result<(SimReport, CellTimes), SimError> {
    let mut probes = Probes::default();
    probes.take(pace);
    let t0 = Instant::now();
    let mut sys = SystemBuilder::new(kind).workload(w.clone()).build()?;
    let build_s = t0.elapsed().as_secs_f64();
    let mut run_s = run_chunked(&mut sys, warmup, chunk, pace, &mut probes)?;
    let t = Instant::now();
    sys.reset_stats();
    run_s += t.elapsed().as_secs_f64();
    run_s += run_chunked(&mut sys, window, chunk, pace, &mut probes)?;
    let t = Instant::now();
    let report = sys.report(window);
    run_s += t.elapsed().as_secs_f64();
    let t = Instant::now();
    drop(sys);
    let drop_s = t.elapsed().as_secs_f64();
    let times = CellTimes { build_s, run_s, wall_s: build_s + run_s + drop_s, probes };
    Ok((report, times))
}

/// `sys.run_for(duration)` as `run_for` calls of at most `chunk` ns, each
/// after a probe of `pace`. Returns the host seconds of the calls.
fn run_chunked(
    sys: &mut System,
    duration: Ns,
    chunk: Ns,
    pace: &mut Pace,
    probes: &mut Probes,
) -> Result<f64, SimError> {
    let mut secs = 0.0;
    let mut left = duration;
    while left > 0 {
        let step = left.min(chunk.max(1));
        probes.take(pace);
        let t = Instant::now();
        sys.run_for(step)?;
        secs += t.elapsed().as_secs_f64();
        left -= step;
    }
    Ok(secs)
}

/// Cells attempted and failed, and what went wrong.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Cells run.
    pub attempted: u64,
    /// Cells that returned a [`SimError`] or failed an output check.
    pub failed: u64,
    /// One line per failure, plus failed whole-run checks.
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one cell and its check result.
    pub fn cell(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.problems.push(e);
        }
    }

    /// Failed cells over attempted cells.
    pub fn fail_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// No failed cell and no failed whole-run check.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.problems.is_empty()
    }
}

/// What each cell must report: the pinned digests and, at any seed, what
/// its first repetition reported.
#[derive(Debug)]
struct Expect {
    pinned: Option<Pinned>,
    first: Vec<Option<u64>>,
}

impl Expect {
    fn new(b: &Bench) -> Expect {
        Expect { pinned: b.pinned, first: vec![None; b.cell_count()] }
    }

    /// Checks cell `i`'s result; the first `Ok` report of a cell becomes
    /// the reference for its later repetitions.
    fn check(
        &mut self,
        b: &Bench,
        i: usize,
        result: &Result<SimReport, SimError>,
    ) -> Result<(), String> {
        let (w, kind) = b.cell(i);
        let what = format!("{} on {}", w.name, kind.label());
        let r = result.as_ref().map_err(|e| format!("{what}: {e}"))?;
        check::invariants(r, b.spec.window)?;
        let d = check::report_digest(r);
        if let Some(p) = self.pinned {
            let pin = p.cells.get(i).ok_or(format!("{what}: no pinned digest"))?;
            check::digest_matches(&what, d, *pin)?;
        }
        match self.first[i] {
            Some(f) => check::digest_matches(&format!("{what} (repeat)"), d, f),
            None => {
                self.first[i] = Some(d);
                Ok(())
            }
        }
    }

    /// Checks a sweep's rendered report against its pinned digest.
    fn check_rendered(&self, rendered: &str) -> Result<(), String> {
        match self.pinned.and_then(|p| p.rendered) {
            Some(pin) => {
                check::digest_matches("rendered suite report", check::digest(rendered), pin)
            }
            None => Ok(()),
        }
    }
}

/// Per-cell spans of one `run_cells` call.
#[derive(Debug, Clone, Default)]
pub struct ExecSpans {
    /// Host seconds of the whole call.
    pub wall_s: f64,
    /// `(start, end)` of each cell, seconds from the call's start.
    pub cells: Vec<(f64, f64)>,
}

/// Runs every cell of `b` through `core::experiments::run_cells` at
/// `b.jobs` workers, timing each cell inside the closure. A cell's error
/// is returned as its value, so one failing cell does not stop the rest.
pub fn exec<F>(b: &Bench, cell: F) -> (Vec<Result<SimReport, SimError>>, ExecSpans)
where
    F: Fn(&Workload, DramKind) -> Result<SimReport, SimError> + Sync,
{
    let scale = Scale {
        warmup: b.spec.warmup,
        window: b.spec.window,
        max_workloads: None,
        parallelism: Parallelism::jobs(b.jobs),
    };
    let spans = Mutex::new(Vec::with_capacity(b.cell_count()));
    let t0 = Instant::now();
    let results = run_cells(&b.workloads, &b.kinds, scale, |w, k| {
        let start = t0.elapsed().as_secs_f64();
        let r = cell(w, k);
        let end = t0.elapsed().as_secs_f64();
        spans.lock().expect("a cell panicked while recording its span").push((start, end));
        Ok(r)
    })
    .expect("cells return their errors as values");
    let wall_s = t0.elapsed().as_secs_f64();
    let cells = spans.into_inner().expect("a cell panicked while recording its span");
    (results, ExecSpans { wall_s, cells })
}

/// One repetition of a sweep: every cell through `run_cells`, then
/// `render_report`. Counts and checks each cell into `tally`; returns the
/// repetition's host seconds and those of its `run_cells` call.
fn sweep_rep<F>(b: &Bench, expect: &mut Expect, tally: &mut Tally, cell: F) -> (f64, f64)
where
    F: Fn(&Workload, DramKind) -> Result<SimReport, SimError> + Sync,
{
    let t0 = Instant::now();
    let (results, ex) = exec(b, cell);
    let reports: Option<Vec<SimReport>> =
        results.iter().map(|r| r.as_ref().ok().cloned()).collect();
    let rendered = reports.map(|r| render_report(b.spec.which, &b.workloads, &r));
    let wall_s = t0.elapsed().as_secs_f64();
    for (i, r) in results.iter().enumerate() {
        tally.cell(expect.check(b, i, r));
    }
    if let Some(text) = rendered {
        if let Err(e) = expect.check_rendered(&text) {
            tally.problems.push(e);
        }
    }
    (wall_s, ex.wall_s)
}

/// Builds made before set-up is timed (see [`setup_s`]).
const WARM_BUILDS: usize = 10;

/// Set-up passes [`setup_s`] makes: at least, at least when its time
/// budget runs out first, and at most.
const SETUP_PASSES: (usize, usize, usize) = (40, 5, 400);

/// Host seconds after which [`setup_s`] stops once it has made
/// `SETUP_PASSES.1` passes.
const SETUP_BUDGET_S: f64 = 4.0;

/// Host seconds to build every cell's system once (`SystemBuilder::build`,
/// the set-up `SuiteSpec::run_cell` does before simulating), scaled to
/// the reference host by a probe of `pace` before each build.
fn setup_pass(b: &Bench, pace: &mut Pace) -> Option<f64> {
    let mut total = 0.0;
    let mut probes = Probes::default();
    for i in 0..b.cell_count() {
        let (w, kind) = b.cell(i);
        probes.take(pace);
        let t0 = Instant::now();
        let sys = SystemBuilder::new(kind).workload(w.clone()).build().ok()?;
        total += t0.elapsed().as_secs_f64();
        drop(sys);
    }
    Some(probes.scale(total))
}

/// The workload's set-up time: the median of repeated [`setup_pass`]es.
/// Passes go on until the medians of the odd and the even passes agree
/// within a tenth of the overall median (at least `SETUP_PASSES.0`
/// passes), or until `SETUP_BUDGET_S` has passed (at least
/// `SETUP_PASSES.1` passes), or for `SETUP_PASSES.2` passes. Returns the
/// median and whether it repeated within a tenth.
///
/// The first builds of a process pay page faults on fresh memory (glibc's
/// malloc raises its mmap threshold as large blocks are freed): a QB-HBM
/// build takes about 7 ms at first and 1-3 ms after ten builds. Those
/// warm-up builds are not timed.
fn setup_s(b: &Bench, pace: &mut Pace) -> Option<(f64, bool)> {
    let cells = b.cell_count().max(1);
    for _ in 0..WARM_BUILDS.div_ceil(cells) {
        setup_pass(b, pace)?;
    }
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        passes.push(setup_pass(b, pace)?);
        let n = passes.len();
        let halves: [Vec<f64>; 2] =
            [0, 1].map(|r| passes.iter().skip(r).step_by(2).copied().collect());
        let all = median(&passes);
        let steady = (median(&halves[0]) - median(&halves[1])).abs() <= 0.1 * all;
        let out_of_time = start.elapsed().as_secs_f64() >= SETUP_BUDGET_S;
        let (least, least_in_budget, most) = SETUP_PASSES;
        if n >= most || (n >= least && steady) || (n >= least_in_budget && out_of_time) {
            return Some((all, steady));
        }
    }
}

/// A measured metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Value, as measured.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64) -> Metric {
    let unit = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .expect("every reported metric is declared");
    Metric { name, value: if value.is_finite() { value } else { 0.0 }, unit }
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every metric of the run's kind, in declaration order.
    pub metrics: Vec<Metric>,
    /// Cells attempted and failed.
    pub tally: Tally,
    /// Span aggregates (traced runs only).
    pub spans: Option<Spans>,
}

impl Outcome {
    /// The run's output: one `name value unit` line per metric, the
    /// failure fraction and every failed check, then the result as one
    /// JSON line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("{:<28} {:>20} {}\n", m.name, m.value, m.unit));
        }
        let t = &self.tally;
        out.push_str(&format!(
            "{:<28} {:>20} frac ({} of {} cells failed)\n",
            "fail_frac",
            t.fail_frac(),
            t.failed,
            t.attempted
        ));
        for p in &t.problems {
            out.push_str(&format!("check failed: {p}\n"));
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            t.correct(),
            t.attempted,
            t.failed,
            metrics.join(", ")
        ));
        out
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of `v` (0 when empty).
fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The untraced run: set-up timed by [`setup_s`], then whole repetitions
/// of the workload until `seconds` have passed (at least two). Every time
/// is scaled to the reference host by the probes taken during it (see
/// [`crate::pace`]). Reports the median of each end-to-end metric.
pub fn untraced(b: &Bench, seconds: f64) -> Outcome {
    let mut tally = Tally::default();
    let mut expect = Expect::new(b);
    // One pace per worker; the main thread uses the first for set-up and
    // single cells.
    let workers = b.jobs.min(b.cell_count()).max(1);
    let paces: Vec<Mutex<Pace>> = (0..workers).map(|_| Mutex::new(Pace::new())).collect();
    let lock = |i: usize| paces[i].lock().expect("a cell panicked while holding its pace");
    let setup = setup_s(b, &mut lock(0));
    let (setup_s, steady) = setup.unwrap_or_else(|| {
        tally.problems.push("set-up: a build failed".into());
        (0.0, false)
    });
    if !steady {
        eprintln!("# set-up did not repeat within a tenth; reporting the median anyway");
    }
    let sim_ns = (b.cell_ns() as usize * b.cell_count()) as f64;
    let mut wall = Vec::new();
    let mut rates = Vec::new();
    let start = Instant::now();
    while wall.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        // Host seconds of the repetition and of its simulation, and the
        // probes taken during both.
        let (rep_wall, rep_run, probes) = if b.sweep {
            // Each cell builds inside the executor, as `SuiteSpec::run_cell`
            // does. The builds and probes this repetition made are taken
            // out of its wall time spread over the workers.
            let sums = Mutex::new((0.0, Probes::default()));
            let (rep_wall, exec_wall) = sweep_rep(b, &mut expect, &mut tally, |w, k| {
                // At most `workers` cells run at once, so one pace is free.
                let mut pace =
                    paces.iter().find_map(|p| p.try_lock().ok()).unwrap_or_else(|| lock(0));
                let (r, t) = b.run_system(w, k, &mut pace)?;
                drop(pace);
                let mut sums = sums.lock().expect("a cell panicked while adding its times");
                sums.0 += t.build_s;
                sums.1.add(t.probes);
                Ok(r)
            });
            let (built, probes) =
                sums.into_inner().expect("a cell panicked while adding its times");
            let per_worker = |s: f64| s / workers as f64;
            let probe_s = per_worker(probes.secs());
            (rep_wall - probe_s, exec_wall - probe_s - per_worker(built), probes)
        } else {
            let (mut rep_wall, mut rep_run, mut probes) = (0.0, 0.0, Probes::default());
            for i in 0..b.cell_count() {
                let (w, kind) = b.cell(i);
                let result = b.run_system(w, kind, &mut lock(0));
                if let Ok((_, t)) = &result {
                    rep_wall += t.wall_s;
                    rep_run += t.run_s;
                    probes.add(t.probes);
                }
                tally.cell(expect.check(b, i, &result.map(|(r, _)| r)));
            }
            (rep_wall, rep_run, probes)
        };
        wall.push(probes.scale(rep_wall));
        rates.push(ratio(sim_ns, probes.scale(rep_run)));
        eprintln!(
            "# rep {}: {:.6} s at host speed {:.4} ({:.6} host s)",
            wall.len(),
            probes.scale(rep_wall),
            probes.speed(),
            rep_wall
        );
    }
    let rss = peak_rss_mb().unwrap_or_else(|| {
        tally.problems.push("VmHWM not readable from /proc/self/status".into());
        0.0
    });
    // The paces' tables are resident for the whole run; they are not the
    // workload's.
    let rss = rss - (workers * Pace::TABLE_BYTES) as f64 / (1024.0 * 1024.0);
    let metrics = vec![
        metric("sim_ns_per_s", median(&rates)),
        metric("wall_s", median(&wall)),
        metric("setup_s", setup_s),
        metric("peak_rss_mb", rss),
    ];
    Outcome { metrics, tally, spans: None }
}

/// Replays `trace` through a fresh device of `kind`: every command must
/// be issuable exactly when the program issued it.
fn replay(kind: DramKind, trace: &[TimedCommand]) -> Result<(), String> {
    let mut dev = DramDevice::new(DramConfig::new(kind));
    for tc in trace {
        let earliest = dev.earliest(&tc.cmd, tc.at).map_err(|e| format!("replay: {e}"))?;
        if earliest != tc.at {
            return Err(format!(
                "replay: {:?} issued at {} but earliest is {earliest}",
                tc.cmd, tc.at
            ));
        }
        dev.issue(tc.cmd, tc.at).map_err(|e| format!("replay: {e}"))?;
    }
    Ok(())
}

/// Runs cell `i` again with `SystemBuilder::with_trace` and returns its
/// DRAM command trace. The traced system must report exactly what the
/// untraced one did, and `ProtocolChecker` must accept the trace.
fn capture(b: &Bench, i: usize, reference: &SimReport) -> Result<Vec<TimedCommand>, String> {
    let (w, kind) = b.cell(i);
    let what = format!("{} on {} (with_trace)", w.name, kind.label());
    let run = || -> Result<(SimReport, Vec<TimedCommand>), SimError> {
        let mut sys = SystemBuilder::new(kind).workload(w.clone()).with_trace().build()?;
        sys.run_for(b.spec.warmup)?;
        sys.reset_stats();
        sys.run_for(b.spec.window)?;
        Ok((sys.report(b.spec.window), sys.take_trace()))
    };
    let (report, trace) = run().map_err(|e| format!("{what}: {e}"))?;
    check::digest_matches(&what, check::report_digest(&report), check::report_digest(reference))?;
    ProtocolChecker::new(DramConfig::new(kind))
        .check_trace(&trace)
        .map_err(|e| format!("{what}: protocol checker: {e}"))?;
    Ok(trace)
}

/// What the traced repetitions measured, summed over cells and
/// repetitions.
#[derive(Debug, Default)]
struct Measured {
    spans: Spans,
    work: Work,
    /// Host ns of the driver's `run_for` calls.
    driver_ns: f64,
    /// Host ns of the untraced system's `run_for` calls on the same cells.
    untraced_ns: f64,
    /// DRAM commands the cells issued.
    cmds: u64,
    /// Simulated ns of the cells.
    sim_ns: u64,
}

/// One traced repetition of cell `i`: the untraced system, the traced
/// driver, and the replay of the cell's trace ([`capture`]), each checked
/// against `reference`.
fn traced_cell(
    b: &Bench,
    i: usize,
    reference: &SimReport,
    pace: &mut Pace,
    m: &mut Measured,
) -> Result<(), String> {
    let (w, kind) = b.cell(i);
    let what = format!("{} on {} (traced)", w.name, kind.label());
    let (warmup, window) = (b.spec.warmup, b.spec.window);
    // Probed only before the build, the warm-up and the window: the
    // driver's run, which this one is compared with, is not probed.
    let (r, t) =
        run_system(w, kind, (warmup, window), Ns::MAX, pace).map_err(|e| format!("{what}: {e}"))?;
    m.untraced_ns += t.run_s * 1e9;
    check::digest_matches(&what, check::report_digest(&r), check::report_digest(reference))?;

    let mut d = Driver::new(w, kind).map_err(|e| format!("{what}: {e}"))?;
    let t0 = Instant::now();
    let ran = d.run_for(warmup).and_then(|()| {
        d.reset_stats();
        d.run_for(window)
    });
    m.driver_ns += t0.elapsed().as_secs_f64() * 1e9;
    ran.map_err(|e| format!("{what}: {e}"))?;
    m.spans.merge(&d.spans);
    m.work.add(&d.work);
    check::counts_match(&what, d.counts(), Counts::of(reference))?;

    let trace = capture(b, i, reference)?;
    let t0 = Instant::now();
    let replayed = replay(kind, &trace);
    m.spans.record(Site::DramReplay, t0.elapsed().as_nanos() as u64);
    replayed.map_err(|e| format!("{what}: {e}"))?;
    m.cmds += trace.len() as u64;
    m.sim_ns += b.cell_ns();
    Ok(())
}

/// The traced run. Once: every cell through `run_cells` with per-cell
/// spans (the `exec` layer and the reference reports). Then, until
/// `seconds` have passed (at least once), [`traced_cell`] on every cell.
/// A cell fails when any of these steps fails for it.
pub fn traced(b: &Bench, seconds: f64, cost: &TimerCost) -> Outcome {
    let n = b.cell_count();
    let mut tally = Tally::default();
    let mut expect = Expect::new(b);
    let (results, ex) = exec(b, |w, k| b.run_cell(w, k));
    // The first failure of each cell, over every step.
    let mut errs: Vec<Option<String>> = vec![None; n];
    let mut reports: Vec<Option<SimReport>> = Vec::with_capacity(n);
    for (i, r) in results.into_iter().enumerate() {
        let checked = expect.check(b, i, &r);
        reports.push(r.ok().filter(|_| checked.is_ok()));
        errs[i] = checked.err();
    }
    if b.sweep {
        if let Some(all) = reports.iter().cloned().collect::<Option<Vec<_>>>() {
            let text = render_report(b.spec.which, &b.workloads, &all);
            if let Err(e) = expect.check_rendered(&text) {
                tally.problems.push(e);
            }
        }
    }

    let mut m = Measured::default();
    let mut pace = Pace::new();
    for &(s, e) in &ex.cells {
        m.spans.record(Site::ExecCell, ((e - s) * 1e9) as u64);
    }
    let start = Instant::now();
    loop {
        for i in 0..n {
            if errs[i].is_some() {
                continue;
            }
            let Some(reference) = &reports[i] else { continue };
            if let Err(e) = traced_cell(b, i, reference, &mut pace, &mut m) {
                errs[i] = Some(e);
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    for e in errs {
        tally.cell(e.map_or(Ok(()), Err));
    }
    let metrics = layer_metrics(b, cost, &m, &ex, &reports);
    Outcome { metrics, tally, spans: Some(m.spans) }
}

/// The per-layer metrics from what the traced run measured.
fn layer_metrics(
    b: &Bench,
    cost: &TimerCost,
    m: &Measured,
    ex: &ExecSpans,
    reports: &[Option<SimReport>],
) -> Vec<Metric> {
    const DRIVER_SITES: [Site; 11] = [
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
    ];
    let (spans, work) = (&m.spans, &m.work);
    // The driver's wall time less the timer's cost is its time inside
    // the layer calls plus its own (`core`) time outside them, so the
    // driver shares and `core.self_share` add up to 1.
    let in_calls: f64 = DRIVER_SITES.iter().map(|&s| cost.span_ns(spans, s)).sum();
    let own = cost.self_ns(m.driver_ns, spans, &DRIVER_SITES);
    let wall = in_calls + own;
    let ns = |s: Site| cost.span_ns(spans, s);
    let count = |s: Site| spans.count(s) as f64;
    let share = |t: f64| ratio(t, wall);
    let per_sim = |n: f64| ratio(n, m.sim_ns as f64);
    let cmds = m.cmds as f64;
    let wheel = [Site::WheelPush, Site::WheelPop, Site::WheelNext];
    let replay_ns = spans.raw_ns(Site::DramReplay);

    let mut cells: Vec<f64> = ex.cells.iter().map(|(s, e)| e - s).collect();
    cells.sort_by(f64::total_cmp);
    let last_claim = ex.cells.iter().map(|&(s, _)| s).fold(0.0, f64::max);
    let jobs = b.jobs.min(b.cell_count()).max(1) as f64;

    let ok: Vec<&SimReport> = reports.iter().flatten().collect();
    let mean = |f: fn(&SimReport) -> f64| ratio(ok.iter().map(|r| f(r)).sum(), ok.len() as f64);
    let atoms: u64 = ok.iter().map(|r| r.read_atoms + r.write_atoms).sum();
    let acts: u64 = ok.iter().map(|r| r.activates).sum();

    vec![
        metric("ctrl.tick_share", share(ns(Site::CtrlTick))),
        metric("ctrl.tick_ns_per_cmd", ratio(ns(Site::CtrlTick), cmds)),
        metric("ctrl.ticks_per_sim_ns", per_sim(count(Site::CtrlTick))),
        metric("ctrl.enqueue_share", share(ns(Site::CtrlEnqueue))),
        metric("ctrl.enqueue_reject_frac", ratio(work.rejects as f64, count(Site::CtrlEnqueue))),
        metric("ctrl.pending_mean", ratio(work.pending_sum as f64, count(Site::CtrlTick))),
        metric("dram.replay_ns_per_cmd", ratio(replay_ns, cmds)),
        metric("dram.replay_share", share(replay_ns)),
        metric("dram.cmds_per_sim_ns", per_sim(cmds)),
        metric("wheel.share", share(wheel.iter().map(|&s| ns(s)).sum())),
        metric("wheel.ops_per_sim_ns", per_sim(wheel.iter().map(|&s| count(s)).sum())),
        metric("gpu.issue_share", share(ns(Site::GpuIssue))),
        metric("gpu.issue_ns_per_sector", ratio(ns(Site::GpuIssue), work.sectors as f64)),
        metric("gpu.sector_done_share", share(ns(Site::GpuSectorDone))),
        metric("gpu.sectors_per_sim_ns", per_sim(work.sectors as f64)),
        metric("l2.access_share", share(ns(Site::L2Access))),
        metric("l2.access_ns_per_call", ratio(ns(Site::L2Access), count(Site::L2Access))),
        metric("l2.blocked_frac", ratio(work.l2_blocked as f64, count(Site::L2Access))),
        metric("l2.blocked_backlog_mean", ratio(work.backlog_sum as f64, work.steps as f64)),
        metric("core.steps_per_sim_ns", per_sim(work.steps as f64)),
        metric("core.self_share", share(own)),
        metric("exec.parallel_efficiency", ratio(cells.iter().sum(), jobs * ex.wall_s)),
        metric("exec.tail_s", ex.wall_s - last_claim),
        metric("exec.cell_s_p50", median(&cells)),
        metric("exec.cell_s_max", cells.last().copied().unwrap_or(0.0)),
        metric("ctrl.row_hit_rate", mean(|r| r.row_hit_rate)),
        metric("l2.hit_rate", mean(|r| r.l2_hit_rate)),
        metric("dram.atoms_per_act", ratio(atoms as f64, acts as f64)),
        metric("trace.overhead_frac", ratio(m.driver_ns, m.untraced_ns) - 1.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let start = json.find(&format!("\"{section}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |s: &str, key: &str| -> String {
            let at = s.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
            s[at..at + s[at..].find('"').expect("string closes")].to_string()
        };
        body.split('{').skip(1).map(|entry| (field(entry, "name"), field(entry, "unit"))).collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
    }

    fn tiny(name: &str) -> Bench {
        Bench::new(name, SUITE_SEED).expect("known workload").with_horizon(200, 600, 2)
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn every_metric_is_printed_with_its_unit() {
        let cost = TimerCost::calibrate();
        for name in WORKLOADS {
            let b = tiny(name);
            for (out, want) in
                [(untraced(&b, 0.0), &END_TO_END[..]), (traced(&b, 0.0, &cost), &PER_LAYER[..])]
            {
                assert!(out.tally.correct(), "{name}: {:?}", out.tally.problems);
                let text = out.render();
                let json = text.lines().last().expect("output ends with the JSON line");
                for &(metric, unit) in want {
                    let line = text
                        .lines()
                        .find(|l| l.split_whitespace().next() == Some(metric))
                        .unwrap_or_else(|| panic!("{name}: {metric} not printed"));
                    assert_eq!(line.split_whitespace().nth(2), Some(unit), "{name}: {line}");
                    let entry = format!("\"{metric}\": {{\"value\": ");
                    assert!(json.contains(&entry), "{name}: {metric} missing from {json}");
                    assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
                }
                assert_eq!(out.metrics.len(), want.len(), "{name}: extra metrics");
            }
        }
    }

    #[test]
    fn core_self_share_is_positive_and_shares_add_up_to_at_most_one() {
        let b =
            Bench::new("stream-qbhbm", SUITE_SEED).expect("known").with_horizon(1_000, 4_000, 1);
        let out = traced(&b, 0.0, &TimerCost::calibrate());
        assert!(out.tally.correct(), "{:?}", out.tally.problems);
        let value = |name: &str| {
            out.metrics.iter().find(|m| m.name == name).map(|m| m.value).expect("metric reported")
        };
        let own = value("core.self_share");
        assert!(own > 0.0, "core.self_share {own}");
        let shares = [
            "ctrl.tick_share",
            "ctrl.enqueue_share",
            "wheel.share",
            "gpu.issue_share",
            "gpu.sector_done_share",
            "l2.access_share",
            "core.self_share",
        ];
        let sum: f64 = shares.iter().map(|s| value(s)).sum();
        assert!(sum <= 1.0 + 1e-9, "driver shares add up to {sum}");
        for s in shares {
            assert!(value(s) >= 0.0, "{s} {}", value(s));
        }
    }

    #[test]
    fn a_cell_returning_sim_error_counts_in_fail_frac() {
        let b = tiny("compute-sweep");
        assert_eq!(b.cell_count(), 4);
        let broken = b.workloads[1].name.clone();
        let mut tally = Tally::default();
        sweep_rep(&b, &mut Expect::new(&b), &mut tally, |w, k| {
            if w.name == broken && k == DramKind::Fgdram {
                let mut cfg = DramConfig::new(k);
                cfg.channels = 3; // not a power of two: a typed config error
                SystemBuilder::new(k).dram_config(cfg).workload(w.clone()).run(200, 600)
            } else {
                b.run_cell(w, k)
            }
        });
        assert_eq!((tally.attempted, tally.failed), (4, 1), "{:?}", tally.problems);
        assert_eq!(tally.fail_frac(), 0.25);
        assert!(!tally.correct());
        assert!(tally.problems[0].contains("configuration error"), "{:?}", tally.problems);
    }

    #[test]
    fn a_perturbed_pinned_digest_fails_every_cell() {
        let mut b = tiny("compute-sweep");
        let mut tally = Tally::default();
        sweep_rep(&b, &mut Expect::new(&b), &mut tally, |w, k| b.run_cell(w, k));
        assert!(tally.correct(), "{:?}", tally.problems);
        b.pinned = Some(Pinned { cells: &[1, 2, 3, 4], rendered: Some(5) });
        let mut tally = Tally::default();
        sweep_rep(&b, &mut Expect::new(&b), &mut tally, |w, k| b.run_cell(w, k));
        assert_eq!((tally.attempted, tally.failed), (4, 4));
        assert!(tally.problems.iter().any(|p| p.contains("rendered suite report")));
    }

    #[test]
    fn driver_reproduces_the_system_on_every_compute_app() {
        let b = Bench::new("compute-sweep", SUITE_SEED).expect("known").with_horizon(
            100,
            500,
            usize::MAX,
        );
        for i in 0..b.cell_count() {
            let (w, k) = b.cell(i);
            let r = b.run_cell(w, k).expect("cell runs");
            let mut d = Driver::new(w, k).expect("driver builds");
            d.run_for(100).expect("warm-up runs");
            d.reset_stats();
            d.run_for(500).expect("window runs");
            check::counts_match(&w.name, d.counts(), Counts::of(&r)).unwrap();
        }
    }

    #[test]
    fn run_system_reports_what_suite_run_cell_reports() {
        let b = Bench::new("compute-sweep", 7).expect("known").with_horizon(100, 500, usize::MAX);
        let mut pace = Pace::new();
        for i in 0..b.cell_count() {
            let (w, k) = b.cell(i);
            // Probes between `run_for` calls of 70 ns: the chunks must not
            // change what is simulated.
            let (r, _) = run_system(w, k, (100, 500), 70, &mut pace).expect("cell runs");
            let want = b.spec.run_cell(w, k).expect("cell runs").report;
            assert_eq!(check::report_digest(&r), check::report_digest(&want), "{}", w.name);
        }
    }

    #[test]
    fn seed_replaces_every_workload_seed_and_default_keeps_the_suite() {
        let suite = suites::compute_suite();
        let at_default = Bench::new("compute-sweep", SUITE_SEED).expect("known");
        assert_eq!(at_default.workloads, suite);
        assert!(at_default.pinned.is_some());
        let other = Bench::new("compute-sweep", 7).expect("known");
        assert!(other.pinned.is_none());
        assert!(other.workloads.iter().zip(&suite).all(|(a, b)| a.seed != b.seed));
        let mut seeds: Vec<u64> = other.workloads.iter().map(|w| w.seed).collect();
        seeds.dedup();
        assert_eq!(seeds.len(), suite.len());
    }
}
