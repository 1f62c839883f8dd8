//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one benchmark workload, prints every metric as `name value unit`,
//! and ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones (and the span table on stderr). `--horizon` replaces
//! the workload's warm-up and window (in simulated ns; no pinned digest
//! applies then). `perfbench --pin` prints the digest table `check.rs`
//! pins, at the default seed.
//!
//! Exit codes: 0 when every output check passed, 1 when one failed, 2 on
//! a usage error.

use std::io::Write as _;
use std::process::ExitCode;

use fgdram_perfbench::bench::{self, Bench, SUITE_SEED, WORKLOADS};
use fgdram_perfbench::check;
use fgdram_perfbench::spans::TimerCost;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    horizon: Option<(u64, u64)>,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--horizon WARMUP,WINDOW]\n       perfbench --pin",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: SUITE_SEED,
        seconds: 10.0,
        trace: false,
        horizon: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds >= 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be a finite number >= 0".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--horizon" => {
                let v = value()?;
                let (w, n) = v.split_once(',').ok_or("--horizon takes WARMUP,WINDOW in ns")?;
                let ns = |x: &str| x.parse::<u64>().map_err(|e| format!("--horizon: {e}"));
                a.horizon = Some((ns(w)?, ns(n)?.max(1)));
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

/// Prints the pinned-digest table for `check.rs` from one default-seed
/// repetition of each workload.
fn pin() -> ExitCode {
    println!("const PINNED: &[(&str, Pinned)] = &[");
    for name in WORKLOADS {
        let b = Bench::new(name, SUITE_SEED).expect("listed workload");
        let (results, _) = bench::exec(&b, |w, k| b.run_cell(w, k));
        let reports: Vec<_> = match results.into_iter().collect::<Result<Vec<_>, _>>() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::from(1);
            }
        };
        let cells: Vec<String> =
            reports.iter().map(|r| format!("0x{:016x}", check::report_digest(r))).collect();
        let rendered = if b.sweep {
            let text = fgdram_core::suite::render_report(b.spec.which, &b.workloads, &reports);
            format!("Some(0x{:016x})", check::digest(&text))
        } else {
            "None".to_string()
        };
        let rows: Vec<String> =
            cells.chunks(4).map(|c| format!("                {},", c.join(", "))).collect();
        println!("    (");
        println!("        \"{name}\",");
        println!("        Pinned {{");
        println!("            cells: &[\n{}\n            ],", rows.join("\n"));
        println!("            rendered: {rendered},");
        println!("        }},");
        println!("    ),");
    }
    println!("];");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw == ["--pin"] {
        return pin();
    }
    let args = match parse(raw.into_iter()) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let Some(mut b) = Bench::new(&args.workload, args.seed) else {
        return usage(&format!("unknown workload {:?}", args.workload));
    };
    if let Some((warmup, window)) = args.horizon {
        b = b.with_horizon(warmup, window, usize::MAX);
    }
    let out = if args.trace {
        let cost = TimerCost::calibrate();
        let out = bench::traced(&b, args.seconds, &cost);
        let mut err = std::io::stderr().lock();
        let _ = writeln!(
            err,
            "# timer: empty span records {:.1} ns, adds {:.1} ns",
            cost.recorded_ns, cost.added_ns
        );
        if let Some(spans) = &out.spans {
            let _ = spans.write_table(&cost, &mut err);
        }
        out
    } else {
        bench::untraced(&b, args.seconds)
    };
    print!("{}", out.render());
    if out.tally.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
