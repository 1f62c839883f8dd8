//! Output checks.
//!
//! A change meant only to speed the simulator up must leave every
//! simulated statistic identical, so the checks compare exact values:
//!
//! * at the default seed, each cell's `SimReport` `Debug` string (which
//!   prints every f64 so that it round-trips) hashes to a digest pinned
//!   here, and so does the sweep's rendered report;
//! * at any seed, every repetition of a cell reports exactly what the
//!   first did, and the report passes [`invariants`];
//! * at any seed, the traced run's driver counts equal the untraced report
//!   ([`counts_match`]) and the captured DRAM command trace passes
//!   `ProtocolChecker`.
//!
//! The digests are pinned at the workloads' default horizons. After an
//! intended behaviour change, `perfbench --pin` prints the new table.

use fgdram_core::SimReport;
use fgdram_model::units::Ns;

use crate::driver::Counts;

/// 64-bit FNV-1a of `s`.
pub fn digest(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Digest of a report's full `Debug` form.
pub fn report_digest(r: &SimReport) -> u64 {
    digest(&format!("{r:?}"))
}

/// Digests pinned at the default seed and horizon of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Pinned {
    /// One digest per cell, in cell order.
    pub cells: &'static [u64],
    /// Digest of the rendered suite report (sweeps only).
    pub rendered: Option<u64>,
}

/// The pinned digests of `workload`, if it has any.
pub fn pinned(workload: &str) -> Option<Pinned> {
    PINNED.iter().find(|(name, _)| *name == workload).map(|&(_, p)| p)
}

/// Fails when `actual` differs from the digest `expected` of `what`.
pub fn digest_matches(what: &str, actual: u64, expected: u64) -> Result<(), String> {
    if actual == expected {
        Ok(())
    } else {
        Err(format!("{what}: digest {actual:016x}, pinned {expected:016x}"))
    }
}

/// Fails when the driver's counts differ from the untraced report's.
pub fn counts_match(what: &str, driver: Counts, report: Counts) -> Result<(), String> {
    if driver == report {
        Ok(())
    } else {
        Err(format!("{what}: traced driver counted {driver:?}, System reported {report:?}"))
    }
}

/// Properties every report of a measured window has, whatever the seed.
pub fn invariants(r: &SimReport, window: Ns) -> Result<(), String> {
    let what = format!("{} on {}", r.workload, r.kind.label());
    if r.window_ns != window {
        return Err(format!("{what}: window {} ns, asked for {window} ns", r.window_ns));
    }
    if r.retired == 0 || r.read_atoms + r.write_atoms == 0 {
        return Err(format!("{what}: no progress in the window ({} retired)", r.retired));
    }
    let fracs = [r.utilisation, r.row_hit_rate, r.l2_hit_rate];
    if !fracs.iter().all(|f| (0.0..=1.0).contains(f)) {
        return Err(format!("{what}: a rate lies outside [0, 1]: {fracs:?}"));
    }
    Ok(())
}

/// Pinned digests at the default seed and horizon (see [`pinned`]).
const PINNED: &[(&str, Pinned)] = &[
    ("gups-fgdram", Pinned { cells: &[0x4f74d84e13be9ed9], rendered: None }),
    ("stream-qbhbm", Pinned { cells: &[0xbad8a0b608a2ed1b], rendered: None }),
    (
        "compute-sweep",
        Pinned {
            cells: &[
                0x5c0b1165d26f15d1,
                0x3b8653426ee68e6d,
                0xd38b950cac7e5339,
                0x981cdbbdf1bae871,
                0x2b43f7174d7487f6,
                0x3ff12e26261dcaf9,
                0x1406c7436af7face,
                0xab4a0c57bf870814,
                0x6331971f86cc68d9,
                0x2ea5e023c4f17ebd,
                0x223b35cf4752b105,
                0x8508892c33adb446,
                0x3556379a38d51886,
                0xcee247c8e45365a8,
                0x1742b56ce111b146,
                0x91b1680e1850103d,
                0x7c9a9eb3a3958273,
                0x78fd0cb8edd0b1db,
                0x01329f1cd406ed39,
                0xb5d77ffe8f8c03b7,
                0x0d64e2fc51c29773,
                0xeab054ce14b65bb0,
                0x2a86ae879a3a45e3,
                0xa16b7b8dd3f7efde,
                0xdbde56ffc4a7fa22,
                0xfcf6662f69148b86,
                0x165cea7102a9d7aa,
                0xd3b974d84ac464af,
                0x5d3d91ef259467d5,
                0x7e716a4cf44c909e,
                0x289cb15346db7ec8,
                0xf28bb3da009e1791,
                0x3f212fceb4fa1d89,
                0x713f63de5120b8c3,
                0xf414e31c4a6ae16a,
                0x97b67f9f4e271a30,
                0x7f5e1a0fe462ed4c,
                0x78e2d502d4ea89bb,
                0x4f31086516f510c0,
                0x3f80ea2bcfa2c0de,
                0xa5ab33e7797eb3ea,
                0x76b55c7728541ba7,
                0x69d7b0a08ed49610,
                0xcd95433f228381fa,
                0x2e66a85be693faf6,
                0x00e7d2ca1aa5d201,
                0xeab6607ed788e79c,
                0x1932914640eab415,
                0x6404f2cc46b5807e,
                0xb8c9c48677574d86,
                0x366c5ea04c64f82f,
                0x77b8394ad8d46c8a,
            ],
            rendered: Some(0xee01d02108a20fd2),
        },
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use fgdram_core::SystemBuilder;
    use fgdram_model::config::DramKind;
    use fgdram_workloads::suites;

    fn tiny(name: &str, kind: DramKind) -> SimReport {
        let w = suites::by_name(name).expect("in suite");
        SystemBuilder::new(kind).workload(w).run(200, 800).expect("tiny cell runs")
    }

    #[test]
    fn perturbed_report_fails_its_digest() {
        let r = tiny("GUPS", DramKind::Fgdram);
        let pin = report_digest(&r);
        assert!(digest_matches("cell", report_digest(&r), pin).is_ok());
        let mut bumped = r.clone();
        bumped.retired += 1;
        assert!(digest_matches("cell", report_digest(&bumped), pin).is_err());
        // A change in the last bit of one f64 shows too.
        let mut nudged = r;
        nudged.avg_read_latency_ns = f64::from_bits(nudged.avg_read_latency_ns.to_bits() ^ 1);
        assert!(digest_matches("cell", report_digest(&nudged), pin).is_err());
    }

    #[test]
    fn count_mismatch_fails() {
        let r = tiny("STREAM", DramKind::QbHbm);
        let c = Counts::of(&r);
        assert!(counts_match("cell", c, c).is_ok());
        for bump in 0..5 {
            let mut d = c;
            match bump {
                0 => d.retired += 1,
                1 => d.read_atoms += 1,
                2 => d.write_atoms += 1,
                3 => d.activates += 1,
                _ => d.refreshes += 1,
            }
            assert!(counts_match("cell", d, c).is_err(), "bump {bump} not caught");
        }
    }

    #[test]
    fn invariants_hold_on_a_real_cell_and_catch_an_empty_one() {
        let r = tiny("STREAM", DramKind::QbHbm);
        assert!(invariants(&r, 800).is_ok());
        assert!(invariants(&r, 900).is_err());
        let mut idle = r;
        idle.retired = 0;
        assert!(invariants(&idle, 800).is_err());
    }
}
