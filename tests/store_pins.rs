//! Byte pins of the checkpoint store. A fabric cell's checkpoint ladder
//! (`advance_cell` at each slice target) must leave exactly these bytes
//! on disk after every slice, and its last checkpoint must equal the
//! store of one straight persisted campaign at the full budget. A
//! refactor of the campaign driver, the resume path or the finalize
//! pass is thereby checked to write the same stores.
//!
//! A change that is meant to move stored bytes (a new record field, a
//! different minimizer) updates these pins and says so.

use eof::core::fabric::{advance_cell, slice_target_hours};
use eof::core::persist::{self, CampaignStore, StoreError};
use eof::core::{run_campaign, Campaign, FuzzerConfig};
use eof::coverage::CoverageKind;
use eof::rtos::OsKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// One pinned ladder: its config recipe and what each slice leaves.
struct Ladder {
    os: OsKind,
    /// `FuzzerConfig::eof_cmplog` (MMIO + cmplog) instead of `eof`.
    cmplog: bool,
    backend: CoverageKind,
    vectored: bool,
    hours: f64,
    /// Per slice: (store digest, regular files, prefix entries verified).
    slices: &'static [(u64, usize, usize)],
    /// Executions of the straight run at the full budget.
    execs: u64,
}

impl Ladder {
    /// The cell's config with every environment-defaulted field set.
    fn config(&self) -> FuzzerConfig {
        let mut c = if self.cmplog {
            FuzzerConfig::eof_cmplog(self.os, 1)
        } else {
            FuzzerConfig::eof(self.os, 1)
        };
        c.budget_hours = self.hours;
        c.snapshot_hours = self.hours / 4.0;
        c.snapshot = true;
        c.vectored = self.vectored;
        c.coverage_backend = self.backend;
        c.cmplog = self.cmplog;
        c
    }

    fn target(&self, slice: usize) -> f64 {
        slice_target_hours(self.hours, self.slices.len(), slice)
    }
}

/// The FreeRTOS ring ladder, vectored, 0.08 h in 4 slices.
fn freertos() -> Ladder {
    Ladder {
        os: OsKind::FreeRtos,
        cmplog: false,
        backend: CoverageKind::Ring,
        vectored: true,
        hours: 0.08,
        slices: &[
            (0x0414_26e1_4d75_bfa5, 54, 0),
            (0x6689_c681_644d_2278, 88, 178),
            (0xcb37_a440_8541_05b7, 110, 275),
            (0xd9f1_bf13_d7ae_0e44, 130, 339),
        ],
        execs: 1002,
    }
}

fn ladders() -> Vec<Ladder> {
    vec![
        freertos(),
        Ladder {
            os: OsKind::NuttX,
            slices: &[
                (0xa75c_b47f_922b_5df4, 63, 0),
                (0x459d_d6eb_dd81_c5d2, 114, 167),
                (0x40a3_8ee6_c028_e31c, 149, 279),
                (0x1fcd_9618_5f59_8044, 176, 357),
            ],
            execs: 1210,
            ..freertos()
        },
        Ladder {
            vectored: false,
            slices: &[
                (0x023c_114c_4497_9476, 55, 0),
                (0xa490_1a89_791f_3044, 91, 180),
            ],
            execs: 536,
            ..freertos()
        },
        Ladder {
            os: OsKind::Zephyr,
            cmplog: true,
            backend: CoverageKind::Trace,
            hours: 0.1,
            slices: &[
                (0xd0b3_84d4_a13a_4428, 122, 0),
                (0x5f89_f601_a2ba_f622, 172, 351),
            ],
            execs: 1191,
            ..freertos()
        },
    ]
}

fn tmpdir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "eof-store-pins-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every regular file under `dir`, as `/`-separated relative paths.
fn files_under(dir: &Path, prefix: &str, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).unwrap().flatten() {
        let name = format!("{prefix}{}", entry.file_name().to_string_lossy());
        let kind = entry.file_type().unwrap();
        if kind.is_dir() {
            files_under(&entry.path(), &format!("{name}/"), out);
        } else if kind.is_file() {
            out.push(name);
        }
    }
}

/// FNV-1a 64 over the store's files sorted by relative path: for each,
/// the path bytes, `\n`, then the file bytes. Also returns the count.
fn store_digest(dir: &Path) -> (u64, usize) {
    let mut paths = Vec::new();
    files_under(dir, "", &mut paths);
    paths.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &paths {
        let bytes = std::fs::read(dir.join(path)).unwrap();
        for &b in path.as_bytes().iter().chain(b"\n").chain(&bytes) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    (h, paths.len())
}

#[test]
fn checkpoint_stores_are_byte_pinned() {
    let mut drift = Vec::new();
    for ladder in ladders() {
        let config = ladder.config();
        let label = format!(
            "{} {:?} vectored={} cmplog={}",
            ladder.os, ladder.backend, ladder.vectored, ladder.cmplog
        );
        let dir = tmpdir("ladder");
        for (k, &pinned) in ladder.slices.iter().enumerate() {
            let report = advance_cell(&config, &dir, ladder.target(k));
            let (digest, files) = store_digest(&dir);
            let got = (digest, files, report.prefix_verified);
            if got != pinned {
                drift.push(format!(
                    "{label} slice {k}: got digest {digest:016x}, {files} files, \
                     {} verified; pinned {:016x}, {}, {}",
                    report.prefix_verified, pinned.0, pinned.1, pinned.2
                ));
            }
        }
        // The ladder's last checkpoint is the straight run's store.
        let straight_dir = tmpdir("straight");
        let mut straight = config.clone();
        straight.persist = Some(straight_dir.clone());
        let execs = run_campaign(straight).stats.execs;
        if execs != ladder.execs {
            drift.push(format!(
                "{label}: straight run made {execs} execs, pinned {}",
                ladder.execs
            ));
        }
        if store_digest(&straight_dir) != store_digest(&dir) {
            drift.push(format!(
                "{label}: ladder store differs from the straight run's"
            ));
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&straight_dir);
    }
    assert!(
        drift.is_empty(),
        "checkpoint store bytes drifted:\n{}",
        drift.join("\n")
    );
}

/// Land slice 0 of the FreeRTOS ladder in `dir`, then rewrite its
/// coverage record with one edge the campaign never covers.
fn diverged_checkpoint(ladder: &Ladder, dir: &Path) {
    let config = ladder.config();
    advance_cell(&config, dir, ladder.target(0));
    let loaded = persist::open(dir).unwrap();
    let mut edges = loaded.coverage_edges.clone();
    edges.push(0xdead_beef_dead_beef);
    let m = &loaded.manifest;
    let mut store = CampaignStore::create(dir, &config).unwrap();
    store.write_coverage(&edges);
    store.write_manifest(
        m.consumed_hours,
        m.branches,
        m.replay_branches,
        m.seed_count,
        m.crash_count,
        m.execs,
    );
}

#[test]
fn a_diverged_checkpoint_is_refused_then_discarded() {
    let ladder = freertos();
    let mut config = ladder.config();
    config.budget_hours = ladder.target(1);

    // Resume refuses the checkpoint, names the edge, and finalizes
    // nothing: the store is left without a manifest.
    let dir = tmpdir("diverged");
    diverged_checkpoint(&ladder, &dir);
    match Campaign::resume(config.clone(), &dir) {
        Err(StoreError::Diverged(why)) => {
            assert!(why.contains("0xdeadbeefdeadbeef"), "{why}")
        }
        Err(e) => panic!("expected a divergence, got {e}"),
        Ok(_) => panic!("a diverged checkpoint resumed"),
    }
    assert!(!dir.join("manifest.eof").exists());

    // The fabric discards it and re-derives the slice from zero,
    // landing the clean ladder's slice-1 store.
    let discarded = tmpdir("discarded");
    diverged_checkpoint(&ladder, &discarded);
    let report = advance_cell(&ladder.config(), &discarded, ladder.target(1));
    assert_eq!(report.checkpoints_discarded, 1);
    assert_eq!(report.prefix_verified, 0);
    assert_eq!(store_digest(&discarded).0, ladder.slices[1].0);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&discarded);
}
