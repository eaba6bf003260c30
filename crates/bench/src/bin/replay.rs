//! The replay gate: load persisted campaign stores and prove their
//! contents still reproduce on the real executor stack.
//!
//! Three modes:
//!
//! * `replay [STORE_DIR ...]` — replay every store (default: the
//!   checked-in regression corpus under `tests/regression_corpus/`),
//!   write `results/replay.verdict.json`, exit non-zero if any case
//!   fails to reproduce. This is CI's `replay-gate` job.
//! * `replay --record <dir>` — regenerate the regression corpus by
//!   running the fixed corpus cells with persistence into `<dir>`.
//!   Campaigns are deterministic, so regenerating over the checked-in
//!   corpus must leave `git diff` clean.
//! * `replay --resume <dir> [total_hours]` — resume a persisted
//!   campaign to `total_hours` of simulated budget (default: double the
//!   consumed budget) and verify the store was an exact prefix of the
//!   re-derived run.
//!
//! With `EOF_TRACE=1` each store's replay is recorded and the merged
//! telemetry artifacts land in `results/replay.*` alongside the verdict.

use eof_core::persist;
use eof_core::replay::{replay_store, resume_campaign, ReplayReport};
use eof_core::FuzzerConfig;
use eof_rtos::OsKind;
use eof_telemetry as tel;
use std::path::{Path, PathBuf};

/// The fixed cells the regression corpus is built from: short,
/// deterministic campaigns that reliably admit seeds and find
/// confirmable crashes. The last field arms the MMIO peripheral plane
/// (`FuzzerConfig::eof_driver`) — that cell's store carries a
/// driver-bug reproducer, so the gate also proves the second input
/// plane round-trips through persistence.
const CORPUS_CELLS: &[(OsKind, u64, f64, bool)] = &[
    (OsKind::FreeRtos, 9, 0.1, false),
    (OsKind::RtThread, 3, 0.1, false),
    (OsKind::Zephyr, 5, 0.1, true),
];

/// Where the checked-in regression corpus lives.
const CORPUS_DIR: &str = "tests/regression_corpus";

fn corpus_stores(root: &Path) -> Vec<PathBuf> {
    let mut stores: Vec<PathBuf> = std::fs::read_dir(root)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.join("manifest.eof").is_file())
                .collect()
        })
        .unwrap_or_default();
    stores.sort();
    stores
}

fn record(dir: &Path) {
    for &(os, seed, hours, mmio) in CORPUS_CELLS {
        let suffix = if mmio { "-mmio" } else { "" };
        let store = dir.join(format!("{}-{seed}{suffix}", os.short()));
        eprintln!(
            "[replay] recording {} seed {seed} ({hours}h{}) -> {}",
            os.display(),
            if mmio { ", mmio" } else { "" },
            store.display()
        );
        let mut config = if mmio {
            FuzzerConfig::eof_driver(os, seed)
        } else {
            FuzzerConfig::eof(os, seed)
        };
        config.budget_hours = hours;
        config.snapshot_hours = hours / 4.0;
        config.persist = Some(store.clone());
        let result = eof_core::run_campaign(config);
        let audit = result.persist.expect("persisted campaign audits its store");
        assert_eq!(audit.write_errors, 0, "store writes failed");
        assert!(audit.seeds_written > 0, "cell admitted no seeds");
        assert!(
            audit.confirmed > 0,
            "{} seed {seed}: no confirmed crash — the corpus cell is useless as a gate",
            os.display()
        );
        assert!(
            !mmio || result.bugs.iter().any(|b| b.number() >= 20),
            "{} seed {seed}: MMIO cell found no driver bug — its store gates nothing new",
            os.display()
        );
        println!(
            "[replay] {}: {} seeds, {} crashes ({} confirmed, {} minimized), {} branches",
            store.display(),
            audit.seeds_written,
            audit.crashes_written,
            audit.confirmed,
            audit.minimized,
            result.branches
        );
    }
}

fn resume(dir: &Path, total_hours: Option<f64>) -> i32 {
    let loaded = match persist::open(dir) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("[replay] cannot open store {}: {e}", dir.display());
            return 2;
        }
    };
    let total = total_hours.unwrap_or(loaded.manifest.consumed_hours * 2.0);
    eprintln!(
        "[replay] resuming {} ({} seed {}, {}h consumed) to {total}h...",
        dir.display(),
        loaded.manifest.os.display(),
        loaded.manifest.seed,
        loaded.manifest.consumed_hours
    );
    match resume_campaign(dir, total) {
        Ok((result, outcome)) => {
            println!(
                "[replay] resumed: {} -> {} branches, {} execs; prefix verified ({} seeds, {} crashes, {} edges)",
                outcome.prior.branches,
                result.branches,
                result.stats.execs,
                outcome.verified_seeds,
                outcome.verified_crashes,
                outcome.verified_edges
            );
            0
        }
        Err(e) => {
            eprintln!("[replay] resume failed: {e}");
            1
        }
    }
}

fn replay_one(dir: &Path) -> (Result<ReplayReport, String>, Option<tel::Registry>) {
    let guard = tel::enabled().then(tel::begin);
    let outcome = replay_store(dir).map_err(|e| e.to_string());
    let registry = guard.map(|g| g.finish());
    (outcome, registry)
}

fn verdict_json(reports: &[(PathBuf, Result<ReplayReport, String>)]) -> String {
    let entries: Vec<String> = reports
        .iter()
        .map(|(dir, outcome)| match outcome {
            Ok(report) => report.to_json().trim_end().to_string(),
            Err(e) => format!(
                "{{\"store\": \"{}\", \"verdict\": \"ERROR\", \"error\": \"{}\"}}",
                dir.display(),
                e.replace('"', "'")
            ),
        })
        .collect();
    let all_pass = reports.iter().all(|(_, r)| {
        r.as_ref()
            .is_ok_and(|rep| rep.all_passed() && !rep.cases.is_empty())
    });
    format!(
        "{{\n\"verdict\": \"{}\",\n\"stores\": [\n{}\n]\n}}\n",
        if all_pass { "PASS" } else { "FAIL" },
        entries.join(",\n")
    )
}

fn gate(stores: &[PathBuf]) -> i32 {
    if stores.is_empty() {
        eprintln!("[replay] no stores found (looked in {CORPUS_DIR}/)");
        return 2;
    }
    let mut reports = Vec::new();
    let mut registries = Vec::new();
    for dir in stores {
        let (outcome, registry) = replay_one(dir);
        match &outcome {
            Ok(report) => {
                println!(
                    "[replay] {}: {} — {}/{} cases reproduced ({} unconfirmed skipped, {} load skips)",
                    dir.display(),
                    if report.all_passed() { "PASS" } else { "FAIL" },
                    report.passed(),
                    report.cases.len(),
                    report.skipped_unconfirmed,
                    report.skips.total()
                );
                for case in report.cases.iter().filter(|c| !c.pass) {
                    println!("[replay]   FAIL {} {}: {}", case.kind, case.id, case.detail);
                }
            }
            Err(e) => eprintln!("[replay] {}: ERROR — {e}", dir.display()),
        }
        registries.extend(registry);
        reports.push((dir.clone(), outcome));
    }
    let json = verdict_json(&reports);
    let _ = std::fs::create_dir_all("results");
    std::fs::write("results/replay.verdict.json", &json).expect("write replay verdict");
    println!("[written results/replay.verdict.json]");
    eof_bench::collect_registries(registries);
    let _ = eof_bench::export_telemetry("replay");
    if json.starts_with("{\n\"verdict\": \"PASS\"") {
        println!("[replay] gate PASSED ({} stores)", reports.len());
        0
    } else {
        eprintln!("[replay] gate FAILED");
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("--record") => {
            let dir = args
                .get(1)
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from(CORPUS_DIR));
            record(&dir);
            0
        }
        Some("--resume") => {
            let dir = PathBuf::from(args.get(1).expect("--resume needs a store directory"));
            let hours = args.get(2).map(|h| h.parse().expect("total hours parses"));
            resume(&dir, hours)
        }
        Some("--help" | "-h") => {
            println!(
                "usage: replay [STORE_DIR ...]        replay stores (default: {CORPUS_DIR}/*)\n       \
                 replay --record [DIR]         regenerate the regression corpus\n       \
                 replay --resume DIR [HOURS]   resume a persisted campaign"
            );
            0
        }
        Some(_) => gate(&args.iter().map(PathBuf::from).collect::<Vec<_>>()),
        None => gate(&corpus_stores(Path::new(CORPUS_DIR))),
    };
    std::process::exit(code);
}
