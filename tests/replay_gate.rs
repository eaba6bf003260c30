//! The CI replay gate, as a tier-1 test: the checked-in regression
//! corpus under `tests/regression_corpus/` must replay green, a
//! hand-broken reproducer must turn the gate red, and damaged store
//! entries must degrade to counted skips — never panics, never silent
//! passes.

use eof::core::persist;
use eof::prelude::*;
use std::path::{Path, PathBuf};

fn corpus_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/regression_corpus")
}

fn corpus_stores() -> Vec<PathBuf> {
    let mut stores: Vec<PathBuf> = std::fs::read_dir(corpus_root())
        .expect("tests/regression_corpus is checked in")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.join("manifest.eof").is_file())
        .collect();
    stores.sort();
    stores
}

fn scratch_copy(store: &Path, tag: &str) -> PathBuf {
    fn copy_dir(from: &Path, to: &Path) {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap().flatten() {
            let src = entry.path();
            let dst = to.join(entry.file_name());
            if src.is_dir() {
                copy_dir(&src, &dst);
            } else {
                std::fs::copy(&src, &dst).unwrap();
            }
        }
    }
    let dir = std::env::temp_dir().join(format!(
        "eof-gate-{tag}-{}-{}",
        std::process::id(),
        store.file_name().unwrap().to_string_lossy()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    copy_dir(store, &dir);
    dir
}

#[test]
fn checked_in_corpus_replays_green() {
    let stores = corpus_stores();
    assert!(!stores.is_empty(), "regression corpus is missing");
    for store in stores {
        let report = replay_store(&store).unwrap_or_else(|e| {
            panic!("store {} failed to load: {e}", store.display());
        });
        assert!(!report.cases.is_empty(), "{}: empty store", store.display());
        assert!(
            report.cases.iter().any(|c| c.kind == "crash"),
            "{}: no crash reproducer in the corpus",
            store.display()
        );
        let failing: Vec<_> = report.cases.iter().filter(|c| !c.pass).collect();
        assert!(
            failing.is_empty(),
            "{}: {} of {} cases failed to reproduce: {failing:?}",
            store.display(),
            failing.len(),
            report.cases.len()
        );
        assert_eq!(report.skips.total(), 0, "{}: load skips", store.display());
    }
}

#[test]
fn a_hand_broken_reproducer_turns_the_gate_red() {
    // Swap a stored crash reproducer's prog for one of the store's
    // benign seed progs, fixing up the prog field only — the record
    // stays well-formed, so the *replay* (not the parser) must catch it.
    let store = scratch_copy(&corpus_stores()[0], "tamper");
    let loaded = persist::open(&store).unwrap();
    let victim = loaded
        .crashes
        .iter()
        .find(|c| c.confirmed)
        .expect("corpus store holds a confirmed crash");
    let crash_path = store
        .join("crashes")
        .join(format!("{:016x}.crash", victim.key_hash));
    let crash_text = std::fs::read_to_string(&crash_path).unwrap();
    let seed_path = std::fs::read_dir(store.join("corpus"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .min()
        .unwrap();
    let seed_text = std::fs::read_to_string(seed_path).unwrap();
    let benign_prog = seed_text
        .lines()
        .find(|l| l.starts_with("prog = "))
        .unwrap()
        .to_string();
    let tampered: String = crash_text
        .lines()
        .map(|l| {
            if l.starts_with("prog = ") {
                benign_prog.clone()
            } else {
                l.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    assert_ne!(tampered, crash_text, "tampering had no effect");
    std::fs::write(&crash_path, tampered).unwrap();

    let report = replay_store(&store).unwrap();
    assert!(!report.all_passed(), "tampered store replayed green");
    assert!(
        report
            .cases
            .iter()
            .any(|c| !c.pass && c.kind == "crash" && c.id == format!("{:016x}", victim.key_hash)),
        "the tampered reproducer is the case that fails: {:?}",
        report.cases
    );
    assert!(report.to_json().contains("\"verdict\": \"FAIL\""));
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn damaged_entries_are_counted_skips_not_failures() {
    let store = scratch_copy(&corpus_stores()[0], "damage");
    let mut seeds = std::fs::read_dir(store.join("corpus"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .collect::<Vec<_>>();
    seeds.sort();
    // Truncate one seed mid-record and flip another's schema version.
    let truncated = std::fs::read_to_string(&seeds[0]).unwrap();
    std::fs::write(&seeds[0], &truncated[..truncated.len() / 2]).unwrap();
    let flipped = std::fs::read_to_string(&seeds[1])
        .unwrap()
        .replace("schema = 1", "schema = 999");
    std::fs::write(&seeds[1], flipped).unwrap();

    let loaded = persist::open(&store).unwrap();
    assert_eq!(loaded.skips.corrupt, 1);
    assert_eq!(loaded.skips.foreign_schema, 1);

    // Loading and replaying never panics on damage — but the gate must
    // notice the pool is incomplete: the per-seed coverage baseline is
    // prefix-dependent, so a lossy pool cannot reproduce its recorded
    // final branch count. Crash reproducers are self-contained and stay
    // green.
    let report = replay_store(&store).unwrap();
    assert_eq!(report.skips.total(), 2);
    assert!(
        report
            .cases
            .iter()
            .filter(|c| c.kind == "crash")
            .all(|c| c.pass),
        "crash reproducers must not depend on the seed pool: {:?}",
        report.cases
    );
    assert!(
        report.cases.iter().any(|c| c.kind == "coverage" && !c.pass),
        "a lossy seed pool replayed green: {:?}",
        report.cases
    );
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn corpus_resumes_to_a_longer_budget() {
    // The `--resume` path on the checked-in corpus: re-derive the
    // interrupted prefix and fuzz on; the persisted pool, crashes and
    // coverage must all verify as a prefix of the longer run.
    let store = scratch_copy(&corpus_stores()[0], "resume");
    let prior = persist::open(&store).unwrap().manifest;
    let (result, outcome) = resume_campaign(&store, prior.consumed_hours * 1.5)
        .unwrap_or_else(|e| panic!("resume failed: {e}"));
    assert!(outcome.verified_seeds > 0);
    assert!(outcome.verified_edges > 0);
    assert!(result.branches >= prior.branches);
    assert!(result.stats.execs > prior.execs);
    let reloaded = persist::open(&store).unwrap();
    assert_eq!(reloaded.manifest.branches, result.branches);
    let _ = std::fs::remove_dir_all(&store);
}
