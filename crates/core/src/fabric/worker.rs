//! The fabric worker: one cell advanced slice by slice through
//! checkpoints in the PR-4 persist store.
//!
//! A cell's campaign (budget `B`, `slices` checkpoints) is executed as
//! a ladder of growing budgets: slice `k` takes the campaign to
//! `B·(k+1)/slices` simulated hours and lands a *complete* store
//! (manifest last) in the cell's checkpoint directory. A slice is one
//! [`Campaign`] with the slice's budget: started fresh for the first
//! slice, [`Campaign::resume`]d from the checkpoint for every later one
//! (re-derive up to the checkpoint, prefix-verify it there, fuzz on),
//! then finished. Campaigns are bit-deterministic in `(config, seed)`
//! and simulated time is free, so a replacement worker picking up a
//! dead worker's cell runs the *same* procedure — resuming from the
//! last valid checkpoint is the normal path, not a special recovery
//! mode.
//!
//! Checkpoint damage degrades, never kills: a torn entry inside the
//! store is persist's counted skip (the resume still verifies the
//! surviving prefix); a torn *manifest* makes the checkpoint unusable,
//! so it is discarded and the slice re-runs from scratch — again free
//! in simulated time, and counted in the cell's outcome.

use std::path::Path;

use crate::campaign::Campaign;
use crate::config::FuzzerConfig;
use crate::persist::StoreError;
use eof_hal::FaultPlan;
use eof_rtos::bugs::BugId;
use std::collections::BTreeSet;

/// What one executed slice reports back to the coordinator.
#[derive(Debug, Clone, Default)]
pub struct SliceReport {
    /// Simulated hours the checkpoint now covers.
    pub consumed_hours: f64,
    /// Coverage edges after this slice, sorted ascending (the
    /// coordinator merges these into the fabric bitmap every
    /// heartbeat, not just at completion).
    pub coverage_edges: Vec<u64>,
    /// Bugs found so far.
    pub bugs: BTreeSet<BugId>,
    /// Store entries persist skipped as corrupt while resuming.
    pub checkpoint_skips: usize,
    /// 1 when a torn checkpoint was discarded and re-derived fresh.
    pub checkpoints_discarded: usize,
    /// Prefix entries [`Campaign::resume`] verified (seeds + crashes +
    /// coverage edges re-derived up to the checkpoint).
    pub prefix_verified: usize,
    /// Final campaign result once the last slice lands.
    pub finished: Option<FinishedCell>,
}

/// The completed cell, as the worker hands it to the merge.
#[derive(Debug, Clone)]
pub struct FinishedCell {
    /// Distinct branches of the final coverage map.
    pub branches: usize,
    /// Executions performed.
    pub execs: u64,
    /// Unique crash classes found.
    pub crashes: usize,
    /// Supervisor resilience accounting of the final full-budget
    /// derivation.
    pub resilience: crate::supervisor::ResilienceStats,
    /// Merged telemetry summary of the final full-budget derivation,
    /// when recording was on.
    pub telemetry: Option<eof_telemetry::TelemetrySummary>,
}

/// Budget the checkpoint ladder targets at slice `k` (0-based) of
/// `slices`. Pure f64 arithmetic on fixed inputs, so every worker —
/// and every *re*-worker after a reassignment — computes bit-identical
/// targets, which the resume budget checks rely on. The last slice
/// targets exactly `total_hours`: `total·s/s` can miss it by an ulp
/// when `s` is not a power of two.
pub fn slice_target_hours(total_hours: f64, slices: usize, slice: usize) -> f64 {
    if slice + 1 >= slices {
        return total_hours;
    }
    total_hours * (slice as f64 + 1.0) / slices as f64
}

/// Advance one cell to `target_hours`, checkpointing into `dir`.
///
/// Fresh directory (no manifest) ⇒ start the campaign from zero with
/// persistence attached. Existing checkpoint ⇒ resume and
/// prefix-verify it. A checkpoint whose manifest is torn or whose
/// prefix diverged is discarded (counted) and the slice re-runs from
/// zero — recovery is always *forward*, never wedged. Either way the
/// campaign then finishes at `target_hours`, landing the next
/// checkpoint.
pub fn advance_cell(config: &FuzzerConfig, dir: &Path, target_hours: f64) -> SliceReport {
    let mut report = SliceReport {
        consumed_hours: target_hours,
        ..SliceReport::default()
    };
    let mut sliced = config.clone();
    sliced.budget_hours = target_hours;
    sliced.persist = Some(dir.to_path_buf());

    let resumed = if dir.join("manifest.eof").exists() {
        match Campaign::resume(sliced.clone(), dir) {
            Ok((campaign, verified)) => {
                report.checkpoint_skips = verified.skips.total();
                report.prefix_verified =
                    verified.verified_seeds + verified.verified_crashes + verified.verified_edges;
                Some(campaign)
            }
            Err(StoreError::Io(_))
            | Err(StoreError::Corrupt(_))
            | Err(StoreError::ForeignSchema { .. })
            | Err(StoreError::MissingManifest(_))
            | Err(StoreError::Diverged(_)) => {
                // The checkpoint is unusable (torn manifest, foreign
                // bytes, or a prefix that no longer verifies). Discard
                // it and re-derive from zero — simulated time makes the
                // rerun free, and determinism makes it equivalent.
                report.checkpoints_discarded += 1;
                let _ = std::fs::remove_dir_all(dir);
                None
            }
            Err(e @ StoreError::ConfigMismatch(_)) => {
                // A config mismatch is a caller bug, not a fault to
                // absorb: the fabric handed this worker the wrong cell.
                panic!("fabric cell/checkpoint mismatch at {}: {e}", dir.display());
            }
        }
    } else {
        None
    };
    let mut campaign = resumed.unwrap_or_else(|| Campaign::start(sliced, FaultPlan::none(), false));
    campaign.advance_to(target_hours);
    report.coverage_edges = campaign.fuzzer().executor().coverage().sorted_edges();

    let result = campaign.finish();
    report.bugs = result.bugs.iter().copied().collect();
    if target_hours >= config.budget_hours {
        report.finished = Some(FinishedCell {
            branches: result.branches,
            execs: result.stats.execs,
            crashes: result.crashes.len(),
            resilience: result.resilience,
            telemetry: result.telemetry.as_ref().map(|r| r.summary()),
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist;
    use eof_rtos::OsKind;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "eof-fabworker-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cell(os: OsKind, seed: u64, hours: f64) -> FuzzerConfig {
        let mut c = FuzzerConfig::eof(os, seed);
        c.budget_hours = hours;
        c.snapshot_hours = hours / 4.0;
        c
    }

    #[test]
    fn slice_targets_are_monotone_and_exact() {
        let total = 0.12;
        let targets: Vec<f64> = (0..4).map(|k| slice_target_hours(total, 4, k)).collect();
        assert!(targets.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(targets[3], total, "last slice lands the full budget");
        // Recomputation is bit-identical (reassigned workers rely on it).
        assert_eq!(
            slice_target_hours(total, 4, 2).to_bits(),
            slice_target_hours(total, 4, 2).to_bits()
        );
    }

    #[test]
    fn last_slice_targets_the_budget_exactly() {
        // `total·s/s` misses `total` by an ulp for some slice counts
        // (1.4 h in 3 slices gives 1.3999999999999997); the last slice
        // must land the budget bit for bit or the cell never finishes.
        for t in 1..=2000u32 {
            let total = f64::from(t) / 100.0;
            for slices in 1..=8 {
                let last = slice_target_hours(total, slices, slices - 1);
                assert_eq!(last.to_bits(), total.to_bits(), "{total} h in {slices}");
            }
            // Power-of-two ladders keep the plain formula's targets.
            for slices in [1usize, 2, 4, 8] {
                for k in 0..slices {
                    let plain = total * (k as f64 + 1.0) / slices as f64;
                    assert_eq!(
                        slice_target_hours(total, slices, k).to_bits(),
                        plain.to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn a_last_slice_off_a_power_of_two_finishes_the_cell() {
        let config = cell(OsKind::PokOs, 7, 1.4);
        let dir = tmpdir("three-slices");
        let report = advance_cell(&config, &dir, slice_target_hours(1.4, 3, 2));
        assert!(
            report.finished.is_some(),
            "the last slice left the cell open"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_ladder_matches_a_straight_run() {
        let config = cell(OsKind::FreeRtos, 7, 0.08);
        let dir = tmpdir("ladder");
        let mut last = None;
        for k in 0..4 {
            let target = slice_target_hours(config.budget_hours, 4, k);
            let report = advance_cell(&config, &dir, target);
            assert_eq!(report.checkpoints_discarded, 0);
            assert_eq!(report.checkpoint_skips, 0);
            if k > 0 {
                assert!(report.prefix_verified > 0, "slice {k} verified nothing");
            }
            last = Some(report);
        }
        let last = last.unwrap();
        let finished = last.finished.expect("final slice finishes the cell");
        // The ladder's endpoint is the plain campaign, bit for bit.
        let mut straight = config.clone();
        straight.persist = None;
        let reference = crate::campaign::run_campaign(straight);
        assert_eq!(finished.branches, reference.branches);
        assert_eq!(finished.execs, reference.stats.execs);
        assert_eq!(
            last.bugs,
            reference.bugs.iter().copied().collect::<BTreeSet<_>>()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_manifest_discards_the_checkpoint_and_recovers() {
        let config = cell(OsKind::FreeRtos, 7, 0.08);
        let dir = tmpdir("torn-manifest");
        advance_cell(&config, &dir, slice_target_hours(0.08, 4, 0));
        // Tear the manifest the way a dying writer would: truncate it.
        let path = dir.join("manifest.eof");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        let report = advance_cell(&config, &dir, slice_target_hours(0.08, 4, 1));
        assert_eq!(report.checkpoints_discarded, 1);
        assert!(report.finished.is_none());
        // The re-derived checkpoint is complete and loadable again.
        let loaded = persist::open(&dir).unwrap();
        assert_eq!(loaded.skips.total(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_seed_entry_degrades_to_a_counted_skip() {
        let config = cell(OsKind::FreeRtos, 7, 0.08);
        let dir = tmpdir("torn-seed");
        advance_cell(&config, &dir, slice_target_hours(0.08, 4, 0));
        // Tear one persisted seed mid-record.
        let corpus = dir.join("corpus");
        let victim = std::fs::read_dir(&corpus)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|e| e == "seed"))
            .expect("checkpoint holds at least one seed");
        let text = std::fs::read_to_string(&victim).unwrap();
        std::fs::write(&victim, &text[..text.len() / 2]).unwrap();
        let report = advance_cell(&config, &dir, slice_target_hours(0.08, 4, 1));
        assert_eq!(report.checkpoints_discarded, 0, "store itself survives");
        assert_eq!(report.checkpoint_skips, 1, "the torn entry is counted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reassigned_worker_resumes_where_the_dead_one_stopped() {
        // Worker A checkpoints slice 0 and "dies"; worker B (a fresh
        // call) resumes from A's checkpoint and lands the same final
        // state a never-interrupted ladder produces.
        let config = cell(OsKind::Zephyr, 11, 0.08);
        let interrupted = tmpdir("handoff");
        advance_cell(&config, &interrupted, slice_target_hours(0.08, 2, 0));
        let report_b = advance_cell(&config, &interrupted, slice_target_hours(0.08, 2, 1));
        assert!(report_b.prefix_verified > 0, "B verified A's checkpoint");

        let clean = tmpdir("handoff-clean");
        advance_cell(&config, &clean, slice_target_hours(0.08, 2, 0));
        let report_clean = advance_cell(&config, &clean, slice_target_hours(0.08, 2, 1));
        assert_eq!(report_b.bugs, report_clean.bugs);
        assert_eq!(report_b.coverage_edges, report_clean.coverage_edges);
        let _ = std::fs::remove_dir_all(&interrupted);
        let _ = std::fs::remove_dir_all(&clean);
    }
}
