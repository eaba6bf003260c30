//! Seeded chaos harness: full campaigns under randomized fault schedules.
//!
//! Nothing else in the repo runs the fuzzer *while the hardware
//! misbehaves*, yet that is exactly the regime the paper's liveness and
//! restoration machinery (§4.4) exists for — and the regime µAFL and
//! Ember-IO report as the operational reality of on-hardware fuzzing
//! (flaky probes, brownouts, silently corrupted campaigns). The harness
//! draws a deterministic schedule of injected faults from a seed, runs a
//! normal campaign under it, and checks the supervisor's contract:
//!
//! * the campaign completes (no panic, forward progress);
//! * the coverage curve stays monotone — recovery never corrupts the map;
//! * every recovery episode ends **recovered or reported** (a manual
//!   intervention is a report, a wedged campaign is a violation);
//! * no single recovery episode exceeds a hard time bound.
//!
//! Identical seeds reproduce identical schedules, campaigns and
//! [`ResilienceStats`] — asserted by the `chaos` bench and CI.

use crate::campaign::{Campaign, CampaignResult};
use crate::config::FuzzerConfig;
use crate::supervisor::ResilienceStats;
use eof_hal::clock::{secs_to_cycles, CYCLES_PER_SEC};
use eof_hal::{FaultPlan, InjectedFault};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Hard bound on one recovery episode, in simulated seconds. The worst
/// legitimate path is a full ladder walk where every rung's health
/// verify burns its whole continue budget (8 rung attempts × ~130 k
/// cycles of verification) plus inter-attempt backoff, the 60 s manual
/// intervention and a final full reflash — about 1 200 s. Anything past
/// 1 800 s means the ladder is looping, not escalating.
pub const MAX_RECOVERY_SECS: u64 = 1_800;

/// Kinds the schedule draws from, with their report labels.
const KINDS: [&str; 7] = [
    "flash_bit_flip",
    "freeze_firmware",
    "kill_core",
    "drop_link",
    "flaky_link",
    "brownout",
    "uart_garbage",
];

/// A chaos run: a base campaign plus a fault-schedule seed.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Campaign to torture. Its own `seed` controls fuzzing; the chaos
    /// seed below only controls the fault schedule.
    pub base: FuzzerConfig,
    /// Fault-schedule seed.
    pub chaos_seed: u64,
    /// Number of faults to inject across the campaign budget.
    pub faults: usize,
}

/// What a chaos run produced.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The underlying campaign result (includes `resilience`).
    pub result: CampaignResult,
    /// Faults scheduled, per kind label (same order as injected).
    pub fault_counts: Vec<(&'static str, usize)>,
    /// Total faults scheduled.
    pub planned_faults: usize,
    /// Invariant violations. Empty = the supervisor held its contract.
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// Resilience accounting shorthand.
    pub fn resilience(&self) -> &ResilienceStats {
        &self.result.resilience
    }
}

/// Draw a deterministic fault schedule: `faults` faults with randomized
/// kinds, parameters and fire times spread over the first 90% of
/// `horizon_cycles` (the tail is left quiet so the last recovery can
/// finish inside the budget). Returns the plan and the per-kind counts.
pub fn chaos_plan(
    seed: u64,
    faults: usize,
    horizon_cycles: u64,
    flash_size: u32,
) -> (FaultPlan, Vec<(&'static str, usize)>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a05);
    let mut plan = FaultPlan::none();
    let mut counts = [0usize; 7];
    let window = (horizon_cycles / 10).max(1) * 9;
    for _ in 0..faults {
        let at = rng.random_range(0..window.max(2));
        let kind = rng.random_range(0..7u32) as usize;
        counts[kind] += 1;
        let fault = match kind {
            0 => InjectedFault::FlashBitFlip {
                offset: rng.random_range(0..flash_size.max(2)),
                bit: rng.random_range(0..=7u8),
            },
            1 => InjectedFault::FreezeFirmware,
            2 => InjectedFault::KillCore,
            3 => InjectedFault::DropLink {
                cycles: rng.random_range(500..40_000u64),
            },
            4 => InjectedFault::FlakyLink {
                drop_per_mille: rng.random_range(100..=700u16),
                cycles: rng.random_range(5_000..60_000u64),
            },
            5 => InjectedFault::Brownout {
                cycles: rng.random_range(2_000..20_000u64),
            },
            _ => InjectedFault::UartGarbage,
        };
        plan = plan.at(at, fault);
    }
    let labelled = KINDS.iter().zip(counts).map(|(k, c)| (*k, c)).collect();
    (plan, labelled)
}

/// Run one campaign under a seeded fault schedule and check the
/// supervisor's invariants.
pub fn run_chaos(config: &ChaosConfig) -> ChaosReport {
    let horizon = (config.base.budget_hours * 3600.0 * CYCLES_PER_SEC as f64) as u64;
    let (plan, fault_counts) = chaos_plan(
        config.chaos_seed,
        config.faults,
        horizon,
        config.base.board.flash_size,
    );
    let planned_faults = plan.pending();
    let result = Campaign::start(config.base.clone(), plan, false).finish();
    let mut violations = check_invariants(&result);
    if let Some(dir) = &config.base.persist {
        violations.extend(audit_persistence(&result, dir));
    }
    ChaosReport {
        result,
        fault_counts,
        planned_faults,
        violations,
    }
}

/// The supervisor's contract, checked against a finished campaign.
pub fn check_invariants(result: &CampaignResult) -> Vec<String> {
    let mut violations = Vec::new();
    if result.stats.execs == 0 {
        violations.push("campaign made no forward progress (0 execs)".to_string());
    }
    for w in result.history.windows(2) {
        if w[1].branches < w[0].branches {
            violations.push(format!(
                "coverage regressed: {} -> {} branches at {:.2}h",
                w[0].branches, w[1].branches, w[1].hours
            ));
            break;
        }
    }
    let r = &result.resilience;
    let accounted = r.recovered() + r.manual_interventions;
    if accounted != r.episodes {
        violations.push(format!(
            "unaccounted recovery episodes: {} entered, {} recovered + {} manual",
            r.episodes,
            r.recovered(),
            r.manual_interventions
        ));
    }
    if r.max_recovery_cycles > secs_to_cycles(MAX_RECOVERY_SECS) {
        violations.push(format!(
            "recovery episode exceeded bound: {} cycles > {MAX_RECOVERY_SECS} s",
            r.max_recovery_cycles
        ));
    }
    // Transaction atomicity: a vectored batch that fails mid-apply has
    // torn target state the retry layer cannot reason about (a coverage
    // buffer half-reset, a breakpoint installed without its partner).
    // Faults must land before the apply phase — never inside it.
    if r.txn_partial > 0 {
        violations.push(format!(
            "{} vectored transaction(s) were torn mid-apply by a fault",
            r.txn_partial
        ));
    }
    violations
}

/// Persistence-under-chaos contract: a campaign that rode out injected
/// outages must still land a complete, loss-free store on disk — every
/// unique crash the campaign recorded has its record, the seed pool
/// matches the audit, and nothing was skipped as corrupt.
pub fn audit_persistence(result: &CampaignResult, dir: &std::path::Path) -> Vec<String> {
    let mut violations = Vec::new();
    let Some(audit) = &result.persist else {
        violations.push("persistence was requested but the campaign produced no audit".into());
        return violations;
    };
    if audit.write_errors > 0 {
        violations.push(format!(
            "store absorbed {} write errors during the campaign",
            audit.write_errors
        ));
    }
    let loaded = match crate::persist::open(dir) {
        Ok(loaded) => loaded,
        Err(e) => {
            violations.push(format!("store did not survive the campaign: {e}"));
            return violations;
        }
    };
    if loaded.skips.total() > 0 {
        violations.push(format!(
            "store load skipped entries after a clean campaign: {:?}",
            loaded.skips
        ));
    }
    if loaded.seeds.len() != audit.seeds_written {
        violations.push(format!(
            "seed pool lost entries: {} on disk, {} written",
            loaded.seeds.len(),
            audit.seeds_written
        ));
    }
    let on_disk: std::collections::BTreeSet<&str> =
        loaded.crashes.iter().map(|c| c.key.as_str()).collect();
    for report in &result.crashes {
        let key = crate::crash::dedup_key(report);
        if !on_disk.contains(key.as_str()) {
            violations.push(format!(
                "unique crash lost by the store: {:?} ({:?})",
                report.message, report.source
            ));
        }
    }
    if loaded.manifest.branches != result.branches {
        violations.push(format!(
            "manifest branch count drifted: {} on disk, {} in the campaign",
            loaded.manifest.branches, result.branches
        ));
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use eof_rtos::OsKind;

    fn chaos_config(os: OsKind, fuzz_seed: u64, chaos_seed: u64, faults: usize) -> ChaosConfig {
        let mut base = FuzzerConfig::eof(os, fuzz_seed);
        base.budget_hours = 0.1;
        base.snapshot_hours = 0.025;
        ChaosConfig {
            base,
            chaos_seed,
            faults,
        }
    }

    #[test]
    fn plan_is_deterministic_and_complete() {
        let (a, counts_a) = chaos_plan(42, 64, 1_000_000, 1 << 20);
        let (b, counts_b) = chaos_plan(42, 64, 1_000_000, 1 << 20);
        assert_eq!(a.pending(), 64);
        assert_eq!(counts_a, counts_b);
        let mut a = a;
        let mut b = b;
        assert_eq!(a.take_due(u64::MAX), b.take_due(u64::MAX));
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let (mut a, _) = chaos_plan(1, 64, 1_000_000, 1 << 20);
        let (mut b, _) = chaos_plan(2, 64, 1_000_000, 1 << 20);
        assert_ne!(a.take_due(u64::MAX), b.take_due(u64::MAX));
    }

    #[test]
    fn chaos_campaign_survives_and_accounts_for_every_outage() {
        let report = run_chaos(&chaos_config(OsKind::FreeRtos, 21, 77, 30));
        assert!(
            report.violations.is_empty(),
            "invariant violations: {:?}",
            report.violations
        );
        assert_eq!(report.planned_faults, 30);
        // The schedule fired real faults and the ladder really climbed.
        let r = report.resilience();
        assert!(r.episodes > 0, "no recovery episodes under 30 faults");
        assert!(
            r.recovered() + r.manual_interventions == r.episodes,
            "episodes unaccounted"
        );
    }

    #[test]
    fn persistence_survives_injected_outages() {
        // Crashes are persisted incrementally, so some records land on
        // disk *between* injected link drops and brownouts; the audit
        // checks none of them (nor the end-of-campaign pool) went
        // missing.
        let dir = std::env::temp_dir().join(format!("eof-chaos-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = chaos_config(OsKind::FreeRtos, 21, 77, 30);
        config.base.persist = Some(dir.clone());
        let report = run_chaos(&config);
        assert!(
            report.violations.is_empty(),
            "persistence-under-chaos violations: {:?}",
            report.violations
        );
        let audit = report.result.persist.as_ref().expect("store audited");
        assert!(audit.seeds_written > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_fault_kind_tears_a_transaction() {
        // One seeded campaign per fault kind and restore mode, each kind
        // injected repeatedly on its own: whatever the timing, a fault
        // must land a vectored transaction whole or not at all
        // (txn_partial is a `check_invariants` violation), and the
        // supervisor's contract must hold around it. Snapshot mode adds
        // a new vectored batch shape — the multi-page delta restore — so
        // the matrix covers both restore modes: a fault arriving mid-
        // delta-restore must never leave a half-restored board
        // uncounted.
        let flash_size = FuzzerConfig::eof(OsKind::FreeRtos, 11).board.flash_size;
        for snapshot in [false, true] {
            no_kind_tears(flash_size, snapshot);
        }
    }

    fn no_kind_tears(flash_size: u32, snapshot: bool) {
        use eof_hal::FaultPlan;
        for (kind, label) in KINDS.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0xa70_0c17 + kind as u64);
            let mut plan = FaultPlan::none();
            for _ in 0..12 {
                let at = rng.random_range(0..300_000u64);
                let fault = match kind {
                    0 => InjectedFault::FlashBitFlip {
                        offset: rng.random_range(0..flash_size),
                        bit: rng.random_range(0..=7u8),
                    },
                    1 => InjectedFault::FreezeFirmware,
                    2 => InjectedFault::KillCore,
                    3 => InjectedFault::DropLink {
                        cycles: rng.random_range(500..40_000u64),
                    },
                    4 => InjectedFault::FlakyLink {
                        drop_per_mille: rng.random_range(100..=700u16),
                        cycles: rng.random_range(5_000..60_000u64),
                    },
                    5 => InjectedFault::Brownout {
                        cycles: rng.random_range(2_000..20_000u64),
                    },
                    _ => InjectedFault::UartGarbage,
                };
                plan = plan.at(at, fault);
            }
            let mut base = FuzzerConfig::eof(OsKind::FreeRtos, 11);
            base.budget_hours = 0.1;
            base.snapshot_hours = 0.025;
            base.snapshot = snapshot;
            let result = Campaign::start(base, plan, false).finish();
            let violations = check_invariants(&result);
            assert!(
                violations.is_empty(),
                "fault kind {label:?} (snapshot={snapshot}): {violations:?}"
            );
            assert_eq!(
                result.resilience.txn_partial, 0,
                "fault kind {label:?} (snapshot={snapshot}) tore a vectored transaction"
            );
        }
    }

    #[test]
    fn no_fault_kind_tears_a_cmp_drain() {
        // The comparison channel adds two wire operations per exec — the
        // armed header riding the upload and the end-of-exec ring drain —
        // and each is a new place a fault can land. Same per-kind matrix
        // as the transaction-tear test, but with cmplog armed in both
        // wire modes: a fault inside the cmp drain must either deliver
        // the records whole or discard them with the discard counted —
        // never tear a transaction or wedge the campaign. Running the
        // campaigns recorded also re-checks the `fuzz.op.*` counter-drift
        // gate under every fault kind.
        use eof_hal::FaultPlan;
        let flash_size = FuzzerConfig::eof(OsKind::FreeRtos, 11).board.flash_size;
        let mut records_total = 0u64;
        for vectored in [false, true] {
            for (kind, label) in KINDS.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(0xc3b_d4a1 + kind as u64);
                let mut plan = FaultPlan::none();
                for _ in 0..12 {
                    let at = rng.random_range(0..300_000u64);
                    let fault = match kind {
                        0 => InjectedFault::FlashBitFlip {
                            offset: rng.random_range(0..flash_size),
                            bit: rng.random_range(0..=7u8),
                        },
                        1 => InjectedFault::FreezeFirmware,
                        2 => InjectedFault::KillCore,
                        3 => InjectedFault::DropLink {
                            cycles: rng.random_range(500..40_000u64),
                        },
                        4 => InjectedFault::FlakyLink {
                            drop_per_mille: rng.random_range(100..=700u16),
                            cycles: rng.random_range(5_000..60_000u64),
                        },
                        5 => InjectedFault::Brownout {
                            cycles: rng.random_range(2_000..20_000u64),
                        },
                        _ => InjectedFault::UartGarbage,
                    };
                    plan = plan.at(at, fault);
                }
                let mut base = FuzzerConfig::eof_cmplog(OsKind::FreeRtos, 11);
                base.budget_hours = 0.1;
                base.snapshot_hours = 0.025;
                base.vectored = vectored;
                let result = Campaign::start(base, plan, true).finish();
                let violations = check_invariants(&result);
                assert!(
                    violations.is_empty(),
                    "fault kind {label:?} (vectored={vectored}, cmplog): {violations:?}"
                );
                assert_eq!(
                    result.resilience.txn_partial, 0,
                    "fault kind {label:?} (vectored={vectored}) tore a cmplog transaction"
                );
                let tel = result.telemetry.as_ref().expect("recorded");
                records_total += tel.counter("exec.cmp_records");
            }
        }
        // The channel stayed live across the matrix: records kept
        // arriving despite the outages (a torn drain that silently
        // corrupted the ring would starve every subsequent exec), and
        // any drain the fault machinery gave up on is visible as a
        // counted discard rather than a wedge. No single kind is
        // required to produce records — the heavy link-outage schedules
        // legitimately spend most of their budget in recovery.
        assert!(
            records_total > 0,
            "every chaos schedule starved the cmp channel"
        );
    }

    #[test]
    fn no_fault_kind_tears_a_trace_drain() {
        // The trace backend replaces every ring read with the
        // destructive `DrainTrace` wire op — a new place for every
        // fault kind to land, in both wire modes. A fault inside the
        // drain must deliver the stream whole or discard the drain
        // whole with the discard counted (`exec.cov_discarded`); a
        // half-applied drain would surface as a torn transaction, and a
        // decoder fed torn bytes would poison the bitmap with invented
        // edges, so the invariant gate plus the live-channel check
        // below cover both layers.
        use eof_coverage::CoverageKind;
        use eof_hal::FaultPlan;
        let flash_size = FuzzerConfig::eof(OsKind::FreeRtos, 11).board.flash_size;
        let mut packets_total = 0u64;
        for vectored in [false, true] {
            for (kind, label) in KINDS.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(0x7ace_d4a1 + kind as u64);
                let mut plan = FaultPlan::none();
                for _ in 0..12 {
                    let at = rng.random_range(0..300_000u64);
                    let fault = match kind {
                        0 => InjectedFault::FlashBitFlip {
                            offset: rng.random_range(0..flash_size),
                            bit: rng.random_range(0..=7u8),
                        },
                        1 => InjectedFault::FreezeFirmware,
                        2 => InjectedFault::KillCore,
                        3 => InjectedFault::DropLink {
                            cycles: rng.random_range(500..40_000u64),
                        },
                        4 => InjectedFault::FlakyLink {
                            drop_per_mille: rng.random_range(100..=700u16),
                            cycles: rng.random_range(5_000..60_000u64),
                        },
                        5 => InjectedFault::Brownout {
                            cycles: rng.random_range(2_000..20_000u64),
                        },
                        _ => InjectedFault::UartGarbage,
                    };
                    plan = plan.at(at, fault);
                }
                let mut base = FuzzerConfig::eof(OsKind::FreeRtos, 11);
                base.coverage_backend = CoverageKind::Trace;
                base.budget_hours = 0.1;
                base.snapshot_hours = 0.025;
                base.vectored = vectored;
                let result = Campaign::start(base, plan, true).finish();
                let violations = check_invariants(&result);
                assert!(
                    violations.is_empty(),
                    "fault kind {label:?} (vectored={vectored}, trace): {violations:?}"
                );
                assert_eq!(
                    result.resilience.txn_partial, 0,
                    "fault kind {label:?} (vectored={vectored}) tore a trace drain"
                );
                // Edge feedback survived the schedule: the uninstrumented
                // image has no other coverage path, so a corrupted or
                // silently-wedged stream would show up as zero branches.
                assert!(
                    result.branches > 0,
                    "fault kind {label:?} (vectored={vectored}) starved the trace channel"
                );
                let tel = result.telemetry.as_ref().expect("recorded");
                packets_total += tel.counter("cov.trace.packets");
            }
        }
        assert!(
            packets_total > 0,
            "every chaos schedule starved the trace stream"
        );
    }

    #[test]
    fn chaos_is_reproducible() {
        let a = run_chaos(&chaos_config(OsKind::Zephyr, 5, 99, 20));
        let b = run_chaos(&chaos_config(OsKind::Zephyr, 5, 99, 20));
        assert_eq!(a.result.resilience, b.result.resilience);
        assert_eq!(a.result.branches, b.result.branches);
        assert_eq!(a.result.stats.execs, b.result.stats.execs);
    }
}
