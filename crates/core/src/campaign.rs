//! Campaign orchestration: image build → flash → boot → fuzz → results.
//!
//! [`Campaign`] is the one campaign driver. [`Campaign::start`] performs
//! the paper's workflow steps ① analyse the memory layout (kconfig),
//! ② generate and validate the API specifications, ③ build the
//! instrumented image, then attaches over the debug interface;
//! [`Campaign::advance_to`] runs the fuzzing loop on to a simulated time
//! and [`Campaign::finish`] takes it to the budget, finalizes the store
//! and returns the [`CampaignResult`]. [`Campaign::resume`] re-derives a
//! persisted campaign up to its checkpoint and verifies it there.
//! [`run_campaign`] is the common case: start, then finish.

use crate::config::FuzzerConfig;
use crate::crash::{dedup_key, CrashReport};
use crate::executor::Executor;
use crate::fuzzer::{Fuzzer, FuzzerStats};
use crate::gen::Generator;
use crate::persist::{self, config_fingerprint, StoreError};
use crate::replay::ResumeOutcome;
use crate::supervisor::{ResilienceStats, Rung};
use eof_agent::{agent_loader, api_table_of};
use eof_coverage::Snapshot;
use eof_dap::{DebugTransport, LinkConfig};
use eof_hal::FaultPlan;
use eof_hal::Machine;
use eof_monitors::{parse_kconfig, render_kconfig, StateRestoration};
use eof_rtos::bugs::BugId;
use eof_specgen::{GenReport, NoiseConfig};
use eof_telemetry as tel;
use std::collections::BTreeSet;
use std::path::Path;

/// Everything a campaign produced.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Distinct branches discovered.
    pub branches: usize,
    /// Coverage-over-time curve (hours since campaign start).
    pub history: Vec<Snapshot>,
    /// De-duplicated crashes.
    pub crashes: Vec<CrashReport>,
    /// Table-2 bugs found, sorted.
    pub bugs: Vec<BugId>,
    /// Loop statistics.
    pub stats: FuzzerStats,
    /// Recovery-supervisor and link-retry accounting.
    pub resilience: ResilienceStats,
    /// Spec-generation report (admission pipeline).
    pub spec_report: GenReport,
    /// Image size flashed, in bytes.
    pub image_bytes: usize,
    /// Everything the campaign's telemetry recorder captured; `None`
    /// unless `EOF_TRACE` was set (or recording was forced). One
    /// registry per campaign — the fleet merges them in submission
    /// order, so `EOF_JOBS=1` and `EOF_JOBS=8` produce identical merged
    /// summaries for identical seeds.
    pub telemetry: Option<tel::Registry>,
    /// Stable hashes of every admitted seed, in admission order (culled
    /// seeds included).
    pub corpus_hashes: Vec<u64>,
    /// What the end-of-campaign persistence pass did; `None` unless
    /// `config.persist` was set.
    pub persist: Option<crate::replay::FinalizeAudit>,
}

/// Run one full campaign.
pub fn run_campaign(config: FuzzerConfig) -> CampaignResult {
    Campaign::start(config, FaultPlan::none(), false).finish()
}

/// One campaign, booted once ([`Campaign::start`] or
/// [`Campaign::resume`]), advanced any number of times, then finished.
/// It stays on the thread that started it: its telemetry recorder is
/// thread-local.
pub struct Campaign {
    fuzzer: Fuzzer,
    spec_report: GenReport,
    image_bytes: usize,
    recorder: Option<tel::RecorderGuard>,
    fuzz_span: tel::SpanToken,
}

impl Campaign {
    /// Boot a campaign under `plan` (harness-injected faults, counted
    /// from the debug attach), parked at its first sync point, with a
    /// store attached when `config.persist` is set. Telemetry is
    /// recorded when `EOF_TRACE` is set or `force_record` asks for it
    /// (tests: mutating the environment is racy under a parallel test
    /// runner).
    pub fn start(config: FuzzerConfig, plan: FaultPlan, force_record: bool) -> Campaign {
        // The recorder is installed before boot, so the campaign's
        // telemetry shape is fixed here; the guard uninstalls it on
        // panic, keeping panic-isolated fleet workers clean.
        let recorder = (force_record || tel::enabled()).then(tel::begin);
        let (fuzzer, spec_report, image_bytes) = build_fuzzer(config, plan);
        let fuzz_span = tel::span_start("campaign.fuzz", fuzzer.executor().now());
        Campaign {
            fuzzer,
            spec_report,
            image_bytes,
            recorder,
            fuzz_span,
        }
    }

    /// Fuzz on until `hours` of simulated time have passed since boot.
    pub fn advance_to(&mut self, hours: f64) {
        self.fuzzer.advance_to(hours);
    }

    /// The live fuzzer (coverage, corpus and crashes so far).
    pub fn fuzzer(&self) -> &Fuzzer {
        &self.fuzzer
    }

    /// Fuzz to the budget, close the coverage curve, finalize the store
    /// when persisting, and check the recorded counters against the
    /// stats when recording.
    pub fn finish(mut self) -> CampaignResult {
        let fuzzer = &mut self.fuzzer;
        let history = fuzzer.run_to_budget();
        tel::span_end(self.fuzz_span, fuzzer.executor().now());

        let stats = fuzzer.stats().clone();
        let resilience = fuzzer.executor().resilience();
        // End-of-campaign save (see `finalize_store`). Its re-executions
        // run with the recorder suspended so they cannot drift the
        // campaign's counters; only the save itself is spanned.
        let persist_audit = fuzzer.take_store().map(|store| {
            let span = tel::span_start("persist.save", fuzzer.executor().now());
            let audit = tel::suspended(|| {
                crate::replay::finalize_store(
                    store,
                    fuzzer.config(),
                    fuzzer.corpus(),
                    fuzzer.crashes(),
                    fuzzer.executor().coverage(),
                    fuzzer.config().budget_hours,
                    stats.execs,
                )
            });
            tel::span_end(span, fuzzer.executor().now());
            tel::count("persist.seeds", audit.seeds_written as u64);
            tel::count("persist.crashes", audit.crashes_written as u64);
            audit
        });
        let telemetry = self.recorder.map(|g| {
            let registry = g.finish();
            assert_no_counter_drift(&registry, &stats, &resilience);
            registry
        });

        CampaignResult {
            branches: fuzzer.executor().coverage().branches(),
            history,
            crashes: fuzzer.crashes().unique().cloned().collect(),
            bugs: fuzzer.crashes().bugs_found(),
            stats,
            resilience,
            spec_report: self.spec_report,
            image_bytes: self.image_bytes,
            telemetry,
            corpus_hashes: fuzzer.corpus().admitted_hashes(),
            persist: persist_audit,
        }
    }

    /// Re-derive the campaign checkpointed in `dir`: boot with the
    /// store re-attached, advance to its consumed hours and verify there
    /// that the store is an exact prefix of what was re-derived (seeds
    /// by hash, crashes by class, coverage edge by edge). `config` is
    /// the producing configuration with the budget to resume to. A
    /// divergence breaks the determinism contract: it returns
    /// [`StoreError::Diverged`] without finalizing, so the store is left
    /// without a manifest.
    pub fn resume(
        mut config: FuzzerConfig,
        dir: &Path,
    ) -> Result<(Campaign, ResumeOutcome), StoreError> {
        let loaded = persist::open(dir)?;
        if config.os != loaded.manifest.os || config.seed != loaded.manifest.seed {
            return Err(StoreError::ConfigMismatch(format!(
                "store holds {} seed {}, resume config is {} seed {}",
                loaded.manifest.os.display(),
                loaded.manifest.seed,
                config.os.display(),
                config.seed
            )));
        }
        if config_fingerprint(&config) != loaded.manifest.fingerprint {
            return Err(StoreError::ConfigMismatch(
                "resume config fingerprint differs from the store's".to_string(),
            ));
        }
        if config.budget_hours < loaded.manifest.consumed_hours {
            return Err(StoreError::ConfigMismatch(format!(
                "resume budget {}h is shorter than the {}h already consumed",
                config.budget_hours, loaded.manifest.consumed_hours
            )));
        }
        config.persist = Some(dir.to_path_buf());
        let mut campaign = Campaign::start(config, FaultPlan::none(), false);
        campaign.advance_to(loaded.manifest.consumed_hours);

        let fuzzer = &campaign.fuzzer;
        let admitted: BTreeSet<u64> = fuzzer.corpus().admitted_hashes().into_iter().collect();
        if let Some(seed) = loaded.seeds.iter().find(|s| !admitted.contains(&s.hash)) {
            return Err(StoreError::Diverged(format!(
                "persisted seed {:016x} (ordinal {}) was not re-admitted",
                seed.hash, seed.ordinal
            )));
        }
        let keys: BTreeSet<String> = fuzzer.crashes().unique().map(dedup_key).collect();
        if let Some(crash) = loaded.crashes.iter().find(|c| !keys.contains(&c.key)) {
            return Err(StoreError::Diverged(format!(
                "persisted crash class {:016x} ({}) was not re-found",
                crash.key_hash, crash.message
            )));
        }
        let live = fuzzer.executor().coverage();
        if let Some(edge) = loaded.coverage_edges.iter().find(|&&e| !live.contains(e)) {
            return Err(StoreError::Diverged(format!(
                "persisted coverage edge {edge:#x} was not re-covered"
            )));
        }
        let outcome = ResumeOutcome {
            verified_seeds: loaded.seeds.len(),
            verified_crashes: loaded.crashes.len(),
            verified_edges: loaded.coverage_edges.len(),
            skips: loaded.skips,
            prior: loaded.manifest,
        };
        Ok((campaign, outcome))
    }
}

/// Perform the paper's setup workflow — spec pipeline, image build,
/// flash, boot, debug attach — and return a fuzzer parked at its first
/// sync point, plus the spec-generation report and flashed image size.
/// [`Campaign::start`] wraps the returned fuzzer; tests that need
/// exec-count-exact comparisons (the vectored-equivalence gate) drive
/// [`Fuzzer::step`] themselves instead.
pub fn build_fuzzer(config: FuzzerConfig, plan: FaultPlan) -> (Fuzzer, GenReport, usize) {
    // ② Extract + validate the API specifications. The pipeline is pure
    // in (os, noise, validation), so it is interned process-wide; the
    // spec is cloned out because the config filters below mutate it.
    // (Host-side phases precede the simulated clock; their spans sit at
    // cycle 0 and carry only wall time.)
    let spec_span = tel::span_start("campaign.spec", 0);
    let noise = match config.spec_noise {
        Some(seed) => NoiseConfig::default_llm(seed),
        None => NoiseConfig::none(),
    };
    // The driver workload widens the spec scope to the SPI/I2C/DMA
    // driver APIs; the default scope reproduces the legacy pure-API
    // spec byte-for-byte.
    let (mut spec, spec_report) = (*crate::artifacts::cached_spec_scoped(
        config.os,
        &noise,
        config.spec_validation,
        config.mmio,
    ))
    .clone();

    // Baselines with hand-written specs never had LLM pseudo-syscalls.
    if config.exclude_pseudo {
        spec.apis.retain(|a| !a.is_pseudo());
    }

    // Application-level confinement: keep only the filtered modules'
    // APIs (by the kernel's own module attribution).
    if let Some(modules) = &config.module_filter {
        let kernel = eof_rtos::registry::make_kernel(config.os);
        let allowed: std::collections::BTreeSet<&str> = kernel
            .api_table()
            .iter()
            .filter(|d| modules.iter().any(|m| m == d.module))
            .map(|d| d.name)
            .collect();
        spec.apis.retain(|a| allowed.contains(a.name.as_str()));
    }
    tel::span_end(spec_span, 0);

    // ③ Build (or fetch the interned) instrumented image and flash it.
    let image_span = tel::span_start("campaign.image", 0);
    let image =
        crate::artifacts::cached_image(config.os, config.profile, &config.effective_instrument());
    let image_bytes = image.len();
    tel::span_end(image_span, 0);
    let boot_span = tel::span_start("campaign.boot", 0);
    let executor = boot_executor(&config, &image, plan);
    tel::span_end(boot_span, executor.now());
    let generator =
        Generator::new(spec, config.seed, config.gen_mode, config.max_calls).with_mmio(config.mmio);
    // Open the campaign store (if persistence is on) before the config
    // moves into the fuzzer; the fuzzer writes crash records into it
    // incrementally on first sighting.
    let store = config
        .persist
        .as_deref()
        .map(|dir| crate::persist::CampaignStore::create(dir, &config))
        .transpose()
        .expect("campaign store directory is writable");
    let mut fuzzer = Fuzzer::new(config, generator, executor);
    if let Some(store) = store {
        fuzzer.set_store(store);
    }
    (fuzzer, spec_report, image_bytes)
}

/// The one boot recipe: flash `image`, reset, render and parse the
/// build configuration (① the memory layout), keep a golden
/// restoration of the image, attach over the debug interface and bind
/// an executor parked at its first sync point. Campaigns, replay and
/// the test harnesses all boot through here. `plan` is armed after
/// boot, so its cycle offsets count from the attach.
pub fn boot_executor(config: &FuzzerConfig, image: &[u8], plan: FaultPlan) -> Executor {
    let mut machine = Machine::new(config.board.clone(), agent_loader());
    machine
        .reflash_partition("kernel", image)
        .expect("image fits kernel partition");
    machine.reset();
    if plan.pending() > 0 {
        // The machine rebases the plan's cycle offsets to its current
        // bus time.
        machine.set_fault_plan(plan);
    }
    let kconfig_text = render_kconfig(
        &config.board.arch.to_string().to_lowercase(),
        machine.flash().table(),
    );
    let kconfig = parse_kconfig(&kconfig_text).expect("rendered kconfig parses");
    // The restoration keeps its own golden copy: it re-flashes from it
    // on recovery, and the caller's image (often a shared cache entry)
    // must stay pristine.
    let restoration = StateRestoration::from_kconfig(
        &kconfig,
        config.board.flash_size,
        vec![("kernel".to_string(), image.to_vec())],
    )
    .expect("golden image fits");
    let transport = DebugTransport::attach(machine, LinkConfig::default());
    Executor::new(
        transport,
        config.clone(),
        api_table_of(config.os),
        restoration,
    )
    .expect("executor binds to sync symbols")
}

/// The two accounting paths — hand-maintained `FuzzerStats` /
/// `ResilienceStats` and the telemetry counters mirrored at the same
/// increment sites — must agree exactly at campaign end. A divergence
/// means one path silently missed an event; fail loudly instead of
/// publishing inconsistent numbers.
fn assert_no_counter_drift(
    registry: &tel::Registry,
    stats: &FuzzerStats,
    resilience: &ResilienceStats,
) {
    let checks: [(&str, u64); 15] = [
        ("dap.txn.partial", resilience.txn_partial),
        ("fuzz.execs", stats.execs),
        ("fuzz.interesting", stats.interesting),
        ("fuzz.crash_observations", stats.crash_observations),
        ("fuzz.stalls", stats.stalls),
        ("fuzz.restorations", stats.restorations),
        ("fuzz.failed_syncs", stats.failed_syncs),
        ("recovery.episodes", resilience.episodes),
        ("recovery.backoff_cycles", resilience.backoff_cycles),
        (
            "recovery.manual_interventions",
            resilience.manual_interventions,
        ),
        ("exec.failed_syncs", resilience.failed_syncs),
        ("dap.retry.attempts", resilience.link.attempts),
        ("dap.retry.retries", resilience.link.retries),
        ("dap.retry.recovered", resilience.link.recovered),
        ("dap.retry.exhausted", resilience.link.exhausted),
    ];
    for (name, expected) in checks {
        assert_eq!(
            registry.counter(name),
            expected,
            "telemetry counter {name:?} drifted from the stats structs"
        );
    }
    for rung in Rung::ALL {
        assert_eq!(
            registry.counter(rung.attempts_counter()),
            resilience.rung_attempts[rung.index()],
            "rung {} attempt accounting drifted",
            rung.name()
        );
        assert_eq!(
            registry.counter(rung.successes_counter()),
            resilience.rung_successes[rung.index()],
            "rung {} success accounting drifted",
            rung.name()
        );
    }
    for op in crate::cmplog::MutOp::ALL {
        assert_eq!(
            registry.counter(op.execs_counter()),
            stats.op_execs[op.index()],
            "operator {} exec accounting drifted",
            op.name()
        );
        assert_eq!(
            registry.counter(op.interesting_counter()),
            stats.op_interesting[op.index()],
            "operator {} interesting accounting drifted",
            op.name()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eof_rtos::OsKind;

    fn short(os: OsKind, seed: u64, hours: f64) -> FuzzerConfig {
        let mut c = FuzzerConfig::eof(os, seed);
        c.budget_hours = hours;
        c.snapshot_hours = hours / 4.0;
        c
    }

    fn recorded(config: FuzzerConfig) -> CampaignResult {
        Campaign::start(config, FaultPlan::none(), true).finish()
    }

    #[test]
    fn campaign_runs_on_every_os() {
        for os in OsKind::ALL {
            let r = run_campaign(short(os, 7, 0.02));
            assert!(r.stats.execs > 5, "{os}: {} execs", r.stats.execs);
            assert!(r.branches > 5, "{os}: {} branches", r.branches);
            assert!(r.spec_report.admitted_apis > 0, "{os}");
            assert!(r.image_bytes > 500_000, "{os}");
        }
    }

    #[test]
    fn campaigns_are_deterministic() {
        let a = run_campaign(short(OsKind::Zephyr, 11, 0.02));
        let b = run_campaign(short(OsKind::Zephyr, 11, 0.02));
        assert_eq!(a.branches, b.branches);
        assert_eq!(a.stats.execs, b.stats.execs);
        assert_eq!(a.bugs, b.bugs);
        assert_eq!(a.resilience, b.resilience);
    }

    #[test]
    fn fault_free_campaigns_keep_the_supervisor_quiet() {
        use crate::supervisor::Rung;
        // Without injected faults the only degraded states are the
        // target's own hangs: every recovery episode is a stall, recovers
        // on the first reset, and the connection-loss machinery (resume
        // rung, link retries, manual escalation) never fires. This pins
        // the refactored recovery path to the old ad-hoc behaviour on
        // fault-free schedules.
        let r = run_campaign(short(OsKind::FreeRtos, 7, 0.02));
        let res = &r.resilience;
        assert_eq!(res.rung_attempts[Rung::Resume.index()], 0, "{res:?}");
        assert_eq!(
            res.episodes,
            res.rung_successes[Rung::Reset.index()],
            "{res:?}"
        );
        assert_eq!(res.manual_interventions, 0, "{res:?}");
        assert_eq!(res.failed_syncs, 0, "{res:?}");
        assert_eq!(res.link.retries, 0, "{res:?}");
        assert_eq!(res.backoff_cycles, 0, "{res:?}");
    }

    #[test]
    fn recorded_campaigns_are_deterministic_and_drift_free() {
        // A forced recording exercises the whole telemetry path:
        // recorder install, span/counter capture across every layer, and
        // the end-of-campaign counter-drift assertion (which runs inside
        // the call — reaching this point means it held).
        let a = recorded(short(OsKind::FreeRtos, 11, 0.02));
        let b = recorded(short(OsKind::FreeRtos, 11, 0.02));
        let ta = a
            .telemetry
            .as_ref()
            .expect("recorded campaign captures telemetry");
        let tb = b
            .telemetry
            .as_ref()
            .expect("recorded campaign captures telemetry");
        assert!(ta.counter("fuzz.execs") > 0);
        assert_eq!(ta.counter("fuzz.execs"), a.stats.execs);
        // The campaign phases were spanned.
        for phase in ["campaign.boot", "campaign.fuzz", "exec", "fuzz.gen"] {
            assert!(
                ta.span_aggs.contains_key(phase),
                "missing span {phase}: {:?}",
                ta.span_aggs.keys().collect::<Vec<_>>()
            );
        }
        // Identical inputs ⇒ byte-identical summaries; and recording
        // must not perturb the campaign itself.
        assert_eq!(ta.summary().to_json(), tb.summary().to_json());
        let plain = run_campaign(short(OsKind::FreeRtos, 11, 0.02));
        assert_eq!(a.branches, plain.branches);
        assert_eq!(a.stats.execs, plain.stats.execs);
        assert_eq!(a.resilience, plain.resilience);
    }

    #[test]
    fn cmplog_campaigns_run_and_account_per_operator() {
        // A cmplog campaign exercises the full Redqueen pipeline: the
        // armed ring drains into the journal, the scheduler attributes
        // every scheduled mutant to an operator, and the drift gate
        // (inside a recorded `finish`) proves the `fuzz.op.*`
        // telemetry mirrors `FuzzerStats` exactly.
        let mut c = FuzzerConfig::eof_cmplog(OsKind::FreeRtos, 7);
        c.budget_hours = 0.02;
        c.snapshot_hours = 0.005;
        let r = recorded(c);
        let scheduled: u64 = r.stats.op_execs.iter().sum();
        assert!(scheduled > 0, "no mutants were attributed to operators");
        // Scheduled mutants are a subset of all execs (fresh generated
        // progs carry no operator).
        assert!(scheduled <= r.stats.execs, "{:?}", r.stats);
        let tel = r.telemetry.as_ref().expect("recorded");
        assert!(
            tel.counter("exec.cmp_records") > 0,
            "armed ring never produced a comparison record"
        );
    }

    #[test]
    fn history_points_sit_on_interval_boundaries() {
        // Point k is labelled k × interval, and a budget that is itself
        // a boundary gets no second point.
        let r = run_campaign(short(OsKind::FreeRtos, 7, 0.02));
        let hours: Vec<f64> = r.history.iter().map(|s| s.hours).collect();
        assert_eq!(hours, [0.005, 0.01, 0.015, 0.02]);
        // Off a boundary, the curve closes with one point at the budget.
        let mut c = short(OsKind::FreeRtos, 7, 0.02);
        c.snapshot_hours = 0.008;
        let hours: Vec<f64> = run_campaign(c).history.iter().map(|s| s.hours).collect();
        assert_eq!(hours, [0.008, 0.016, 0.02]);
    }

    #[test]
    fn pausing_and_continuing_equals_a_straight_run() {
        // Finish after the clock stops, so the final cycle count can be
        // compared too (finishing a campaign that already sits at its
        // budget fuzzes no further).
        fn finish(mut campaign: Campaign) -> (CampaignResult, u64) {
            campaign.advance_to(campaign.fuzzer().config().budget_hours);
            let now = campaign.fuzzer().executor().now();
            (campaign.finish(), now)
        }
        for os in [
            OsKind::FreeRtos,
            OsKind::RtThread,
            OsKind::NuttX,
            OsKind::Zephyr,
        ] {
            let config = short(os, 1, 0.05);
            // 0.02 h is not an interval boundary (0.0125 h).
            let mut paused = Campaign::start(config.clone(), FaultPlan::none(), true);
            paused.advance_to(0.02);
            let (a, now_a) = finish(paused);
            let (b, now_b) = finish(Campaign::start(config, FaultPlan::none(), true));
            assert_eq!(now_a, now_b, "{os}");
            assert_eq!(a.stats.execs, b.stats.execs, "{os}");
            assert_eq!(a.branches, b.branches, "{os}");
            assert_eq!(a.bugs, b.bugs, "{os}");
            assert_eq!(
                format!("{:?}", a.crashes),
                format!("{:?}", b.crashes),
                "{os}"
            );
            assert_eq!(a.corpus_hashes, b.corpus_hashes, "{os}");
            assert_eq!(a.history, b.history, "{os}");
            // One `campaign.fuzz` span, however many advances.
            let summary = |r: &CampaignResult| r.telemetry.as_ref().expect("recorded").summary();
            assert_eq!(summary(&a).to_json(), summary(&b).to_json(), "{os}");
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_campaign(short(OsKind::Zephyr, 1, 0.02));
        let b = run_campaign(short(OsKind::Zephyr, 2, 0.02));
        // Not a strict requirement for every pair, but for these seeds
        // the runs must not be identical.
        assert!(a.stats.execs != b.stats.execs || a.branches != b.branches);
    }
}
