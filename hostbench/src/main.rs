//! hostbench — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path hostbench/Cargo.toml -- \
//!     --workload exec-steady --seed 42 --seconds 25 --trace 0
//! ```
//!
//! One process runs one workload: a fixed set of campaigns, each driven
//! closed-loop as fast as the host allows to a fixed simulated budget.
//! The set is repeated until `--seconds` of host time are used (at
//! least three times untraced, two when one repetition takes over a
//! third of `--seconds`; or once untraced and once traced), and every
//! repetition must reproduce the first one's simulated outputs exactly.
//! Host-time metrics are medians over repetitions.
//!
//! `--trace 0` prints the end-to-end metrics of untraced repetitions.
//! `--trace 1` alternates untraced and traced repetitions and prints
//! per-layer metrics from the traced ones: a telemetry recorder is
//! installed on each thread that runs campaign code, and the program's
//! own span journal is folded into per-layer self time (see
//! `layers.rs`), next to spans this benchmark takes around each public
//! call it makes. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod layers;
mod stats;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use eof_core::artifacts::{cache_stats, clear_caches, reset_cache_stats};
use eof_core::fabric::{advance_cell, slice_target_hours, SliceReport};
use eof_core::{
    build_fuzzer, diff_against_serial, fabric_grid, persist, replay_loaded, run_fabric, run_serial,
    FabricChaosPlan, FabricConfig, Fuzzer, FuzzerConfig, MutOp,
};
use eof_coverage::CoverageKind;
use eof_hal::FaultPlan;
use eof_rtos::bugs::BugId;
use eof_rtos::OsKind;
use eof_telemetry as tel;

use layers::{Fold, RESTORE_SPANS};

/// Simulated budget of each `driver-recovery` campaign: long enough
/// that NuttX's hanging driver bugs force well over a hundred restores.
const DRIVER_HOURS: f64 = 1.0;
/// Campaign seeds per OS on `driver-recovery`: how often a hanging bug
/// is hit varies from seed to seed, so one run averages several.
const DRIVER_SEEDS: u64 = 3;
/// Simulated budget of each `fabric-resume` cell. Host time here is
/// boot, the store and its per-slice finalize pass rather than fuzzing,
/// so a longer budget costs little; at 0.5 h the bug set is close to
/// saturated and varies little from seed to seed.
const FABRIC_HOURS: f64 = 0.5;
/// Checkpoint slices per fabric cell.
const FABRIC_SLICES: usize = 4;
/// Fuzzing iterations between two registry hand-offs in a traced
/// campaign, so no registry reaches the program's span-record cap.
const ROTATE_STEPS: u32 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ExecSteady,
    DriverRecovery,
    FabricResume,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ExecSteady,
        Workload::DriverRecovery,
        Workload::FabricResume,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ExecSteady => "exec-steady",
            Workload::DriverRecovery => "driver-recovery",
            Workload::FabricResume => "fabric-resume",
        }
    }

    /// The workload's campaigns, with every field that otherwise reads
    /// an `EOF_*` environment default set explicitly.
    fn cells(self, seed: u64) -> Vec<FuzzerConfig> {
        fn pin(mut c: FuzzerConfig, cov: CoverageKind, cmplog: bool) -> FuzzerConfig {
            c.snapshot = true;
            c.cmplog = cmplog;
            c.coverage_backend = cov;
            c
        }
        match self {
            // The paper's headline configuration at its 24 h budget.
            Workload::ExecSteady => [OsKind::FreeRtos, OsKind::PokOs]
                .into_iter()
                .map(|os| {
                    let mut c = pin(FuzzerConfig::eof(os, seed), CoverageKind::Ring, false);
                    c.vectored = true;
                    c
                })
                .collect(),
            Workload::DriverRecovery => [OsKind::NuttX, OsKind::Zephyr]
                .into_iter()
                .flat_map(|os| derived_seeds(seed, DRIVER_SEEDS).map(move |s| (os, s)))
                .map(|(os, s)| {
                    let mut c = pin(FuzzerConfig::eof_cmplog(os, s), CoverageKind::Trace, true);
                    c.vectored = true;
                    c.budget_hours = DRIVER_HOURS;
                    c.snapshot_hours = DRIVER_HOURS / 4.0;
                    c
                })
                .collect(),
            // Both wire modes, each on its own seed: one seed gives
            // bit-identical campaigns in either mode, so a shared seed would
            // halve the independent campaigns a run averages over.
            Workload::FabricResume => {
                let seeds: Vec<u64> = derived_seeds(seed, 2).collect();
                let scalar = fabric_grid(&OsKind::ALL, &seeds[1..], FABRIC_HOURS, false)
                    .into_iter()
                    .map(|mut c| {
                        c.vectored = false;
                        c
                    });
                fabric_grid(&OsKind::ALL, &seeds[..1], FABRIC_HOURS, false)
                    .into_iter()
                    .chain(scalar)
                    .map(|c| pin(c, CoverageKind::Ring, false))
                    .collect()
            }
        }
    }
}

/// `n` campaign seeds for workload seed `seed`, disjoint from those of
/// every other workload seed, so runs on different seeds share no
/// campaign.
fn derived_seeds(seed: u64, n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |i| seed.wrapping_mul(n).wrapping_add(i))
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {:?} has no value", pair[0]));
        };
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let name = get("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    if flags.len() != 4 || seconds.is_nan() || seconds <= 0.0 {
        return Err("expected exactly --workload, --seed, --seconds > 0 and --trace".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The simulated outcome of one campaign: identical on every
/// repetition, traced or not.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CellSim {
    os: &'static str,
    execs: u64,
    branches: usize,
    bugs: Vec<BugId>,
    /// Simulated cycles at the budget (`None` where the fabric hides
    /// the clock).
    cycles: Option<u64>,
    /// Failed syncs plus discarded coverage and comparison drains.
    failed: u64,
}

/// The simulated outcome of one repetition of a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Sim {
    cells: Vec<CellSim>,
    /// Edge union over the workload's campaigns.
    edges: usize,
    /// Distinct Table-2 bugs over the workload's campaigns.
    bugs: usize,
    /// Fabric cells that failed.
    failed_cells: u64,
}

impl Sim {
    fn execs(&self) -> u64 {
        self.cells.iter().map(|c| c.execs).sum()
    }

    fn failed_execs(&self) -> u64 {
        self.cells.iter().map(|c| c.failed).sum()
    }

    /// Operations attempted: execs, plus cells where a fabric runs them.
    fn attempted(&self, fabric: bool) -> u64 {
        self.execs() + if fabric { self.cells.len() as u64 } else { 0 }
    }

    fn failed(&self) -> u64 {
        self.failed_execs() + self.failed_cells
    }

    fn from_cells(cells: Vec<CellSim>, edges: &BTreeSet<u64>, failed_cells: u64) -> Sim {
        let bugs: BTreeSet<BugId> = cells.iter().flat_map(|c| c.bugs.iter().copied()).collect();
        Sim {
            cells,
            edges: edges.len(),
            bugs: bugs.len(),
            failed_cells,
        }
    }
}

fn cell_sim(fuzzer: &Fuzzer) -> CellSim {
    let ex = fuzzer.executor();
    CellSim {
        os: fuzzer.config().os.short(),
        execs: fuzzer.stats().execs,
        branches: ex.coverage().branches(),
        bugs: fuzzer.crashes().bugs_found(),
        cycles: Some(ex.now()),
        failed: ex.failed_syncs() + ex.cov_discards() + ex.cmp_discards(),
    }
}

/// Host-time attribution of one traced repetition, in seconds.
#[derive(Debug, Default)]
struct Traced {
    fold: Fold,
    /// Self time of the benchmark's own spans, by layer.
    bench: BTreeMap<&'static str, f64>,
    /// Wall time the attribution is taken against: the repetition's
    /// wall, with parallel fabric rounds counted once per busy worker.
    base_s: f64,
    cache_hit_rate: f64,
    rederive_s: f64,
    executed_hours: f64,
    budget_hours: f64,
    bytes_written: u64,
}

impl Traced {
    fn add(&mut self, layer: &'static str, seconds: f64) {
        *self.bench.entry(layer).or_default() += seconds.max(0.0);
    }

    /// Fold a registry in, returning the wall seconds its top-level
    /// spans claim and charging the fold itself to the tracer.
    fn absorb(&mut self, reg: tel::Registry) -> f64 {
        let t = Instant::now();
        let before = self.fold.top_ns;
        self.fold.absorb(reg);
        self.add("trace.fold", t.elapsed().as_secs_f64());
        (self.fold.top_ns - before) as f64 / 1e9
    }
}

/// One repetition of a workload.
struct Rep {
    sim: Sim,
    wall_s: f64,
    setup_s: f64,
    /// Host seconds in the fuzz loop (the fabric's wall on
    /// `fabric-resume`, where the loop runs inside the fabric).
    fuzz_s: f64,
    /// `run_serial` wall over the same cells (`fabric-resume`, untraced).
    serial_s: Option<f64>,
    fabric_counts: Option<(u64, u64)>,
    traced: Option<Traced>,
    /// Correctness failures found inside the repetition.
    errors: Vec<String>,
}

/// Set up one campaign, timed, with a recorder when tracing.
fn setup(cfg: &FuzzerConfig, traced: Option<&mut Traced>) -> (Fuzzer, f64) {
    let t = Instant::now();
    let guard = traced.is_some().then(tel::begin);
    let (fuzzer, _, _) = build_fuzzer(cfg.clone(), FaultPlan::none());
    let reg = guard.map(|g| g.finish());
    let setup_s = t.elapsed().as_secs_f64();
    if let (Some(tr), Some(reg)) = (traced, reg) {
        let claimed = tr.absorb(reg);
        tr.add("campaign", setup_s - claimed);
    }
    (fuzzer, setup_s)
}

/// Drive a fuzzer to its budget. Untraced, through
/// `Fuzzer::run_to_budget`; traced, through the same `Fuzzer::step`
/// loop with the recorder handed off every [`ROTATE_STEPS`] steps.
fn fuzz(fuzzer: &mut Fuzzer, traced: Option<&mut Traced>) -> f64 {
    let t = Instant::now();
    let Some(tr) = traced else {
        fuzzer.run_to_budget();
        return t.elapsed().as_secs_f64();
    };
    let end = fuzzer.executor().now_hours() + fuzzer.config().budget_hours;
    let fold_before = tr.bench.get("trace.fold").copied().unwrap_or(0.0);
    let mut claimed = 0.0;
    let mut guard = tel::begin();
    let mut steps = 0u32;
    while fuzzer.executor().now_hours() < end {
        fuzzer.step();
        steps += 1;
        if steps.is_multiple_of(ROTATE_STEPS) {
            claimed += tr.absorb(guard.finish());
            guard = tel::begin();
        }
    }
    claimed += tr.absorb(guard.finish());
    let fuzz_s = t.elapsed().as_secs_f64();
    let folding = tr.bench.get("trace.fold").copied().unwrap_or(0.0) - fold_before;
    tr.add("fuzzer", fuzz_s - claimed - folding);
    fuzz_s
}

/// `exec-steady` and `driver-recovery`: each campaign set up with
/// `build_fuzzer` and fuzzed to its budget, one after another.
fn campaigns_rep(cells: &[FuzzerConfig], trace: bool) -> Rep {
    clear_caches();
    reset_cache_stats();
    let t0 = Instant::now();
    let mut traced = trace.then(Traced::default);
    let (mut setup_s, mut fuzz_s) = (0.0, 0.0);
    let mut sims = Vec::new();
    let mut edges = BTreeSet::new();
    for cfg in cells {
        let (mut fuzzer, s) = setup(cfg, traced.as_mut());
        setup_s += s;
        fuzz_s += fuzz(&mut fuzzer, traced.as_mut());
        sims.push(cell_sim(&fuzzer));
        edges.extend(fuzzer.executor().coverage().iter());
    }
    let wall_s = t0.elapsed().as_secs_f64();
    if let Some(tr) = traced.as_mut() {
        tr.base_s = wall_s;
        tr.cache_hit_rate = cache_stats().hit_rate();
    }
    Rep {
        sim: Sim::from_cells(sims, &edges, 0),
        wall_s,
        setup_s,
        fuzz_s,
        serial_s: None,
        fabric_counts: None,
        traced,
        errors: Vec::new(),
    }
}

/// Where a fabric cell keeps its checkpoint store under the fabric root
/// (the layout `run_fabric` writes).
fn cell_dir(root: &Path, cell: usize) -> PathBuf {
    root.join("cells").join(format!("cell-{cell:03}"))
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// `fabric-resume`: set up every cell cold, run the fault-free fabric
/// (untraced: `run_fabric`; traced: the same round schedule replayed
/// slice by slice through `advance_cell`, one recorder per worker),
/// then open and replay every cell's final store. With `reference`, an
/// untraced repetition then runs the `run_serial` reference, untimed in
/// `wall_s`, and diffs the fabric's merge against it.
fn fabric_rep(
    cells: &[FuzzerConfig],
    root: &Path,
    workers: usize,
    trace: bool,
    reference: bool,
) -> Rep {
    let _ = std::fs::remove_dir_all(root);
    clear_caches();
    reset_cache_stats();
    let t0 = Instant::now();
    let mut traced = trace.then(Traced::default);
    let mut errors = Vec::new();

    let mut setup_s = 0.0;
    for cfg in cells {
        setup_s += setup(cfg, traced.as_mut()).1;
    }

    let t = Instant::now();
    let (sims, edges, report) = match traced.as_mut() {
        None => {
            let config = FabricConfig::new(cells.to_vec(), workers, root);
            let report = run_fabric(&config, &FabricChaosPlan::none());
            errors.extend(report.violations.iter().cloned());
            let sims = report
                .outcomes
                .iter()
                .map(|(cell, o)| CellSim {
                    os: cells[*cell].os.short(),
                    execs: o.execs,
                    branches: o.branches,
                    bugs: o.bugs.iter().copied().collect(),
                    cycles: None,
                    failed: 0,
                })
                .collect();
            (sims, report.merged_edges.clone(), Some(report))
        }
        Some(tr) => {
            let (sims, edges) = replay_fabric_traced(cells, root, workers, tr);
            (sims, edges, None)
        }
    };
    let fabric_s = t.elapsed().as_secs_f64();
    // Finalize: every cell's final store must open and replay clean.
    let t = Instant::now();
    let mut open_s = 0.0;
    for (i, cfg) in cells.iter().enumerate() {
        let to = Instant::now();
        let loaded = match persist::open(&cell_dir(root, i)) {
            Ok(l) => l,
            Err(e) => {
                errors.push(format!("cell {i}: store does not open: {e}"));
                continue;
            }
        };
        open_s += to.elapsed().as_secs_f64();
        let replay = replay_loaded(&loaded, cfg);
        if !replay.all_passed() {
            errors.push(format!("cell {i}: {} replay cases failed", replay.failed()));
        }
    }
    let finalize_s = t.elapsed().as_secs_f64();
    let wall_s = t0.elapsed().as_secs_f64();

    if let Some(tr) = traced.as_mut() {
        tr.add("persist.open", open_s);
        tr.add("replay.finalize", finalize_s - open_s);
        tr.base_s += wall_s;
        tr.cache_hit_rate = cache_stats().hit_rate();
        tr.bytes_written = dir_bytes(root);
        tr.budget_hours = cells.iter().map(|c| c.budget_hours).sum();
    }
    let _ = std::fs::remove_dir_all(root);

    // The serial reference is deterministic, so one diff per run checks
    // the merge; every later repetition must then equal the first.
    let serial_s = report.as_ref().filter(|_| reference).map(|report| {
        let t = Instant::now();
        let serial = run_serial(cells);
        let serial_s = t.elapsed().as_secs_f64();
        errors.extend(diff_against_serial(report, &serial));
        serial_s
    });
    Rep {
        sim: Sim::from_cells(
            sims,
            &edges,
            report.as_ref().map_or(0, |r| r.failures.len() as u64),
        ),
        wall_s,
        setup_s,
        fuzz_s: fabric_s,
        serial_s,
        fabric_counts: report.as_ref().map(|r| (r.leases_granted, r.heartbeats)),
        traced,
        errors,
    }
}

/// One traced worker slice: `advance_cell` under its own recorder.
fn traced_slice(
    cfg: &FuzzerConfig,
    dir: &Path,
    target_hours: f64,
) -> (SliceReport, tel::Registry, Instant, Instant) {
    let start = Instant::now();
    let guard = tel::begin();
    let report = advance_cell(cfg, dir, target_hours);
    let reg = guard.finish();
    (report, reg, start, Instant::now())
}

/// The fault-free fabric schedule: idle workers take the lowest
/// pending cell, and each round every busy worker runs its cell's next
/// checkpoint slice in parallel, the round ending with the slowest. All
/// cells have the same slice count, so cells run in lockstep groups of
/// `workers`. Returns the finished cells and the merged edge union.
fn replay_fabric_traced(
    cells: &[FuzzerConfig],
    root: &Path,
    workers: usize,
    tr: &mut Traced,
) -> (Vec<CellSim>, BTreeSet<u64>) {
    let mut sims = Vec::new();
    let mut edges = BTreeSet::new();
    let mut rounds_s = 0.0;
    let mut busy_s = 0.0;
    for (g, group) in cells.chunks(workers).enumerate() {
        for k in 0..FABRIC_SLICES {
            let round = Instant::now();
            let results: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = group
                    .iter()
                    .enumerate()
                    .map(|(j, cfg)| {
                        let dir = cell_dir(root, g * workers + j);
                        let target = slice_target_hours(cfg.budget_hours, FABRIC_SLICES, k);
                        s.spawn(move || traced_slice(cfg, &dir, target))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("traced fabric worker panicked"))
                    .collect()
            });
            let round_end = Instant::now();
            let round_s = (round_end - round).as_secs_f64();
            rounds_s += round_s;
            busy_s += round_s * results.len() as f64;
            // Each worker's share of the round: its slice, the wait for
            // the slowest slice, and the spawn and join cost around them.
            let ns = |i: Instant| (i - round).as_nanos() as u64;
            let intervals: Vec<(u64, u64)> = results.iter().map(|r| (ns(r.2), ns(r.3))).collect();
            let overhead_s = stats::self_time((0, ns(round_end)), &intervals) as f64 / 1e9;
            for (j, (report, reg, start, end)) in results.into_iter().enumerate() {
                let slice_s = (end - start).as_secs_f64();
                let save_s = reg
                    .spans
                    .iter()
                    .filter(|s| s.name == "persist.save")
                    .map(|s| s.wall_ns as f64 / 1e9)
                    .sum::<f64>();
                let claimed = tr.absorb(reg);
                tr.add("fabric.slice", slice_s - claimed);
                tr.add("fleet.wait", round_s - overhead_s - slice_s);
                tr.add("fleet.round", overhead_s);
                if k > 0 {
                    tr.rederive_s += slice_s - save_s;
                }
                tr.executed_hours += slice_target_hours(group[j].budget_hours, FABRIC_SLICES, k);
                if let Some(done) = report.finished {
                    sims.push(CellSim {
                        os: group[j].os.short(),
                        execs: done.execs,
                        branches: done.branches,
                        bugs: report.bugs.iter().copied().collect(),
                        cycles: None,
                        failed: 0,
                    });
                    edges.extend(report.coverage_edges.iter().copied());
                }
            }
        }
    }
    // Rounds count once per busy worker in the attribution base.
    tr.base_s += busy_s - rounds_s;
    (sims, edges)
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn command_line(program: &str, args: &[&str], cwd_ceiling: bool) -> String {
    let mut cmd = std::process::Command::new(program);
    cmd.args(args);
    if cwd_ceiling {
        // The checkout may not be a repository: do not let git find one
        // above it.
        if let Some(parent) = std::env::current_dir()
            .ok()
            .and_then(|d| d.parent().map(Path::to_path_buf))
        {
            cmd.env("GIT_CEILING_DIRECTORIES", parent);
        }
    }
    match cmd.output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: finite values with all their digits, else 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

type Metric = (&'static str, f64, &'static str);

fn med(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    stats::median(&v).unwrap_or(0.0)
}

/// End-to-end metrics from the untraced repetitions.
fn end_to_end(reps: &[&Rep], sim: &Sim) -> Result<Vec<Metric>, String> {
    Ok(vec![
        (
            "host_execs_per_s",
            med(reps
                .iter()
                .map(|r| stats::ratio(r.sim.execs() as f64, r.fuzz_s))),
            "1/s",
        ),
        ("wall_s", med(reps.iter().map(|r| r.wall_s)), "s"),
        ("setup_s", med(reps.iter().map(|r| r.setup_s)), "s"),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
        ("sim_execs", sim.execs() as f64, "count"),
        ("branches", sim.edges as f64, "count"),
        ("bugs", sim.bugs as f64, "count"),
    ])
}

/// Per-layer metrics of one traced repetition.
fn layer_metrics(tr: &Traced) -> Vec<Metric> {
    let f = &tr.fold;
    let bench = |k: &str| tr.bench.get(k).copied().unwrap_or(0.0);
    let ring = f.counter("cov.trace.packets") == 0;
    let gen = stats::summarize(&f.samples_s(&["fuzz.gen"]));
    let exec = stats::summarize(&f.samples_s(&["exec"]));
    let restore = stats::summarize(&f.samples_s(RESTORE_SPANS));
    let execs = f.counter("fuzz.execs") as f64;
    let ops = |names: fn(MutOp) -> &'static str| -> f64 {
        MutOp::ALL
            .iter()
            .map(|&op| f.counter(names(op)))
            .sum::<u64>() as f64
    };
    let drain_s = f.self_s(&["exec.cov_drain"]);
    let layers: Vec<(&'static str, f64)> = vec![
        ("artifacts", f.self_s(&["campaign.spec", "campaign.image"])),
        ("hal.boot", f.self_s(&["campaign.boot"])),
        ("campaign", bench("campaign")),
        ("gen", f.self_s(&["fuzz.gen"])),
        ("executor", f.self_s(&["exec"])),
        ("wire", f.self_s(&["exec.translate"])),
        ("coverage", drain_s),
        ("cmplog", f.self_s(&["exec.cmp_drain"])),
        ("crash", f.self_s(&["exec.triage"])),
        ("supervisor", f.self_s(&["recovery.episode"])),
        ("restore", f.self_s(RESTORE_SPANS)),
        ("fuzzer", f.self_s(&["campaign.fuzz"]) + bench("fuzzer")),
        ("persist.save", f.self_s(&["persist.save"])),
        ("persist.open", bench("persist.open")),
        ("replay.finalize", bench("replay.finalize")),
        ("fabric.slice", bench("fabric.slice")),
        ("fleet.wait", bench("fleet.wait")),
        ("fleet.round", bench("fleet.round")),
        ("trace.fold", bench("trace.fold")),
    ];
    let self_times: Vec<f64> = layers.iter().map(|(_, s)| *s).collect();
    let ms = |s: f64| s * 1e3;
    let us = |s: f64| s * 1e6;
    vec![
        ("artifacts.spec_ms", ms(f.self_s(&["campaign.spec"])), "ms"),
        (
            "artifacts.image_ms",
            ms(f.self_s(&["campaign.image"])),
            "ms",
        ),
        ("artifacts.hit_rate", tr.cache_hit_rate, "ratio"),
        ("hal.boot_ms", ms(f.self_s(&["campaign.boot"])), "ms"),
        (
            "hal.boot_cycles",
            f.span_cycles(&["campaign.boot"]) as f64,
            "cycles",
        ),
        ("campaign.self_s", bench("campaign"), "s"),
        ("gen.calls", f.spans(&["fuzz.gen"]) as f64, "count"),
        ("gen.self_s", f.self_s(&["fuzz.gen"]), "s"),
        ("gen.us_p50", us(gen.map_or(0.0, |g| g.median)), "us"),
        ("executor.self_s", f.self_s(&["exec"]), "s"),
        (
            "executor.exec_samples",
            exec.map_or(0.0, |e| e.count as f64),
            "count",
        ),
        (
            "executor.exec_us_p50",
            us(exec.map_or(0.0, |e| e.median)),
            "us",
        ),
        (
            "executor.exec_tail_pct",
            exec.and_then(|e| e.tail_pct).unwrap_or(0.0),
            "pct",
        ),
        (
            "executor.exec_us_tail",
            us(exec.and_then(|e| e.tail).unwrap_or(0.0)),
            "us",
        ),
        (
            "executor.cycles_per_exec",
            stats::ratio(f.span_cycles(&["exec"]) as f64, f.spans(&["exec"]) as f64),
            "cycles",
        ),
        ("wire.translate_s", f.self_s(&["exec.translate"]), "s"),
        (
            "coverage.ring_drain_s",
            if ring { drain_s } else { 0.0 },
            "s",
        ),
        (
            "coverage.trace_drain_s",
            if ring { 0.0 } else { drain_s },
            "s",
        ),
        (
            "coverage.trace_bytes",
            f.counter("cov.trace.bytes") as f64,
            "bytes",
        ),
        (
            "coverage.trace_resyncs",
            f.counter("cov.trace.resyncs") as f64,
            "count",
        ),
        (
            "coverage.trace_overflows",
            f.counter("cov.trace.overflow") as f64,
            "count",
        ),
        ("cmplog.drain_s", f.self_s(&["exec.cmp_drain"]), "s"),
        (
            "cmplog.records",
            f.counter("exec.cmp_records") as f64,
            "count",
        ),
        (
            "cmplog.interesting_ratio",
            stats::ratio(ops(MutOp::interesting_counter), ops(MutOp::execs_counter)),
            "ratio",
        ),
        ("restore.count", f.spans(RESTORE_SPANS) as f64, "count"),
        (
            "restore.ms_p50",
            ms(restore.map_or(0.0, |r| r.median)),
            "ms",
        ),
        (
            "restore.tail_pct",
            restore.and_then(|r| r.tail_pct).unwrap_or(0.0),
            "pct",
        ),
        (
            "restore.ms_tail",
            ms(restore.and_then(|r| r.tail).unwrap_or(0.0)),
            "ms",
        ),
        ("restore.self_s", f.self_s(RESTORE_SPANS), "s"),
        (
            "restore.cycles_each",
            stats::ratio(
                f.span_cycles(RESTORE_SPANS) as f64,
                f.spans(RESTORE_SPANS) as f64,
            ),
            "cycles",
        ),
        (
            "supervisor.episodes",
            f.counter("recovery.episodes") as f64,
            "count",
        ),
        (
            "supervisor.mttr_cycles",
            stats::ratio(f.episode_cycles as f64, f.episodes as f64),
            "cycles",
        ),
        ("supervisor.self_s", f.self_s(&["recovery.episode"]), "s"),
        ("dap.txns", f.txns as f64, "count"),
        ("dap.ops", f.dap_ops as f64, "count"),
        (
            "dap.round_trips_saved",
            f.counter("dap.txn.round_trips_saved") as f64,
            "count",
        ),
        (
            "dap.txn_partial",
            f.counter("dap.txn.partial") as f64,
            "count",
        ),
        (
            "corpus.admits",
            f.counter("fuzz.interesting") as f64,
            "count",
        ),
        (
            "corpus.interesting_ratio",
            stats::ratio(f.counter("fuzz.interesting") as f64, execs),
            "ratio",
        ),
        ("crash.triage_s", f.self_s(&["exec.triage"]), "s"),
        (
            "fuzzer.self_s",
            f.self_s(&["campaign.fuzz"]) + bench("fuzzer"),
            "s",
        ),
        ("persist.save_s", f.wall_s(&["persist.save"]), "s"),
        ("persist.open_s", bench("persist.open"), "s"),
        ("persist.bytes_written", tr.bytes_written as f64, "bytes"),
        ("replay.rederive_s", tr.rederive_s, "s"),
        ("replay.finalize_s", bench("replay.finalize"), "s"),
        (
            "fabric.rederive_ratio",
            stats::rederive_ratio(tr.budget_hours, tr.executed_hours),
            "ratio",
        ),
        ("fabric.slice_self_s", bench("fabric.slice"), "s"),
        ("fleet.sched_wait_s", bench("fleet.wait"), "s"),
        ("trace.fold_s", bench("trace.fold"), "s"),
        ("trace.spans_dropped", f.spans_dropped as f64, "count"),
        ("attributed_base_s", tr.base_s, "s"),
        (
            "unattributed_s",
            stats::unattributed(tr.base_s, &self_times),
            "s",
        ),
    ]
}

/// Per-metric medians over several repetitions' metric lists.
fn median_metrics(lists: &[Vec<Metric>]) -> Vec<Metric> {
    lists[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| (name, med(lists.iter().map(|l| l[i].1)), unit))
        .collect()
}

fn provenance(args: &Args, cells: &[FuzzerConfig]) -> String {
    let env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("EOF_"))
        .map(|(k, v)| format!("{}: {}", json_str(&k), json_str(&v)))
        .collect();
    let configs: Vec<String> = cells.iter().map(|c| json_str(&format!("{c:?}"))).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": {}, \
         \"rustc\": {}, \"nproc\": {}, \"eof_env\": {{{}}}, \"configs\": [{}]}}",
        json_str(args.workload.name()),
        args.seed,
        json_num(args.seconds),
        args.trace,
        json_str(&command_line("git", &["rev-parse", "HEAD"], true)),
        json_str(&command_line("rustc", &["-V"], false)),
        nproc(),
        env.join(", "),
        configs.join(", ")
    )
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run(args: &Args) -> Result<ExitCode, String> {
    if std::env::var("EOF_TRACE").is_ok_and(|v| !(v.is_empty() || v == "0")) {
        return Err(
            "EOF_TRACE is set: the program would record every campaign, \
                    so no untraced measurement can be taken"
                .into(),
        );
    }
    let cells = args.workload.cells(args.seed);
    println!("provenance {}", provenance(args, &cells));
    let fabric = args.workload == Workload::FabricResume;
    // One fabric worker: a round waits for its slowest slice, so with
    // more workers any CPU time the host takes from one thread stalls
    // them all, and the fabric's host time stops repeating.
    let workers = 1;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("{}-{}", args.workload.name(), std::process::id()));

    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let traced = args.trace && reps.len() % 2 == 1;
        let rep = if fabric {
            fabric_rep(&cells, &root, workers, traced, reps.is_empty())
        } else {
            campaigns_rep(&cells, traced)
        };
        eprintln!(
            "{} rep {} ({}): wall {:.3} s, setup {:.3} s, {} execs",
            args.workload.name(),
            reps.len(),
            if traced { "traced" } else { "untraced" },
            rep.wall_s,
            rep.setup_s,
            rep.sim.execs()
        );
        let last_s = rep.wall_s + rep.serial_s.unwrap_or(0.0);
        reps.push(rep);
        // Untraced medians want three repetitions; a workload whose
        // repetition takes over a third of the run settles for two.
        let least = if args.trace || 3.0 * last_s > args.seconds {
            2
        } else {
            3
        };
        if reps.len() >= least && start.elapsed().as_secs_f64() + last_s > args.seconds {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(root.parent().expect("work root has a parent"));

    // Correctness: every repetition, traced or not, reproduces the
    // first one's simulated outputs exactly, and no repetition found a
    // fabric or replay error.
    let sim = reps[0].sim.clone();
    let mut errors: Vec<String> = Vec::new();
    for (i, rep) in reps.iter().enumerate() {
        if rep.sim != sim {
            errors.push(format!(
                "rep {i} simulated outputs differ: {:?} vs {:?}",
                rep.sim, sim
            ));
        }
        errors.extend(rep.errors.iter().map(|e| format!("rep {i}: {e}")));
        if let Some(tr) = &rep.traced {
            if tr.fold.spans_dropped > 0 {
                errors.push(format!(
                    "rep {i}: {} span records dropped",
                    tr.fold.spans_dropped
                ));
            }
        }
    }
    if sim.failed() > 0 {
        errors.push(format!(
            "{} operations failed on a fault-free workload",
            sim.failed()
        ));
    }

    let untraced: Vec<&Rep> = reps.iter().filter(|r| r.traced.is_none()).collect();
    let metrics = if args.trace {
        let lists: Vec<Vec<Metric>> = reps
            .iter()
            .filter_map(|r| r.traced.as_ref().map(layer_metrics))
            .collect();
        let traced_wall = med(reps.iter().filter(|r| r.traced.is_some()).map(|r| r.wall_s));
        let untraced_wall = med(untraced.iter().map(|r| r.wall_s));
        let mut m = median_metrics(&lists);
        m.push((
            "trace.overhead_x",
            stats::ratio(traced_wall, untraced_wall),
            "x",
        ));
        m.push((
            "fail_ratio",
            stats::fail_ratio(
                sim.failed_execs(),
                sim.execs(),
                sim.failed_cells,
                if fabric { sim.cells.len() as u64 } else { 0 },
            ),
            "ratio",
        ));
        let fabric_s = med(untraced.iter().map(|r| r.fuzz_s));
        let serial_s = reps[0].serial_s.unwrap_or(0.0);
        m.push(("fabric.overhead_x", stats::ratio(fabric_s, serial_s), "x"));
        let (leases, heartbeats) = untraced
            .iter()
            .find_map(|r| r.fabric_counts)
            .unwrap_or((0, 0));
        m.push(("fabric.leases", leases as f64, "count"));
        m.push(("fabric.heartbeats", heartbeats as f64, "count"));
        m
    } else {
        end_to_end(&untraced, &sim)?
    };

    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    for e in &errors {
        eprintln!("INCORRECT: {e}");
    }
    let correct = errors.is_empty();
    let body: Vec<String> = if correct {
        metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(n),
                    json_num(*v),
                    json_str(u)
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        sim.attempted(fabric).max(1),
        sim.failed(),
        body.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "hostbench: {e}\nusage: hostbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::from(2)
        }
    }
}
