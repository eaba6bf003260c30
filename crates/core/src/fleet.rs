//! Campaign fleet: run many configs across a scoped worker pool.
//!
//! Every bench in the reproduction is shaped the same way — a list of
//! [`FuzzerConfig`]s (configs × repetitions) whose campaigns are fully
//! independent of each other: each owns its simulated machine, RNG
//! streams are seeded per config, and the shared artifact caches
//! ([`crate::artifacts`]) are keyed purely on inputs. [`FleetRunner`]
//! exploits that independence with a fixed pool of scoped worker
//! threads pulling jobs off a shared index, while keeping the *results*
//! in submission order so `jobs=1` and `jobs=N` output byte-identical
//! reports.
//!
//! A panicking campaign is contained to its job: the worker catches the
//! unwind and records a [`FleetError`] in that job's slot; the other
//! jobs — and the process — carry on.
//!
//! Scheduling is lock-free: the work list is a fixed array whose
//! indices are claimed through one atomic cursor (each `fetch_add` is
//! an exclusive claim), and results travel back in per-worker buffers
//! scattered into submission order after the join — no per-item mutex
//! on either side. [`FleetStats`] accounts the residual acquisition
//! cost so the fleet bench can report it.

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use crate::campaign::{run_campaign, CampaignResult};
use crate::config::FuzzerConfig;

/// A job that did not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetError {
    /// Index of the job in the submitted batch.
    pub job: usize,
    /// The panic payload, stringified.
    pub message: String,
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fleet job {} panicked: {}", self.job, self.message)
    }
}

impl std::error::Error for FleetError {}

/// Result of one fleet job.
pub type FleetResult<R> = Result<R, FleetError>;

/// Scheduling accounting for one [`FleetRunner::map`] batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Workers actually spawned: `jobs.min(items)`.
    pub workers: usize,
    /// Items executed.
    pub items: usize,
    /// Wall nanoseconds workers spent acquiring work — winning the
    /// cursor and taking the item — summed across workers. The
    /// previous design paid two mutex acquisitions per item here
    /// (claim the item, store the result); the fleet bench reports
    /// this figure as `lock_wait_nanos` so the delta stays visible.
    pub sched_wait_nanos: u64,
}

/// The fixed work list for one batch, claimed through an atomic
/// cursor: winning index `i` from the cursor's `fetch_add` is the
/// exclusive claim on `items[i]`, so taking the item needs no
/// per-item lock.
struct WorkList<T> {
    items: Vec<UnsafeCell<Option<T>>>,
}

// SAFETY: a worker only touches `items[i]` after winning `i` from the
// shared cursor, and `fetch_add` yields each index to at most one
// caller — the cell is never accessed concurrently. `T: Send` because
// the claim moves the item from the submitting thread to the worker.
unsafe impl<T: Send> Sync for WorkList<T> {}

impl<T> WorkList<T> {
    fn new(items: Vec<T>) -> Self {
        WorkList {
            items: items
                .into_iter()
                .map(|t| UnsafeCell::new(Some(t)))
                .collect(),
        }
    }

    /// Take item `i` out of the list.
    ///
    /// # Safety
    /// `i` must have been won from the batch cursor, making this call
    /// the cell's only access for the lifetime of the batch.
    unsafe fn take(&self, i: usize) -> T {
        (*self.items[i].get())
            .take()
            .expect("each job claimed once")
    }
}

/// A worker pool for running batches of independent campaigns.
#[derive(Debug, Clone, Copy)]
pub struct FleetRunner {
    jobs: usize,
}

impl Default for FleetRunner {
    fn default() -> Self {
        Self::from_env()
    }
}

impl FleetRunner {
    /// A runner with exactly `jobs` workers (clamped to ≥ 1).
    pub fn new(jobs: usize) -> Self {
        FleetRunner { jobs: jobs.max(1) }
    }

    /// Worker count from the environment: `EOF_JOBS` if set to a
    /// positive integer, otherwise the host's available parallelism.
    pub fn from_env() -> Self {
        let jobs = std::env::var("EOF_JOBS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&j| j >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        FleetRunner::new(jobs)
    }

    /// Configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Run `f` over every item, at most [`jobs`](Self::jobs) at a time,
    /// returning results in submission order. `f` receives the item's
    /// batch index alongside the item. A panic inside `f` becomes a
    /// `FleetError` for that slot only.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<FleetResult<R>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.map_with_stats(items, f).0
    }

    /// [`map`](Self::map) plus the batch's [`FleetStats`].
    pub fn map_with_stats<T, R, F>(&self, items: Vec<T>, f: F) -> (Vec<FleetResult<R>>, FleetStats)
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return (Vec::new(), FleetStats::default());
        }
        let workers = self.jobs.min(n);
        // Indices are claimed via the shared cursor; each worker keeps
        // its results in a private buffer handed back through the join,
        // and the scatter below restores submission order — so ordering
        // is independent of scheduling and no result slot is contended.
        let work = WorkList::new(items);
        let cursor = AtomicUsize::new(0);
        let sched_wait = AtomicU64::new(0);
        let f = &f;
        let work = &work;
        let cursor = &cursor;
        let sched_wait = &sched_wait;
        let run_worker = move |_: &crossbeam::thread::Scope<'_, '_>| {
            let mut buf: Vec<(usize, FleetResult<R>)> = Vec::new();
            let mut waited = 0u64;
            loop {
                let t0 = Instant::now();
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // SAFETY: the `fetch_add` above handed index `i` to
                // this worker alone.
                let item = unsafe { work.take(i) };
                waited += t0.elapsed().as_nanos() as u64;
                let out =
                    catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(|payload| FleetError {
                        job: i,
                        message: panic_message(payload),
                    });
                buf.push((i, out));
            }
            sched_wait.fetch_add(waited, Ordering::Relaxed);
            buf
        };
        let buffers: Vec<Vec<(usize, FleetResult<R>)>> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|_| s.spawn(run_worker)).collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .expect("fleet workers contain panics via catch_unwind")
                })
                .collect()
        })
        .expect("the scope closure does not panic");
        let mut out: Vec<Option<FleetResult<R>>> = (0..n).map(|_| None).collect();
        for (i, result) in buffers.into_iter().flatten() {
            debug_assert!(out[i].is_none(), "index {i} claimed twice");
            out[i] = Some(result);
        }
        let results = out
            .into_iter()
            .map(|slot| slot.expect("every index claimed"))
            .collect();
        let stats = FleetStats {
            workers,
            items: n,
            sched_wait_nanos: sched_wait.load(Ordering::Relaxed),
        };
        (results, stats)
    }

    /// Run a batch of campaigns, results in submission order.
    pub fn run(&self, configs: Vec<FuzzerConfig>) -> Vec<FleetResult<CampaignResult>> {
        self.map(configs, |_, config| run_campaign(config))
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eof_rtos::OsKind;

    fn short(os: OsKind, seed: u64) -> FuzzerConfig {
        let mut c = FuzzerConfig::eof(os, seed);
        c.budget_hours = 0.02;
        c.snapshot_hours = 0.005;
        c
    }

    #[test]
    fn results_keep_submission_order() {
        let runner = FleetRunner::new(4);
        let out = runner.map((0..32).collect::<Vec<_>>(), |i, x| {
            assert_eq!(i, x);
            x * 10
        });
        let values: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, (0..32).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_job_is_isolated() {
        let runner = FleetRunner::new(3);
        let out = runner.map(vec![1usize, 2, 3, 4], |_, x| {
            if x == 3 {
                panic!("job three exploded");
            }
            x
        });
        assert_eq!(out[0], Ok(1));
        assert_eq!(out[1], Ok(2));
        let err = out[2].as_ref().unwrap_err();
        assert_eq!(err.job, 2);
        assert!(err.message.contains("job three exploded"), "{err}");
        assert_eq!(out[3], Ok(4));
    }

    #[test]
    fn jobs_env_and_clamping() {
        assert_eq!(FleetRunner::new(0).jobs(), 1);
        assert_eq!(FleetRunner::new(7).jobs(), 7);
        assert!(FleetRunner::from_env().jobs() >= 1);
    }

    #[test]
    fn empty_batch_is_fine() {
        let (out, stats): (Vec<FleetResult<u8>>, FleetStats) =
            FleetRunner::new(2).map_with_stats(Vec::new(), |_, x| x);
        assert!(out.is_empty());
        assert_eq!(stats, FleetStats::default());
    }

    #[test]
    fn stats_count_workers_and_items() {
        // More jobs than items: the pool is trimmed to the batch, and
        // the scheduling-wait figure is measured (its magnitude is
        // hardware-dependent, so only its presence is asserted).
        let (out, stats) =
            FleetRunner::new(8).map_with_stats((0..5usize).collect::<Vec<_>>(), |_, x| x * 2);
        assert_eq!(
            out.into_iter().map(|r| r.unwrap()).collect::<Vec<_>>(),
            vec![0, 2, 4, 6, 8]
        );
        assert_eq!(stats.workers, 5);
        assert_eq!(stats.items, 5);
    }

    #[test]
    fn recorded_fleet_merges_identically_serial_and_parallel() {
        use crate::campaign::Campaign;
        use eof_hal::FaultPlan;
        let recorded = |_, c| Campaign::start(c, FaultPlan::none(), true).finish();
        // The telemetry half of the fleet determinism contract: merging
        // per-campaign registries in submission order must yield the same
        // summary whether the jobs ran on 1 worker or 4.
        let configs: Vec<FuzzerConfig> = vec![
            short(OsKind::Zephyr, 21),
            short(OsKind::FreeRtos, 22),
            short(OsKind::RtThread, 23),
        ];
        let merged_summary = |results: Vec<FleetResult<CampaignResult>>| {
            let parts: Vec<eof_telemetry::Registry> = results
                .into_iter()
                .map(|r| r.expect("campaign runs").telemetry.expect("recorded"))
                .collect();
            eof_telemetry::Merged::from_parts(parts).summary().to_json()
        };
        let serial = FleetRunner::new(1).map(configs.clone(), recorded);
        let parallel = FleetRunner::new(4).map(configs, recorded);
        assert_eq!(merged_summary(serial), merged_summary(parallel));
    }

    #[test]
    fn persisted_fleet_writes_one_store_per_job() {
        let base = std::env::temp_dir().join(format!("eof-fleet-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        // One directory per job keeps concurrent workers from ever
        // sharing a store.
        let configs = [short(OsKind::Zephyr, 31), short(OsKind::FreeRtos, 32)]
            .into_iter()
            .enumerate()
            .map(|(i, mut c)| {
                c.persist = Some(base.join(format!("job-{i}")));
                c
            })
            .collect();
        let out = FleetRunner::new(2).run(configs);
        for (i, r) in out.iter().enumerate() {
            let r = r.as_ref().expect("persisted campaign runs");
            let audit = r.persist.as_ref().expect("job audited its store");
            assert_eq!(audit.write_errors, 0);
            let loaded = crate::persist::open(&base.join(format!("job-{i}"))).unwrap();
            assert_eq!(loaded.seeds.len(), audit.seeds_written);
            assert_eq!(loaded.manifest.branches, r.branches);
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn serial_and_parallel_campaigns_are_identical() {
        let configs: Vec<FuzzerConfig> = vec![
            short(OsKind::Zephyr, 11),
            short(OsKind::Zephyr, 12),
            short(OsKind::FreeRtos, 11),
            short(OsKind::FreeRtos, 11),
        ];
        let serial = FleetRunner::new(1).run(configs.clone());
        let parallel = FleetRunner::new(4).run(configs);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(parallel.iter()) {
            let s = s.as_ref().expect("serial campaign runs");
            let p = p.as_ref().expect("parallel campaign runs");
            assert_eq!(s.branches, p.branches);
            assert_eq!(s.bugs, p.bugs);
            assert_eq!(format!("{:?}", s.stats), format!("{:?}", p.stats));
            assert_eq!(
                format!("{:?}", s.crashes),
                format!("{:?}", p.crashes),
                "parallel scheduling must not leak into results"
            );
        }
    }
}
