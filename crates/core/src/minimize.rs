//! Crash-reproducer minimisation.
//!
//! The paper's crash reports (Figure 6) show minimal triggering
//! sequences; this module produces them: given a crashing prog, it
//! repeatedly removes calls (fixing up resource references) and keeps a
//! removal when the same bug class still fires. Minimisation re-executes
//! on the live target, so hang-class crashes cost a restoration per
//! probe — the trial budget bounds that.

use crate::crash::CrashReport;
use crate::executor::Executor;
use eof_rtos::bugs::BugId;
use eof_speclang::prog::Prog;
use eof_telemetry as tel;

/// Outcome of a minimisation run.
#[derive(Debug, Clone)]
pub struct MinimizeResult {
    /// The minimised reproducer.
    pub prog: Prog,
    /// Crash report from the final confirming execution.
    pub crash: CrashReport,
    /// Executions spent minimising.
    pub trials: u32,
    /// Calls removed from the original.
    pub removed: usize,
}

/// Does a crash match the class we are minimising for? Bug-triaged
/// crashes match by bug id; untriaged ones by message class.
fn same_class(report: &CrashReport, bug: Option<BugId>, message: &str) -> bool {
    match bug {
        Some(b) => report.bug == Some(b),
        None => {
            let strip = |s: &str| -> String {
                s.chars()
                    .map(|c| if c.is_ascii_digit() { '#' } else { c })
                    .collect()
            };
            strip(&report.message) == strip(message)
        }
    }
}

/// Minimise `prog`, which is known to trigger `crash`, to the shortest
/// call sequence still triggering the same crash class. `max_trials`
/// bounds the target executions spent.
pub fn minimize(
    executor: &mut Executor,
    prog: &Prog,
    crash: &CrashReport,
    max_trials: u32,
) -> MinimizeResult {
    let span = tel::span_start("minimize", executor.now());
    let result = minimize_inner(executor, prog, crash, max_trials);
    tel::span_end(span, executor.now());
    tel::count("minimize.runs", 1);
    tel::count("minimize.trials", result.trials as u64);
    tel::count("minimize.calls_removed", result.removed as u64);
    result
}

fn minimize_inner(
    executor: &mut Executor,
    prog: &Prog,
    crash: &CrashReport,
    max_trials: u32,
) -> MinimizeResult {
    let bug = crash.bug;
    let message = crash.message.clone();
    let mut best = prog.clone();
    let mut best_crash = crash.clone();
    let mut trials = 0u32;

    // One pass of single-call removal, repeated until a fixpoint or the
    // budget runs out. Removing from the end first keeps producers (and
    // their consumers' references) intact longest.
    let mut progressed = true;
    while progressed && trials < max_trials {
        progressed = false;
        let mut idx = best.calls.len();
        while idx > 0 && trials < max_trials {
            idx -= 1;
            if best.calls.len() <= 1 {
                break;
            }
            let mut candidate = best.clone();
            candidate.remove_call(idx);
            if candidate.is_empty() || candidate == best {
                continue;
            }
            trials += 1;
            let outcome = executor.run_one(&candidate);
            match outcome.crash {
                Some(report) if same_class(&report, bug, &message) => {
                    best = candidate;
                    best_crash = report;
                    progressed = true;
                    // Re-clamp the cursor to the shrunken prog.
                    idx = idx.min(best.calls.len());
                }
                _ => {}
            }
        }
    }
    let removed = prog.calls.len() - best.calls.len();
    MinimizeResult {
        prog: best,
        crash: best_crash,
        trials,
        removed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::cached_image;
    use crate::campaign::boot_executor;
    use crate::config::FuzzerConfig;
    use eof_hal::{BoardCatalog, FaultPlan};
    use eof_rtos::OsKind;
    use eof_speclang::prog::{ArgValue, Call};

    fn executor(os: OsKind) -> Executor {
        let mut config = FuzzerConfig::eof(os, 1);
        config.board = BoardCatalog::qemu_virt_arm();
        let image = cached_image(os, config.profile, &config.effective_instrument());
        boot_executor(&config, &image, FaultPlan::none())
    }

    fn call(api: &str, args: Vec<ArgValue>) -> Call {
        Call {
            api: api.into(),
            args,
        }
    }

    #[test]
    fn strips_noise_around_a_single_call_bug() {
        let mut ex = executor(OsKind::FreeRtos);
        // Bug #13 needs only load_partitions(3, 0x10); bury it in noise.
        let noisy = Prog {
            mmio: vec![],
            calls: vec![
                call("vTaskTickIncrement", vec![ArgValue::Int(2)]),
                call("pvPortMalloc", vec![ArgValue::Int(64)]),
                call(
                    "load_partitions",
                    vec![ArgValue::Int(3), ArgValue::Int(0x10)],
                ),
                call("json_parse", vec![ArgValue::Buffer(b"[]".to_vec())]),
            ],
        };
        let outcome = ex.run_one(&noisy);
        let crash = outcome.crash.expect("noisy prog crashes");
        let min = minimize(&mut ex, &noisy, &crash, 64);
        assert_eq!(min.prog.calls.len(), 1, "{}", min.prog);
        assert_eq!(min.prog.calls[0].api, "load_partitions");
        assert_eq!(min.crash.bug.map(|b| b.number()), Some(13));
        assert_eq!(min.removed, 3);
        assert!(min.trials > 0);
    }

    #[test]
    fn keeps_required_resource_chains() {
        let mut ex = executor(OsKind::RtThread);
        // Bug #10's chain (create → delete → send) plus two noise calls.
        let noisy = Prog {
            mmio: vec![],
            calls: vec![
                call("rt_tick_increase", vec![ArgValue::Int(1)]),
                call("rt_event_create", vec![ArgValue::CString("evt".into())]),
                call("rt_malloc", vec![ArgValue::Int(32)]),
                call("rt_event_delete", vec![ArgValue::ResourceRef(1)]),
                call(
                    "rt_event_send",
                    vec![
                        ArgValue::ResourceRef(1),
                        ArgValue::Int((u32::MAX >> 6) as u64),
                    ],
                ),
            ],
        };
        let outcome = ex.run_one(&noisy);
        let crash = outcome.crash.expect("chain crashes");
        assert_eq!(crash.bug.map(|b| b.number()), Some(10));
        let min = minimize(&mut ex, &noisy, &crash, 64);
        // The three-call dependency chain must survive.
        assert_eq!(min.prog.calls.len(), 3, "{}", min.prog);
        let apis: Vec<&str> = min.prog.calls.iter().map(|c| c.api.as_str()).collect();
        assert_eq!(
            apis,
            ["rt_event_create", "rt_event_delete", "rt_event_send"]
        );
        assert_eq!(min.crash.bug.map(|b| b.number()), Some(10));
    }

    #[test]
    fn trial_budget_is_respected() {
        let mut ex = executor(OsKind::FreeRtos);
        let noisy = Prog {
            mmio: vec![],
            calls: (0..6)
                .map(|_| call("pvPortMalloc", vec![ArgValue::Int(64)]))
                .chain(std::iter::once(call(
                    "load_partitions",
                    vec![ArgValue::Int(3), ArgValue::Int(0x10)],
                )))
                .collect(),
        };
        let outcome = ex.run_one(&noisy);
        let crash = outcome.crash.expect("crashes");
        let min = minimize(&mut ex, &noisy, &crash, 3);
        assert!(min.trials <= 3);
    }

    #[test]
    fn budget_exhaustion_still_returns_confirmed_reproducer() {
        // When the trial budget runs out mid-search, the returned prog
        // must be one that actually re-executed and crashed with the
        // original class — never an unverified speculative removal. The
        // chain prog is the adversarial case: most single-call removals
        // break the crash, so a tiny budget strands the search early.
        let mut ex = executor(OsKind::RtThread);
        let noisy = Prog {
            mmio: vec![],
            calls: vec![
                call("rt_tick_increase", vec![ArgValue::Int(1)]),
                call("rt_event_create", vec![ArgValue::CString("evt".into())]),
                call("rt_malloc", vec![ArgValue::Int(32)]),
                call("rt_event_delete", vec![ArgValue::ResourceRef(1)]),
                call(
                    "rt_event_send",
                    vec![
                        ArgValue::ResourceRef(1),
                        ArgValue::Int((u32::MAX >> 6) as u64),
                    ],
                ),
            ],
        };
        let outcome = ex.run_one(&noisy);
        let crash = outcome.crash.expect("chain crashes");
        let bug = crash.bug;
        assert!(bug.is_some());
        for budget in [1u32, 2, 3] {
            let min = minimize(&mut ex, &noisy, &crash, budget);
            assert!(min.trials <= budget);
            // The returned crash report came from a confirming run.
            assert_eq!(min.crash.bug, bug, "budget {budget}");
            // And the reproducer itself still fires when re-executed.
            let confirm = ex.run_one(&min.prog);
            let confirmed = confirm.crash.expect("returned reproducer must still crash");
            assert_eq!(confirmed.bug, bug, "budget {budget}: {}", min.prog);
        }
    }
}
