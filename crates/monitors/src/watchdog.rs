//! The liveness watchdogs of Algorithm 1.
//!
//! Two host-side checks over the debug link, requiring no target
//! instrumentation:
//!
//! 1. **connection timeout** — any debug operation timing out means the
//!    target failed to boot or is entirely unresponsive (lines 4–5);
//! 2. **PC stall** — if resuming execution does not change the program
//!    counter, the core cannot make progress (lines 6–10).
//!
//! `check()` returns [`Liveness`]; the caller decides what anything but
//! [`Liveness::Alive`] triggers (in EOF, a recovery-supervisor episode
//! that climbs the [`crate::restore::StateRestoration`] ladder).

use eof_dap::DebugTransport;

/// Result of one liveness check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// Target is responsive and making progress.
    Alive,
    /// The debug connection timed out (boot failure / dead core).
    ConnectionTimeout,
    /// The PC did not move between checks (execution stall).
    Stalled {
        /// The stuck program counter.
        pc: u32,
    },
}

impl Liveness {
    /// `LivenessWatchDog()`'s boolean: is the system healthy?
    pub fn is_alive(self) -> bool {
        self == Liveness::Alive
    }
}

/// Algorithm 1's `LivenessWatchDog` state (`LastPC ← INT_MIN`).
#[derive(Debug, Clone, Default)]
pub struct LivenessWatchdog {
    last_pc: Option<u32>,
    checks: u64,
    timeouts: u64,
    stalls: u64,
}

impl LivenessWatchdog {
    /// Fresh watchdog with no PC history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run one check over the debug pipe. Mirrors Algorithm 1 lines
    /// 3–11, with one practical refinement: between observations the
    /// target is *resumed briefly*, so a healthy-but-halted target (for
    /// example one sitting at a sync breakpoint) is not misread as
    /// stalled.
    pub fn check(&mut self, pipe: &mut DebugTransport) -> Liveness {
        self.checks += 1;
        // ConnectionTimeout(DebugPipe)?
        let pc = match pipe.read_pc() {
            Ok(pc) => pc,
            Err(e) if e.is_connection_loss() => {
                self.timeouts += 1;
                self.last_pc = None;
                return Liveness::ConnectionTimeout;
            }
            Err(_) => {
                // A non-connection error still means no PC observation;
                // treat as unresponsive.
                self.timeouts += 1;
                self.last_pc = None;
                return Liveness::ConnectionTimeout;
            }
        };
        match self.last_pc {
            None => {
                // LastPC = INT_MIN: first observation only records.
                self.last_pc = Some(pc);
                Liveness::Alive
            }
            Some(last) if last == pc => {
                // -exec-continue failed to change the PC?  Give the core
                // a short run first; only a PC frozen across a genuine
                // resume is a stall. A breakpoint re-hit counts as
                // progress — the core executed its loop and came back.
                use eof_dap::LinkEvent;
                match pipe.continue_until_halt(64) {
                    Ok(LinkEvent::BreakpointHit { pc: hit }) => {
                        self.last_pc = Some(hit);
                        Liveness::Alive
                    }
                    Ok(LinkEvent::WatchdogReset) => {
                        self.last_pc = None;
                        Liveness::Alive
                    }
                    Ok(LinkEvent::TargetDead) | Err(_) => {
                        self.timeouts += 1;
                        self.last_pc = None;
                        Liveness::ConnectionTimeout
                    }
                    Ok(LinkEvent::StillRunning) => match pipe.read_pc() {
                        Ok(pc2) if pc2 == pc => {
                            self.stalls += 1;
                            self.last_pc = None;
                            Liveness::Stalled { pc }
                        }
                        Ok(pc2) => {
                            self.last_pc = Some(pc2);
                            Liveness::Alive
                        }
                        Err(_) => {
                            self.timeouts += 1;
                            self.last_pc = None;
                            Liveness::ConnectionTimeout
                        }
                    },
                }
            }
            Some(_) => {
                self.last_pc = Some(pc);
                Liveness::Alive
            }
        }
    }

    /// Reset PC history (after a restoration).
    pub fn reset(&mut self) {
        self.last_pc = None;
    }

    /// Total checks performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Connection timeouts observed.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Stalls observed.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eof_agent::boot_machine;
    use eof_coverage::InstrumentMode;
    use eof_dap::LinkConfig;
    use eof_hal::{BoardCatalog, FaultPlan, InjectedFault};
    use eof_rtos::image::ImageProfile;
    use eof_rtos::OsKind;

    fn transport() -> DebugTransport {
        let m = boot_machine(
            BoardCatalog::qemu_virt_arm(),
            OsKind::FreeRtos,
            ImageProfile::FullSystem,
            &InstrumentMode::None,
        );
        DebugTransport::attach(m, LinkConfig::default())
    }

    #[test]
    fn healthy_target_is_alive() {
        let mut t = transport();
        let mut w = LivenessWatchdog::new();
        for _ in 0..5 {
            let _ = t.continue_until_halt(500);
            assert_eq!(w.check(&mut t), Liveness::Alive);
        }
        assert_eq!(w.stalls(), 0);
        assert_eq!(w.timeouts(), 0);
    }

    #[test]
    fn dead_core_times_out() {
        let mut t = transport();
        t.machine_mut()
            .set_fault_plan(FaultPlan::none().at(0, InjectedFault::KillCore));
        let _ = t.continue_until_halt(100);
        let mut w = LivenessWatchdog::new();
        assert_eq!(w.check(&mut t), Liveness::ConnectionTimeout);
        assert_eq!(w.timeouts(), 1);
    }

    #[test]
    fn frozen_firmware_is_stalled() {
        let mut t = transport();
        t.machine_mut()
            .set_fault_plan(FaultPlan::none().at(10, InjectedFault::FreezeFirmware));
        let _ = t.continue_until_halt(500);
        let mut w = LivenessWatchdog::new();
        // First check records the PC; second detects the stall.
        assert_eq!(w.check(&mut t), Liveness::Alive);
        let verdict = w.check(&mut t);
        assert!(matches!(verdict, Liveness::Stalled { .. }), "{verdict:?}");
        assert_eq!(w.stalls(), 1);
    }

    #[test]
    fn halted_at_breakpoint_is_not_a_stall() {
        let mut t = transport();
        let main = t.symbol("executor_main").unwrap();
        t.set_breakpoint(main).unwrap();
        let _ = t.continue_until_halt(10_000);
        let mut w = LivenessWatchdog::new();
        assert_eq!(w.check(&mut t), Liveness::Alive);
        // The watchdog's verification resume moves the PC off the
        // breakpoint, so a healthy looping target stays Alive.
        assert_eq!(w.check(&mut t), Liveness::Alive);
        assert_eq!(w.stalls(), 0);
    }

    #[test]
    fn reset_clears_history() {
        let mut t = transport();
        let mut w = LivenessWatchdog::new();
        let _ = w.check(&mut t);
        w.reset();
        // After reset, the next check is a first observation again.
        assert_eq!(w.check(&mut t), Liveness::Alive);
    }
}
