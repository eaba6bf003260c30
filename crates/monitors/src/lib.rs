//! `eof-monitors` — feedback monitors and liveness maintenance.
//!
//! The host side of EOF's observation machinery (paper §4.4 and §4.5.2):
//!
//! * [`patterns`] / [`log_monitor`] — the **log monitor**: scans the
//!   UART stream redirected over the debug port for crash signatures,
//!   using a small in-repo wildcard matcher (no regex dependency — the
//!   pattern language the paper needs is tiny);
//! * [`exception_monitor`] — the **exception monitor**'s host half:
//!   Figure-6-style backtrace recovery from the crash banner (the
//!   executor arms the handler breakpoint itself);
//! * [`watchdog`] — the two **liveness watchdogs** of Algorithm 1:
//!   debug-connection timeout and PC-stall detection;
//! * [`power`] — the paper's §6 extension: power-rail plateau/dead
//!   detection as a liveness channel independent of the debug link;
//! * [`kconfig`] / [`restore`] — **state restoration**: partition-table
//!   extraction from the build configuration, checksum-verified reflash
//!   + reboot, and dirty-page snapshot restore through the debug port.
//!
//! The monitors only observe and act; they decide nothing. Which
//! liveness channel a campaign watches, and what a verdict triggers,
//! belong to `eof-core`'s executor and recovery supervisor.

pub mod exception_monitor;
pub mod kconfig;
pub mod log_monitor;
pub mod patterns;
pub mod power;
pub mod restore;
pub mod watchdog;

pub use exception_monitor::parse_backtrace;
pub use kconfig::{parse_kconfig, render_kconfig, KConfig};
pub use log_monitor::{LogHit, LogMonitor};
pub use patterns::{Pattern, PatternSet};
pub use power::{PowerVerdict, PowerWatchdog};
pub use restore::{StateRestoration, REBOOT_SETTLE_SECS, SETTLE_SECS};
pub use watchdog::{Liveness, LivenessWatchdog};
