//! `eof-agent` — the cross-platform execution agent EOF deploys on the
//! target (paper §4.3.2).
//!
//! The agent is the small piece of code embedded in the flashed image
//! that deserialises test cases and executes them against the OS,
//! synchronising with the host fuzzer through hardware breakpoints at
//! its well-known sync points:
//!
//! ```text
//! executor_main ──▶ read_prog ──▶ execute_one ──▶ (loop)
//!                                   │
//!                  handle_exception ◀ fault        _kcmp_buf_full ◀ cov full
//! ```
//!
//! The host writes a prog (length-prefixed wire bytes) into the agent's
//! RAM buffer over the debug port, resumes the target, and the agent
//! decodes it "using only primitive operations" — the decode here is
//! byte slicing and integer assembly straight out of target RAM, into
//! the API ids the kernel dispatches on. Faults raised by the kernel
//! route execution to the OS's exception (or assertion) symbol, where
//! the exception monitor's breakpoint catches them; hanging faults stall
//! the PC, feeding the stall watchdog.

pub mod firmware;
pub mod layout;
pub mod loader;

pub use firmware::{AgentFirmware, AgentStats, Phase};
pub use layout::AgentLayout;
pub use loader::{agent_loader, api_table_of, boot_machine, wire_order_of};
