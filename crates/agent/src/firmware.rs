//! The agent's execution phase machine, implementing [`Firmware`].
//!
//! Each [`Firmware::step`] performs one bounded unit of agent work and
//! reports the resulting PC, so hardware breakpoints at the sync points
//! observe exactly the workflow of the paper's Figure 4: boot pauses at
//! `executor_main()`, the host writes a test case, `read_prog()`
//! deserialises it from RAM, `execute_one()` runs call after call, and
//! crashes surface at `handle_exception()` while a full coverage buffer
//! traps at `_kcmp_buf_full()` until the host drains it.

use crate::layout::AgentLayout;
use eof_hal::{Bus, FaultKind, Firmware, StepResult, SymbolTable};
use eof_rtos::api::{InvokeResult, KArg, KernelFault};
use eof_rtos::ctx::{CovState, ExecCtx};
use eof_rtos::kernel::Kernel;
use eof_speclang::prog::ArgValue;
use eof_speclang::wire::{decode_prog, WireOrder, WireProg};

/// Where the agent currently is in its loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Printing the boot banner (one line per step).
    Boot {
        /// Next banner line index.
        line: usize,
    },
    /// At the top of the fuzzing loop, waiting for a test case.
    ExecutorMain,
    /// Deserialising the prog from RAM.
    ReadProg,
    /// Executing call `call_idx` of the current prog.
    ExecuteOne {
        /// Index of the next call to run.
        call_idx: usize,
    },
    /// Trapped: coverage buffer full, waiting for the host to drain.
    CovBufFull {
        /// Call index to resume at.
        resume_at: usize,
    },
    /// In the exception/assert handler, emitting the crash report.
    HandleException {
        /// Banner lines still to print before parking.
        lines_left: usize,
    },
    /// Parked after a recoverable fault; counts down to recovery.
    FaultPark {
        /// Steps remaining before returning to the executor loop.
        steps: u32,
    },
    /// Stalled forever (hanging fault, blocked call, or frozen core).
    Hung,
}

/// Counters the agent keeps (host reads them for reports).
#[derive(Debug, Clone, Copy, Default)]
pub struct AgentStats {
    /// Progs fully executed.
    pub execs: u64,
    /// Individual calls executed.
    pub calls: u64,
    /// Faults raised.
    pub faults: u64,
    /// Progs that failed to decode.
    pub decode_failures: u64,
}

/// The agent firmware: kernel model + phase machine.
pub struct AgentFirmware {
    kernel: Box<dyn Kernel>,
    cov: CovState,
    layout: AgentLayout,
    symbols: SymbolTable,
    /// Length of the kernel's API table. Ids are dense from 0, so this
    /// is all the decoder needs to tell a bound id from an unbound one.
    api_count: usize,
    order: WireOrder,
    phase: Phase,
    prog: Option<WireProg>,
    results: Vec<u64>,
    fault: Option<KernelFault>,
    stats: AgentStats,
    name: String,
    frozen: bool,
    /// Crash-banner lines queued for the exception handler to print.
    pending_banner: Vec<String>,
    /// PC the core is stuck at while [`Phase::Hung`].
    hung_pc: u32,
    /// Cycle of the last ambient peripheral interrupt.
    last_ambient: u64,
    /// Ambient timer firings since boot. Drives the GPIO glitch cadence
    /// (every third tick) — a count, not an absolute-time rule, so the
    /// ambient schedule depends only on elapsed time since boot and is
    /// unchanged by how the host restored the board into that boot.
    ambient_ticks: u64,
}

impl AgentFirmware {
    /// Assemble the agent around a kernel model.
    pub fn new(
        kernel: Box<dyn Kernel>,
        cov: CovState,
        layout: AgentLayout,
        order: WireOrder,
    ) -> Self {
        let symbols = layout.symbols(kernel.exception_symbol(), kernel.assert_symbol());
        let api_count = kernel.api_table().len();
        let name = format!("{}-{}+agent", kernel.os().short(), kernel.os().version());
        AgentFirmware {
            kernel,
            cov,
            layout,
            symbols,
            api_count,
            order,
            phase: Phase::Boot { line: 0 },
            prog: None,
            results: Vec::new(),
            fault: None,
            stats: AgentStats::default(),
            name,
            frozen: false,
            pending_banner: Vec::new(),
            hung_pc: 0,
            last_ambient: 0,
            ambient_ticks: 0,
        }
    }

    /// Current phase (tests & diagnostics).
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Execution statistics.
    pub fn stats(&self) -> &AgentStats {
        &self.stats
    }

    /// The most recent kernel fault.
    pub fn last_fault(&self) -> Option<&KernelFault> {
        self.fault.as_ref()
    }

    /// Coverage state (host-side tests).
    pub fn cov(&self) -> &CovState {
        &self.cov
    }

    /// The agent's layout.
    pub fn layout(&self) -> &AgentLayout {
        &self.layout
    }

    /// Read the prog buffer from target RAM and decode it, in place.
    fn read_prog_from_ram(&self, bus: &Bus) -> Option<WireProg> {
        let len = bus
            .ram
            .read_u32(self.layout.prog_addr, bus.endianness)
            .ok()?;
        if len == 0 || len > self.layout.prog_max {
            return None;
        }
        let bytes = bus
            .ram
            .slice(self.layout.prog_addr + 4, len as usize)
            .ok()?;
        decode_prog(bytes, self.api_count, self.order).ok()
    }

    /// Resolve a call's decoded arguments into kernel arguments. Each
    /// call runs once, so its payloads move rather than copy.
    fn resolve_args(results: &[u64], args: Vec<ArgValue>) -> Vec<KArg> {
        args.into_iter()
            .map(|a| match a {
                ArgValue::Int(v) => KArg::Int(v),
                ArgValue::ResourceRef(r) => {
                    KArg::Int(results.get(r as usize).copied().unwrap_or(u64::MAX))
                }
                ArgValue::Buffer(b) => KArg::Bytes(b),
                ArgValue::CString(s) => KArg::Str(s),
            })
            .collect()
    }

    /// Emit the crash banner for a fault, Figure-6 style.
    fn crash_banner(fault: &KernelFault) -> Vec<String> {
        let mut lines = Vec::with_capacity(fault.frames.len() + 2);
        lines.push(fault.message.clone());
        lines.push("Stack frames at BUG: unexpected stop:".to_string());
        for (i, frame) in fault.frames.iter().enumerate() {
            lines.push(format!("Level: {}: {}", i + 1, frame));
        }
        lines
    }
}

impl Firmware for AgentFirmware {
    fn name(&self) -> &str {
        &self.name
    }

    fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    fn on_reset(&mut self, bus: &mut Bus) {
        let mut ctx = ExecCtx::new(bus, &mut self.cov);
        self.kernel.reset(&mut ctx);
        if let Some(region) = self.cov.region {
            let _ = region.init(&mut bus.ram, bus.endianness);
        }
        // The cmp ring re-initialises DISARMED on every reset: the image
        // never arms itself, only a cmplog host does (per exec).
        if let Some(region) = self.cov.cmp_region {
            let _ = region.init(&mut bus.ram, bus.endianness);
        }
        self.cov.buffer_full = false;
        self.phase = Phase::Boot { line: 0 };
        self.prog = None;
        self.results.clear();
        self.fault = None;
        self.frozen = false;
        self.last_ambient = 0;
        self.ambient_ticks = 0;
    }

    fn freeze(&mut self) {
        self.frozen = true;
    }

    fn step(&mut self, bus: &mut Bus) -> StepResult {
        if self.frozen {
            return StepResult::Stalled {
                pc: self.layout.pc_idle(),
                cycles: 1,
            };
        }
        match self.phase {
            Phase::Boot { line } => {
                let banner = self.kernel.boot_banner();
                if let Some(text) = banner.get(line) {
                    bus.uart.tx_line(text);
                    self.phase = Phase::Boot { line: line + 1 };
                    StepResult::Running {
                        pc: self.layout.code_base + 0x10 + line as u32 * 4,
                        cycles: 20,
                    }
                } else {
                    self.phase = Phase::ExecutorMain;
                    StepResult::Running {
                        pc: self.layout.pc_executor_main(),
                        cycles: 5,
                    }
                }
            }
            Phase::ExecutorMain => {
                // On silicon, peripherals are alive: the board's timer
                // ticks and pins glitch whether or not a test case is
                // running. An emulator without peripheral models raises
                // nothing — the gap the paper's motivation is built on.
                if bus.silicon {
                    let now = bus.core_now();
                    if now.saturating_sub(self.last_ambient) > 2_000 {
                        self.last_ambient = now;
                        self.ambient_ticks += 1;
                        bus.pending_irqs.push_back(eof_hal::IrqRequest {
                            line: eof_hal::irq::TIMER,
                            payload: Vec::new(),
                        });
                        if self.ambient_ticks.is_multiple_of(3) {
                            bus.pending_irqs.push_back(eof_hal::IrqRequest {
                                line: eof_hal::irq::GPIO,
                                payload: Vec::new(),
                            });
                        }
                    }
                }
                // Service pending interrupts first — ISRs preempt the
                // executor loop exactly as they preempt application code.
                if let Some(req) = bus.pending_irqs.pop_front() {
                    let result = {
                        let mut ctx = ExecCtx::new(bus, &mut self.cov);
                        self.kernel.on_interrupt(&mut ctx, req.line, &req.payload)
                    };
                    if let InvokeResult::Fault(fault) = result {
                        self.stats.faults += 1;
                        let banner = Self::crash_banner(&fault);
                        let is_assert = fault.kind == FaultKind::Assertion;
                        self.fault = Some(fault);
                        self.phase = Phase::HandleException {
                            lines_left: banner.len(),
                        };
                        self.pending_banner = banner;
                        let pc = if is_assert {
                            self.layout.pc_assert()
                        } else {
                            self.layout.pc_exception()
                        };
                        return StepResult::Running { pc, cycles: 12 };
                    }
                    return StepResult::Running {
                        pc: self.layout.code_base + 0x600,
                        cycles: 6,
                    };
                }
                // Move on to read the next prog; if none is present,
                // read_prog will bounce back here (a busy poll).
                self.phase = Phase::ReadProg;
                StepResult::Running {
                    pc: self.layout.pc_read_prog(),
                    cycles: 3,
                }
            }
            Phase::ReadProg => {
                match self.read_prog_from_ram(bus) {
                    Some(prog) if !prog.calls.is_empty() => {
                        // Consume the buffer: zero the length word so the
                        // same prog is not re-executed.
                        let _ = bus.ram.write_u32(self.layout.prog_addr, 0, bus.endianness);
                        // Reinitialise OS services so test cases run
                        // against fresh kernel state — the embedded
                        // analogue of syzkaller's per-program executor
                        // processes. Without this, resource tables
                        // saturate after a few hundred cases and the rest
                        // of the campaign exercises nothing but -ENOMEM
                        // paths.
                        {
                            let mut ctx = ExecCtx::new(bus, &mut self.cov);
                            ctx.charge(25);
                            self.kernel.reset(&mut ctx);
                        }
                        // Arm the model-free peripheral region with the
                        // prog's MMIO response stream (second input
                        // plane); empty for pure-API progs, which leaves
                        // the region in its reset state.
                        bus.mmio.load_stream(&prog.mmio);
                        self.results.clear();
                        self.prog = Some(prog);
                        self.phase = Phase::ExecuteOne { call_idx: 0 };
                        StepResult::Running {
                            pc: self.layout.pc_execute_one(),
                            cycles: 10,
                        }
                    }
                    Some(_) | None => {
                        // Nothing valid waiting: poll again from the top.
                        let had_bytes = bus
                            .ram
                            .read_u32(self.layout.prog_addr, bus.endianness)
                            .map(|l| l != 0)
                            .unwrap_or(false);
                        if had_bytes {
                            self.stats.decode_failures += 1;
                            let _ = bus.ram.write_u32(self.layout.prog_addr, 0, bus.endianness);
                        }
                        self.phase = Phase::ExecutorMain;
                        StepResult::Running {
                            pc: self.layout.pc_executor_main(),
                            cycles: 4,
                        }
                    }
                }
            }
            Phase::ExecuteOne { call_idx } => {
                let Some(prog) = self.prog.as_mut() else {
                    self.phase = Phase::ExecutorMain;
                    return StepResult::Running {
                        pc: self.layout.pc_executor_main(),
                        cycles: 2,
                    };
                };
                if call_idx >= prog.calls.len() {
                    // Prog complete.
                    self.stats.execs += 1;
                    self.prog = None;
                    self.phase = Phase::ExecutorMain;
                    return StepResult::Running {
                        pc: self.layout.pc_executor_main(),
                        cycles: 3,
                    };
                }
                let call = &mut prog.calls[call_idx];
                let args = Self::resolve_args(&self.results, std::mem::take(&mut call.args));
                let api_id = call.api;
                let result = {
                    let mut ctx = ExecCtx::new(bus, &mut self.cov);
                    self.kernel.invoke(&mut ctx, api_id, &args)
                };
                self.stats.calls += 1;
                match result {
                    InvokeResult::Ok(v) => {
                        self.results.push(v);
                    }
                    InvokeResult::Err(_) => {
                        self.results.push(u64::MAX);
                    }
                    InvokeResult::Hang => {
                        self.phase = Phase::Hung;
                        self.hung_pc = self.layout.pc_execute_one() + 0x10;
                        return StepResult::Stalled {
                            pc: self.hung_pc,
                            cycles: 4,
                        };
                    }
                    InvokeResult::Fault(fault) => {
                        self.stats.faults += 1;
                        let banner = Self::crash_banner(&fault);
                        let is_assert = fault.kind == FaultKind::Assertion;
                        self.fault = Some(fault);
                        self.phase = Phase::HandleException {
                            lines_left: banner.len(),
                        };
                        // The banner is buffered; HandleException steps
                        // print it line by line.
                        self.pending_banner = banner;
                        let pc = if is_assert {
                            self.layout.pc_assert()
                        } else {
                            self.layout.pc_exception()
                        };
                        return StepResult::Running { pc, cycles: 12 };
                    }
                }
                // Coverage buffer full? Trap for the host. The trap only
                // exists because instrumentation does, so its cost goes on
                // the instrumentation clock: the core-cycle history stays
                // identical to the uninstrumented build's.
                if self.cov.buffer_full {
                    self.phase = Phase::CovBufFull {
                        resume_at: call_idx + 1,
                    };
                    bus.charge_instr(4);
                    return StepResult::Running {
                        pc: self.layout.pc_buf_full(),
                        cycles: 0,
                    };
                }
                self.phase = Phase::ExecuteOne {
                    call_idx: call_idx + 1,
                };
                StepResult::Running {
                    pc: self.layout.pc_execute_one(),
                    cycles: 6,
                }
            }
            Phase::CovBufFull { resume_at } => {
                // Wait until the host has drained and reset the buffer.
                let drained = self
                    .cov
                    .region
                    .map(|r| {
                        r.count(&bus.ram, bus.endianness)
                            .map(|c| c < r.capacity)
                            .unwrap_or(true)
                    })
                    .unwrap_or(true);
                if drained {
                    self.cov.buffer_full = false;
                    self.phase = Phase::ExecuteOne {
                        call_idx: resume_at,
                    };
                    bus.charge_instr(4);
                    StepResult::Running {
                        pc: self.layout.pc_execute_one(),
                        cycles: 0,
                    }
                } else {
                    bus.charge_instr(2);
                    StepResult::Stalled {
                        pc: self.layout.pc_buf_full(),
                        cycles: 0,
                    }
                }
            }
            Phase::HandleException { lines_left } => {
                let total = self.pending_banner.len();
                if lines_left > 0 {
                    let line = &self.pending_banner[total - lines_left];
                    bus.uart.tx_line(line);
                    self.phase = Phase::HandleException {
                        lines_left: lines_left - 1,
                    };
                    let fault = self.fault.as_ref().expect("fault set with banner");
                    let pc = if fault.kind == FaultKind::Assertion {
                        self.layout.pc_assert()
                    } else {
                        self.layout.pc_exception()
                    };
                    // Report the machine-level fault record exactly once,
                    // on the first handler step.
                    if lines_left == total {
                        return StepResult::fault(
                            fault.kind,
                            pc,
                            bus.core_now(),
                            fault.message.clone(),
                            fault.frames.iter().map(|f| f.to_string()).collect(),
                        );
                    }
                    return StepResult::Running { pc, cycles: 8 };
                }
                let hangs = self.fault.as_ref().map(|f| f.hangs_after).unwrap_or(false);
                if hangs {
                    self.phase = Phase::Hung;
                    // A hanging fault wedges the core inside the handler
                    // it crashed into (exception or assertion).
                    self.hung_pc = match self.fault.as_ref().map(|f| f.kind) {
                        Some(FaultKind::Assertion) => self.layout.pc_assert(),
                        _ => self.layout.pc_exception(),
                    };
                    StepResult::Stalled {
                        pc: self.hung_pc,
                        cycles: 2,
                    }
                } else {
                    self.phase = Phase::FaultPark { steps: 3 };
                    StepResult::Running {
                        pc: self.layout.pc_exception() + 0x20,
                        cycles: 4,
                    }
                }
            }
            Phase::FaultPark { steps } => {
                if steps > 0 {
                    self.phase = Phase::FaultPark { steps: steps - 1 };
                    StepResult::Running {
                        pc: self.layout.pc_exception() + 0x20 + steps,
                        cycles: 4,
                    }
                } else {
                    // Recovered: drop the rest of the prog, back to top.
                    self.prog = None;
                    self.phase = Phase::ExecutorMain;
                    StepResult::Running {
                        pc: self.layout.pc_executor_main(),
                        cycles: 4,
                    }
                }
            }
            Phase::Hung => StepResult::Stalled {
                pc: self.hung_pc,
                cycles: 1,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eof_coverage::InstrumentMode;
    use eof_hal::Endianness;
    use eof_rtos::registry::make_kernel;
    use eof_rtos::OsKind;
    use eof_speclang::prog::{Call, Prog};
    use eof_speclang::wire::encode_prog;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn setup(os: OsKind) -> (AgentFirmware, Bus) {
        setup_kernel(make_kernel(os))
    }

    fn setup_kernel(kernel: Box<dyn Kernel>) -> (AgentFirmware, Bus) {
        let board = eof_hal::BoardCatalog::qemu_virt_arm();
        let layout = AgentLayout::for_board(&board);
        let cov = CovState::instrumented(InstrumentMode::Full, layout.cov);
        let mut bus = Bus::new(board.ram_base, board.ram_size, Endianness::Little);
        let mut fw = AgentFirmware::new(kernel, cov, layout, WireOrder::Little);
        fw.on_reset(&mut bus);
        (fw, bus)
    }

    fn write_prog(fw: &AgentFirmware, bus: &mut Bus, prog: &Prog) {
        let table = crate::loader::api_table_of(fw.kernel.os());
        let bytes = encode_prog(prog, &table, WireOrder::Little).unwrap();
        write_bytes(fw, bus, &bytes);
    }

    fn write_bytes(fw: &AgentFirmware, bus: &mut Bus, bytes: &[u8]) {
        bus.ram
            .write_u32(fw.layout.prog_addr, bytes.len() as u32, bus.endianness)
            .unwrap();
        bus.ram.write(fw.layout.prog_addr + 4, bytes).unwrap();
    }

    /// A kernel that counts its resets, delegating everything else.
    struct CountingKernel {
        inner: Box<dyn Kernel>,
        resets: Arc<AtomicUsize>,
    }

    impl Kernel for CountingKernel {
        fn os(&self) -> OsKind {
            self.inner.os()
        }
        fn api_table(&self) -> &[eof_rtos::ApiDescriptor] {
            self.inner.api_table()
        }
        fn invoke(&mut self, ctx: &mut ExecCtx<'_>, api_id: u16, args: &[KArg]) -> InvokeResult {
            self.inner.invoke(ctx, api_id, args)
        }
        fn reset(&mut self, ctx: &mut ExecCtx<'_>) {
            self.resets.fetch_add(1, Ordering::Relaxed);
            self.inner.reset(ctx)
        }
        fn exception_symbol(&self) -> &'static str {
            self.inner.exception_symbol()
        }
        fn assert_symbol(&self) -> &'static str {
            self.inner.assert_symbol()
        }
        fn total_branch_sites(&self) -> usize {
            self.inner.total_branch_sites()
        }
        fn boot_banner(&self) -> Vec<String> {
            self.inner.boot_banner()
        }
    }

    fn run_steps(fw: &mut AgentFirmware, bus: &mut Bus, n: usize) -> Vec<StepResult> {
        (0..n).map(|_| fw.step(bus)).collect()
    }

    #[test]
    fn boot_prints_banner_then_waits() {
        let (mut fw, mut bus) = setup(OsKind::FreeRtos);
        run_steps(&mut fw, &mut bus, 10);
        let log = String::from_utf8(bus.uart.drain()).unwrap();
        assert!(log.contains("FreeRTOS v5.4 booting"), "{log}");
        // With no prog, the agent busy-polls between main and read_prog.
        assert!(matches!(fw.phase(), Phase::ExecutorMain | Phase::ReadProg));
    }

    #[test]
    fn executes_a_prog_end_to_end() {
        let (mut fw, mut bus) = setup(OsKind::FreeRtos);
        run_steps(&mut fw, &mut bus, 6);
        let prog = Prog {
            mmio: vec![],
            calls: vec![
                Call {
                    api: "xQueueCreate".into(),
                    args: vec![ArgValue::Int(4), ArgValue::Int(16)],
                },
                Call {
                    api: "xQueueSend".into(),
                    args: vec![ArgValue::ResourceRef(0), ArgValue::Buffer(vec![1, 2])],
                },
                Call {
                    api: "xQueueReceive".into(),
                    args: vec![ArgValue::ResourceRef(0)],
                },
            ],
        };
        write_prog(&fw, &mut bus, &prog);
        run_steps(&mut fw, &mut bus, 20);
        assert_eq!(fw.stats().execs, 1);
        assert_eq!(fw.stats().calls, 3);
        assert_eq!(fw.stats().faults, 0);
        // Coverage was recorded on the device.
        assert!(fw.cov().hits > 0);
    }

    #[test]
    fn fault_routes_to_exception_symbol_and_prints_backtrace() {
        let (mut fw, mut bus) = setup(OsKind::FreeRtos);
        run_steps(&mut fw, &mut bus, 6);
        let prog = Prog {
            mmio: vec![],
            calls: vec![Call {
                api: "load_partitions".into(),
                args: vec![ArgValue::Int(3), ArgValue::Int(0x10)],
            }],
        };
        write_prog(&fw, &mut bus, &prog);
        let steps = run_steps(&mut fw, &mut bus, 20);
        let fault_step = steps.iter().find(|s| matches!(s, StepResult::Fault(_)));
        assert!(fault_step.is_some(), "no fault step observed");
        if let Some(StepResult::Fault(rec)) = fault_step {
            assert_eq!(rec.pc, fw.layout().pc_exception());
        }
        let log = String::from_utf8(bus.uart.drain()).unwrap();
        assert!(log.contains("Level: 1: load_partitions"), "{log}");
        // The fault is recoverable: agent returns to the executor loop.
        run_steps(&mut fw, &mut bus, 10);
        assert!(matches!(fw.phase(), Phase::ExecutorMain | Phase::ReadProg));
    }

    #[test]
    fn hanging_fault_stalls_pc() {
        let (mut fw, mut bus) = setup(OsKind::Zephyr);
        run_steps(&mut fw, &mut bus, 6);
        let prog = Prog {
            mmio: vec![],
            calls: vec![Call {
                api: "json_obj_encode".into(),
                args: vec![ArgValue::Int(13), ArgValue::Int(3)],
            }],
        };
        write_prog(&fw, &mut bus, &prog);
        run_steps(&mut fw, &mut bus, 30);
        assert_eq!(fw.phase(), Phase::Hung);
        let s1 = fw.step(&mut bus);
        let s2 = fw.step(&mut bus);
        assert_eq!(s1.pc(), s2.pc());
        assert!(matches!(s1, StepResult::Stalled { .. }));
    }

    #[test]
    fn assertion_fault_routes_to_assert_symbol() {
        let (mut fw, mut bus) = setup(OsKind::RtThread);
        run_steps(&mut fw, &mut bus, 8);
        let prog = Prog {
            mmio: vec![],
            calls: vec![Call {
                api: "rt_object_init".into(),
                args: vec![ArgValue::Int(6), ArgValue::CString(String::new())],
            }],
        };
        write_prog(&fw, &mut bus, &prog);
        let steps = run_steps(&mut fw, &mut bus, 20);
        let fault = steps.iter().find_map(|s| match s {
            StepResult::Fault(rec) => Some(rec.clone()),
            _ => None,
        });
        let rec = fault.expect("assert fault observed");
        assert_eq!(rec.pc, fw.layout().pc_assert());
        assert_eq!(rec.kind, FaultKind::Assertion);
    }

    #[test]
    fn resource_refs_flow_between_calls() {
        let (mut fw, mut bus) = setup(OsKind::NuttX);
        run_steps(&mut fw, &mut bus, 6);
        let prog = Prog {
            mmio: vec![],
            calls: vec![
                Call {
                    api: "nxsem_init".into(),
                    args: vec![ArgValue::Int(1)],
                },
                Call {
                    api: "nxsem_trywait".into(),
                    args: vec![ArgValue::ResourceRef(0)],
                },
            ],
        };
        write_prog(&fw, &mut bus, &prog);
        run_steps(&mut fw, &mut bus, 15);
        assert_eq!(fw.stats().execs, 1);
        assert_eq!(fw.stats().faults, 0);
    }

    #[test]
    fn garbage_prog_counts_decode_failure() {
        // A bad magic, and a well-formed prog naming the first id past
        // the API table: each is one decode failure that executes
        // nothing and never reinitialises the kernel.
        let api_count = make_kernel(OsKind::Zephyr).api_table().len() as u16;
        let mut unbound = b"EOFP\x01\x01".to_vec();
        unbound.extend_from_slice(&api_count.to_le_bytes());
        unbound.push(0);
        let inputs: [&[u8]; 2] = [b"NOT A VALID PROG", &unbound];
        for (i, input) in inputs.into_iter().enumerate() {
            let resets = Arc::new(AtomicUsize::new(0));
            let (mut fw, mut bus) = setup_kernel(Box::new(CountingKernel {
                inner: make_kernel(OsKind::Zephyr),
                resets: Arc::clone(&resets),
            }));
            run_steps(&mut fw, &mut bus, 6);
            let booted = resets.load(Ordering::Relaxed);
            write_bytes(&fw, &mut bus, input);
            run_steps(&mut fw, &mut bus, 6);
            assert_eq!(fw.stats().decode_failures, 1, "input {i}");
            assert_eq!(fw.stats().execs, 0, "input {i}");
            assert_eq!(fw.stats().calls, 0, "input {i}");
            assert_eq!(resets.load(Ordering::Relaxed), booted, "input {i}");
        }
    }

    #[test]
    fn cov_buffer_full_traps_until_host_drains() {
        let board = eof_hal::BoardCatalog::qemu_virt_arm();
        let mut layout = AgentLayout::for_board(&board);
        // Tiny buffer so one call overflows it.
        layout.cov = eof_coverage::CovRegion::new(board.ram_base + 0x3000, 4);
        let kernel = make_kernel(OsKind::FreeRtos);
        let cov = CovState::instrumented(InstrumentMode::Full, layout.cov);
        let mut bus = Bus::new(board.ram_base, board.ram_size, Endianness::Little);
        let mut fw = AgentFirmware::new(kernel, cov, layout, WireOrder::Little);
        fw.on_reset(&mut bus);
        run_steps(&mut fw, &mut bus, 6);
        let prog = Prog {
            mmio: vec![],
            calls: vec![
                Call {
                    api: "json_parse".into(),
                    args: vec![ArgValue::Buffer(br#"{"a":[1,2,3]}"#.to_vec())],
                },
                Call {
                    api: "json_parse".into(),
                    args: vec![ArgValue::Buffer(b"[]".to_vec())],
                },
            ],
        };
        write_prog(&fw, &mut bus, &prog);
        // Run until the trap.
        let mut trapped = false;
        for _ in 0..30 {
            let s = fw.step(&mut bus);
            if s.pc() == fw.layout().pc_buf_full() {
                trapped = true;
                break;
            }
        }
        assert!(trapped, "agent never trapped at _kcmp_buf_full");
        // Stalls while the buffer stays full.
        let s = fw.step(&mut bus);
        assert!(matches!(s, StepResult::Stalled { .. }));
        // Host drains: reset the region whenever the agent traps again,
        // until the prog completes.
        let region = fw.layout().cov;
        for _ in 0..50 {
            if fw.stats().execs == 1 {
                break;
            }
            let s = fw.step(&mut bus);
            if s.pc() == fw.layout().pc_buf_full() {
                region.reset(&mut bus.ram, bus.endianness).unwrap();
            }
        }
        assert_eq!(fw.stats().execs, 1);
    }
}
