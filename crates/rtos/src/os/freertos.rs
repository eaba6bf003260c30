//! FreeRTOS kernel model.
//!
//! Personality: `xTaskCreate`-style CamelCase APIs, tick-driven
//! round-robin scheduling, heap_4-style allocator, queues as the universal
//! IPC primitive. Hosts the JSON and HTTP modules used by the paper's
//! application-level comparison (Table 4) and bug #13
//! (`load_partitions()`).

use crate::api::{ApiDescriptor, InvokeResult, KArg, KernelFault};
use crate::bugs::BugId;
use crate::ctx::ExecCtx;
use crate::kernel::{Kernel, OsKind};
use crate::os::{a_bytes, a_enum, a_int, a_str, arg_bytes, arg_int, arg_str};
use crate::subsys::heap::{FreeListHeap, HeapError};
use crate::subsys::http::{self, Router};
use crate::subsys::ipc::{IpcError, MsgQueue, Semaphore};
use crate::subsys::json;
use crate::subsys::sched::{Policy, SchedError, Scheduler};
use crate::subsys::timer::{TimerError, TimerMode, TimerWheel};
use eof_hal::FaultKind;
use std::sync::LazyLock;

const TIMER_MODES: &[(&str, u64)] = &[("ONE_SHOT", 0), ("AUTO_RELOAD", 1)];
const SPI_FLAGS: &[(&str, u64)] = &[
    ("SPI_NONE", 0x0),
    ("SPI_LSB_FIRST", 0x1),
    ("SPI_DMA_ASSIST", 0x2),
    ("SPI_LOOPBACK", 0x4),
];

// MMIO replay/inject site ids of the driver layer (the PC stand-ins —
// each distinct read location in driver code gets its own site).
const SITE_SPI_STATUS: u32 = 0x4600;
const SITE_SPI_DATA: u32 = 0x4610;
const SITE_I2C_STATUS: u32 = 0x4620;
const SITE_I2C_DATA: u32 = 0x4630;
const SITE_DMA_STATUS: u32 = 0x4640;
const PART_FLAGS: &[(&str, u64)] = &[
    ("PART_NONE", 0x0),
    ("PART_VERIFY", 0x1),
    ("PART_FORMAT", 0x4),
    ("PART_LEGACY", 0x10),
    ("PART_WIPE", 0x20),
];

/// The FreeRTOS model.
pub struct FreeRtosKernel {
    sched: Scheduler,
    heap: FreeListHeap,
    queues: Vec<Option<MsgQueue>>,
    sems: Vec<Semaphore>,
    timers: TimerWheel,
    router: Router,
    partitions_loaded: [bool; 4],
    /// Bytes received by the serial RX ISR, drained by tasks.
    rx_fifo: Vec<u8>,
    /// GPIO edges latched by the ISR for deferred processing.
    gpio_edges: u32,
}

/// The published API surface. It is the same for every boot, so it is
/// built once per process, not on every (per-test-case) reset.
static API: LazyLock<Vec<ApiDescriptor>> = LazyLock::new(FreeRtosKernel::build_api);

impl Default for FreeRtosKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl FreeRtosKernel {
    /// A freshly booted FreeRTOS.
    pub fn new() -> Self {
        FreeRtosKernel {
            sched: Scheduler::new(Policy::TickRoundRobin, 16, 31, 16, 128),
            heap: FreeListHeap::new(64 * 1024),
            queues: Vec::new(),
            sems: Vec::new(),
            timers: TimerWheel::new(16),
            router: Router::with_default_routes(),
            partitions_loaded: [false; 4],
            rx_fifo: Vec::new(),
            gpio_edges: 0,
        }
    }

    fn build_api() -> Vec<ApiDescriptor> {
        let mut v = Vec::new();
        let mut id = 0u16;
        let mut api = |name: &'static str,
                       args: Vec<crate::api::ArgMeta>,
                       returns: Option<&'static str>,
                       module: &'static str,
                       doc: &'static str| {
            let d = ApiDescriptor {
                id,
                name,
                args,
                returns,
                module,
                doc,
            };
            id += 1;
            d
        };
        use crate::os::a_res;
        v.push(api(
            "xTaskCreate",
            vec![
                a_str("pcName", 16),
                a_int("usStackDepth", 128, 4096),
                a_int("uxPriority", 0, 31),
            ],
            Some("task"),
            "task",
            "Create a task with a bounded static stack and tick-driven scheduling.",
        ));
        v.push(api(
            "vTaskDelete",
            vec![a_res("xTask", "task")],
            None,
            "task",
            "Delete a task.",
        ));
        v.push(api(
            "vTaskSuspend",
            vec![a_res("xTask", "task")],
            None,
            "task",
            "Suspend a task.",
        ));
        v.push(api(
            "vTaskResume",
            vec![a_res("xTask", "task")],
            None,
            "task",
            "Resume a suspended task.",
        ));
        v.push(api(
            "vTaskPrioritySet",
            vec![a_res("xTask", "task"), a_int("uxNewPriority", 0, 31)],
            None,
            "task",
            "Change a task's priority.",
        ));
        v.push(api(
            "vTaskDelay",
            vec![a_res("xTask", "task"), a_int("xTicksToDelay", 0, 1000)],
            None,
            "task",
            "Block a task for a number of ticks.",
        ));
        v.push(api(
            "xQueueCreate",
            vec![a_int("uxQueueLength", 1, 32), a_int("uxItemSize", 1, 128)],
            Some("queue"),
            "queue",
            "Create a bounded queue.",
        ));
        v.push(api(
            "xQueueSend",
            vec![a_res("xQueue", "queue"), a_bytes("pvItemToQueue", 128)],
            None,
            "queue",
            "Send an item to the back of a queue.",
        ));
        v.push(api(
            "xQueueReceive",
            vec![a_res("xQueue", "queue")],
            None,
            "queue",
            "Receive the front item.",
        ));
        v.push(api(
            "vQueueDelete",
            vec![a_res("xQueue", "queue")],
            None,
            "queue",
            "Delete a queue.",
        ));
        v.push(api(
            "xSemaphoreCreateCounting",
            vec![a_int("uxMaxCount", 1, 16), a_int("uxInitialCount", 0, 16)],
            Some("sem"),
            "sem",
            "Create a counting semaphore.",
        ));
        v.push(api(
            "xSemaphoreTake",
            vec![a_res("xSemaphore", "sem")],
            None,
            "sem",
            "Take (non-blocking).",
        ));
        v.push(api(
            "xSemaphoreGive",
            vec![a_res("xSemaphore", "sem")],
            None,
            "sem",
            "Give the semaphore.",
        ));
        v.push(api(
            "xTimerCreate",
            vec![
                a_int("xTimerPeriod", 1, 1000),
                a_enum("uxAutoReload", "timer_mode", TIMER_MODES),
            ],
            Some("timer"),
            "timer",
            "Create a software timer.",
        ));
        v.push(api(
            "xTimerStart",
            vec![a_res("xTimer", "timer")],
            None,
            "timer",
            "Arm a timer.",
        ));
        v.push(api(
            "xTimerStop",
            vec![a_res("xTimer", "timer")],
            None,
            "timer",
            "Disarm a timer.",
        ));
        v.push(api(
            "pvPortMalloc",
            vec![a_int("xWantedSize", 1, 4096)],
            Some("mem"),
            "heap",
            "Allocate from the FreeRTOS heap.",
        ));
        v.push(api(
            "vPortFree",
            vec![a_res("pv", "mem")],
            None,
            "heap",
            "Free a heap allocation.",
        ));
        v.push(api(
            "load_partitions",
            vec![
                a_int("slot", 0, 3),
                a_enum("flags", "part_flags", PART_FLAGS),
            ],
            None,
            "kernel",
            "Load a flash partition table slot into the kernel.",
        ));
        v.push(api(
            "json_parse",
            vec![a_bytes("buf", 256)],
            None,
            "json",
            "Parse a JSON document with the bundled coreJSON-style parser.",
        ));
        v.push(api(
            "json_encode",
            vec![a_int("depth", 0, 16), a_int("width", 1, 4)],
            None,
            "json",
            "Encode a synthetic object tree.",
        ));
        v.push(api(
            "http_request",
            vec![a_bytes("buf", 256)],
            None,
            "http",
            "Feed one request to the embedded HTTP server.",
        ));
        v.push(api(
            "vTaskTickIncrement",
            vec![a_int("ticks", 1, 10)],
            None,
            "kernel",
            "Advance the kernel tick, driving the scheduler and timers.",
        ));
        v.push(api(
            "xSpiTransfer",
            vec![
                a_int("xLength", 0, 64),
                a_enum("uxFlags", "spi_flags", SPI_FLAGS),
            ],
            None,
            "spi",
            "Clock one SPI transfer through the controller, polling STATUS and draining DATA.",
        ));
        v.push(api(
            "xI2cMasterRead",
            vec![a_int("ucAddress", 0, 127), a_int("xLength", 0, 32)],
            None,
            "i2c",
            "Master-mode I2C read: address the slave, check ACK, drain DATA bytes.",
        ));
        v.push(api(
            "xDmaStart",
            vec![
                a_int("ulSrc", 0, 0xffff_ffff),
                a_int("ulDst", 0, 0xffff_ffff),
                a_int("xLength", 0, 0x2_0000),
            ],
            None,
            "dma",
            "Program a DMA channel (src/dst/len) and start it; completion raises the DMA IRQ.",
        ));
        v
    }

    fn map_sched(e: SchedError) -> InvokeResult {
        InvokeResult::Err(match e {
            SchedError::NameTooLong => -1,
            SchedError::BadPriority => -2,
            SchedError::TooManyTasks => -3,
            SchedError::BadHandle => -4,
            SchedError::StackTooSmall => -5,
        })
    }

    fn map_ipc(e: IpcError) -> InvokeResult {
        InvokeResult::Err(match e {
            IpcError::Full => -10,
            IpcError::Empty => -11,
            IpcError::MsgTooBig => -12,
            IpcError::WouldBlock => -13,
            IpcError::Busy => -14,
            IpcError::NotOwner => -15,
            IpcError::Purged => -16,
        })
    }
}

impl Kernel for FreeRtosKernel {
    fn os(&self) -> OsKind {
        OsKind::FreeRtos
    }

    fn on_interrupt(&mut self, ctx: &mut ExecCtx<'_>, line: u8, payload: &[u8]) -> InvokeResult {
        match line {
            eof_hal::irq::SERIAL_RX => {
                ctx.cov("freertos::isr::uart_rx::entry");
                ctx.charge(4 + payload.len() as u64 / 4);
                ctx.cov_var(
                    "freertos::isr::uart_rx::len_band",
                    (payload.len() as u64 / 4).min(15),
                );
                // ISR-side FIFO with overrun handling.
                for &b in payload {
                    if self.rx_fifo.len() >= 64 {
                        ctx.cov("freertos::isr::uart_rx::overrun");
                        break;
                    }
                    self.rx_fifo.push(b);
                }
                // Framing-error path for non-ASCII bytes.
                if payload.iter().any(|b| *b >= 0x80) {
                    ctx.cov("freertos::isr::uart_rx::framing_error");
                }
                InvokeResult::Ok(self.rx_fifo.len() as u64)
            }
            eof_hal::irq::GPIO => {
                ctx.cov("freertos::isr::gpio::entry");
                ctx.charge(3);
                self.gpio_edges = self.gpio_edges.wrapping_add(1);
                ctx.cov_var(
                    "freertos::isr::gpio::edge_band",
                    (self.gpio_edges as u64).min(15),
                );
                InvokeResult::Ok(self.gpio_edges as u64)
            }
            eof_hal::irq::TIMER => {
                ctx.cov("freertos::isr::tick::entry");
                self.sched.tick(ctx, "freertos::kernel::tick");
                self.timers.advance(ctx, "freertos::timer::advance", 1);
                InvokeResult::Ok(self.sched.tick_count())
            }
            eof_hal::irq::SPI => {
                ctx.cov("freertos::isr::spi_done::entry");
                ctx.charge(3);
                InvokeResult::Ok(0)
            }
            eof_hal::irq::I2C => {
                ctx.cov("freertos::isr::i2c_done::entry");
                ctx.charge(3);
                InvokeResult::Ok(0)
            }
            eof_hal::irq::DMA => {
                ctx.cov("freertos::isr::dma_done::entry");
                ctx.charge(4);
                // Completion payload carries the transferred length.
                let len = payload
                    .first_chunk::<4>()
                    .map(|b| u32::from_le_bytes(*b))
                    .unwrap_or(0);
                ctx.cov_var(
                    "freertos::isr::dma_done::len_band",
                    (len as u64 / 64).min(15),
                );
                InvokeResult::Ok(len as u64)
            }
            _ => {
                ctx.cov("freertos::isr::spurious");
                InvokeResult::Err(-38)
            }
        }
    }

    fn api_table(&self) -> &[ApiDescriptor] {
        &API
    }

    fn exception_symbol(&self) -> &'static str {
        "panic_handler"
    }

    fn assert_symbol(&self) -> &'static str {
        "vAssertCalled"
    }

    fn total_branch_sites(&self) -> usize {
        crate::image::total_sites(OsKind::FreeRtos)
    }

    fn boot_banner(&self) -> Vec<String> {
        vec![
            "FreeRTOS v5.4 booting".into(),
            "heap_4: 65536 bytes at 0x20001000".into(),
            "scheduler: tick-driven, 32 priorities".into(),
        ]
    }

    fn reset(&mut self, _ctx: &mut ExecCtx<'_>) {
        *self = Self::new();
    }

    fn invoke(&mut self, ctx: &mut ExecCtx<'_>, api_id: u16, args: &[KArg]) -> InvokeResult {
        match api_id {
            // xTaskCreate
            0 => match self.sched.create(
                ctx,
                "freertos::task::xTaskCreate",
                arg_str(args, 0),
                arg_int(args, 2) as u8,
                arg_int(args, 1) as u32,
            ) {
                Ok(h) => {
                    // Silicon-only: the port programs an MPU region per
                    // stack; region geometry branches by stack size. An
                    // emulator without an MPU model skips all of it.
                    if ctx.bus.silicon {
                        ctx.cov_var(
                            "freertos::mpu::stack_region",
                            (arg_int(args, 1) / 256).min(15),
                        );
                    }
                    InvokeResult::Ok(h as u64)
                }
                Err(e) => Self::map_sched(e),
            },
            // vTaskDelete
            1 => {
                match self
                    .sched
                    .delete(ctx, "freertos::task::vTaskDelete", arg_int(args, 0) as u32)
                {
                    Ok(()) => InvokeResult::Ok(0),
                    Err(e) => Self::map_sched(e),
                }
            }
            // vTaskSuspend
            2 => match self.sched.suspend(
                ctx,
                "freertos::task::vTaskSuspend",
                arg_int(args, 0) as u32,
            ) {
                Ok(()) => InvokeResult::Ok(0),
                Err(e) => Self::map_sched(e),
            },
            // vTaskResume
            3 => {
                match self
                    .sched
                    .resume(ctx, "freertos::task::vTaskResume", arg_int(args, 0) as u32)
                {
                    Ok(()) => InvokeResult::Ok(0),
                    Err(e) => Self::map_sched(e),
                }
            }
            // vTaskPrioritySet
            4 => match self.sched.set_priority(
                ctx,
                "freertos::task::vTaskPrioritySet",
                arg_int(args, 0) as u32,
                arg_int(args, 1) as u8,
            ) {
                Ok(()) => InvokeResult::Ok(0),
                Err(e) => Self::map_sched(e),
            },
            // vTaskDelay
            5 => match self.sched.delay(
                ctx,
                "freertos::task::vTaskDelay",
                arg_int(args, 0) as u32,
                arg_int(args, 1),
            ) {
                Ok(()) => InvokeResult::Ok(0),
                Err(e) => Self::map_sched(e),
            },
            // xQueueCreate
            6 => {
                ctx.cov("freertos::queue::xQueueCreate::entry");
                let len = arg_int(args, 0).clamp(1, 32) as usize;
                let item = arg_int(args, 1).clamp(1, 128) as u32;
                self.queues.push(Some(MsgQueue::new(item, len)));
                InvokeResult::Ok(self.queues.len() as u64 - 1)
            }
            // xQueueSend
            7 => {
                let h = arg_int(args, 0) as usize;
                match self.queues.get_mut(h).and_then(|q| q.as_mut()) {
                    Some(q) => {
                        match q.put(ctx, "freertos::queue::xQueueSend", arg_bytes(args, 1)) {
                            Ok(()) => InvokeResult::Ok(0),
                            Err(e) => Self::map_ipc(e),
                        }
                    }
                    None => InvokeResult::Err(-4),
                }
            }
            // xQueueReceive
            8 => {
                let h = arg_int(args, 0) as usize;
                match self.queues.get_mut(h).and_then(|q| q.as_mut()) {
                    Some(q) => match q.get(ctx, "freertos::queue::xQueueReceive") {
                        Ok(m) => InvokeResult::Ok(m.len() as u64),
                        Err(e) => Self::map_ipc(e),
                    },
                    None => InvokeResult::Err(-4),
                }
            }
            // vQueueDelete
            9 => {
                ctx.cov("freertos::queue::vQueueDelete::entry");
                let h = arg_int(args, 0) as usize;
                match self.queues.get_mut(h) {
                    Some(slot @ Some(_)) => {
                        *slot = None;
                        InvokeResult::Ok(0)
                    }
                    _ => InvokeResult::Err(-4),
                }
            }
            // xSemaphoreCreateCounting
            10 => {
                ctx.cov("freertos::sem::xSemaphoreCreateCounting::entry");
                let max = arg_int(args, 0).clamp(1, 16) as i32;
                let init = (arg_int(args, 1) as i32).min(max);
                self.sems.push(Semaphore::new(init, max));
                InvokeResult::Ok(self.sems.len() as u64 - 1)
            }
            // xSemaphoreTake
            11 => match self.sems.get_mut(arg_int(args, 0) as usize) {
                Some(s) => match s.try_take(ctx, "freertos::sem::xSemaphoreTake") {
                    Ok(()) => InvokeResult::Ok(0),
                    Err(e) => Self::map_ipc(e),
                },
                None => InvokeResult::Err(-4),
            },
            // xSemaphoreGive
            12 => match self.sems.get_mut(arg_int(args, 0) as usize) {
                Some(s) => match s.give(ctx, "freertos::sem::xSemaphoreGive") {
                    Ok(()) => InvokeResult::Ok(0),
                    Err(e) => Self::map_ipc(e),
                },
                None => InvokeResult::Err(-4),
            },
            // xTimerCreate
            13 => {
                let mode = if arg_int(args, 1) == 1 {
                    TimerMode::Periodic
                } else {
                    TimerMode::OneShot
                };
                match self.timers.create(
                    ctx,
                    "freertos::timer::xTimerCreate",
                    arg_int(args, 0),
                    mode,
                ) {
                    Ok(h) => InvokeResult::Ok(h as u64),
                    Err(TimerError::BadPeriod) => InvokeResult::Err(-20),
                    Err(_) => InvokeResult::Err(-21),
                }
            }
            // xTimerStart
            14 => match self.timers.start(
                ctx,
                "freertos::timer::xTimerStart",
                arg_int(args, 0) as u32,
            ) {
                Ok(()) => InvokeResult::Ok(0),
                Err(_) => InvokeResult::Err(-4),
            },
            // xTimerStop
            15 => {
                match self
                    .timers
                    .stop(ctx, "freertos::timer::xTimerStop", arg_int(args, 0) as u32)
                {
                    Ok(()) => InvokeResult::Ok(0),
                    Err(_) => InvokeResult::Err(-4),
                }
            }
            // pvPortMalloc
            16 => {
                match self
                    .heap
                    .alloc(ctx, "freertos::heap::pvPortMalloc", arg_int(args, 0) as u32)
                {
                    Ok(h) => InvokeResult::Ok(h as u64),
                    Err(HeapError::OutOfMemory) => InvokeResult::Err(-30),
                    Err(_) => InvokeResult::Err(-31),
                }
            }
            // vPortFree
            17 => match self
                .heap
                .free(ctx, "freertos::heap::vPortFree", arg_int(args, 0) as u32)
            {
                Ok(()) => InvokeResult::Ok(0),
                Err(_) => InvokeResult::Err(-31),
            },
            // load_partitions — bug #13.
            18 => {
                ctx.cov("freertos::kernel::load_partitions::entry");
                let slot = arg_int(args, 0).min(3) as usize;
                let flags = arg_int(args, 1);
                ctx.cov_var("freertos::kernel::load_partitions::slot", slot as u64);
                if flags & 0x1 != 0 {
                    ctx.cov("freertos::kernel::load_partitions::verify");
                }
                if flags & 0x4 != 0 {
                    ctx.cov("freertos::kernel::load_partitions::format");
                }
                // Bug #13: the legacy-format path reads a stale partition
                // descriptor when asked for the last slot — an illegal
                // memory access that panics without hanging.
                if slot == 3 && flags & 0x10 != 0 {
                    ctx.cov("freertos::kernel::load_partitions::legacy_slot3");
                    ctx.klog("E (421) part: invalid descriptor at slot 3");
                    return InvokeResult::Fault(KernelFault::bug(
                        BugId::B13LoadPartitions,
                        FaultKind::Panic,
                        "Guru Meditation Error: LoadProhibited at load_partitions",
                        vec!["load_partitions", "prvInitialiseNewTask", "main"],
                        false,
                    ));
                }
                if ctx.bus.silicon {
                    // Silicon-only: the flash controller's wait-state
                    // setup branches per (slot, flag population).
                    ctx.cov_var(
                        "freertos::flashctl::wait_band",
                        slot as u64 * 8 + (flags.count_ones() as u64).min(7),
                    );
                }
                self.partitions_loaded[slot] = true;
                InvokeResult::Ok(slot as u64)
            }
            // json_parse
            19 => match json::parse(ctx, "freertos::json::parse", arg_bytes(args, 0)) {
                Ok(stats) => InvokeResult::Ok(stats.objects as u64 + stats.arrays as u64),
                Err(_) => InvokeResult::Err(-40),
            },
            // json_encode
            20 => {
                let depth = arg_int(args, 0) as u32;
                let width = arg_int(args, 1) as u32;
                if width == 0 || width > 8 {
                    ctx.cov("freertos::json::encode::bad_width");
                    return InvokeResult::Err(-41);
                }
                match json::encode(
                    ctx,
                    "freertos::json::encode",
                    depth.min(json::MAX_DEPTH + 4),
                    width,
                ) {
                    Ok(len) => InvokeResult::Ok(len as u64),
                    Err(_) => InvokeResult::Err(-41),
                }
            }
            // http_request
            21 => match http::parse_request(ctx, "freertos::http::parse", arg_bytes(args, 0)) {
                Ok(req) => {
                    let status = self.router.dispatch(ctx, "freertos::http::route", &req);
                    // Silicon-only: the NIC driver's TX path sets up DMA
                    // descriptors per (status class, response size band).
                    if ctx.bus.silicon {
                        ctx.cov_var(
                            "freertos::nic::dma_band",
                            (status as u64 / 100) * 8 + (req.path.len() as u64 / 2).min(7),
                        );
                        if req.keep_alive {
                            ctx.cov("freertos::nic::keepalive_ring");
                        }
                    }
                    InvokeResult::Ok(status as u64)
                }
                Err(_) => InvokeResult::Err(-50),
            },
            // vTaskTickIncrement
            22 => {
                let n = arg_int(args, 0).clamp(1, 10);
                for _ in 0..n {
                    self.sched.tick(ctx, "freertos::kernel::tick");
                }
                self.timers.advance(ctx, "freertos::timer::advance", n);
                InvokeResult::Ok(self.sched.tick_count())
            }
            // xSpiTransfer — driver bug #20.
            23 => {
                use eof_hal::mmio::{periph, reg, CTRL_START};
                ctx.cov("freertos::spi::xSpiTransfer::entry");
                let len = arg_int(args, 0).min(64);
                let flags = arg_int(args, 1);
                ctx.charge(8 + len);
                ctx.bus
                    .mmio_write(periph::SPI, reg::CTRL, CTRL_START | (flags << 1));
                let status = ctx.bus.mmio_read(SITE_SPI_STATUS, periph::SPI, reg::STATUS);
                ctx.cov_var("freertos::spi::status_band", (status & 0x7) as u64);
                if flags & 0x2 != 0 {
                    ctx.cov("freertos::spi::xSpiTransfer::dma_assist");
                }
                // Bug #20: under DMA-assist the driver spin-polls the BUSY
                // bit with the scheduler locked. Replay semantics pin the
                // STATUS byte per poll site, so a busy controller never
                // clears and the task spins forever.
                if len > 0 && flags & 0x2 != 0 && status & 0x80 != 0 {
                    ctx.cov("freertos::spi::xSpiTransfer::busy_poll");
                    ctx.klog("E (512) spi: transfer timeout, bus held");
                    return InvokeResult::Fault(KernelFault::bug(
                        BugId::B20SpiPollHang,
                        FaultKind::Panic,
                        "Guru Meditation Error: task watchdog in xSpiTransfer busy-poll",
                        vec!["xSpiTransfer", "prvSpiPollStatus", "main"],
                        true,
                    ));
                }
                let mut sum = 0u64;
                for i in 0..len.min(8) as u32 {
                    sum += ctx.bus.mmio_read(SITE_SPI_DATA + i, periph::SPI, reg::DATA) as u64;
                }
                InvokeResult::Ok(sum)
            }
            // xI2cMasterRead
            24 => {
                use eof_hal::mmio::{periph, reg, CTRL_START};
                ctx.cov("freertos::i2c::xI2cMasterRead::entry");
                let addr = arg_int(args, 0) & 0x7f;
                let len = arg_int(args, 1).min(32);
                ctx.charge(6 + len);
                ctx.bus
                    .mmio_write(periph::I2C, reg::CTRL, CTRL_START | (addr << 1));
                let status = ctx.bus.mmio_read(SITE_I2C_STATUS, periph::I2C, reg::STATUS);
                if status & 0x1 != 0 {
                    // NACK: the slave did not answer.
                    ctx.cov("freertos::i2c::xI2cMasterRead::nack");
                    return InvokeResult::Err(-60);
                }
                let mut sum = 0u64;
                for i in 0..len.min(8) as u32 {
                    sum += ctx.bus.mmio_read(SITE_I2C_DATA + i, periph::I2C, reg::DATA) as u64;
                }
                InvokeResult::Ok(sum)
            }
            // xDmaStart
            25 => {
                use eof_hal::mmio::{periph, reg, CTRL_START};
                ctx.cov("freertos::dma::xDmaStart::entry");
                let src = arg_int(args, 0);
                let dst = arg_int(args, 1);
                let len = arg_int(args, 2);
                ctx.charge(10 + len / 64);
                // Bug #26: a descriptor whose source aliases the
                // controller's scratch window (one exact 32-bit address)
                // skips the bounds rewrite, and a destination aliasing
                // the config mirror then corrupts the channel table.
                // Random 32-bit argument search essentially never lands
                // on either constant; the planted trace_cmp hooks hand
                // both operands to the cmplog ring, and the second
                // compare only executes once the first matches — the
                // staged-discovery shape Redqueen is built for.
                ctx.cmp("freertos::dma::xDmaStart::src_magic", 32, src, 0xD3AD_BEA7);
                if src == 0xD3AD_BEA7 {
                    ctx.cov("freertos::dma::xDmaStart::src_scratch");
                    ctx.cmp("freertos::dma::xDmaStart::dst_magic", 32, dst, 0x0BAD_F00D);
                    if dst == 0x0BAD_F00D {
                        return InvokeResult::Fault(KernelFault::bug(
                            BugId::B26DmaMagicDesc,
                            FaultKind::Panic,
                            "Guru Meditation Error: channel table corrupt in xDmaStart",
                            vec!["xDmaStart", "prvDmaProgramDescriptor", "main"],
                            false,
                        ));
                    }
                }
                ctx.bus.mmio_write(periph::DMA, reg::SRC, src);
                ctx.bus.mmio_write(periph::DMA, reg::DST, dst);
                ctx.bus.mmio_write(periph::DMA, reg::LEN, len);
                ctx.bus.mmio_write(periph::DMA, reg::CTRL, CTRL_START);
                let status = ctx.bus.mmio_read(SITE_DMA_STATUS, periph::DMA, reg::STATUS);
                ctx.cov_var("freertos::dma::chan_band", (status & 0x3) as u64);
                InvokeResult::Ok(len)
            }
            _ => InvokeResult::Err(-88),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::os::testutil::{bus, call, is_bug, ok};

    #[test]
    fn api_table_ids_are_dense() {
        let k = FreeRtosKernel::new();
        for (i, d) in k.api_table().iter().enumerate() {
            assert_eq!(d.id as usize, i);
        }
        assert!(k.api_table().len() >= 20);
    }

    #[test]
    fn task_lifecycle_through_api() {
        let mut k = FreeRtosKernel::new();
        let mut b = bus();
        let t = ok(call(
            &mut k,
            &mut b,
            "xTaskCreate",
            &[KArg::Str("worker".into()), KArg::Int(512), KArg::Int(5)],
        ));
        ok(call(&mut k, &mut b, "vTaskTickIncrement", &[KArg::Int(1)]));
        ok(call(&mut k, &mut b, "vTaskSuspend", &[KArg::Int(t)]));
        ok(call(&mut k, &mut b, "vTaskResume", &[KArg::Int(t)]));
        ok(call(&mut k, &mut b, "vTaskDelete", &[KArg::Int(t)]));
        assert!(matches!(
            call(&mut k, &mut b, "vTaskDelete", &[KArg::Int(t)]),
            InvokeResult::Err(_)
        ));
    }

    #[test]
    fn queue_roundtrip() {
        let mut k = FreeRtosKernel::new();
        let mut b = bus();
        let q = ok(call(
            &mut k,
            &mut b,
            "xQueueCreate",
            &[KArg::Int(2), KArg::Int(16)],
        ));
        ok(call(
            &mut k,
            &mut b,
            "xQueueSend",
            &[KArg::Int(q), KArg::Bytes(vec![1, 2, 3])],
        ));
        assert_eq!(
            ok(call(&mut k, &mut b, "xQueueReceive", &[KArg::Int(q)])),
            3
        );
        ok(call(&mut k, &mut b, "vQueueDelete", &[KArg::Int(q)]));
        assert!(matches!(
            call(
                &mut k,
                &mut b,
                "xQueueSend",
                &[KArg::Int(q), KArg::Bytes(vec![1])]
            ),
            InvokeResult::Err(-4)
        ));
    }

    #[test]
    fn bug13_requires_slot3_and_legacy_flag() {
        let mut k = FreeRtosKernel::new();
        let mut b = bus();
        // Benign combinations do not fault.
        for (slot, flags) in [(0, 0x10), (3, 0x1), (2, 0x10), (3, 0x4)] {
            let r = call(
                &mut k,
                &mut b,
                "load_partitions",
                &[KArg::Int(slot), KArg::Int(flags)],
            );
            assert!(!r.is_fault(), "slot={slot} flags={flags:#x}");
        }
        let r = call(
            &mut k,
            &mut b,
            "load_partitions",
            &[KArg::Int(3), KArg::Int(0x10)],
        );
        assert!(is_bug(&r, 13));
        if let InvokeResult::Fault(f) = r {
            assert!(!f.hangs_after);
            assert_eq!(f.frames[0], "load_partitions");
        }
    }

    #[test]
    fn json_and_http_modules_respond() {
        let mut k = FreeRtosKernel::new();
        let mut b = bus();
        assert_eq!(
            ok(call(
                &mut k,
                &mut b,
                "json_parse",
                &[KArg::Bytes(br#"{"a":[1]}"#.to_vec())]
            )),
            2
        );
        assert!(matches!(
            call(
                &mut k,
                &mut b,
                "json_parse",
                &[KArg::Bytes(b"{{{".to_vec())]
            ),
            InvokeResult::Err(-40)
        ));
        assert_eq!(
            ok(call(
                &mut k,
                &mut b,
                "http_request",
                &[KArg::Bytes(b"GET /status HTTP/1.1\r\n\r\n".to_vec())]
            )),
            200
        );
    }

    #[test]
    fn heap_alloc_free() {
        let mut k = FreeRtosKernel::new();
        let mut b = bus();
        let m = ok(call(&mut k, &mut b, "pvPortMalloc", &[KArg::Int(128)]));
        ok(call(&mut k, &mut b, "vPortFree", &[KArg::Int(m)]));
        assert!(matches!(
            call(&mut k, &mut b, "vPortFree", &[KArg::Int(m)]),
            InvokeResult::Err(_)
        ));
    }

    #[test]
    fn reset_clears_state() {
        let mut k = FreeRtosKernel::new();
        let mut b = bus();
        ok(call(
            &mut k,
            &mut b,
            "xQueueCreate",
            &[KArg::Int(2), KArg::Int(8)],
        ));
        let mut cov = crate::ctx::CovState::uninstrumented();
        let mut ctx = crate::ctx::ExecCtx::new(&mut b, &mut cov);
        k.reset(&mut ctx);
        assert!(k.queues.is_empty());
        assert_eq!(k.api_table().len(), FreeRtosKernel::new().api_table().len());
    }

    #[test]
    fn unknown_api_is_error_not_panic() {
        let mut k = FreeRtosKernel::new();
        let mut b = bus();
        let mut cov = crate::ctx::CovState::uninstrumented();
        let mut ctx = crate::ctx::ExecCtx::new(&mut b, &mut cov);
        assert!(matches!(
            k.invoke(&mut ctx, 999, &[]),
            InvokeResult::Err(-88)
        ));
    }

    #[test]
    fn serial_rx_isr_fills_fifo_with_overrun() {
        let mut k = FreeRtosKernel::new();
        let mut b = bus();
        let mut cov = crate::ctx::CovState::uninstrumented();
        let mut ctx = crate::ctx::ExecCtx::new(&mut b, &mut cov);
        assert_eq!(
            k.on_interrupt(&mut ctx, eof_hal::irq::SERIAL_RX, b"hello"),
            InvokeResult::Ok(5)
        );
        // Overrun: FIFO caps at 64 bytes.
        let big = vec![b'x'; 100];
        let r = k.on_interrupt(&mut ctx, eof_hal::irq::SERIAL_RX, &big);
        assert_eq!(r, InvokeResult::Ok(64));
    }

    #[test]
    fn gpio_and_timer_isrs() {
        let mut k = FreeRtosKernel::new();
        let mut b = bus();
        let mut cov = crate::ctx::CovState::uninstrumented();
        let mut ctx = crate::ctx::ExecCtx::new(&mut b, &mut cov);
        assert_eq!(
            k.on_interrupt(&mut ctx, eof_hal::irq::GPIO, &[]),
            InvokeResult::Ok(1)
        );
        assert_eq!(
            k.on_interrupt(&mut ctx, eof_hal::irq::GPIO, &[]),
            InvokeResult::Ok(2)
        );
        let ticks_before = k.sched.tick_count();
        k.on_interrupt(&mut ctx, eof_hal::irq::TIMER, &[]);
        assert_eq!(k.sched.tick_count(), ticks_before + 1);
        // Unknown lines are rejected like real spurious IRQs.
        assert_eq!(k.on_interrupt(&mut ctx, 99, &[]), InvokeResult::Err(-38));
    }

    #[test]
    fn underflowing_args_do_not_panic() {
        let mut k = FreeRtosKernel::new();
        let mut b = bus();
        // Every API with zero args supplied must return, not panic.
        for id in 0..k.api_table().len() as u16 {
            let mut cov = crate::ctx::CovState::uninstrumented();
            let mut ctx = crate::ctx::ExecCtx::new(&mut b, &mut cov);
            let _ = k.invoke(&mut ctx, id, &[]);
        }
    }

    #[test]
    fn bug20_requires_dma_assist_and_busy_status() {
        // Benign near-misses: busy status without DMA-assist, DMA-assist
        // with an idle controller, and a zero-length transfer.
        for (stream, len, flags) in [(0x82u8, 4, 0x0), (0x00, 4, 0x2), (0x82, 0, 0x2)] {
            let mut k = FreeRtosKernel::new();
            let mut b = bus();
            b.mmio.load_stream(&[stream]);
            let r = call(
                &mut k,
                &mut b,
                "xSpiTransfer",
                &[KArg::Int(len), KArg::Int(flags)],
            );
            assert!(
                !matches!(r, InvokeResult::Fault(_)),
                "{stream:#x}/{len}/{flags}"
            );
        }
        // The full gate: DMA-assist transfer polling a stuck BUSY bit.
        let mut k = FreeRtosKernel::new();
        let mut b = bus();
        b.mmio.load_stream(&[0x82]);
        let r = call(
            &mut k,
            &mut b,
            "xSpiTransfer",
            &[KArg::Int(4), KArg::Int(0x2)],
        );
        assert!(is_bug(&r, 20), "got {r:?}");
    }

    #[test]
    fn i2c_read_nacks_on_odd_status() {
        let mut k = FreeRtosKernel::new();
        let mut b = bus();
        b.mmio.load_stream(&[0x01]);
        assert_eq!(
            call(
                &mut k,
                &mut b,
                "xI2cMasterRead",
                &[KArg::Int(0x50), KArg::Int(4)],
            ),
            InvokeResult::Err(-60)
        );
        // An ACKing slave delivers data and queues the completion IRQ.
        b.mmio.load_stream(&[0x00, 0xaa, 0xbb]);
        let sum = ok(call(
            &mut k,
            &mut b,
            "xI2cMasterRead",
            &[KArg::Int(0x50), KArg::Int(2)],
        ));
        assert_eq!(sum, 0xaa + 0xbb);
        assert!(b.pending_irqs.iter().any(|r| r.line == eof_hal::irq::I2C));
    }

    #[test]
    fn dma_magic_descriptor_is_bug26_and_near_miss_is_not() {
        let mut k = FreeRtosKernel::new();
        let mut b = bus();
        // The src magic alone is a near miss: new coverage, no fault.
        let r = call(
            &mut k,
            &mut b,
            "xDmaStart",
            &[KArg::Int(0xD3AD_BEA7), KArg::Int(0x200), KArg::Int(64)],
        );
        assert!(!matches!(r, InvokeResult::Fault(_)), "got {r:?}");
        let r = call(
            &mut k,
            &mut b,
            "xDmaStart",
            &[
                KArg::Int(0xD3AD_BEA7),
                KArg::Int(0x0BAD_F00D),
                KArg::Int(64),
            ],
        );
        assert!(is_bug(&r, 26), "got {r:?}");
    }

    #[test]
    fn dma_start_latches_and_completes() {
        let mut k = FreeRtosKernel::new();
        let mut b = bus();
        let len = ok(call(
            &mut k,
            &mut b,
            "xDmaStart",
            &[KArg::Int(0x100), KArg::Int(0x200), KArg::Int(4096)],
        ));
        assert_eq!(len, 4096);
        let dma = b
            .pending_irqs
            .iter()
            .find(|r| r.line == eof_hal::irq::DMA)
            .cloned()
            .expect("DMA completion IRQ queued");
        assert_eq!(dma.payload, 4096u32.to_le_bytes());
        // The completion ISR decodes the transferred length.
        let mut cov = crate::ctx::CovState::uninstrumented();
        let mut ctx = crate::ctx::ExecCtx::new(&mut b, &mut cov);
        assert_eq!(
            k.on_interrupt(&mut ctx, eof_hal::irq::DMA, &dma.payload),
            InvokeResult::Ok(4096)
        );
    }
}
