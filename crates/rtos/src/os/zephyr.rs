//! Zephyr kernel model.
//!
//! Personality: `k_`-prefixed snake_case APIs, fully preemptive
//! scheduling with work queues, `k_heap`/`sys_heap` split, `k_msgq`
//! message queues, and the JSON library from Zephyr's `subsys/net`.
//! Hosts four Table-2 bugs: #1 (`sys_heap_stress`), #2
//! (`z_impl_k_msgq_get`), #3 (`json_obj_encode`) and #4 (`k_heap_init`).

use crate::api::{ApiDescriptor, InvokeResult, KArg, KernelFault};
use crate::bugs::BugId;
use crate::ctx::ExecCtx;
use crate::kernel::{Kernel, OsKind};
use crate::os::{a_bytes, a_enum, a_int, a_res, a_str, arg_bytes, arg_int, arg_str};
use crate::subsys::heap::{FreeListHeap, HeapError};
use crate::subsys::ipc::{IpcError, MsgQueue, Semaphore};
use crate::subsys::json;
use crate::subsys::sched::{Policy, SchedError, Scheduler};
use eof_hal::FaultKind;
use std::sync::LazyLock;

/// Zephyr's K_FOREVER timeout encoding (all-ones).
pub const K_FOREVER: u64 = u64::MAX;

/// The `k_timeout_t` constructors the specification exposes.
const K_TIMEOUTS: &[(&str, u64)] = &[
    ("K_NO_WAIT", 0),
    ("K_MSEC_10", 10),
    ("K_MSEC_100", 100),
    ("K_SECONDS_1", 1_000),
    ("K_FOREVER", K_FOREVER),
];

/// PC-site ids for the driver layer's MMIO polls (replay keys on them).
const SITE_SPI_STATUS: u32 = 0x4700;
const SITE_SPI_DATA: u32 = 0x4710;
const SITE_I2C_STATUS: u32 = 0x4720;
const SITE_I2C_DATA: u32 = 0x4730;
const SITE_DMA_STATUS: u32 = 0x4740;

/// One k_heap instance.
struct KHeap {
    heap: FreeListHeap,
}

/// The Zephyr model.
pub struct ZephyrKernel {
    sched: Scheduler,
    msgqs: Vec<MsgQueue>,
    kheaps: Vec<KHeap>,
    sems: Vec<Semaphore>,
    /// Live allocation count across all kheaps (bug #1's gate).
    live_allocs: u32,
}

/// The published API surface. It is the same for every boot, so it is
/// built once per process, not on every (per-test-case) reset.
static API: LazyLock<Vec<ApiDescriptor>> = LazyLock::new(ZephyrKernel::build_api);

impl Default for ZephyrKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl ZephyrKernel {
    /// A freshly booted Zephyr.
    pub fn new() -> Self {
        ZephyrKernel {
            sched: Scheduler::new(Policy::Preemptive, 16, 15, 32, 256),
            msgqs: Vec::new(),
            kheaps: Vec::new(),
            sems: Vec::new(),
            live_allocs: 0,
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
        v.push(api(
            "k_thread_create",
            vec![
                a_str("name", 32),
                a_int("prio", 0, 15),
                a_int("stack_size", 256, 8192),
            ],
            Some("thread"),
            "thread",
            "Create a thread under fully preemptive scheduling.",
        ));
        v.push(api(
            "k_thread_abort",
            vec![a_res("thread", "thread")],
            None,
            "thread",
            "Abort a thread.",
        ));
        v.push(api(
            "k_thread_suspend",
            vec![a_res("thread", "thread")],
            None,
            "thread",
            "Suspend a thread.",
        ));
        v.push(api(
            "k_thread_resume",
            vec![a_res("thread", "thread")],
            None,
            "thread",
            "Resume a thread.",
        ));
        v.push(api(
            "k_sleep",
            vec![a_res("thread", "thread"), a_int("ms", 0, 1000)],
            None,
            "thread",
            "Put a thread to sleep for a duration.",
        ));
        v.push(api(
            "k_yield",
            vec![],
            None,
            "kernel",
            "Yield the processor, running the scheduler.",
        ));
        v.push(api(
            "k_msgq_alloc_init",
            vec![a_int("max_msgs", 1, 16), a_int("msg_size", 1, 64)],
            Some("msgq"),
            "kernel",
            "Allocate and initialise a message queue.",
        ));
        v.push(api(
            "z_impl_k_msgq_put",
            vec![a_res("msgq", "msgq"), a_bytes("data", 64)],
            None,
            "kernel",
            "Put a message into a queue.",
        ));
        v.push(api(
            "z_impl_k_msgq_get",
            vec![
                a_res("msgq", "msgq"),
                a_enum("timeout", "k_timeout", K_TIMEOUTS),
            ],
            None,
            "kernel",
            "Get a message with a k_timeout_t; the agent bounds K_FOREVER waits.",
        ));
        v.push(api(
            "k_msgq_purge",
            vec![a_res("msgq", "msgq")],
            None,
            "kernel",
            "Discard all queued messages.",
        ));
        v.push(api(
            "k_heap_init",
            vec![a_int("size", 0, 8192), a_int("align", 0, 64)],
            Some("kheap"),
            "kheap",
            "Initialise a k_heap over a caller-supplied region.",
        ));
        v.push(api(
            "k_heap_alloc",
            vec![a_res("kheap", "kheap"), a_int("size", 1, 2048)],
            Some("mem"),
            "kheap",
            "Allocate from a k_heap.",
        ));
        v.push(api(
            "k_heap_free",
            vec![a_res("kheap", "kheap"), a_res("mem", "mem")],
            None,
            "kheap",
            "Free a k_heap allocation.",
        ));
        v.push(api(
            "sys_heap_stress",
            vec![a_int("ops", 1, 64), a_int("seed", 0, 1024)],
            None,
            "heap",
            "Run the sys_heap stress harness for a number of operations.",
        ));
        v.push(api(
            "k_sem_init",
            vec![a_int("initial", 0, 8), a_int("limit", 1, 8)],
            Some("sem"),
            "sem",
            "Initialise a semaphore.",
        ));
        v.push(api(
            "k_sem_take",
            vec![a_res("sem", "sem")],
            None,
            "sem",
            "Take a semaphore (no wait).",
        ));
        v.push(api(
            "k_sem_give",
            vec![a_res("sem", "sem")],
            None,
            "sem",
            "Give a semaphore.",
        ));
        v.push(api(
            "json_obj_parse",
            vec![a_bytes("json", 256)],
            None,
            "json",
            "Parse a JSON object with Zephyr's JSON library.",
        ));
        v.push(api(
            "json_obj_encode",
            vec![a_int("depth", 0, 16), a_int("width", 1, 4)],
            None,
            "json",
            "Encode an object descriptor tree to JSON.",
        ));
        v.push(api(
            "spi_transceive",
            vec![a_int("tx_len", 0, 64), a_int("rx_len", 0, 64)],
            None,
            "spi",
            "Full-duplex SPI transfer through the spi_context layer.",
        ));
        v.push(api(
            "i2c_read",
            vec![a_int("addr", 0, 127), a_int("len", 0, 32)],
            None,
            "i2c",
            "Master-mode I2C read from a slave address.",
        ));
        v.push(api(
            "dma_start",
            vec![a_int("channel", 0, 7), a_int("len", 0, 65536)],
            None,
            "dma",
            "Kick a DMA channel and return the programmed length.",
        ));
        v
    }

    fn map_sched(e: SchedError) -> InvokeResult {
        InvokeResult::Err(match e {
            SchedError::NameTooLong => -22,
            SchedError::BadPriority | SchedError::StackTooSmall => -22,
            SchedError::TooManyTasks => -12,
            SchedError::BadHandle => -3,
        })
    }

    fn map_ipc(e: IpcError) -> InvokeResult {
        InvokeResult::Err(match e {
            IpcError::Full => -105,
            IpcError::Empty | IpcError::WouldBlock => -11,
            IpcError::MsgTooBig => -22,
            _ => -1,
        })
    }
}

impl Kernel for ZephyrKernel {
    fn os(&self) -> OsKind {
        OsKind::Zephyr
    }

    fn on_interrupt(&mut self, ctx: &mut ExecCtx<'_>, line: u8, payload: &[u8]) -> InvokeResult {
        match line {
            eof_hal::irq::GPIO => {
                ctx.cov("zephyr::isr::gpio::entry");
                ctx.charge(3);
                // The callback gives the first semaphore, if any exists —
                // the canonical Zephyr ISR→thread handoff.
                if let Some(sem) = self.sems.first_mut() {
                    ctx.cov("zephyr::isr::gpio::sem_give");
                    let _ = sem.give(ctx, "zephyr::sem::k_sem_give");
                } else {
                    ctx.cov("zephyr::isr::gpio::no_consumer");
                }
                InvokeResult::Ok(0)
            }
            eof_hal::irq::SERIAL_RX => {
                ctx.cov("zephyr::isr::uart_rx::entry");
                ctx.charge(4 + payload.len() as u64 / 4);
                // RX data lands in the first message queue, if any.
                if let Some(q) = self.msgqs.first_mut() {
                    match q.put(
                        ctx,
                        "zephyr::kernel::k_msgq_put",
                        &payload[..payload.len().min(32)],
                    ) {
                        Ok(()) => ctx.cov("zephyr::isr::uart_rx::queued"),
                        Err(_) => ctx.cov("zephyr::isr::uart_rx::dropped"),
                    }
                }
                InvokeResult::Ok(payload.len() as u64)
            }
            eof_hal::irq::TIMER => {
                ctx.cov("zephyr::isr::tick::entry");
                self.sched.tick(ctx, "zephyr::kernel::k_yield");
                InvokeResult::Ok(self.sched.tick_count())
            }
            eof_hal::irq::SPI => {
                ctx.cov("zephyr::isr::spi_done::entry");
                ctx.charge(3);
                InvokeResult::Ok(0)
            }
            eof_hal::irq::I2C => {
                ctx.cov("zephyr::isr::i2c_done::entry");
                ctx.charge(3);
                InvokeResult::Ok(0)
            }
            eof_hal::irq::DMA => {
                ctx.cov("zephyr::isr::dma_done::entry");
                ctx.charge(4);
                let len = payload
                    .first_chunk::<4>()
                    .map(|b| u32::from_le_bytes(*b))
                    .unwrap_or(0);
                ctx.cov_var("zephyr::isr::dma_done::len_band", (len as u64 / 64).min(15));
                InvokeResult::Ok(len as u64)
            }
            _ => InvokeResult::Err(-38),
        }
    }

    fn api_table(&self) -> &[ApiDescriptor] {
        &API
    }

    fn exception_symbol(&self) -> &'static str {
        "z_fatal_error"
    }

    fn assert_symbol(&self) -> &'static str {
        "assert_post_action"
    }

    fn total_branch_sites(&self) -> usize {
        crate::image::total_sites(OsKind::Zephyr)
    }

    fn boot_banner(&self) -> Vec<String> {
        vec![
            "*** Booting Zephyr OS build 143b14b ***".into(),
            "sched: preemptive, 16 priorities".into(),
        ]
    }

    fn reset(&mut self, _ctx: &mut ExecCtx<'_>) {
        *self = Self::new();
    }

    fn invoke(&mut self, ctx: &mut ExecCtx<'_>, api_id: u16, args: &[KArg]) -> InvokeResult {
        match api_id {
            // k_thread_create
            0 => match self.sched.create(
                ctx,
                "zephyr::thread::k_thread_create",
                arg_str(args, 0),
                arg_int(args, 1) as u8,
                arg_int(args, 2) as u32,
            ) {
                Ok(h) => {
                    // Silicon-only: userspace MPU partitioning per stack
                    // geometry.
                    if ctx.bus.silicon {
                        ctx.cov_var(
                            "zephyr::mpu::stack_region",
                            (arg_int(args, 2) / 512).min(15),
                        );
                    }
                    InvokeResult::Ok(h as u64)
                }
                Err(e) => Self::map_sched(e),
            },
            // k_thread_abort
            1 => match self.sched.delete(
                ctx,
                "zephyr::thread::k_thread_abort",
                arg_int(args, 0) as u32,
            ) {
                Ok(()) => InvokeResult::Ok(0),
                Err(e) => Self::map_sched(e),
            },
            // k_thread_suspend
            2 => match self.sched.suspend(
                ctx,
                "zephyr::thread::k_thread_suspend",
                arg_int(args, 0) as u32,
            ) {
                Ok(()) => InvokeResult::Ok(0),
                Err(e) => Self::map_sched(e),
            },
            // k_thread_resume
            3 => match self.sched.resume(
                ctx,
                "zephyr::thread::k_thread_resume",
                arg_int(args, 0) as u32,
            ) {
                Ok(()) => InvokeResult::Ok(0),
                Err(e) => Self::map_sched(e),
            },
            // k_sleep
            4 => match self.sched.delay(
                ctx,
                "zephyr::thread::k_sleep",
                arg_int(args, 0) as u32,
                arg_int(args, 1),
            ) {
                Ok(()) => InvokeResult::Ok(0),
                Err(e) => Self::map_sched(e),
            },
            // k_yield
            5 => {
                self.sched.tick(ctx, "zephyr::kernel::k_yield");
                InvokeResult::Ok(self.sched.tick_count())
            }
            // k_msgq_alloc_init
            6 => {
                ctx.cov("zephyr::kernel::k_msgq_alloc_init::entry");
                let cap = arg_int(args, 0).clamp(1, 16) as usize;
                let size = arg_int(args, 1).clamp(1, 64) as u32;
                self.msgqs.push(MsgQueue::new(size, cap));
                InvokeResult::Ok(self.msgqs.len() as u64 - 1)
            }
            // z_impl_k_msgq_put
            7 => match self.msgqs.get_mut(arg_int(args, 0) as usize) {
                Some(q) => match q.put(ctx, "zephyr::kernel::k_msgq_put", arg_bytes(args, 1)) {
                    Ok(()) => InvokeResult::Ok(0),
                    Err(e) => Self::map_ipc(e),
                },
                None => InvokeResult::Err(-3),
            },
            // z_impl_k_msgq_get — bug #2.
            8 => {
                let timeout = arg_int(args, 1);
                ctx.cov_var(
                    "zephyr::kernel::k_msgq_get::timeout_kind",
                    timeout.min(2000),
                );
                let Some(q) = self.msgqs.get_mut(arg_int(args, 0) as usize) else {
                    return InvokeResult::Err(-3);
                };
                // Bug #2: getting with K_FOREVER from a queue that was
                // purged dereferences the freed wait queue — the pending
                // thread pointer was dropped by the purge.
                if timeout == K_FOREVER && q.purged {
                    ctx.cov("zephyr::kernel::k_msgq_get::forever_purged");
                    ctx.klog("E: <err> os: r15/pc: z_impl_k_msgq_get");
                    return InvokeResult::Fault(KernelFault::bug(
                        BugId::B02MsgqGet,
                        FaultKind::Panic,
                        ">>> ZEPHYR FATAL ERROR 4: Kernel panic in z_impl_k_msgq_get",
                        vec!["z_impl_k_msgq_get", "k_msgq_get", "executor"],
                        false,
                    ));
                }
                match q.get(ctx, "zephyr::kernel::k_msgq_get") {
                    Ok(m) => InvokeResult::Ok(m.len() as u64),
                    Err(IpcError::Empty) if timeout == K_FOREVER => {
                        // Would block forever; the agent harness bounds
                        // the wait (syzkaller-style) and reports -EAGAIN.
                        ctx.cov("zephyr::kernel::k_msgq_get::block_forever");
                        ctx.charge(500);
                        InvokeResult::Err(-11)
                    }
                    Err(e) => Self::map_ipc(e),
                }
            }
            // k_msgq_purge
            9 => match self.msgqs.get_mut(arg_int(args, 0) as usize) {
                Some(q) => {
                    q.purge(ctx, "zephyr::kernel::k_msgq_purge");
                    InvokeResult::Ok(0)
                }
                None => InvokeResult::Err(-3),
            },
            // k_heap_init — bug #4.
            10 => {
                ctx.cov("zephyr::kheap::k_heap_init::entry");
                let size = arg_int(args, 0);
                let align = arg_int(args, 1);
                // Argument-shaped edges: every size band and alignment
                // value is its own basic block in the init fast paths.
                ctx.cov_var("zephyr::kheap::k_heap_init::size_band", (size / 16).min(64));
                ctx.cov_var("zephyr::kheap::k_heap_init::small_size", size.min(17));
                ctx.cov_var("zephyr::kheap::k_heap_init::align", align.min(64));
                if align > 0 {
                    ctx.cov("zephyr::kheap::k_heap_init::aligned");
                }
                // Bug #4: a region smaller than one chunk header with
                // the odd sub-word alignment 7 underflows the first-chunk
                // size computation; the init loop then scribbles past the
                // region and locks up.
                if size > 0 && size < 16 && align == 7 {
                    ctx.cov("zephyr::kheap::k_heap_init::underflow");
                    ctx.klog("E: sys_heap: chunk size underflow");
                    return InvokeResult::Fault(KernelFault::bug(
                        BugId::B04KHeapInit,
                        FaultKind::MemFault,
                        ">>> ZEPHYR FATAL ERROR 0: CPU exception in k_heap_init",
                        vec!["k_heap_init", "sys_heap_init", "chunk_set"],
                        true,
                    ));
                }
                if size == 0 {
                    ctx.cov("zephyr::kheap::k_heap_init::zero");
                    return InvokeResult::Err(-22);
                }
                self.kheaps.push(KHeap {
                    heap: FreeListHeap::new(size.min(8192) as u32),
                });
                InvokeResult::Ok(self.kheaps.len() as u64 - 1)
            }
            // k_heap_alloc
            11 => {
                let Some(kh) = self.kheaps.get_mut(arg_int(args, 0) as usize) else {
                    return InvokeResult::Err(-3);
                };
                match kh
                    .heap
                    .alloc(ctx, "zephyr::kheap::k_heap_alloc", arg_int(args, 1) as u32)
                {
                    Ok(h) => {
                        self.live_allocs += 1;
                        InvokeResult::Ok(h as u64)
                    }
                    Err(HeapError::OutOfMemory) => InvokeResult::Err(-12),
                    Err(_) => InvokeResult::Err(-22),
                }
            }
            // k_heap_free
            12 => {
                let Some(kh) = self.kheaps.get_mut(arg_int(args, 0) as usize) else {
                    return InvokeResult::Err(-3);
                };
                match kh
                    .heap
                    .free(ctx, "zephyr::kheap::k_heap_free", arg_int(args, 1) as u32)
                {
                    Ok(()) => {
                        self.live_allocs = self.live_allocs.saturating_sub(1);
                        InvokeResult::Ok(0)
                    }
                    Err(_) => InvokeResult::Err(-22),
                }
            }
            // sys_heap_stress — bug #1.
            13 => {
                ctx.cov("zephyr::heap::sys_heap_stress::entry");
                let ops = arg_int(args, 0).clamp(1, 64);
                let seed = arg_int(args, 1);
                // The stress harness walks a scratch heap; each op band
                // is its own edge so progress is visible to coverage.
                ctx.cov_var("zephyr::heap::sys_heap_stress::band", ops / 8);
                // Bug #1: with live external allocations, a long stress
                // run whose PRNG lands on the rebalance path merges a
                // chunk that is still owned outside the harness.
                if self.live_allocs >= 2 && ops > 48 && seed.is_multiple_of(7) {
                    ctx.cov("zephyr::heap::sys_heap_stress::rebalance_live");
                    ctx.klog("E: sys_heap: assertion failed in rebalance");
                    return InvokeResult::Fault(KernelFault::bug(
                        BugId::B01HeapStress,
                        FaultKind::Panic,
                        ">>> ZEPHYR FATAL ERROR 3: Kernel oops in sys_heap_stress",
                        vec!["sys_heap_stress", "rebalance", "chunk_merge"],
                        false,
                    ));
                }
                InvokeResult::Ok(ops)
            }
            // k_sem_init
            14 => {
                ctx.cov("zephyr::sem::k_sem_init::entry");
                let limit = arg_int(args, 1).clamp(1, 8) as i32;
                let initial = (arg_int(args, 0) as i32).min(limit);
                self.sems.push(Semaphore::new(initial, limit));
                InvokeResult::Ok(self.sems.len() as u64 - 1)
            }
            // k_sem_take
            15 => match self.sems.get_mut(arg_int(args, 0) as usize) {
                Some(s) => match s.try_take(ctx, "zephyr::sem::k_sem_take") {
                    Ok(()) => InvokeResult::Ok(0),
                    Err(e) => Self::map_ipc(e),
                },
                None => InvokeResult::Err(-3),
            },
            // k_sem_give
            16 => match self.sems.get_mut(arg_int(args, 0) as usize) {
                Some(s) => match s.give(ctx, "zephyr::sem::k_sem_give") {
                    Ok(()) => InvokeResult::Ok(0),
                    Err(e) => Self::map_ipc(e),
                },
                None => InvokeResult::Err(-3),
            },
            // json_obj_parse
            17 => match json::parse(ctx, "zephyr::json::parse", arg_bytes(args, 0)) {
                Ok(stats) => InvokeResult::Ok(stats.objects as u64),
                Err(_) => InvokeResult::Err(-22),
            },
            // json_obj_encode — bug #3.
            18 => {
                let depth = arg_int(args, 0) as u32;
                let width = arg_int(args, 1) as u32;
                ctx.cov_var(
                    "zephyr::json::encode::shape",
                    (depth.min(20) * 8 + width.min(7)) as u64,
                );
                // Bug #3: one past the library limit, a three-wide
                // descriptor lands exactly on the encoder's spilled frame
                // and runs off the fixed stack instead of returning
                // -EINVAL. (Other too-deep shapes hit the depth check a
                // frame earlier and error out.)
                if depth == json::MAX_DEPTH + 1 && width == 3 {
                    ctx.cov("zephyr::json::encode::stack_overrun");
                    ctx.klog("E: json: descriptor nesting overflow");
                    return InvokeResult::Fault(KernelFault::bug(
                        BugId::B03JsonEncode,
                        FaultKind::MemFault,
                        ">>> ZEPHYR FATAL ERROR 2: Stack overflow in json_obj_encode",
                        vec!["json_obj_encode", "encode_obj", "encode_obj"],
                        true,
                    ));
                }
                if width == 0 || width > 8 {
                    ctx.cov("zephyr::json::encode::bad_width");
                    return InvokeResult::Err(-22);
                }
                match json::encode(
                    ctx,
                    "zephyr::json::encode",
                    depth.min(json::MAX_DEPTH + 4),
                    width,
                ) {
                    Ok(len) => InvokeResult::Ok(len as u64),
                    Err(_) => InvokeResult::Err(-22),
                }
            }
            // spi_transceive — driver bug #21.
            19 => {
                use eof_hal::mmio::{periph, reg, CTRL_START};
                ctx.cov("zephyr::spi::spi_transceive::entry");
                let tx_len = arg_int(args, 0).min(64);
                let rx_len = arg_int(args, 1).min(64);
                ctx.charge(8 + tx_len + rx_len);
                ctx.bus
                    .mmio_write(periph::SPI, reg::CTRL, CTRL_START | (tx_len << 8));
                let status = ctx.bus.mmio_read(SITE_SPI_STATUS, periph::SPI, reg::STATUS);
                ctx.cov_var(
                    "zephyr::spi::spi_transceive::status_band",
                    (status & 0x7) as u64,
                );
                // Bug #21: a long RX leg with the controller's OVERRUN bit
                // already latched copies one FIFO depth too many into the
                // spi_context RX buffer and corrupts the adjacent struct.
                if rx_len > 32 && status & 0x40 != 0 {
                    ctx.cov("zephyr::spi::spi_transceive::rx_overrun");
                    ctx.klog("E: <err> spi: RX FIFO overrun");
                    return InvokeResult::Fault(KernelFault::bug(
                        BugId::B21SpiRxOverrun,
                        FaultKind::Panic,
                        ">>> ZEPHYR FATAL ERROR 4: Kernel panic in spi_transceive",
                        vec!["spi_transceive", "spi_context_update_rx", "executor"],
                        false,
                    ));
                }
                let mut sum = 0u64;
                for i in 0..rx_len.min(8) as u32 {
                    sum += ctx.bus.mmio_read(SITE_SPI_DATA + i, periph::SPI, reg::DATA) as u64;
                }
                InvokeResult::Ok(sum)
            }
            // i2c_read
            20 => {
                use eof_hal::mmio::{periph, reg, CTRL_START};
                ctx.cov("zephyr::i2c::i2c_read::entry");
                let addr = arg_int(args, 0) & 0x7f;
                let len = arg_int(args, 1).min(32);
                ctx.charge(6 + len);
                ctx.bus
                    .mmio_write(periph::I2C, reg::CTRL, CTRL_START | (addr << 1));
                let status = ctx.bus.mmio_read(SITE_I2C_STATUS, periph::I2C, reg::STATUS);
                if status & 0x1 != 0 {
                    ctx.cov("zephyr::i2c::i2c_read::nack");
                    return InvokeResult::Err(-5);
                }
                // Bug #27: the driver parses a vendor register word inline
                // while draining the FIFO — the tag byte followed by the
                // mode byte (two exact magic bytes back to back in the
                // peripheral's response stream) takes a config path that
                // dereferences a never-initialised transfer descriptor.
                // Neither byte is in the mutation dictionary. The planted
                // trace_cmp hooks expose the rolling 16-bit window to the
                // cmplog ring — stream order equals little-endian operand
                // order, so one positional splice plants both bytes at
                // the exact consumed offsets — plus a per-byte tag
                // compare with a near-miss edge once the tag lands.
                let mut sum = 0u64;
                let mut prev: Option<u64> = None;
                for i in 0..len.min(8) as u32 {
                    let byte = ctx.bus.mmio_read(SITE_I2C_DATA + i, periph::I2C, reg::DATA) as u64;
                    if let Some(prev) = prev {
                        let word = (byte << 8) | prev;
                        ctx.cmp("zephyr::i2c::i2c_read::vendor_word", 16, word, 0xC35A);
                        if word == 0xC35A {
                            return InvokeResult::Fault(KernelFault::bug(
                                BugId::B27I2cMagicSeq,
                                FaultKind::Panic,
                                ">>> ZEPHYR FATAL ERROR 4: Kernel panic in i2c_read",
                                vec!["i2c_read", "i2c_parse_vendor_tag", "executor"],
                                false,
                            ));
                        }
                    }
                    ctx.cmp("zephyr::i2c::i2c_read::tag_magic", 8, byte, 0x5A);
                    if byte == 0x5A {
                        ctx.cov("zephyr::i2c::i2c_read::tag_seen");
                    }
                    prev = Some(byte);
                    sum += byte;
                }
                InvokeResult::Ok(sum)
            }
            // dma_start
            21 => {
                use eof_hal::mmio::{periph, reg, CTRL_START};
                ctx.cov("zephyr::dma::dma_start::entry");
                let chan = arg_int(args, 0) & 0x7;
                let len = arg_int(args, 1).min(65536);
                ctx.charge(10 + len / 64);
                ctx.bus.mmio_write(periph::DMA, reg::SRC, chan);
                ctx.bus.mmio_write(periph::DMA, reg::LEN, len);
                ctx.bus.mmio_write(periph::DMA, reg::CTRL, CTRL_START);
                let status = ctx.bus.mmio_read(SITE_DMA_STATUS, periph::DMA, reg::STATUS);
                ctx.cov_var("zephyr::dma::dma_start::chan_band", (status & 0x3) as u64);
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
    fn bug2_needs_purge_then_forever_get() {
        let mut k = ZephyrKernel::new();
        let mut b = bus();
        let q = ok(call(
            &mut k,
            &mut b,
            "k_msgq_alloc_init",
            &[KArg::Int(4), KArg::Int(16)],
        ));
        // Forever-get on a fresh empty queue: the agent bounds the wait.
        assert_eq!(
            call(
                &mut k,
                &mut b,
                "z_impl_k_msgq_get",
                &[KArg::Int(q), KArg::Int(K_FOREVER)]
            ),
            InvokeResult::Err(-11)
        );
        // Non-forever get on a purged queue is only -EAGAIN.
        ok(call(&mut k, &mut b, "k_msgq_purge", &[KArg::Int(q)]));
        assert!(matches!(
            call(
                &mut k,
                &mut b,
                "z_impl_k_msgq_get",
                &[KArg::Int(q), KArg::Int(10)]
            ),
            InvokeResult::Err(_)
        ));
        // Purge then K_FOREVER get: bug #2.
        ok(call(&mut k, &mut b, "k_msgq_purge", &[KArg::Int(q)]));
        let r = call(
            &mut k,
            &mut b,
            "z_impl_k_msgq_get",
            &[KArg::Int(q), KArg::Int(K_FOREVER)],
        );
        assert!(is_bug(&r, 2));
    }

    #[test]
    fn bug4_needs_tiny_size_and_align_seven() {
        let mut k = ZephyrKernel::new();
        let mut b = bus();
        for (size, align) in [(64, 7), (12, 4), (12, 3), (0, 7), (16, 7)] {
            let r = call(
                &mut k,
                &mut b,
                "k_heap_init",
                &[KArg::Int(size), KArg::Int(align)],
            );
            assert!(!r.is_fault(), "size={size} align={align}");
        }
        let r = call(
            &mut k,
            &mut b,
            "k_heap_init",
            &[KArg::Int(12), KArg::Int(7)],
        );
        assert!(is_bug(&r, 4));
        if let InvokeResult::Fault(f) = r {
            assert!(f.hangs_after);
        }
    }

    #[test]
    fn bug1_needs_live_allocs_long_run_and_seed() {
        let mut k = ZephyrKernel::new();
        let mut b = bus();
        // Without live allocations, nothing happens.
        assert!(!call(
            &mut k,
            &mut b,
            "sys_heap_stress",
            &[KArg::Int(64), KArg::Int(7)]
        )
        .is_fault());
        let h = ok(call(
            &mut k,
            &mut b,
            "k_heap_init",
            &[KArg::Int(4096), KArg::Int(8)],
        ));
        ok(call(
            &mut k,
            &mut b,
            "k_heap_alloc",
            &[KArg::Int(h), KArg::Int(64)],
        ));
        ok(call(
            &mut k,
            &mut b,
            "k_heap_alloc",
            &[KArg::Int(h), KArg::Int(64)],
        ));
        // Wrong seed: safe. Short run: safe.
        assert!(!call(
            &mut k,
            &mut b,
            "sys_heap_stress",
            &[KArg::Int(64), KArg::Int(8)]
        )
        .is_fault());
        assert!(!call(
            &mut k,
            &mut b,
            "sys_heap_stress",
            &[KArg::Int(48), KArg::Int(7)]
        )
        .is_fault());
        let r = call(
            &mut k,
            &mut b,
            "sys_heap_stress",
            &[KArg::Int(64), KArg::Int(7)],
        );
        assert!(is_bug(&r, 1));
    }

    #[test]
    fn bug3_fires_one_past_depth_limit_at_width_three() {
        let mut k = ZephyrKernel::new();
        let mut b = bus();
        // In-range shapes and other too-deep shapes error cleanly.
        assert!(!call(
            &mut k,
            &mut b,
            "json_obj_encode",
            &[KArg::Int(12), KArg::Int(3)]
        )
        .is_fault());
        assert!(!call(
            &mut k,
            &mut b,
            "json_obj_encode",
            &[KArg::Int(13), KArg::Int(2)]
        )
        .is_fault());
        assert!(!call(
            &mut k,
            &mut b,
            "json_obj_encode",
            &[KArg::Int(14), KArg::Int(3)]
        )
        .is_fault());
        let r = call(
            &mut k,
            &mut b,
            "json_obj_encode",
            &[KArg::Int(13), KArg::Int(3)],
        );
        assert!(is_bug(&r, 3));
    }

    #[test]
    fn preemptive_thread_api() {
        let mut k = ZephyrKernel::new();
        let mut b = bus();
        let lo = ok(call(
            &mut k,
            &mut b,
            "k_thread_create",
            &[KArg::Str("lo".into()), KArg::Int(1), KArg::Int(512)],
        ));
        let hi = ok(call(
            &mut k,
            &mut b,
            "k_thread_create",
            &[KArg::Str("hi".into()), KArg::Int(9), KArg::Int(512)],
        ));
        ok(call(&mut k, &mut b, "k_yield", &[]));
        assert_eq!(k.sched.running(), Some(hi as u32));
        ok(call(&mut k, &mut b, "k_thread_abort", &[KArg::Int(hi)]));
        ok(call(&mut k, &mut b, "k_yield", &[]));
        assert_eq!(k.sched.running(), Some(lo as u32));
    }

    #[test]
    fn sem_take_give() {
        let mut k = ZephyrKernel::new();
        let mut b = bus();
        let s = ok(call(
            &mut k,
            &mut b,
            "k_sem_init",
            &[KArg::Int(1), KArg::Int(2)],
        ));
        ok(call(&mut k, &mut b, "k_sem_take", &[KArg::Int(s)]));
        assert!(matches!(
            call(&mut k, &mut b, "k_sem_take", &[KArg::Int(s)]),
            InvokeResult::Err(-11)
        ));
        ok(call(&mut k, &mut b, "k_sem_give", &[KArg::Int(s)]));
    }

    #[test]
    fn gpio_isr_gives_first_semaphore() {
        let mut k = ZephyrKernel::new();
        let mut b = bus();
        let s = ok(call(
            &mut k,
            &mut b,
            "k_sem_init",
            &[KArg::Int(0), KArg::Int(4)],
        ));
        let mut cov = crate::ctx::CovState::uninstrumented();
        {
            let mut ctx = crate::ctx::ExecCtx::new(&mut b, &mut cov);
            k.on_interrupt(&mut ctx, eof_hal::irq::GPIO, &[]);
        }
        // The semaphore is now takable: the ISR→thread handoff worked.
        ok(call(&mut k, &mut b, "k_sem_take", &[KArg::Int(s)]));
    }

    #[test]
    fn serial_rx_isr_feeds_first_msgq() {
        let mut k = ZephyrKernel::new();
        let mut b = bus();
        let q = ok(call(
            &mut k,
            &mut b,
            "k_msgq_alloc_init",
            &[KArg::Int(4), KArg::Int(32)],
        ));
        let mut cov = crate::ctx::CovState::uninstrumented();
        {
            let mut ctx = crate::ctx::ExecCtx::new(&mut b, &mut cov);
            k.on_interrupt(&mut ctx, eof_hal::irq::SERIAL_RX, b"rx-data");
        }
        assert_eq!(
            ok(call(
                &mut k,
                &mut b,
                "z_impl_k_msgq_get",
                &[KArg::Int(q), KArg::Int(0)]
            )),
            7
        );
    }

    #[test]
    fn no_spurious_faults_on_zero_args() {
        let mut k = ZephyrKernel::new();
        let mut b = bus();
        for id in 0..k.api_table().len() as u16 {
            let mut cov = crate::ctx::CovState::uninstrumented();
            let mut ctx = crate::ctx::ExecCtx::new(&mut b, &mut cov);
            let r = k.invoke(&mut ctx, id, &[]);
            assert!(!r.is_fault(), "api {id} faulted with no args");
        }
    }

    #[test]
    fn bug21_needs_long_rx_and_latched_overrun() {
        // Short RX with overrun, long RX on a clean controller: benign.
        for (stream, rx) in [(0x40u8, 32), (0x00, 64)] {
            let mut k = ZephyrKernel::new();
            let mut b = bus();
            b.mmio.load_stream(&[stream]);
            let r = call(
                &mut k,
                &mut b,
                "spi_transceive",
                &[KArg::Int(8), KArg::Int(rx)],
            );
            assert!(!r.is_fault(), "{stream:#x}/{rx}");
        }
        let mut k = ZephyrKernel::new();
        let mut b = bus();
        b.mmio.load_stream(&[0x40]);
        let r = call(
            &mut k,
            &mut b,
            "spi_transceive",
            &[KArg::Int(8), KArg::Int(64)],
        );
        assert!(is_bug(&r, 21), "got {r:?}");
    }

    #[test]
    fn i2c_magic_byte_pair_is_bug27_and_lone_tag_is_not() {
        let mut k = ZephyrKernel::new();
        let mut b = bus();
        // A lone tag byte is a near miss: new coverage, no fault.
        b.mmio.load_stream(&[0x00, 0x5A, 0x00, 0x11]);
        let r = call(&mut k, &mut b, "i2c_read", &[KArg::Int(0x29), KArg::Int(3)]);
        assert!(!r.is_fault(), "got {r:?}");
        // Tag then mode back to back dereferences the bad descriptor.
        let mut k = ZephyrKernel::new();
        let mut b = bus();
        b.mmio.load_stream(&[0x00, 0x11, 0x5A, 0xC3]);
        let r = call(&mut k, &mut b, "i2c_read", &[KArg::Int(0x29), KArg::Int(4)]);
        assert!(is_bug(&r, 27), "got {r:?}");
    }

    #[test]
    fn i2c_and_dma_drivers_complete_with_irqs() {
        let mut k = ZephyrKernel::new();
        let mut b = bus();
        b.mmio.load_stream(&[0x00, 0x11, 0x22]);
        assert_eq!(
            ok(call(
                &mut k,
                &mut b,
                "i2c_read",
                &[KArg::Int(0x29), KArg::Int(2)],
            )),
            0x11 + 0x22
        );
        ok(call(
            &mut k,
            &mut b,
            "dma_start",
            &[KArg::Int(1), KArg::Int(512)],
        ));
        let lines: Vec<u8> = b.pending_irqs.iter().map(|r| r.line).collect();
        assert!(lines.contains(&eof_hal::irq::I2C));
        assert!(lines.contains(&eof_hal::irq::DMA));
    }
}
