//! NuttX kernel model.
//!
//! Personality: a POSIX-compliant surface — `setenv`/`getenv`, clocks,
//! POSIX message queues and semaphores (`nxmq_*`/`nxsem_*` kernel
//! entries), POSIX timers, `task_create`. Hosts six Table-2 bugs
//! (#14–#19).

use crate::api::{ApiDescriptor, InvokeResult, KArg, KernelFault};
use crate::bugs::BugId;
use crate::ctx::ExecCtx;
use crate::kernel::{Kernel, OsKind};
use crate::os::{a_bytes, a_enum, a_int, a_int64, a_res, a_str, arg_bytes, arg_int, arg_str};
use crate::subsys::env::{clockid, EnvError, EnvSubsystem};
use crate::subsys::ipc::{IpcError, Semaphore};
use crate::subsys::mq::{MqError, MqNamespace};
use crate::subsys::sched::{Policy, Scheduler};
use crate::subsys::timer::{TimerError, TimerMode, TimerWheel};
use eof_hal::FaultKind;
use std::sync::LazyLock;

const CLOCK_IDS: &[(&str, u64)] = &[
    ("CLOCK_REALTIME", 0),
    ("CLOCK_MONOTONIC", 1),
    ("CLOCK_BOOTTIME", 7),
];
const SIGEV_KINDS: &[(&str, u64)] = &[("SIGEV_NONE", 0), ("SIGEV_SIGNAL", 1), ("SIGEV_THREAD", 2)];
const MQ_NAMES: &[(&str, u64)] = &[("MQ0", 0), ("MQ1", 1), ("MQ2", 2), ("MQ3", 3)];
const NULLNESS: &[(&str, u64)] = &[("PTR_VALID", 0), ("PTR_NULL", 1)];

/// PC-site ids for the driver layer's MMIO polls (replay keys on them).
const SITE_SPI_STATUS: u32 = 0x4900;
const SITE_SPI_DATA: u32 = 0x4910;
const SITE_I2C_STATUS: u32 = 0x4920;
const SITE_I2C_DATA: u32 = 0x4930;
const SITE_DMA_STATUS: u32 = 0x4940;

fn mq_name_of(v: u64) -> &'static str {
    match v {
        1 => "/mq1",
        2 => "/mq2",
        3 => "/mq3",
        _ => "/mq0",
    }
}

/// A POSIX timer instance.
struct PosixTimer {
    wheel_handle: u32,
}

/// The NuttX model.
pub struct NuttxKernel {
    sched: Scheduler,
    env: EnvSubsystem,
    mq: MqNamespace,
    sems: Vec<Option<Semaphore>>,
    wheel: TimerWheel,
    timers: Vec<PosixTimer>,
    /// Waiter counts of destroyed semaphores (bug #17 gate).
    destroyed_with_waiters: std::collections::HashMap<usize, u32>,
    /// Whether CLOCK_REALTIME has been set since boot (bug #15 gate:
    /// the timezone fast-path only exists after a settime).
    clock_was_set: bool,
}

/// The published API surface. It is the same for every boot, so it is
/// built once per process, not on every (per-test-case) reset.
static API: LazyLock<Vec<ApiDescriptor>> = LazyLock::new(NuttxKernel::build_api);

impl Default for NuttxKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl NuttxKernel {
    /// A freshly booted NuttX.
    pub fn new() -> Self {
        NuttxKernel {
            sched: Scheduler::new(Policy::Preemptive, 16, 31, 31, 256),
            env: EnvSubsystem::new(16),
            mq: MqNamespace::new(4),
            sems: Vec::new(),
            wheel: TimerWheel::new(8),
            timers: Vec::new(),
            destroyed_with_waiters: std::collections::HashMap::new(),
            clock_was_set: false,
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
            "task_create",
            vec![
                a_str("name", 31),
                a_int("priority", 0, 31),
                a_int("stack_size", 256, 8192),
            ],
            Some("task"),
            "task",
            "Create a NuttX task.",
        ));
        v.push(api(
            "task_delete",
            vec![a_res("task", "task")],
            None,
            "task",
            "Delete a task.",
        ));
        v.push(api(
            "setenv",
            vec![
                a_str("name", 16),
                a_str("value", 64),
                a_int("overwrite", 0, 1),
            ],
            None,
            "kernel",
            "Set an environment variable.",
        ));
        v.push(api(
            "getenv",
            vec![a_str("name", 16)],
            None,
            "kernel",
            "Read an environment variable.",
        ));
        v.push(api(
            "unsetenv",
            vec![a_str("name", 16)],
            None,
            "kernel",
            "Remove an environment variable.",
        ));
        v.push(api(
            "gettimeofday",
            vec![
                a_enum("tv", "nullness", NULLNESS),
                a_enum("tz", "nullness", NULLNESS),
            ],
            None,
            "libc",
            "Read the wall clock into tv (tz is obsolete but accepted).",
        ));
        v.push(api(
            "clock_gettime",
            vec![a_enum("clockid", "clock_ids", CLOCK_IDS)],
            None,
            "libc",
            "Read a POSIX clock.",
        ));
        v.push(api(
            "clock_getres",
            vec![
                a_enum("clockid", "clock_ids", CLOCK_IDS),
                a_int("res_align", 0, 7),
            ],
            None,
            "libc",
            "Read a clock's resolution into an aligned timespec.",
        ));
        v.push(api(
            "clock_settime",
            vec![a_int64("usec", 0, u64::MAX / 2)],
            None,
            "libc",
            "Set CLOCK_REALTIME (forward only).",
        ));
        v.push(api(
            "mq_open",
            vec![
                a_enum("name", "mq_names", MQ_NAMES),
                a_int("msg_size", 1, 64),
                a_int("maxmsg", 1, 8),
            ],
            Some("mqd"),
            "mqueue",
            "Open (or create) a named POSIX message queue.",
        ));
        v.push(api(
            "mq_send",
            vec![
                a_res("mqd", "mqd"),
                a_bytes("msg", 64),
                a_int("prio", 0, 31),
            ],
            None,
            "mqueue",
            "Send a message (non-blocking).",
        ));
        v.push(api(
            "nxmq_timedsend",
            vec![
                a_res("mqd", "mqd"),
                a_bytes("msg", 64),
                a_int("prio", 0, 31),
                a_int64("rel_deadline", 0, 10_000),
            ],
            None,
            "mqueue",
            "Send with a deadline relative to now (0 = already expired).",
        ));
        v.push(api(
            "mq_receive",
            vec![a_res("mqd", "mqd")],
            None,
            "mqueue",
            "Receive the highest-priority message.",
        ));
        v.push(api(
            "mq_close",
            vec![a_res("mqd", "mqd")],
            None,
            "mqueue",
            "Close a queue descriptor.",
        ));
        v.push(api(
            "mq_unlink",
            vec![a_enum("name", "mq_names", MQ_NAMES)],
            None,
            "mqueue",
            "Unlink a named queue.",
        ));
        v.push(api(
            "nxsem_init",
            vec![a_int("value", 0, 8)],
            Some("sem"),
            "semaphore",
            "Initialise an unnamed semaphore.",
        ));
        v.push(api(
            "nxsem_wait",
            vec![a_res("sem", "sem")],
            None,
            "semaphore",
            "Wait on a semaphore (records a waiter).",
        ));
        v.push(api(
            "nxsem_trywait",
            vec![a_res("sem", "sem")],
            None,
            "semaphore",
            "Non-blocking wait.",
        ));
        v.push(api(
            "nxsem_post",
            vec![a_res("sem", "sem")],
            None,
            "semaphore",
            "Post a semaphore.",
        ));
        v.push(api(
            "nxsem_destroy",
            vec![a_res("sem", "sem")],
            None,
            "semaphore",
            "Destroy a semaphore.",
        ));
        v.push(api(
            "timer_create",
            vec![
                a_enum("clockid", "clock_ids", CLOCK_IDS),
                a_enum("sigev_notify", "sigev", SIGEV_KINDS),
                a_int("sigev_value", 0, 1000),
            ],
            Some("timerid"),
            "timer",
            "Create a POSIX timer with a notification method and cookie.",
        ));
        v.push(api(
            "timer_settime",
            vec![a_res("timerid", "timerid"), a_int("period_ticks", 0, 1000)],
            None,
            "timer",
            "Arm (period > 0) or disarm (period 0) a timer.",
        ));
        v.push(api(
            "timer_delete",
            vec![a_res("timerid", "timerid")],
            None,
            "timer",
            "Delete a POSIX timer.",
        ));
        v.push(api(
            "sched_tick",
            vec![a_int("n", 1, 10)],
            None,
            "kernel",
            "Advance the system tick.",
        ));
        v.push(api(
            "nx_spi_exchange",
            vec![a_int("tx_len", 0, 64), a_int("rx_len", 0, 64)],
            None,
            "spi",
            "Exchange words on the SPI bus.",
        ));
        v.push(api(
            "nx_i2c_read",
            vec![
                a_int("addr", 0, 127),
                a_int("len", 0, 32),
                a_int("restart", 0, 1),
            ],
            None,
            "i2c",
            "I2C read with an optional repeated-start condition.",
        ));
        v.push(api(
            "nx_dma_setup",
            vec![
                a_int("src", 0, 65535),
                a_int("dst", 0, 65535),
                a_int64("len", 0, 131072),
            ],
            None,
            "dma",
            "Set up and start a DMA transfer descriptor.",
        ));
        v
    }

    fn map_mq(e: MqError) -> InvokeResult {
        InvokeResult::Err(match e {
            MqError::BadName => -2,
            MqError::TooMany => -24,
            MqError::BadDesc => -9,
            MqError::Full => -11,
            MqError::Empty => -11,
            MqError::TimedOut => -110,
            MqError::MsgTooBig => -90,
            MqError::NotFound => -2,
        })
    }
}

impl Kernel for NuttxKernel {
    fn os(&self) -> OsKind {
        OsKind::NuttX
    }

    fn on_interrupt(&mut self, ctx: &mut ExecCtx<'_>, line: u8, payload: &[u8]) -> InvokeResult {
        match line {
            eof_hal::irq::TIMER => {
                ctx.cov("nuttx::isr::tick::entry");
                self.sched.tick(ctx, "nuttx::kernel::tick");
                let fired = self.wheel.advance(ctx, "nuttx::timer::advance", 1);
                if fired > 0 {
                    ctx.cov("nuttx::isr::tick::timer_fired");
                }
                InvokeResult::Ok(self.sched.tick_count())
            }
            eof_hal::irq::GPIO => {
                ctx.cov("nuttx::isr::gpio::entry");
                ctx.charge(3);
                ctx.cov_var(
                    "nuttx::isr::gpio::env_vars",
                    (self.env.len() as u64).min(15),
                );
                InvokeResult::Ok(0)
            }
            eof_hal::irq::SERIAL_RX => {
                ctx.cov("nuttx::isr::uart_rx::entry");
                ctx.charge(3 + payload.len() as u64 / 4);
                InvokeResult::Ok(payload.len() as u64)
            }
            eof_hal::irq::SPI => {
                ctx.cov("nuttx::isr::spi_done::entry");
                ctx.charge(3);
                InvokeResult::Ok(0)
            }
            eof_hal::irq::I2C => {
                ctx.cov("nuttx::isr::i2c_done::entry");
                ctx.charge(3);
                InvokeResult::Ok(0)
            }
            eof_hal::irq::DMA => {
                ctx.cov("nuttx::isr::dma_done::entry");
                ctx.charge(4);
                let len = payload
                    .first_chunk::<4>()
                    .map(|b| u32::from_le_bytes(*b))
                    .unwrap_or(0);
                ctx.cov_var("nuttx::isr::dma_done::len_band", (len as u64 / 64).min(15));
                InvokeResult::Ok(len as u64)
            }
            _ => InvokeResult::Err(-38),
        }
    }

    fn api_table(&self) -> &[ApiDescriptor] {
        &API
    }

    fn exception_symbol(&self) -> &'static str {
        "up_assert"
    }

    fn assert_symbol(&self) -> &'static str {
        "_assert"
    }

    fn total_branch_sites(&self) -> usize {
        crate::image::total_sites(OsKind::NuttX)
    }

    fn boot_banner(&self) -> Vec<String> {
        vec![
            "NuttShell (NSH) NuttX-fc99353".into(),
            "nx_start: Entry".into(),
        ]
    }

    fn reset(&mut self, _ctx: &mut ExecCtx<'_>) {
        *self = Self::new();
    }

    fn invoke(&mut self, ctx: &mut ExecCtx<'_>, api_id: u16, args: &[KArg]) -> InvokeResult {
        match api_id {
            // task_create
            0 => match self.sched.create(
                ctx,
                "nuttx::task::task_create",
                arg_str(args, 0),
                arg_int(args, 1) as u8,
                arg_int(args, 2) as u32,
            ) {
                Ok(h) => InvokeResult::Ok(h as u64),
                Err(_) => InvokeResult::Err(-22),
            },
            // task_delete
            1 => match self
                .sched
                .delete(ctx, "nuttx::task::task_delete", arg_int(args, 0) as u32)
            {
                Ok(()) => InvokeResult::Ok(0),
                Err(_) => InvokeResult::Err(-3),
            },
            // setenv — bug #14.
            2 => {
                let name = arg_str(args, 0).to_string();
                let value = arg_str(args, 1).to_string();
                let overwrite = arg_int(args, 2) != 0;
                // Bug #14: the no-overwrite path reuses the *existing*
                // entry's buffer for a comparison but with the *new*
                // value's length — a long value overreads the old buffer,
                // and only when the first characters collide does the
                // strncmp word loop run far enough to fault.
                let existing = {
                    let mut probe_cov = crate::ctx::CovState::silent_probe();
                    let mut probe = ExecCtx::new(ctx.bus, &mut probe_cov);
                    self.env.getenv(&mut probe, "nuttx::kernel::getenv", &name)
                };
                let exists = existing.is_some();
                if exists && !overwrite {
                    // Breadcrumb ladder: the no-overwrite comparison is
                    // chunked by value length (strncmp word loop) and the
                    // entry lookup is keyed by name length.
                    ctx.cov_var(
                        "nuttx::kernel::setenv::cmp_len",
                        (value.len() as u64).min(64),
                    );
                    ctx.cov_var(
                        "nuttx::kernel::setenv::name_len",
                        (name.len() as u64).min(16),
                    );
                    let first_match = existing
                        .as_deref()
                        .and_then(|e| e.bytes().next())
                        .zip(value.bytes().next())
                        .is_some_and(|(a, b)| a == b);
                    if first_match {
                        ctx.cov("nuttx::kernel::setenv::cmp_word_entered");
                    }
                    if first_match && value.len() == 47 && name.len() <= 2 {
                        ctx.cov("nuttx::kernel::setenv::dup_long_value");
                        ctx.klog("up_assert: Assertion failed at env_setenv");
                        return InvokeResult::Fault(KernelFault::bug(
                            BugId::B14Setenv,
                            FaultKind::MemFault,
                            "PANIC: buffer overread in setenv",
                            vec!["setenv", "env_setenv", "strncmp"],
                            false,
                        ));
                    }
                }
                match self
                    .env
                    .setenv(ctx, "nuttx::kernel::setenv", &name, &value, overwrite)
                {
                    Ok(()) => InvokeResult::Ok(0),
                    Err(EnvError::BadName) => InvokeResult::Err(-22),
                    Err(EnvError::Full) => InvokeResult::Err(-12),
                    Err(_) => InvokeResult::Err(-1),
                }
            }
            // getenv
            3 => match self
                .env
                .getenv(ctx, "nuttx::kernel::getenv", arg_str(args, 0))
            {
                Some(v) => InvokeResult::Ok(v.len() as u64),
                None => InvokeResult::Err(-2),
            },
            // unsetenv
            4 => match self
                .env
                .unsetenv(ctx, "nuttx::kernel::unsetenv", arg_str(args, 0))
            {
                Ok(()) => InvokeResult::Ok(0),
                Err(_) => InvokeResult::Err(-2),
            },
            // gettimeofday — bug #15.
            5 => {
                ctx.cov("nuttx::libc::gettimeofday::entry");
                let tv_null = arg_int(args, 0) == 1;
                let tz_null = arg_int(args, 1) == 1;
                // Bug #15: once the realtime clock has been set, the
                // settime fast-path caches a tz conversion — a NULL tv
                // with a live tz then writes the cached timezone through
                // the tv pointer.
                if self.clock_was_set && tv_null && !tz_null {
                    ctx.cov("nuttx::libc::gettimeofday::null_tv_live_tz");
                    ctx.klog("up_assert: NULL pointer write in gettimeofday");
                    return InvokeResult::Fault(KernelFault::bug(
                        BugId::B15Gettimeofday,
                        FaultKind::MemFault,
                        "PANIC: NULL dereference in gettimeofday",
                        vec!["gettimeofday", "clock_gettime", "up_assert"],
                        true,
                    ));
                }
                if tv_null {
                    ctx.cov("nuttx::libc::gettimeofday::null_tv");
                    return InvokeResult::Err(-22);
                }
                match self.env.clock_gettime_us(
                    ctx,
                    "nuttx::libc::clock_gettime",
                    clockid::REALTIME,
                ) {
                    Ok(us) => InvokeResult::Ok(us),
                    Err(_) => InvokeResult::Err(-22),
                }
            }
            // clock_gettime
            6 => {
                match self
                    .env
                    .clock_gettime_us(ctx, "nuttx::libc::clock_gettime", arg_int(args, 0))
                {
                    Ok(us) => InvokeResult::Ok(us),
                    Err(_) => InvokeResult::Err(-22),
                }
            }
            // clock_getres — bug #19.
            7 => {
                let clock = arg_int(args, 0);
                let align = arg_int(args, 1);
                ctx.cov_var(
                    "nuttx::libc::clock_getres::clock_align",
                    clock.min(15) * 8 + align.min(7),
                );
                // Bug #19: the BOOTTIME branch stores the 64-bit
                // resolution with a doubleword store that traps on a
                // misaligned timespec.
                if clock == clockid::BOOTTIME && !align.is_multiple_of(4) {
                    ctx.cov("nuttx::libc::clock_getres::boottime_misaligned");
                    ctx.klog("up_assert: Unaligned access in clock_getres");
                    return InvokeResult::Fault(KernelFault::bug(
                        BugId::B19ClockGetres,
                        FaultKind::MemFault,
                        "PANIC: unaligned doubleword store in clock_getres",
                        vec!["clock_getres", "up_assert"],
                        false,
                    ));
                }
                match self
                    .env
                    .clock_getres_ns(ctx, "nuttx::libc::clock_getres", clock)
                {
                    Ok(ns) => InvokeResult::Ok(ns),
                    Err(_) => InvokeResult::Err(-22),
                }
            }
            // clock_settime
            8 => {
                match self
                    .env
                    .clock_settime_us(ctx, "nuttx::libc::clock_settime", arg_int(args, 0))
                {
                    Ok(()) => {
                        self.clock_was_set = true;
                        InvokeResult::Ok(0)
                    }
                    Err(EnvError::TimeRollback) => InvokeResult::Err(-22),
                    Err(_) => InvokeResult::Err(-1),
                }
            }
            // mq_open
            9 => {
                let name = mq_name_of(arg_int(args, 0));
                match self.mq.open(
                    ctx,
                    "nuttx::mqueue::mq_open",
                    name,
                    arg_int(args, 1) as u32,
                    arg_int(args, 2) as usize,
                ) {
                    Ok(d) => InvokeResult::Ok(d as u64),
                    Err(e) => Self::map_mq(e),
                }
            }
            // mq_send
            10 => match self.mq.send(
                ctx,
                "nuttx::mqueue::mq_send",
                arg_int(args, 0) as u32,
                arg_bytes(args, 1),
                arg_int(args, 2) as u8,
            ) {
                Ok(()) => InvokeResult::Ok(0),
                Err(e) => Self::map_mq(e),
            },
            // nxmq_timedsend — bug #16.
            11 => {
                let desc = arg_int(args, 0) as u32;
                let prio = arg_int(args, 1 + 1) as u8;
                let rel = arg_int(args, 3);
                // Breadcrumb ladder: the full-queue wait path sorts the
                // would-be waiter by priority, one comparison chain each.
                if self.mq.is_full(desc) && rel == 0 {
                    ctx.cov_var("nuttx::mqueue::nxmq_timedsend::wait_prio", prio as u64);
                }
                if self.mq.is_full(desc) && rel == 0 {
                    ctx.cov_var(
                        "nuttx::mqueue::nxmq_timedsend::inline_len",
                        (arg_bytes(args, 1).len() as u64).min(16),
                    );
                }
                // Bug #16: on a full queue with an already-expired
                // deadline, priority 27 aliases the reserved IRQ-waiter
                // slot — and only a message short enough for the inline
                // waiter record (≤ 4 bytes) takes that path — so the
                // expiry frees a record it never allocated.
                if self.mq.is_full(desc) && rel == 0 && prio == 27 && arg_bytes(args, 1).len() <= 4
                {
                    ctx.cov("nuttx::mqueue::nxmq_timedsend::expired_highprio");
                    ctx.klog("up_assert: double free in nxmq_timedsend");
                    return InvokeResult::Fault(KernelFault::bug(
                        BugId::B16MqTimedsend,
                        FaultKind::MemFault,
                        "PANIC: waiter record double-free in nxmq_timedsend",
                        vec!["nxmq_timedsend", "nxmq_wait_send", "mq_desfree"],
                        false,
                    ));
                }
                // `rel` is attacker-controlled; clamp far-future
                // deadlines instead of overflowing the tick counter.
                let deadline = ctx.bus.core_now().saturating_add(rel);
                match self.mq.timedsend(
                    ctx,
                    "nuttx::mqueue::nxmq_timedsend",
                    desc,
                    arg_bytes(args, 1),
                    prio,
                    deadline.saturating_sub(if rel == 0 { 1 } else { 0 }),
                ) {
                    Ok(()) => InvokeResult::Ok(0),
                    Err(e) => Self::map_mq(e),
                }
            }
            // mq_receive
            12 => match self
                .mq
                .receive(ctx, "nuttx::mqueue::mq_receive", arg_int(args, 0) as u32)
            {
                Ok((prio, _)) => InvokeResult::Ok(prio as u64),
                Err(e) => Self::map_mq(e),
            },
            // mq_close
            13 => match self
                .mq
                .close(ctx, "nuttx::mqueue::mq_close", arg_int(args, 0) as u32)
            {
                Ok(()) => InvokeResult::Ok(0),
                Err(e) => Self::map_mq(e),
            },
            // mq_unlink
            14 => match self.mq.unlink(
                ctx,
                "nuttx::mqueue::mq_unlink",
                mq_name_of(arg_int(args, 0)),
            ) {
                Ok(()) => InvokeResult::Ok(0),
                Err(e) => Self::map_mq(e),
            },
            // nxsem_init
            15 => {
                ctx.cov("nuttx::semaphore::nxsem_init::entry");
                let value = arg_int(args, 0).min(8) as i32;
                self.sems.push(Some(Semaphore::new(value, 8)));
                InvokeResult::Ok(self.sems.len() as u64 - 1)
            }
            // nxsem_wait
            16 => match self.sems.get_mut(arg_int(args, 0) as usize) {
                Some(Some(s)) => {
                    if s.count() > 0 {
                        let _ = s.try_take(ctx, "nuttx::semaphore::nxsem_wait");
                    } else {
                        s.take_blocking(ctx, "nuttx::semaphore::nxsem_wait");
                    }
                    InvokeResult::Ok(0)
                }
                _ => InvokeResult::Err(-22),
            },
            // nxsem_trywait — bug #17.
            17 => {
                let h = arg_int(args, 0) as usize;
                match self.sems.get_mut(h) {
                    Some(Some(s)) => match s.try_take(ctx, "nuttx::semaphore::nxsem_trywait") {
                        Ok(()) => InvokeResult::Ok(0),
                        Err(IpcError::WouldBlock) => InvokeResult::Err(-11),
                        Err(_) => InvokeResult::Err(-22),
                    },
                    Some(None) => {
                        // Destroyed. The count survived destruction; the
                        // trywait DEBUGASSERT on the wait list only fires
                        // when at least three waiters were recorded —
                        // fewer still fit the inline slots.
                        ctx.cov("nuttx::semaphore::nxsem_trywait::destroyed");
                        if let Some(waiters) = self.destroyed_with_waiters.get(&h).copied() {
                            ctx.cov_var(
                                "nuttx::semaphore::nxsem_trywait::waitlist",
                                waiters.min(7) as u64,
                            );
                            if waiters >= 3 {
                                ctx.klog("_assert: sem->semcount < 0 with empty waitlist in nxsem_trywait");
                                return InvokeResult::Fault(KernelFault::bug(
                                    BugId::B17SemTrywait,
                                    FaultKind::Assertion,
                                    "Assertion failed: waitlist consistency in nxsem_trywait",
                                    vec!["nxsem_trywait", "nxsem_wait_irq", "_assert"],
                                    true,
                                ));
                            }
                        }
                        InvokeResult::Err(-22)
                    }
                    None => InvokeResult::Err(-22),
                }
            }
            // nxsem_post
            18 => match self.sems.get_mut(arg_int(args, 0) as usize) {
                Some(Some(s)) => match s.give(ctx, "nuttx::semaphore::nxsem_post") {
                    Ok(()) => InvokeResult::Ok(0),
                    Err(_) => InvokeResult::Err(-12),
                },
                _ => InvokeResult::Err(-22),
            },
            // nxsem_destroy
            19 => {
                ctx.cov("nuttx::semaphore::nxsem_destroy::entry");
                let h = arg_int(args, 0) as usize;
                match self.sems.get_mut(h) {
                    Some(slot @ Some(_)) => {
                        let waiters = slot.as_ref().map(|s| s.waiters).unwrap_or(0);
                        self.destroyed_with_waiters.insert(h, waiters);
                        *slot = None;
                        InvokeResult::Ok(0)
                    }
                    _ => InvokeResult::Err(-22),
                }
            }
            // timer_create — bug #18.
            20 => {
                let clock = arg_int(args, 0);
                let notify = arg_int(args, 1);
                let cookie = arg_int(args, 2);
                ctx.cov_var("nuttx::timer::timer_create::notify", notify.min(7));
                ctx.cov_var(
                    "nuttx::timer::timer_create::cookie_band",
                    (cookie / 64).min(31),
                );
                // Bug #18: SIGEV_THREAD on the monotonic clock with a
                // large 16-aligned cookie lands the notification work
                // item in the wrong pool; the create itself scribbles the
                // pool header.
                if clock == clockid::MONOTONIC
                    && notify == 2
                    && cookie >= 500
                    && cookie.is_multiple_of(16)
                {
                    ctx.cov("nuttx::timer::timer_create::monotonic_thread");
                    ctx.klog("up_assert: work queue pool corrupt in timer_create");
                    return InvokeResult::Fault(KernelFault::bug(
                        BugId::B18TimerCreate,
                        FaultKind::MemFault,
                        "PANIC: wrong-pool allocation in timer_create",
                        vec!["timer_create", "timer_allocate", "work_queue"],
                        true,
                    ));
                }
                match self
                    .wheel
                    .create(ctx, "nuttx::timer::timer_create", 10, TimerMode::Periodic)
                {
                    Ok(h) => {
                        // Silicon-only: the hardware timer's prescaler is
                        // programmed per cookie band.
                        if ctx.bus.silicon {
                            ctx.cov_var("nuttx::hwtimer::prescaler", (cookie / 32).min(15));
                        }
                        self.timers.push(PosixTimer { wheel_handle: h });
                        InvokeResult::Ok(self.timers.len() as u64 - 1)
                    }
                    Err(_) => InvokeResult::Err(-12),
                }
            }
            // timer_settime
            21 => {
                let Some(t) = self.timers.get(arg_int(args, 0) as usize) else {
                    return InvokeResult::Err(-22);
                };
                let wh = t.wheel_handle;
                let period = arg_int(args, 1);
                let r = if period == 0 {
                    self.wheel.stop(ctx, "nuttx::timer::timer_settime", wh)
                } else {
                    self.wheel.start(ctx, "nuttx::timer::timer_settime", wh)
                };
                match r {
                    Ok(()) => InvokeResult::Ok(0),
                    Err(TimerError::BadHandle) => InvokeResult::Err(-22),
                    Err(_) => InvokeResult::Err(-1),
                }
            }
            // timer_delete
            22 => {
                let Some(t) = self.timers.get(arg_int(args, 0) as usize) else {
                    return InvokeResult::Err(-22);
                };
                let wh = t.wheel_handle;
                match self.wheel.delete(ctx, "nuttx::timer::timer_delete", wh) {
                    Ok(()) => InvokeResult::Ok(0),
                    Err(_) => InvokeResult::Err(-22),
                }
            }
            // sched_tick
            23 => {
                let n = arg_int(args, 0).clamp(1, 10);
                for _ in 0..n {
                    self.sched.tick(ctx, "nuttx::kernel::tick");
                }
                self.wheel.advance(ctx, "nuttx::timer::advance", n);
                InvokeResult::Ok(self.sched.tick_count())
            }
            // nx_spi_exchange
            24 => {
                use eof_hal::mmio::{periph, reg, CTRL_START};
                ctx.cov("nuttx::spi::nx_spi_exchange::entry");
                let tx_len = arg_int(args, 0).min(64);
                let rx_len = arg_int(args, 1).min(64);
                ctx.charge(8 + tx_len + rx_len);
                ctx.bus
                    .mmio_write(periph::SPI, reg::CTRL, CTRL_START | (tx_len << 8));
                let status = ctx.bus.mmio_read(SITE_SPI_STATUS, periph::SPI, reg::STATUS);
                ctx.cov_var(
                    "nuttx::spi::nx_spi_exchange::status_band",
                    (status & 0x7) as u64,
                );
                let mut sum = 0u64;
                for i in 0..rx_len.min(8) as u32 {
                    sum += ctx.bus.mmio_read(SITE_SPI_DATA + i, periph::SPI, reg::DATA) as u64;
                }
                InvokeResult::Ok(sum)
            }
            // nx_i2c_read — bug #25.
            25 => {
                use eof_hal::mmio::{periph, reg, CTRL_START};
                ctx.cov("nuttx::i2c::nx_i2c_read::entry");
                let addr = arg_int(args, 0) & 0x7f;
                let len = arg_int(args, 1).min(32);
                let restart = arg_int(args, 2) != 0;
                ctx.charge(6 + len);
                if restart {
                    ctx.cov("nuttx::i2c::nx_i2c_read::restart");
                }
                ctx.bus
                    .mmio_write(periph::I2C, reg::CTRL, CTRL_START | (addr << 1));
                let status = ctx.bus.mmio_read(SITE_I2C_STATUS, periph::I2C, reg::STATUS);
                if status & 0x1 != 0 {
                    ctx.cov("nuttx::i2c::nx_i2c_read::nack");
                    // Bug #25: a NACK while a repeated-start is pending
                    // leaves the bus state machine mid-transaction; the
                    // recovery DEBUGASSERT on the controller state trips
                    // and the bus is wedged afterwards.
                    if restart {
                        ctx.klog("_assert: i2c state machine stuck in nx_i2c_read");
                        return InvokeResult::Fault(KernelFault::bug(
                            BugId::B25I2cNackRestart,
                            FaultKind::Assertion,
                            "Assertion failed: pending restart after NACK in nx_i2c_read",
                            vec!["nx_i2c_read", "i2c_sem_waitdone", "_assert"],
                            true,
                        ));
                    }
                    return InvokeResult::Err(-5);
                }
                let mut sum = 0u64;
                for i in 0..len.min(8) as u32 {
                    sum += ctx.bus.mmio_read(SITE_I2C_DATA + i, periph::I2C, reg::DATA) as u64;
                }
                InvokeResult::Ok(sum)
            }
            // nx_dma_setup — bug #24.
            26 => {
                use eof_hal::mmio::{periph, reg, CTRL_START};
                ctx.cov("nuttx::dma::nx_dma_setup::entry");
                let src = arg_int(args, 0);
                let dst = arg_int(args, 1);
                let len = arg_int(args, 2).min(131072);
                ctx.charge(10 + len / 64);
                ctx.bus.mmio_write(periph::DMA, reg::SRC, src);
                ctx.bus.mmio_write(periph::DMA, reg::DST, dst);
                // The register write keeps the full length; the *driver's*
                // shadow copy below is what bug #24 truncates.
                ctx.bus.mmio_write(periph::DMA, reg::LEN, len);
                ctx.bus.mmio_write(periph::DMA, reg::CTRL, CTRL_START);
                let status = ctx.bus.mmio_read(SITE_DMA_STATUS, periph::DMA, reg::STATUS);
                ctx.cov_var("nuttx::dma::nx_dma_setup::chan_band", (status & 0x3) as u64);
                // Bug #24: the driver stores the length in a uint16_t
                // shadow field. Past 65535 the shadow wraps; when the
                // engine then signals a half-complete (bit 0x4) the
                // residue computation underflows and the cleanup walks
                // past the buffer.
                if len > 65535 && status & 0x4 != 0 {
                    ctx.cov("nuttx::dma::nx_dma_setup::len_wrap");
                    ctx.klog("up_assert: residue underflow in nx_dma_setup");
                    return InvokeResult::Fault(KernelFault::bug(
                        BugId::B24DmaLenTruncation,
                        FaultKind::Panic,
                        "PANIC: 16-bit length truncation in nx_dma_setup",
                        vec!["nx_dma_setup", "dma_residue", "up_assert"],
                        false,
                    ));
                }
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
    fn bug14_needs_colliding_first_char_short_name_47_bytes() {
        let mut k = NuttxKernel::new();
        let mut b = bus();
        let v47 = "v".repeat(47);
        // Fresh name: fine.
        ok(call(
            &mut k,
            &mut b,
            "setenv",
            &[KArg::Str("A".into()), KArg::Str(v47.clone()), KArg::Int(0)],
        ));
        // Existing + overwrite: fine.
        ok(call(
            &mut k,
            &mut b,
            "setenv",
            &[KArg::Str("A".into()), KArg::Str(v47.clone()), KArg::Int(1)],
        ));
        // No-overwrite, first chars differ: strncmp exits early.
        ok(call(
            &mut k,
            &mut b,
            "setenv",
            &[
                KArg::Str("A".into()),
                KArg::Str(format!("w{}", "v".repeat(46))),
                KArg::Int(0),
            ],
        ));
        // Colliding first char but near-miss lengths: fine.
        ok(call(
            &mut k,
            &mut b,
            "setenv",
            &[
                KArg::Str("A".into()),
                KArg::Str("v".repeat(46)),
                KArg::Int(0),
            ],
        ));
        ok(call(
            &mut k,
            &mut b,
            "setenv",
            &[
                KArg::Str("A".into()),
                KArg::Str("v".repeat(48)),
                KArg::Int(0),
            ],
        ));
        // Long name: fine.
        ok(call(
            &mut k,
            &mut b,
            "setenv",
            &[
                KArg::Str("LONGNAME".into()),
                KArg::Str(v47.clone()),
                KArg::Int(0),
            ],
        ));
        ok(call(
            &mut k,
            &mut b,
            "setenv",
            &[
                KArg::Str("LONGNAME".into()),
                KArg::Str(v47.clone()),
                KArg::Int(0),
            ],
        ));
        // Colliding first char + 47 bytes + short name: panic.
        let r = call(
            &mut k,
            &mut b,
            "setenv",
            &[KArg::Str("A".into()), KArg::Str(v47), KArg::Int(0)],
        );
        assert!(is_bug(&r, 14));
    }

    #[test]
    fn bug15_needs_settime_then_null_tv_live_tz() {
        let mut k = NuttxKernel::new();
        let mut b = bus();
        assert!(
            ok(call(
                &mut k,
                &mut b,
                "gettimeofday",
                &[KArg::Int(0), KArg::Int(0)]
            )) > 0
        );
        // Before any settime, the NULL-tv path is only EINVAL.
        assert!(matches!(
            call(
                &mut k,
                &mut b,
                "gettimeofday",
                &[KArg::Int(1), KArg::Int(0)]
            ),
            InvokeResult::Err(-22)
        ));
        // Set the clock far forward, then the combination faults.
        ok(call(
            &mut k,
            &mut b,
            "clock_settime",
            &[KArg::Int(u64::MAX / 4)],
        ));
        assert!(!call(
            &mut k,
            &mut b,
            "gettimeofday",
            &[KArg::Int(0), KArg::Int(1)]
        )
        .is_fault());
        assert!(matches!(
            call(
                &mut k,
                &mut b,
                "gettimeofday",
                &[KArg::Int(1), KArg::Int(1)]
            ),
            InvokeResult::Err(-22)
        ));
        let r = call(
            &mut k,
            &mut b,
            "gettimeofday",
            &[KArg::Int(1), KArg::Int(0)],
        );
        assert!(is_bug(&r, 15));
    }

    #[test]
    fn bug16_full_queue_expired_deadline_high_prio() {
        let mut k = NuttxKernel::new();
        let mut b = bus();
        let d = ok(call(
            &mut k,
            &mut b,
            "mq_open",
            &[KArg::Int(0), KArg::Int(16), KArg::Int(2)],
        ));
        ok(call(
            &mut k,
            &mut b,
            "mq_send",
            &[KArg::Int(d), KArg::Bytes(vec![1]), KArg::Int(1)],
        ));
        ok(call(
            &mut k,
            &mut b,
            "mq_send",
            &[KArg::Int(d), KArg::Bytes(vec![2]), KArg::Int(1)],
        ));
        // Full + expired + near-miss priorities: plain ETIMEDOUT.
        for prio in [5u64, 26, 28] {
            assert!(matches!(
                call(
                    &mut k,
                    &mut b,
                    "nxmq_timedsend",
                    &[
                        KArg::Int(d),
                        KArg::Bytes(vec![3]),
                        KArg::Int(prio),
                        KArg::Int(0)
                    ]
                ),
                InvokeResult::Err(-110)
            ));
        }
        // Full + expired + prio 27 but an over-long message: ETIMEDOUT.
        assert!(matches!(
            call(
                &mut k,
                &mut b,
                "nxmq_timedsend",
                &[
                    KArg::Int(d),
                    KArg::Bytes(vec![9; 8]),
                    KArg::Int(27),
                    KArg::Int(0)
                ]
            ),
            InvokeResult::Err(-110)
        ));
        // Not-full + expired + the magic prio: sends fine.
        ok(call(&mut k, &mut b, "mq_receive", &[KArg::Int(d)]));
        ok(call(
            &mut k,
            &mut b,
            "nxmq_timedsend",
            &[
                KArg::Int(d),
                KArg::Bytes(vec![4]),
                KArg::Int(27),
                KArg::Int(0),
            ],
        ));
        // Full + expired + priority 27 + inline-sized message: panic.
        let r = call(
            &mut k,
            &mut b,
            "nxmq_timedsend",
            &[
                KArg::Int(d),
                KArg::Bytes(vec![5]),
                KArg::Int(27),
                KArg::Int(0),
            ],
        );
        assert!(is_bug(&r, 16));
    }

    #[test]
    fn bug17_trywait_on_sem_destroyed_with_waiters() {
        let mut k = NuttxKernel::new();
        let mut b = bus();
        let s = ok(call(&mut k, &mut b, "nxsem_init", &[KArg::Int(0)]));
        // Destroy without waiters → trywait is only EINVAL.
        ok(call(&mut k, &mut b, "nxsem_destroy", &[KArg::Int(s)]));
        assert!(matches!(
            call(&mut k, &mut b, "nxsem_trywait", &[KArg::Int(s)]),
            InvokeResult::Err(-22)
        ));
        // Two recorded waiters: still only EINVAL (breadcrumb).
        let s1 = ok(call(&mut k, &mut b, "nxsem_init", &[KArg::Int(0)]));
        ok(call(&mut k, &mut b, "nxsem_wait", &[KArg::Int(s1)]));
        ok(call(&mut k, &mut b, "nxsem_wait", &[KArg::Int(s1)]));
        ok(call(&mut k, &mut b, "nxsem_destroy", &[KArg::Int(s1)]));
        assert!(matches!(
            call(&mut k, &mut b, "nxsem_trywait", &[KArg::Int(s1)]),
            InvokeResult::Err(-22)
        ));
        // Three recorded waiters overflow the inline slots: assert fires.
        let s2 = ok(call(&mut k, &mut b, "nxsem_init", &[KArg::Int(0)]));
        ok(call(&mut k, &mut b, "nxsem_wait", &[KArg::Int(s2)]));
        ok(call(&mut k, &mut b, "nxsem_wait", &[KArg::Int(s2)]));
        ok(call(&mut k, &mut b, "nxsem_wait", &[KArg::Int(s2)]));
        ok(call(&mut k, &mut b, "nxsem_destroy", &[KArg::Int(s2)]));
        let r = call(&mut k, &mut b, "nxsem_trywait", &[KArg::Int(s2)]);
        assert!(is_bug(&r, 17));
    }

    #[test]
    fn bug18_monotonic_sigev_thread_large_aligned_cookie() {
        let mut k = NuttxKernel::new();
        let mut b = bus();
        for (clock, notify, cookie) in [
            (0, 2, 512),
            (1, 1, 512),
            (1, 2, 500),
            (1, 2, 100),
            (1, 2, 513),
        ] {
            let r = call(
                &mut k,
                &mut b,
                "timer_create",
                &[KArg::Int(clock), KArg::Int(notify), KArg::Int(cookie)],
            );
            assert!(
                !r.is_fault(),
                "clock={clock} notify={notify} cookie={cookie}"
            );
        }
        let r = call(
            &mut k,
            &mut b,
            "timer_create",
            &[KArg::Int(1), KArg::Int(2), KArg::Int(512)],
        );
        assert!(is_bug(&r, 18));
    }

    #[test]
    fn bug19_boottime_misaligned() {
        let mut k = NuttxKernel::new();
        let mut b = bus();
        assert!(!call(
            &mut k,
            &mut b,
            "clock_getres",
            &[KArg::Int(7), KArg::Int(4)]
        )
        .is_fault());
        assert!(!call(
            &mut k,
            &mut b,
            "clock_getres",
            &[KArg::Int(0), KArg::Int(3)]
        )
        .is_fault());
        let r = call(
            &mut k,
            &mut b,
            "clock_getres",
            &[KArg::Int(7), KArg::Int(3)],
        );
        assert!(is_bug(&r, 19));
    }

    #[test]
    fn env_roundtrip_through_api() {
        let mut k = NuttxKernel::new();
        let mut b = bus();
        ok(call(
            &mut k,
            &mut b,
            "setenv",
            &[
                KArg::Str("HOME".into()),
                KArg::Str("/root".into()),
                KArg::Int(1),
            ],
        ));
        assert_eq!(
            ok(call(&mut k, &mut b, "getenv", &[KArg::Str("HOME".into())])),
            5
        );
        ok(call(
            &mut k,
            &mut b,
            "unsetenv",
            &[KArg::Str("HOME".into())],
        ));
        assert!(matches!(
            call(&mut k, &mut b, "getenv", &[KArg::Str("HOME".into())]),
            InvokeResult::Err(-2)
        ));
    }

    #[test]
    fn mq_priority_through_api() {
        let mut k = NuttxKernel::new();
        let mut b = bus();
        let d = ok(call(
            &mut k,
            &mut b,
            "mq_open",
            &[KArg::Int(1), KArg::Int(16), KArg::Int(4)],
        ));
        ok(call(
            &mut k,
            &mut b,
            "mq_send",
            &[KArg::Int(d), KArg::Bytes(vec![1]), KArg::Int(2)],
        ));
        ok(call(
            &mut k,
            &mut b,
            "mq_send",
            &[KArg::Int(d), KArg::Bytes(vec![2]), KArg::Int(9)],
        ));
        assert_eq!(ok(call(&mut k, &mut b, "mq_receive", &[KArg::Int(d)])), 9);
    }

    #[test]
    fn timer_lifecycle() {
        let mut k = NuttxKernel::new();
        let mut b = bus();
        let t = ok(call(
            &mut k,
            &mut b,
            "timer_create",
            &[KArg::Int(0), KArg::Int(1), KArg::Int(0)],
        ));
        ok(call(
            &mut k,
            &mut b,
            "timer_settime",
            &[KArg::Int(t), KArg::Int(5)],
        ));
        ok(call(&mut k, &mut b, "sched_tick", &[KArg::Int(10)]));
        ok(call(
            &mut k,
            &mut b,
            "timer_settime",
            &[KArg::Int(t), KArg::Int(0)],
        ));
        ok(call(&mut k, &mut b, "timer_delete", &[KArg::Int(t)]));
    }

    #[test]
    fn no_spurious_faults_on_zero_args() {
        let mut k = NuttxKernel::new();
        let mut b = bus();
        for id in 0..k.api_table().len() as u16 {
            let mut cov = crate::ctx::CovState::uninstrumented();
            let mut ctx = crate::ctx::ExecCtx::new(&mut b, &mut cov);
            let r = k.invoke(&mut ctx, id, &[]);
            assert!(!r.is_fault(), "api {id} faulted with no args: {r:?}");
        }
    }

    #[test]
    fn bug24_needs_oversize_len_and_half_complete() {
        // Oversize length on a quiet engine, in-range length with the
        // half-complete bit: both benign.
        for (stream, len) in [(0x00u8, 100_000u64), (0x04, 65_535)] {
            let mut k = NuttxKernel::new();
            let mut b = bus();
            b.mmio.load_stream(&[stream]);
            let r = call(
                &mut k,
                &mut b,
                "nx_dma_setup",
                &[KArg::Int(0x10), KArg::Int(0x20), KArg::Int(len)],
            );
            assert!(!r.is_fault(), "{stream:#x}/{len}");
        }
        let mut k = NuttxKernel::new();
        let mut b = bus();
        b.mmio.load_stream(&[0x04]);
        let r = call(
            &mut k,
            &mut b,
            "nx_dma_setup",
            &[KArg::Int(0x10), KArg::Int(0x20), KArg::Int(100_000)],
        );
        assert!(is_bug(&r, 24), "got {r:?}");
    }

    #[test]
    fn bug25_needs_nack_with_pending_restart() {
        // NACK without restart: plain error. ACK with restart: fine.
        let mut k = NuttxKernel::new();
        let mut b = bus();
        b.mmio.load_stream(&[0x01]);
        assert_eq!(
            call(
                &mut k,
                &mut b,
                "nx_i2c_read",
                &[KArg::Int(0x50), KArg::Int(4), KArg::Int(0)],
            ),
            InvokeResult::Err(-5)
        );
        b.mmio.load_stream(&[0x00, 0x05]);
        assert!(!call(
            &mut k,
            &mut b,
            "nx_i2c_read",
            &[KArg::Int(0x50), KArg::Int(1), KArg::Int(1)],
        )
        .is_fault());
        // NACK while a repeated-start is pending: assertion, bus wedged.
        b.mmio.load_stream(&[0x01]);
        let r = call(
            &mut k,
            &mut b,
            "nx_i2c_read",
            &[KArg::Int(0x50), KArg::Int(4), KArg::Int(1)],
        );
        assert!(is_bug(&r, 25), "got {r:?}");
        if let InvokeResult::Fault(f) = r {
            assert!(f.hangs_after);
        }
    }
}
