//! RT-Thread kernel model.
//!
//! Personality: everything is a kernel object in a typed registry
//! (`rt_object_*`), `rt_`-prefixed APIs, memory pools and small-memory
//! (`rt_smem`) management, a device framework carrying the serial
//! console, and the SAL socket layer. Hosts eight Table-2 bugs (#5–#12),
//! including the paper's Figure-6 case study: `syz_create_bind_socket`
//! logging through a stale serial device and panicking in
//! `rt_serial_write`.

use crate::api::{ApiDescriptor, InvokeResult, KArg, KernelFault};
use crate::bugs::BugId;
use crate::ctx::ExecCtx;
use crate::kernel::{Kernel, OsKind};
use crate::os::{a_bytes, a_enum, a_int, a_res, a_str, arg_bytes, arg_int, arg_str};
use crate::subsys::heap::{FreeListHeap, HeapError};
use crate::subsys::ipc::{EventGroup, IpcError};
use crate::subsys::object::{ObjClass, ObjError, ObjectRegistry};
use crate::subsys::pool::{MemoryPool, PoolError};
use crate::subsys::sal::{SalError, SocketLayer};
use crate::subsys::sched::{Policy, SchedError, Scheduler};
use crate::subsys::serial::{SerialError, SerialFramework, FLAG_STREAM};
use eof_hal::FaultKind;
use std::sync::LazyLock;

const OBJ_CLASSES: &[(&str, u64)] = &[
    ("RT_Object_Class_Thread", 1),
    ("RT_Object_Class_Semaphore", 2),
    ("RT_Object_Class_Event", 3),
    ("RT_Object_Class_MemPool", 4),
    ("RT_Object_Class_Device", 5),
    ("RT_Object_Class_Timer", 6),
];
const EVENT_OPTS: &[(&str, u64)] = &[
    ("RT_EVENT_FLAG_AND", 0x1),
    ("RT_EVENT_FLAG_OR", 0x2),
    ("RT_EVENT_FLAG_CLEAR", 0x4),
];
const SOCK_DOMAINS: &[(&str, u64)] = &[("AF_UNIX", 1), ("AF_INET", 2), ("AF_INET6", 10)];
const SOCK_TYPES: &[(&str, u64)] = &[("SOCK_STREAM", 1), ("SOCK_DGRAM", 2)];
const DEV_FLAGS: &[(&str, u64)] = &[
    ("RT_DEVICE_FLAG_RDONLY", 0x001),
    ("RT_DEVICE_FLAG_WRONLY", 0x002),
    ("RT_DEVICE_FLAG_RDWR", 0x003),
    ("RT_DEVICE_FLAG_STREAM", 0x040),
];

/// PC-site ids for the driver layer's MMIO polls (replay keys on them).
const SITE_SPI_STATUS: u32 = 0x4800;
const SITE_SPI_DATA: u32 = 0x4810;
const SITE_I2C_STATUS: u32 = 0x4820;
const SITE_I2C_DATA: u32 = 0x4830;
const SITE_DMA_STATUS: u32 = 0x4840;

fn obj_class_of(v: u64) -> ObjClass {
    match v {
        2 => ObjClass::Semaphore,
        3 => ObjClass::Event,
        4 => ObjClass::MemPool,
        5 => ObjClass::Device,
        6 => ObjClass::Timer,
        _ => ObjClass::Thread,
    }
}

/// One small-memory (`rt_smem`) region.
struct Smem {
    size: u32,
    name: String,
}

/// The RT-Thread model.
pub struct RtThreadKernel {
    objects: ObjectRegistry,
    sched: Scheduler,
    heap: FreeListHeap,
    pools: Vec<Option<MemoryPool>>,
    events: Vec<EventGroup>,
    smems: Vec<Smem>,
    serial: SerialFramework,
    sal: SocketLayer,
    critical_nest: u32,
    /// Console device handle within the serial framework.
    console: u32,
    /// A DMA descriptor is in flight (bug #23's first hop).
    dma_busy: bool,
}

/// The published API surface. It is the same for every boot, so it is
/// built once per process, not on every (per-test-case) reset.
static API: LazyLock<Vec<ApiDescriptor>> = LazyLock::new(RtThreadKernel::build_api);

impl Default for RtThreadKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl RtThreadKernel {
    /// A freshly booted RT-Thread.
    pub fn new() -> Self {
        RtThreadKernel {
            objects: ObjectRegistry::new(32),
            sched: Scheduler::new(Policy::TickRoundRobin, 16, 31, 15, 128),
            heap: FreeListHeap::new(64 * 1024),
            pools: Vec::new(),
            events: Vec::new(),
            smems: Vec::new(),
            serial: SerialFramework::with_console(),
            sal: SocketLayer::new(8),
            critical_nest: 0,
            console: 0,
            dma_busy: false,
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
            "rt_thread_create",
            vec![
                a_str("name", 15),
                a_int("priority", 0, 31),
                a_int("stack_size", 128, 4096),
            ],
            Some("thread"),
            "thread",
            "Create a thread registered as a kernel object.",
        ));
        v.push(api(
            "rt_thread_delete",
            vec![a_res("thread", "thread")],
            None,
            "thread",
            "Delete a thread.",
        ));
        v.push(api(
            "rt_object_init",
            vec![a_enum("type", "obj_class", OBJ_CLASSES), a_str("name", 15)],
            Some("object"),
            "kernel",
            "Register a static kernel object in the typed container.",
        ));
        v.push(api(
            "rt_object_detach",
            vec![a_res("object", "object")],
            None,
            "kernel",
            "Detach an object from its container.",
        ));
        v.push(api(
            "rt_object_get_type",
            vec![a_res("object", "object")],
            None,
            "kernel",
            "Read an object's class tag.",
        ));
        v.push(api(
            "rt_object_find",
            vec![a_enum("type", "obj_class", OBJ_CLASSES), a_str("name", 15)],
            None,
            "kernel",
            "Find a live object by class and name.",
        ));
        v.push(api(
            "rt_service_check",
            vec![
                a_enum("type", "obj_class", OBJ_CLASSES),
                a_int("max_depth", 0, 4096),
            ],
            None,
            "service",
            "Walk a class container up to max_depth nodes, checking list integrity.",
        ));
        v.push(api(
            "rt_mp_create",
            vec![
                a_str("name", 15),
                a_int("block_size", 4, 128),
                a_int("block_count", 1, 8),
            ],
            Some("mempool"),
            "memory",
            "Create a fixed-block memory pool.",
        ));
        v.push(api(
            "rt_mp_alloc",
            vec![a_res("mp", "mempool"), a_int("flags", 0, 255)],
            None,
            "memory",
            "Allocate one block from a pool.",
        ));
        v.push(api(
            "rt_mp_free",
            vec![a_res("mp", "mempool"), a_int("block", 0, 8)],
            None,
            "memory",
            "Return a block to its pool.",
        ));
        v.push(api(
            "rt_mp_delete",
            vec![a_res("mp", "mempool")],
            None,
            "memory",
            "Delete a memory pool.",
        ));
        v.push(api(
            "rt_event_create",
            vec![a_str("name", 15)],
            Some("event"),
            "ipc",
            "Create an event object.",
        ));
        v.push(api(
            "rt_event_send",
            vec![a_res("event", "event"), a_int("set", 0, 0xffff_ffff)],
            None,
            "ipc",
            "OR event flags into an event object.",
        ));
        v.push(api(
            "rt_event_recv",
            vec![
                a_res("event", "event"),
                a_int("set", 1, 0xffff_ffff),
                a_enum("option", "event_opts", EVENT_OPTS),
            ],
            None,
            "ipc",
            "Receive event flags with AND/OR/CLEAR options.",
        ));
        v.push(api(
            "rt_event_delete",
            vec![a_res("event", "event")],
            None,
            "ipc",
            "Delete an event object.",
        ));
        v.push(api(
            "rt_malloc",
            vec![a_int("size", 1, 8192)],
            Some("mem"),
            "heap",
            "Allocate from the system heap.",
        ));
        v.push(api(
            "rt_free",
            vec![a_res("ptr", "mem")],
            None,
            "heap",
            "Free a system-heap allocation.",
        ));
        v.push(api(
            "rt_enter_critical",
            vec![],
            None,
            "kernel",
            "Disable the scheduler (nestable).",
        ));
        v.push(api(
            "rt_exit_critical",
            vec![],
            None,
            "kernel",
            "Re-enable the scheduler.",
        ));
        v.push(api(
            "rt_smem_init",
            vec![a_int("size", 64, 4096)],
            Some("smem"),
            "memory",
            "Initialise a small-memory region.",
        ));
        v.push(api(
            "rt_smem_setname",
            vec![a_res("smem", "smem"), a_str("name", 32)],
            None,
            "memory",
            "Set the debug name of a small-memory region.",
        ));
        v.push(api(
            "rt_console_device",
            vec![],
            Some("device"),
            "serial",
            "Get the console serial device.",
        ));
        v.push(api(
            "rt_device_register",
            vec![a_str("name", 15)],
            Some("device"),
            "serial",
            "Register a new serial device.",
        ));
        v.push(api(
            "rt_device_close",
            vec![a_res("dev", "device")],
            None,
            "serial",
            "Close an open device.",
        ));
        v.push(api(
            "rt_device_unregister",
            vec![a_res("dev", "device")],
            None,
            "serial",
            "Unregister a closed device (entry becomes stale).",
        ));
        v.push(api(
            "rt_device_open",
            vec![
                a_res("dev", "device"),
                a_enum("oflag", "dev_flags", DEV_FLAGS),
            ],
            None,
            "serial",
            "Open a device with flags.",
        ));
        v.push(api(
            "rt_device_write",
            vec![a_res("dev", "device"), a_bytes("buffer", 64)],
            None,
            "serial",
            "Write through the serial poll-TX path.",
        ));
        v.push(api(
            "syz_create_bind_socket",
            vec![
                a_enum("domain", "sock_domain", SOCK_DOMAINS),
                a_enum("type", "sock_type", SOCK_TYPES),
                a_int("protocol", 0, 255),
                a_int("port", 1, 65535),
            ],
            Some("sock"),
            "sal",
            "Pseudo-syscall: create a socket, log the creation banner, bind it.",
        ));
        v.push(api(
            "closesocket",
            vec![a_res("sock", "sock")],
            None,
            "sal",
            "Close a socket.",
        ));
        v.push(api(
            "sal_send",
            vec![a_res("sock", "sock"), a_bytes("data", 128)],
            None,
            "sal",
            "Send bytes on a socket.",
        ));
        v.push(api(
            "rt_tick_increase",
            vec![a_int("n", 1, 10)],
            None,
            "kernel",
            "Advance the kernel tick.",
        ));
        v.push(api(
            "rt_spi_transfer",
            vec![a_int("send_len", 0, 64), a_int("recv_len", 0, 64)],
            None,
            "spi",
            "Transfer a message on the SPI bus device.",
        ));
        v.push(api(
            "rt_i2c_master_recv",
            vec![a_int("addr", 0, 127), a_int("len", 0, 32)],
            None,
            "i2c",
            "Master-mode receive from an I2C slave.",
        ));
        v.push(api(
            "rt_dma_start",
            vec![
                a_int("src", 0, 0xffff),
                a_int("dst", 0, 0xffff),
                a_int("len", 0, 65536),
            ],
            None,
            "dma",
            "Program and start a DMA descriptor.",
        ));
        v
    }

    fn map_obj(e: ObjError) -> InvokeResult {
        InvokeResult::Err(match e {
            ObjError::DupName => -1,
            ObjError::Full => -2,
            ObjError::BadHandle => -3,
            ObjError::BadName => -4,
            ObjError::AlreadyDetached => -5,
        })
    }

    /// The kernel log path: `rt_kprintf` → `_kputs` → `rt_device_write`
    /// on the console. If the console device is stale, this is bug #12 —
    /// the Figure-6 backtrace, innermost frame first.
    fn kprintf(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        line: &str,
        via: &'static str,
    ) -> Result<(), KernelFault> {
        match self.serial.write(
            ctx,
            "rt-thread::serial::rt_serial_write",
            self.console,
            line.as_bytes(),
        ) {
            Ok(_) => {
                ctx.klog(line);
                Ok(())
            }
            Err(SerialError::Stale) => Err(KernelFault::bug(
                BugId::B12SerialWrite,
                FaultKind::Panic,
                "BUG: unexpected stop: bus fault in _serial_poll_tx",
                vec![
                    "rt_serial_write",
                    "rt_device_write",
                    "_kputs",
                    "rt_kprintf",
                    via,
                ],
                true,
            )),
            Err(_) => Ok(()),
        }
    }
}

impl Kernel for RtThreadKernel {
    fn os(&self) -> OsKind {
        OsKind::RtThread
    }

    fn on_interrupt(&mut self, ctx: &mut ExecCtx<'_>, line: u8, payload: &[u8]) -> InvokeResult {
        match line {
            eof_hal::irq::TIMER => {
                ctx.cov("rt-thread::isr::tick::entry");
                self.sched.tick(ctx, "rt-thread::kernel::tick");
                // The tick handler also kicks any armed event bit 0 —
                // the classic RT-Thread systick hook.
                if let Some(e) = self.events.iter_mut().find(|e| !e.deleted) {
                    ctx.cov("rt-thread::isr::tick::event_hook");
                    let _ = e.send(ctx, "rt-thread::ipc::rt_event_send", 1);
                }
                InvokeResult::Ok(self.sched.tick_count())
            }
            eof_hal::irq::GPIO => {
                ctx.cov("rt-thread::isr::gpio::entry");
                ctx.charge(3);
                ctx.cov_var(
                    "rt-thread::isr::gpio::live_objs",
                    (self.objects.live_count() as u64).min(15),
                );
                InvokeResult::Ok(0)
            }
            eof_hal::irq::SERIAL_RX => {
                ctx.cov("rt-thread::isr::uart_rx::entry");
                ctx.charge(3 + payload.len() as u64 / 4);
                ctx.cov_var(
                    "rt-thread::isr::uart_rx::len_band",
                    (payload.len() as u64 / 4).min(15),
                );
                InvokeResult::Ok(payload.len() as u64)
            }
            eof_hal::irq::SPI => {
                ctx.cov("rt-thread::isr::spi_done::entry");
                ctx.charge(3);
                InvokeResult::Ok(0)
            }
            eof_hal::irq::I2C => {
                ctx.cov("rt-thread::isr::i2c_done::entry");
                ctx.charge(3);
                InvokeResult::Ok(0)
            }
            eof_hal::irq::DMA => {
                ctx.cov("rt-thread::isr::dma_done::entry");
                ctx.charge(4);
                // Completion retires the in-flight descriptor.
                self.dma_busy = false;
                let len = payload
                    .first_chunk::<4>()
                    .map(|b| u32::from_le_bytes(*b))
                    .unwrap_or(0);
                ctx.cov_var(
                    "rt-thread::isr::dma_done::len_band",
                    (len as u64 / 64).min(15),
                );
                InvokeResult::Ok(len as u64)
            }
            _ => InvokeResult::Err(-38),
        }
    }

    fn api_table(&self) -> &[ApiDescriptor] {
        &API
    }

    fn exception_symbol(&self) -> &'static str {
        "common_exception"
    }

    fn assert_symbol(&self) -> &'static str {
        "rt_assert_handler"
    }

    fn total_branch_sites(&self) -> usize {
        crate::image::total_sites(OsKind::RtThread)
    }

    fn boot_banner(&self) -> Vec<String> {
        vec![
            " \\ | /".into(),
            "- RT -     Thread Operating System".into(),
            " / | \\     build 2f55990".into(),
        ]
    }

    fn reset(&mut self, _ctx: &mut ExecCtx<'_>) {
        *self = Self::new();
    }

    fn invoke(&mut self, ctx: &mut ExecCtx<'_>, api_id: u16, args: &[KArg]) -> InvokeResult {
        match api_id {
            // rt_thread_create
            0 => {
                let name = arg_str(args, 0).to_string();
                match self.sched.create(
                    ctx,
                    "rt-thread::thread::rt_thread_create",
                    &name,
                    arg_int(args, 1) as u8,
                    arg_int(args, 2) as u32,
                ) {
                    Ok(h) => {
                        let _ = self.objects.init(
                            ctx,
                            "rt-thread::kernel::rt_object_init",
                            ObjClass::Thread,
                            &name,
                        );
                        InvokeResult::Ok(h as u64)
                    }
                    Err(SchedError::NameTooLong) => InvokeResult::Err(-4),
                    Err(_) => InvokeResult::Err(-2),
                }
            }
            // rt_thread_delete
            1 => match self.sched.delete(
                ctx,
                "rt-thread::thread::rt_thread_delete",
                arg_int(args, 0) as u32,
            ) {
                Ok(()) => InvokeResult::Ok(0),
                Err(_) => InvokeResult::Err(-3),
            },
            // rt_object_init — bug #8.
            2 => {
                let class = obj_class_of(arg_int(args, 0));
                let name = arg_str(args, 1);
                match self
                    .objects
                    .init(ctx, "rt-thread::kernel::rt_object_init", class, name)
                {
                    Ok(h) => InvokeResult::Ok(h as u64),
                    // Bug #8: RT_ASSERT(name != RT_NULL) passes for an
                    // empty string; only the timer class then takes the
                    // name-indexed wheel slot path whose copy loop
                    // underflows — the assert handler reports and hangs.
                    Err(ObjError::BadName) if name.is_empty() && class == ObjClass::Timer => {
                        ctx.cov("rt-thread::kernel::rt_object_init::empty_name");
                        ctx.klog("(obj != object_find(name)) assertion failed at rt_object_init");
                        InvokeResult::Fault(KernelFault::bug(
                            BugId::B08ObjectInit,
                            FaultKind::Assertion,
                            "Assertion failed: name length in rt_object_init",
                            vec!["rt_object_init", "rt_object_attach"],
                            true,
                        ))
                    }
                    Err(e) => Self::map_obj(e),
                }
            }
            // rt_object_detach
            3 => match self.objects.detach(
                ctx,
                "rt-thread::kernel::rt_object_detach",
                arg_int(args, 0) as u32,
            ) {
                Ok(()) => InvokeResult::Ok(0),
                Err(e) => Self::map_obj(e),
            },
            // rt_object_get_type — bug #5.
            4 => match self.objects.get_type(
                ctx,
                "rt-thread::kernel::rt_object_get_type",
                arg_int(args, 0) as u32,
            ) {
                Ok((tag, false)) => InvokeResult::Ok(tag as u64),
                // Bug #5: only the *device* teardown path poisons the
                // type field on detach; reading a detached device's tag
                // trips the RT_ASSERT, which loops. Other classes return
                // the stale-but-valid tag.
                Ok((tag, true)) if tag == ObjClass::Device.tag() => {
                    ctx.cov("rt-thread::kernel::rt_object_get_type::detached");
                    ctx.klog(
                        "(rt_object_get_type(obj) < RT_Object_Class_Unknown) assertion failed",
                    );
                    InvokeResult::Fault(KernelFault::bug(
                        BugId::B05ObjectGetType,
                        FaultKind::Assertion,
                        "Assertion failed: object class tag in rt_object_get_type",
                        vec!["rt_object_get_type", "rt_object_is_systemobject"],
                        true,
                    ))
                }
                Ok((tag, true)) => {
                    ctx.cov("rt-thread::kernel::rt_object_get_type::stale_tag");
                    InvokeResult::Ok(tag as u64)
                }
                Err(e) => Self::map_obj(e),
            },
            // rt_object_find
            5 => {
                let class = obj_class_of(arg_int(args, 0));
                match self.objects.find(
                    ctx,
                    "rt-thread::kernel::rt_object_find",
                    class,
                    arg_str(args, 1),
                ) {
                    Some(h) => InvokeResult::Ok(h as u64),
                    None => InvokeResult::Err(-3),
                }
            }
            // rt_service_check — bug #6.
            6 => {
                let class = obj_class_of(arg_int(args, 0));
                let (empty, poisoned) = self.objects.container_is_empty(
                    ctx,
                    "rt-thread::service::rt_list_isempty",
                    class,
                );
                let max_depth = arg_int(args, 1);
                // Breadcrumb ladder: the walker's bail-out comparison
                // dispatches per depth bound on a poisoned container —
                // one branch per small bound, a single saturating branch
                // beyond.
                if poisoned {
                    ctx.cov_var(
                        "rt-thread::service::rt_list_isempty::bound",
                        max_depth.min(63),
                    );
                }
                // Bug #6: bound 11 lands the bail-out pointer exactly on
                // the freed node left by an unlink-twice, and the
                // emptiness probe dereferences it.
                if poisoned && max_depth == 11 {
                    // Bug #6: the service walker trusts `rt_list_isempty`
                    // on a container whose node was unlinked twice — the
                    // second unlink wrote through a freed prev pointer.
                    ctx.cov("rt-thread::service::rt_list_isempty::poisoned");
                    ctx.klog("E rt_service: list node 0xdeadbeef out of container");
                    return InvokeResult::Fault(KernelFault::bug(
                        BugId::B06ListIsEmpty,
                        FaultKind::MemFault,
                        "BUG: bus fault walking object container in rt_list_isempty",
                        vec!["rt_list_isempty", "rt_service_check", "information_walk"],
                        false,
                    ));
                }
                InvokeResult::Ok(empty as u64)
            }
            // rt_mp_create
            7 => {
                ctx.cov("rt-thread::memory::rt_mp_create::entry");
                let name = arg_str(args, 0);
                if name.is_empty() || name.len() > 15 {
                    return InvokeResult::Err(-4);
                }
                let bs = arg_int(args, 1).clamp(4, 128) as u32;
                let count = arg_int(args, 2).clamp(1, 8) as usize;
                let _ = self.objects.init(
                    ctx,
                    "rt-thread::kernel::rt_object_init",
                    ObjClass::MemPool,
                    name,
                );
                self.pools.push(Some(MemoryPool::new(name, bs, count)));
                InvokeResult::Ok(self.pools.len() as u64 - 1)
            }
            // rt_mp_alloc — bug #7.
            8 => {
                let h = arg_int(args, 0) as usize;
                let flags = arg_int(args, 1);
                ctx.cov_var(
                    "rt-thread::memory::rt_mp_alloc::flags_band",
                    (flags / 16).min(31),
                );
                let Some(Some(p)) = self.pools.get_mut(h) else {
                    return InvokeResult::Err(-3);
                };
                // Breadcrumb ladder: the exhausted slow path dispatches
                // per flag value (a jump table in the real code), so each
                // flag reached on an exhausted pool is its own edge.
                if p.is_exhausted() {
                    ctx.cov_var(
                        "rt-thread::memory::rt_mp_alloc::exhausted_flags",
                        flags.min(255),
                    );
                }
                // Bug #7: RT_MP_SUSPEND_RETRY (0x5A) on an exhausted pool
                // re-reads the free list head after it was nulled.
                if p.is_exhausted() && flags == 0x5A {
                    ctx.cov("rt-thread::memory::rt_mp_alloc::exhausted_retry");
                    ctx.klog("E rt_mp: block_list NULL deref in rt_mp_alloc");
                    return InvokeResult::Fault(KernelFault::bug(
                        BugId::B07MpAlloc,
                        FaultKind::MemFault,
                        "BUG: NULL dereference in rt_mp_alloc",
                        vec!["rt_mp_alloc", "rt_mp_alloc_inner"],
                        false,
                    ));
                }
                match p.alloc(ctx, "rt-thread::memory::rt_mp_alloc") {
                    Ok(b) => InvokeResult::Ok(b as u64),
                    Err(PoolError::Exhausted) => InvokeResult::Err(-6),
                    Err(_) => InvokeResult::Err(-3),
                }
            }
            // rt_mp_free
            9 => {
                let h = arg_int(args, 0) as usize;
                let Some(Some(p)) = self.pools.get_mut(h) else {
                    return InvokeResult::Err(-3);
                };
                match p.free(
                    ctx,
                    "rt-thread::memory::rt_mp_free",
                    arg_int(args, 1) as u32,
                ) {
                    Ok(()) => InvokeResult::Ok(0),
                    Err(_) => InvokeResult::Err(-3),
                }
            }
            // rt_mp_delete
            10 => {
                ctx.cov("rt-thread::memory::rt_mp_delete::entry");
                match self.pools.get_mut(arg_int(args, 0) as usize) {
                    Some(slot @ Some(_)) => {
                        *slot = None;
                        InvokeResult::Ok(0)
                    }
                    _ => InvokeResult::Err(-3),
                }
            }
            // rt_event_create
            11 => {
                ctx.cov("rt-thread::ipc::rt_event_create::entry");
                let name = arg_str(args, 0);
                if name.is_empty() || name.len() > 15 {
                    return InvokeResult::Err(-4);
                }
                let _ = self.objects.init(
                    ctx,
                    "rt-thread::kernel::rt_object_init",
                    ObjClass::Event,
                    name,
                );
                self.events.push(EventGroup::new());
                InvokeResult::Ok(self.events.len() as u64 - 1)
            }
            // rt_event_send — bug #10.
            12 => {
                let Some(e) = self.events.get_mut(arg_int(args, 0) as usize) else {
                    return InvokeResult::Err(-3);
                };
                // Bug #10: sending to a deleted event normally bounces off
                // the object-type NULL guard — except when the set mask is
                // dense enough (26 bits) that the guard's popcount-keyed
                // fast path skips the check and walks the freed suspend
                // list. The guard itself branches per popcount (the
                // breadcrumb ladder guided mutation climbs).
                if e.deleted {
                    let set = arg_int(args, 1) as u32;
                    ctx.cov_var(
                        "rt-thread::ipc::rt_event_send::deleted_guard",
                        set.count_ones() as u64,
                    );
                    if set.count_ones() == 26 {
                        ctx.cov("rt-thread::ipc::rt_event_send::deleted");
                        ctx.klog("E rt_event: suspend list corrupt in rt_event_send");
                        return InvokeResult::Fault(KernelFault::bug(
                            BugId::B10EventSend,
                            FaultKind::MemFault,
                            "BUG: freed suspend-list walk in rt_event_send",
                            vec!["rt_event_send", "_ipc_list_resume_all"],
                            false,
                        ));
                    }
                    return InvokeResult::Err(-3);
                }
                match e.send(
                    ctx,
                    "rt-thread::ipc::rt_event_send",
                    arg_int(args, 1) as u32,
                ) {
                    Ok(bits) => InvokeResult::Ok(bits as u64),
                    Err(IpcError::Empty) => InvokeResult::Err(-7),
                    Err(_) => InvokeResult::Err(-1),
                }
            }
            // rt_event_recv
            13 => {
                let opt = arg_int(args, 2);
                let Some(e) = self.events.get_mut(arg_int(args, 0) as usize) else {
                    return InvokeResult::Err(-3);
                };
                if e.deleted {
                    return InvokeResult::Err(-3);
                }
                match e.recv(
                    ctx,
                    "rt-thread::ipc::rt_event_recv",
                    arg_int(args, 1) as u32,
                    opt & 0x1 != 0,
                    opt & 0x4 != 0,
                ) {
                    Ok(got) => InvokeResult::Ok(got as u64),
                    Err(_) => InvokeResult::Err(-11),
                }
            }
            // rt_event_delete
            14 => {
                ctx.cov("rt-thread::ipc::rt_event_delete::entry");
                match self.events.get_mut(arg_int(args, 0) as usize) {
                    Some(e) if !e.deleted => {
                        e.deleted = true;
                        InvokeResult::Ok(0)
                    }
                    _ => InvokeResult::Err(-3),
                }
            }
            // rt_malloc — bug #9.
            15 => {
                let size = arg_int(args, 0) as u32;
                // Bug #9: a large allocation while the scheduler is
                // locked takes `_heap_lock` recursively — the non-
                // recursive lock deadlock is caught by the lock's own
                // sanity check, which panics.
                if self.critical_nest > 0 && size > 1024 {
                    ctx.cov("rt-thread::heap::_heap_lock::critical_large");
                    ctx.klog("E rt_heap: _heap_lock re-entered under scheduler lock");
                    return InvokeResult::Fault(KernelFault::bug(
                        BugId::B09HeapLock,
                        FaultKind::Panic,
                        "BUG: _heap_lock recursion under rt_enter_critical",
                        vec!["_heap_lock", "rt_malloc", "rt_smem_alloc"],
                        false,
                    ));
                }
                match self.heap.alloc(ctx, "rt-thread::heap::rt_malloc", size) {
                    Ok(h) => InvokeResult::Ok(h as u64),
                    Err(HeapError::OutOfMemory) => InvokeResult::Err(-12),
                    Err(_) => InvokeResult::Err(-1),
                }
            }
            // rt_free
            16 => match self
                .heap
                .free(ctx, "rt-thread::heap::rt_free", arg_int(args, 0) as u32)
            {
                Ok(()) => InvokeResult::Ok(0),
                Err(_) => InvokeResult::Err(-1),
            },
            // rt_enter_critical
            17 => {
                ctx.cov("rt-thread::kernel::rt_enter_critical::entry");
                self.critical_nest += 1;
                InvokeResult::Ok(self.critical_nest as u64)
            }
            // rt_exit_critical
            18 => {
                ctx.cov("rt-thread::kernel::rt_exit_critical::entry");
                self.critical_nest = self.critical_nest.saturating_sub(1);
                InvokeResult::Ok(self.critical_nest as u64)
            }
            // rt_smem_init
            19 => {
                ctx.cov("rt-thread::memory::rt_smem_init::entry");
                let size = arg_int(args, 0).clamp(64, 4096) as u32;
                self.smems.push(Smem {
                    size,
                    name: String::new(),
                });
                InvokeResult::Ok(self.smems.len() as u64 - 1)
            }
            // rt_smem_setname — bug #11.
            20 => {
                let name = arg_str(args, 1).to_string();
                ctx.cov_var(
                    "rt-thread::memory::rt_smem_setname::len_band",
                    (name.len() as u64 / 4).min(15),
                );
                let Some(s) = self.smems.get_mut(arg_int(args, 0) as usize) else {
                    return InvokeResult::Err(-3);
                };
                // Breadcrumb ladder: small regions index the inline name
                // slot by the region size (header packing), one branch
                // per byte of headroom.
                if name.len() > 15 && s.size < 256 {
                    ctx.cov_var(
                        "rt-thread::memory::rt_smem_setname::slot",
                        s.size.min(255) as u64,
                    );
                }
                // Bug #11: the name copy uses the caller's length, but a
                // 118-byte region's header leaves the inline name slot
                // exactly flush with the first free block — a long name
                // overruns it.
                if name.len() > 15 && s.size == 118 {
                    ctx.cov("rt-thread::memory::rt_smem_setname::overrun");
                    ctx.klog("E rt_smem: header overrun in rt_smem_setname");
                    return InvokeResult::Fault(KernelFault::bug(
                        BugId::B11SmemSetname,
                        FaultKind::MemFault,
                        "BUG: smem header overrun in rt_smem_setname",
                        vec!["rt_smem_setname", "rt_memcpy"],
                        false,
                    ));
                }
                ctx.cov("rt-thread::memory::rt_smem_setname::ok");
                s.name = name;
                InvokeResult::Ok(0)
            }
            // rt_console_device
            21 => {
                ctx.cov("rt-thread::serial::rt_console_device::entry");
                InvokeResult::Ok(self.console as u64)
            }
            // rt_device_register
            22 => {
                let name = arg_str(args, 0);
                if name.is_empty() || name.len() > 15 {
                    return InvokeResult::Err(-4);
                }
                match self
                    .serial
                    .register(ctx, "rt-thread::serial::rt_device_register", name)
                {
                    Ok(h) => {
                        let _ = self.objects.init(
                            ctx,
                            "rt-thread::kernel::rt_object_init",
                            ObjClass::Device,
                            name,
                        );
                        InvokeResult::Ok(h as u64)
                    }
                    Err(SerialError::DupName) => InvokeResult::Err(-1),
                    Err(_) => InvokeResult::Err(-3),
                }
            }
            // rt_device_close
            23 => match self.serial.close_handle(
                ctx,
                "rt-thread::serial::rt_device_close",
                arg_int(args, 0) as u32,
            ) {
                Ok(()) => InvokeResult::Ok(0),
                Err(_) => InvokeResult::Err(-3),
            },
            // rt_device_unregister — by handle; open devices are busy;
            // the table entry goes stale.
            24 => match self.serial.unregister_handle(
                ctx,
                "rt-thread::serial::rt_device_unregister",
                arg_int(args, 0) as u32,
            ) {
                Ok(()) => InvokeResult::Ok(0),
                Err(SerialError::Busy) => InvokeResult::Err(-16),
                Err(_) => InvokeResult::Err(-3),
            },
            // rt_device_open
            25 => match self.serial.open(
                ctx,
                "rt-thread::serial::rt_device_open",
                arg_int(args, 0) as u32,
                arg_int(args, 1) as u32 | FLAG_STREAM,
            ) {
                Ok(()) => InvokeResult::Ok(0),
                Err(_) => InvokeResult::Err(-3),
            },
            // rt_device_write — a direct write to a stale handle is
            // caught by the device layer's registered check (plain
            // error); only the *console logging* path reaches the stale
            // pointer blind (bug #12, via syz_create_bind_socket).
            26 => {
                let h = arg_int(args, 0) as u32;
                let data = arg_bytes(args, 1).to_vec();
                match self
                    .serial
                    .write(ctx, "rt-thread::serial::rt_serial_write", h, &data)
                {
                    Ok(n) => InvokeResult::Ok(n),
                    Err(_) => InvokeResult::Err(-3),
                }
            }
            // syz_create_bind_socket — the Figure-6 pseudo-syscall.
            27 => {
                ctx.cov("rt-thread::sal::syz_create_bind_socket::entry");
                let domain = arg_int(args, 0);
                let ty = arg_int(args, 1);
                let proto = arg_int(args, 2);
                let port = arg_int(args, 3).clamp(1, 65535) as u16;
                match self
                    .sal
                    .socket(ctx, "rt-thread::sal::sal_socket", domain, ty, proto)
                {
                    Ok(sock) => {
                        // sal_socket logs its banner via rt_kprintf. On a
                        // stale console the short banner is dropped by
                        // the driver's length guard (breadcrumbs below);
                        // the *long* variant — ephemeral port warning
                        // plus a raw-protocol suffix — bypasses the guard
                        // and dies in rt_serial_write (bug #12).
                        if self.serial.is_stale(self.console) {
                            ctx.cov_var(
                                "rt-thread::sal::sal_socket::lost_banner_port",
                                (port as u64) / 4096,
                            );
                            ctx.cov_var(
                                "rt-thread::sal::sal_socket::lost_banner_proto",
                                (proto & 0xff).min(255),
                            );
                            if port >= 0x8000 && proto & 0xff == 0x01 {
                                if let Err(fault) = self.kprintf(
                                    ctx,
                                    &format!(
                                        "W sal: socket {sock} on ephemeral port {port} (raw proto {proto:#x})"
                                    ),
                                    "sal_socket",
                                ) {
                                    return InvokeResult::Fault(fault);
                                }
                            }
                        } else if let Err(fault) = self.kprintf(
                            ctx,
                            &format!("I sal: socket {sock} created (domain {domain})"),
                            "sal_socket",
                        ) {
                            return InvokeResult::Fault(fault);
                        }
                        let _ = self.sal.bind(ctx, "rt-thread::sal::sal_bind", sock, port);
                        InvokeResult::Ok(sock as u64)
                    }
                    Err(SalError::BadDomain) => InvokeResult::Err(-97),
                    Err(SalError::BadType) => InvokeResult::Err(-94),
                    Err(_) => InvokeResult::Err(-24),
                }
            }
            // closesocket
            28 => match self
                .sal
                .close(ctx, "rt-thread::sal::closesocket", arg_int(args, 0) as u32)
            {
                Ok(()) => InvokeResult::Ok(0),
                Err(_) => InvokeResult::Err(-9),
            },
            // sal_send
            29 => match self.sal.send(
                ctx,
                "rt-thread::sal::sal_send",
                arg_int(args, 0) as u32,
                arg_bytes(args, 1),
            ) {
                Ok(n) => InvokeResult::Ok(n),
                Err(SalError::NotConnected) => InvokeResult::Err(-107),
                Err(_) => InvokeResult::Err(-9),
            },
            // rt_tick_increase
            30 => {
                let n = arg_int(args, 0).clamp(1, 10);
                for _ in 0..n {
                    self.sched.tick(ctx, "rt-thread::kernel::tick");
                }
                InvokeResult::Ok(self.sched.tick_count())
            }
            // rt_spi_transfer
            31 => {
                use eof_hal::mmio::{periph, reg, CTRL_START};
                ctx.cov("rt-thread::spi::rt_spi_transfer::entry");
                let send_len = arg_int(args, 0).min(64);
                let recv_len = arg_int(args, 1).min(64);
                ctx.charge(8 + send_len + recv_len);
                ctx.bus
                    .mmio_write(periph::SPI, reg::CTRL, CTRL_START | (send_len << 8));
                let status = ctx.bus.mmio_read(SITE_SPI_STATUS, periph::SPI, reg::STATUS);
                ctx.cov_var(
                    "rt-thread::spi::rt_spi_transfer::status_band",
                    (status & 0x7) as u64,
                );
                let mut sum = 0u64;
                for i in 0..recv_len.min(8) as u32 {
                    sum += ctx.bus.mmio_read(SITE_SPI_DATA + i, periph::SPI, reg::DATA) as u64;
                }
                InvokeResult::Ok(sum)
            }
            // rt_i2c_master_recv — bug #22.
            32 => {
                use eof_hal::mmio::{periph, reg, CTRL_START};
                ctx.cov("rt-thread::i2c::rt_i2c_master_recv::entry");
                let addr = arg_int(args, 0) & 0x7f;
                let len = arg_int(args, 1).min(32);
                ctx.charge(6 + len);
                ctx.bus
                    .mmio_write(periph::I2C, reg::CTRL, CTRL_START | (addr << 1));
                let status = ctx.bus.mmio_read(SITE_I2C_STATUS, periph::I2C, reg::STATUS);
                if status & 0x1 != 0 {
                    ctx.cov("rt-thread::i2c::rt_i2c_master_recv::nack");
                    // Bug #22: the NACK error path for a multi-block read
                    // frees the rx bounce buffer, then the cleanup epilogue
                    // frees it again. Short reads use the inline buffer and
                    // skip the first free.
                    if len > 16 {
                        ctx.cov("rt-thread::i2c::rt_i2c_master_recv::nack_bounce");
                        ctx.klog("E rt_i2c: bounce buffer double free on NACK");
                        return InvokeResult::Fault(KernelFault::bug(
                            BugId::B22I2cNackDoubleFree,
                            FaultKind::Panic,
                            "BUG: double free of rx bounce buffer in rt_i2c_master_recv",
                            vec!["rt_i2c_master_recv", "i2c_bit_xfer", "rt_free"],
                            false,
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
            // rt_dma_start — bug #23.
            33 => {
                use eof_hal::mmio::{periph, reg, CTRL_START};
                ctx.cov("rt-thread::dma::rt_dma_start::entry");
                let src = arg_int(args, 0);
                let dst = arg_int(args, 1);
                let len = arg_int(args, 2).min(65536);
                ctx.charge(10 + len / 64);
                ctx.bus.mmio_write(periph::DMA, reg::SRC, src);
                ctx.bus.mmio_write(periph::DMA, reg::DST, dst);
                ctx.bus.mmio_write(periph::DMA, reg::LEN, len);
                let status = ctx.bus.mmio_read(SITE_DMA_STATUS, periph::DMA, reg::STATUS);
                if self.dma_busy {
                    ctx.cov("rt-thread::dma::rt_dma_start::restart");
                }
                // Bug #23 (depth 2): starting a second transfer while the
                // first descriptor is still in flight AND the engine's
                // ACTIVE bit is latched rewrites the live descriptor's
                // next pointer — the engine then chases a freed chain.
                if self.dma_busy && len > 0 && status & 0x8 != 0 {
                    ctx.cov("rt-thread::dma::rt_dma_start::desc_reuse");
                    ctx.klog("E rt_dma: in-flight descriptor rewritten in rt_dma_start");
                    return InvokeResult::Fault(KernelFault::bug(
                        BugId::B23DmaDescReuse,
                        FaultKind::Panic,
                        "BUG: in-flight descriptor reuse in rt_dma_start",
                        vec!["rt_dma_start", "dma_desc_link", "executor"],
                        false,
                    ));
                }
                ctx.bus.mmio_write(periph::DMA, reg::CTRL, CTRL_START);
                if len > 0 {
                    self.dma_busy = true;
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
    fn bug5_detached_device_object_type() {
        let mut k = RtThreadKernel::new();
        let mut b = bus();
        // Non-device classes survive a detached-type read.
        let sem = ok(call(
            &mut k,
            &mut b,
            "rt_object_init",
            &[KArg::Int(2), KArg::Str("sem0".into())],
        ));
        ok(call(&mut k, &mut b, "rt_object_detach", &[KArg::Int(sem)]));
        assert!(!call(&mut k, &mut b, "rt_object_get_type", &[KArg::Int(sem)]).is_fault());
        // The device class asserts.
        let dev = ok(call(
            &mut k,
            &mut b,
            "rt_object_init",
            &[KArg::Int(5), KArg::Str("spi1".into())],
        ));
        assert_eq!(
            ok(call(
                &mut k,
                &mut b,
                "rt_object_get_type",
                &[KArg::Int(dev)]
            )),
            5
        );
        ok(call(&mut k, &mut b, "rt_object_detach", &[KArg::Int(dev)]));
        let r = call(&mut k, &mut b, "rt_object_get_type", &[KArg::Int(dev)]);
        assert!(is_bug(&r, 5));
    }

    #[test]
    fn bug6_needs_poison_and_bound_11() {
        let mut k = RtThreadKernel::new();
        let mut b = bus();
        let o1 = ok(call(
            &mut k,
            &mut b,
            "rt_object_init",
            &[KArg::Int(4), KArg::Str("mp0".into())],
        ));
        ok(call(&mut k, &mut b, "rt_object_detach", &[KArg::Int(o1)]));
        // Clean container: any bound is fine.
        assert!(!call(
            &mut k,
            &mut b,
            "rt_service_check",
            &[KArg::Int(4), KArg::Int(11)]
        )
        .is_fault());
        // Poisoned container with near-miss bounds: breadcrumbs only.
        let _ = call(&mut k, &mut b, "rt_object_detach", &[KArg::Int(o1)]);
        for bound in [0u64, 10, 12, 1000] {
            assert!(
                !call(
                    &mut k,
                    &mut b,
                    "rt_service_check",
                    &[KArg::Int(4), KArg::Int(bound)]
                )
                .is_fault(),
                "bound {bound}"
            );
        }
        // Poisoned + bound 11: panic.
        let r = call(
            &mut k,
            &mut b,
            "rt_service_check",
            &[KArg::Int(4), KArg::Int(11)],
        );
        assert!(is_bug(&r, 6));
    }

    #[test]
    fn bug7_exhausted_pool_with_retry_flag() {
        let mut k = RtThreadKernel::new();
        let mut b = bus();
        let mp = ok(call(
            &mut k,
            &mut b,
            "rt_mp_create",
            &[KArg::Str("mp".into()), KArg::Int(16), KArg::Int(2)],
        ));
        ok(call(
            &mut k,
            &mut b,
            "rt_mp_alloc",
            &[KArg::Int(mp), KArg::Int(0)],
        ));
        ok(call(
            &mut k,
            &mut b,
            "rt_mp_alloc",
            &[KArg::Int(mp), KArg::Int(0)],
        ));
        // Exhausted without the magic flag: plain error (near misses too).
        for flags in [0u64, 0x59, 0x5B, 0x50] {
            assert!(matches!(
                call(
                    &mut k,
                    &mut b,
                    "rt_mp_alloc",
                    &[KArg::Int(mp), KArg::Int(flags)]
                ),
                InvokeResult::Err(-6)
            ));
        }
        let r = call(
            &mut k,
            &mut b,
            "rt_mp_alloc",
            &[KArg::Int(mp), KArg::Int(0x5A)],
        );
        assert!(is_bug(&r, 7));
    }

    #[test]
    fn bug8_empty_timer_object_name() {
        let mut k = RtThreadKernel::new();
        let mut b = bus();
        // Empty names on other classes are a plain error.
        assert!(matches!(
            call(
                &mut k,
                &mut b,
                "rt_object_init",
                &[KArg::Int(1), KArg::Str("".into())]
            ),
            InvokeResult::Err(-4)
        ));
        // Empty name on the timer class asserts and hangs.
        let r = call(
            &mut k,
            &mut b,
            "rt_object_init",
            &[KArg::Int(6), KArg::Str("".into())],
        );
        assert!(is_bug(&r, 8));
        // Over-long names are only an error.
        assert!(matches!(
            call(
                &mut k,
                &mut b,
                "rt_object_init",
                &[KArg::Int(1), KArg::Str("sixteen-chars-xx".into())]
            ),
            InvokeResult::Err(-4)
        ));
    }

    #[test]
    fn bug9_malloc_under_critical() {
        let mut k = RtThreadKernel::new();
        let mut b = bus();
        // Large malloc outside critical: fine.
        ok(call(&mut k, &mut b, "rt_malloc", &[KArg::Int(2048)]));
        ok(call(&mut k, &mut b, "rt_enter_critical", &[]));
        // Small malloc under critical: fine.
        ok(call(&mut k, &mut b, "rt_malloc", &[KArg::Int(64)]));
        let r = call(&mut k, &mut b, "rt_malloc", &[KArg::Int(2048)]);
        assert!(is_bug(&r, 9));
        // Leaving critical restores safety.
        let mut k2 = RtThreadKernel::new();
        ok(call(&mut k2, &mut b, "rt_enter_critical", &[]));
        ok(call(&mut k2, &mut b, "rt_exit_critical", &[]));
        assert!(!call(&mut k2, &mut b, "rt_malloc", &[KArg::Int(2048)]).is_fault());
    }

    #[test]
    fn bug10_deleted_send_needs_dense_mask() {
        let mut k = RtThreadKernel::new();
        let mut b = bus();
        let e = ok(call(
            &mut k,
            &mut b,
            "rt_event_create",
            &[KArg::Str("evt".into())],
        ));
        ok(call(
            &mut k,
            &mut b,
            "rt_event_send",
            &[KArg::Int(e), KArg::Int(0b1)],
        ));
        ok(call(&mut k, &mut b, "rt_event_delete", &[KArg::Int(e)]));
        // Sparse masks bounce off the NULL guard.
        assert!(matches!(
            call(
                &mut k,
                &mut b,
                "rt_event_send",
                &[KArg::Int(e), KArg::Int(0b1)]
            ),
            InvokeResult::Err(-3)
        ));
        // A 26-bit-dense mask skips the guard's fast path: panic.
        let dense = u64::from(u32::MAX >> 6); // 26 ones.
        let r = call(
            &mut k,
            &mut b,
            "rt_event_send",
            &[KArg::Int(e), KArg::Int(dense)],
        );
        assert!(is_bug(&r, 10));
    }

    #[test]
    fn bug11_long_name_on_small_smem() {
        let mut k = RtThreadKernel::new();
        let mut b = bus();
        // 118 % 32 == 22: the vulnerable header-packing slot.
        let small = ok(call(&mut k, &mut b, "rt_smem_init", &[KArg::Int(118)]));
        let large = ok(call(&mut k, &mut b, "rt_smem_init", &[KArg::Int(1024)]));
        let off_slot = ok(call(&mut k, &mut b, "rt_smem_init", &[KArg::Int(128)]));
        let long = "a-very-long-region-name";
        // Long name on a large region: fine.
        ok(call(
            &mut k,
            &mut b,
            "rt_smem_setname",
            &[KArg::Int(large), KArg::Str(long.into())],
        ));
        // Small region of a near-miss size: fine (breadcrumb only).
        ok(call(
            &mut k,
            &mut b,
            "rt_smem_setname",
            &[KArg::Int(off_slot), KArg::Str(long.into())],
        ));
        // Short name on the vulnerable region: fine.
        ok(call(
            &mut k,
            &mut b,
            "rt_smem_setname",
            &[KArg::Int(small), KArg::Str("ok".into())],
        ));
        let r = call(
            &mut k,
            &mut b,
            "rt_smem_setname",
            &[KArg::Int(small), KArg::Str(long.into())],
        );
        assert!(is_bug(&r, 11));
    }

    #[test]
    fn bug12_stale_console_breaks_socket_logging() {
        let mut k = RtThreadKernel::new();
        let mut b = bus();
        // Socket creation with a healthy console logs and succeeds.
        let s = ok(call(
            &mut k,
            &mut b,
            "syz_create_bind_socket",
            &[KArg::Int(2), KArg::Int(1), KArg::Int(0), KArg::Int(8080)],
        ));
        assert!(b.uart.drain().starts_with(b"I sal: socket"));
        ok(call(&mut k, &mut b, "closesocket", &[KArg::Int(s)]));
        // The open console is busy: unregistering it fails.
        let con = ok(call(&mut k, &mut b, "rt_console_device", &[]));
        assert!(matches!(
            call(&mut k, &mut b, "rt_device_unregister", &[KArg::Int(con)]),
            InvokeResult::Err(-16)
        ));
        // Close it, unregister it, then create a socket: Figure 6.
        ok(call(&mut k, &mut b, "rt_device_close", &[KArg::Int(con)]));
        ok(call(
            &mut k,
            &mut b,
            "rt_device_unregister",
            &[KArg::Int(con)],
        ));
        // A mundane socket after the unregister only loses its banner
        // (the short-banner guard swallows it).
        assert!(!call(
            &mut k,
            &mut b,
            "syz_create_bind_socket",
            &[KArg::Int(2), KArg::Int(1), KArg::Int(0), KArg::Int(80)],
        )
        .is_fault());
        // The paper's own arguments — raw protocol 0x101, ephemeral port
        // 48248 — take the long-banner path into the stale device.
        let r = call(
            &mut k,
            &mut b,
            "syz_create_bind_socket",
            &[
                KArg::Int(2),
                KArg::Int(1),
                KArg::Int(0x101),
                KArg::Int(48248),
            ],
        );
        assert!(is_bug(&r, 12));
        if let InvokeResult::Fault(f) = r {
            assert_eq!(f.frames[0], "rt_serial_write");
            assert!(f.frames.contains(&"rt_kprintf"));
            assert!(f.frames.contains(&"sal_socket"));
            assert!(f.hangs_after);
        }
    }

    #[test]
    fn event_recv_options() {
        let mut k = RtThreadKernel::new();
        let mut b = bus();
        let e = ok(call(
            &mut k,
            &mut b,
            "rt_event_create",
            &[KArg::Str("evt".into())],
        ));
        ok(call(
            &mut k,
            &mut b,
            "rt_event_send",
            &[KArg::Int(e), KArg::Int(0b0110)],
        ));
        // AND on a superset mask blocks.
        assert!(matches!(
            call(
                &mut k,
                &mut b,
                "rt_event_recv",
                &[KArg::Int(e), KArg::Int(0b1110), KArg::Int(0x1)]
            ),
            InvokeResult::Err(-11)
        ));
        // OR+CLEAR succeeds.
        assert_eq!(
            ok(call(
                &mut k,
                &mut b,
                "rt_event_recv",
                &[KArg::Int(e), KArg::Int(0b0100), KArg::Int(0x2 | 0x4)]
            )),
            0b0100
        );
    }

    #[test]
    fn zero_flag_event_send_is_error_not_bug() {
        let mut k = RtThreadKernel::new();
        let mut b = bus();
        let e = ok(call(
            &mut k,
            &mut b,
            "rt_event_create",
            &[KArg::Str("evt".into())],
        ));
        assert!(matches!(
            call(
                &mut k,
                &mut b,
                "rt_event_send",
                &[KArg::Int(e), KArg::Int(0)]
            ),
            InvokeResult::Err(-7)
        ));
    }

    #[test]
    fn bug22_needs_nack_and_long_read() {
        // NACK on a short read is a plain error; a long read off an
        // ACKing slave is fine.
        let mut k = RtThreadKernel::new();
        let mut b = bus();
        b.mmio.load_stream(&[0x01]);
        assert_eq!(
            call(
                &mut k,
                &mut b,
                "rt_i2c_master_recv",
                &[KArg::Int(0x50), KArg::Int(8)],
            ),
            InvokeResult::Err(-5)
        );
        b.mmio.load_stream(&[0x00]);
        assert!(!call(
            &mut k,
            &mut b,
            "rt_i2c_master_recv",
            &[KArg::Int(0x50), KArg::Int(20)],
        )
        .is_fault());
        // NACK on a bounce-buffered (long) read: double free.
        b.mmio.load_stream(&[0x01]);
        let r = call(
            &mut k,
            &mut b,
            "rt_i2c_master_recv",
            &[KArg::Int(0x50), KArg::Int(20)],
        );
        assert!(is_bug(&r, 22), "got {r:?}");
    }

    #[test]
    fn bug23_needs_second_start_on_active_engine() {
        // Two starts with the ACTIVE bit clear: fine.
        let mut k = RtThreadKernel::new();
        let mut b = bus();
        b.mmio.load_stream(&[0x00]);
        for _ in 0..2 {
            ok(call(
                &mut k,
                &mut b,
                "rt_dma_start",
                &[KArg::Int(0x10), KArg::Int(0x20), KArg::Int(256)],
            ));
        }
        // Completion between starts retires the descriptor: fine.
        let mut k = RtThreadKernel::new();
        let mut b = bus();
        b.mmio.load_stream(&[0x08]);
        ok(call(
            &mut k,
            &mut b,
            "rt_dma_start",
            &[KArg::Int(0x10), KArg::Int(0x20), KArg::Int(256)],
        ));
        {
            let mut cov = crate::ctx::CovState::uninstrumented();
            let mut ctx = crate::ctx::ExecCtx::new(&mut b, &mut cov);
            k.on_interrupt(&mut ctx, eof_hal::irq::DMA, &256u32.to_le_bytes());
        }
        assert!(!call(
            &mut k,
            &mut b,
            "rt_dma_start",
            &[KArg::Int(0x10), KArg::Int(0x20), KArg::Int(256)],
        )
        .is_fault());
        // Back-to-back starts on an ACTIVE engine: depth-2 bug #23
        // (replay pins the latched status byte across both polls).
        let mut k = RtThreadKernel::new();
        let mut b = bus();
        b.mmio.load_stream(&[0x08]);
        ok(call(
            &mut k,
            &mut b,
            "rt_dma_start",
            &[KArg::Int(0x10), KArg::Int(0x20), KArg::Int(256)],
        ));
        let r = call(
            &mut k,
            &mut b,
            "rt_dma_start",
            &[KArg::Int(0x10), KArg::Int(0x20), KArg::Int(256)],
        );
        assert!(is_bug(&r, 23), "got {r:?}");
    }

    #[test]
    fn no_spurious_faults_on_zero_args() {
        let n = RtThreadKernel::new().api_table().len() as u16;
        let mut b = bus();
        for id in 0..n {
            // Skip rt_object_init (id 2): zero args means empty name,
            // which IS bug #8 by design.
            if id == 2 {
                continue;
            }
            // Fresh kernel per API: state left by one call (e.g. an
            // unregistered console) must not bleed into the next check.
            let mut k = RtThreadKernel::new();
            let mut cov = crate::ctx::CovState::uninstrumented();
            let mut ctx = crate::ctx::ExecCtx::new(&mut b, &mut cov);
            let r = k.invoke(&mut ctx, id, &[]);
            assert!(!r.is_fault(), "api {id} faulted with no args: {r:?}");
        }
    }
}
