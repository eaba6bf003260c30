//! PoK-like partitioned OS model.
//!
//! Personality: ARINC-653-flavoured time and space partitioning —
//! partitions with scheduling slots, sampling/queuing ports for
//! inter-partition communication, blackboards for intra-partition
//! state, and a health-monitor error API. This is the target of the
//! paper's Gustave comparison (Table 3's PoKOS row); it carries no
//! Table-2 bugs.

use crate::api::{ApiDescriptor, InvokeResult, KArg};
use crate::ctx::ExecCtx;
use crate::kernel::{Kernel, OsKind};
use crate::os::{a_bytes, a_enum, a_int, a_res, arg_bytes, arg_int};
use crate::subsys::ipc::{EventGroup, IpcError, MsgQueue, Semaphore};
use std::sync::LazyLock;

const PORT_DIRS: &[(&str, u64)] = &[("SOURCE", 0), ("DESTINATION", 1)];

/// PC-site ids for the driver layer's MMIO polls (replay keys on them).
const SITE_SPI_STATUS: u32 = 0x4a00;
const SITE_SPI_DATA: u32 = 0x4a10;
const SITE_I2C_STATUS: u32 = 0x4a20;
const SITE_I2C_DATA: u32 = 0x4a30;
const SITE_DMA_STATUS: u32 = 0x4a40;
const PART_MODES: &[(&str, u64)] = &[
    ("IDLE", 0),
    ("COLD_START", 1),
    ("WARM_START", 2),
    ("NORMAL", 3),
];
const PORT_NAMES: &[(&str, u64)] = &[("P0", 0), ("P1", 1), ("P2", 2), ("P3", 3)];
const ERROR_CODES: &[(&str, u64)] = &[
    ("DEADLINE_MISSED", 1),
    ("APPLICATION_ERROR", 2),
    ("NUMERIC_ERROR", 3),
    ("ILLEGAL_REQUEST", 4),
    ("STACK_OVERFLOW", 5),
];

#[derive(Debug, Clone)]
struct Partition {
    slots: u32,
    mode: u64,
    errors: u32,
}

#[derive(Debug, Clone)]
struct Port {
    name: u64,
    dir: u64,
    size: u32,
    queue: Vec<Vec<u8>>,
}

#[derive(Debug, Clone)]
struct Blackboard {
    name: u64,
    size: u32,
    data: Option<Vec<u8>>,
}

/// The PoK model.
pub struct PokKernel {
    partitions: Vec<Partition>,
    ports: Vec<Port>,
    blackboards: Vec<Blackboard>,
    buffers: Vec<MsgQueue>,
    events: Vec<EventGroup>,
    sems: Vec<Semaphore>,
    major_frame: u64,
}

/// The published API surface. It is the same for every boot, so it is
/// built once per process, not on every (per-test-case) reset.
static API: LazyLock<Vec<ApiDescriptor>> = LazyLock::new(PokKernel::build_api);

impl Default for PokKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl PokKernel {
    /// A freshly booted PoK.
    pub fn new() -> Self {
        PokKernel {
            partitions: Vec::new(),
            ports: Vec::new(),
            blackboards: Vec::new(),
            buffers: Vec::new(),
            events: Vec::new(),
            sems: Vec::new(),
            major_frame: 0,
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
            "pok_partition_create",
            vec![a_int("slots", 1, 8), a_int("period", 1, 100)],
            Some("partition"),
            "partition",
            "Create a time partition with scheduling slots.",
        ));
        v.push(api(
            "pok_partition_set_mode",
            vec![
                a_res("part", "partition"),
                a_enum("mode", "part_modes", PART_MODES),
            ],
            None,
            "partition",
            "Transition a partition's operating mode.",
        ));
        v.push(api(
            "pok_port_create",
            vec![
                a_enum("name", "port_names", PORT_NAMES),
                a_enum("dir", "port_dirs", PORT_DIRS),
                a_int("size", 1, 128),
            ],
            Some("port"),
            "port",
            "Create a queuing port.",
        ));
        v.push(api(
            "pok_port_send",
            vec![a_res("port", "port"), a_bytes("data", 128)],
            None,
            "port",
            "Send through a SOURCE port.",
        ));
        v.push(api(
            "pok_port_receive",
            vec![a_res("port", "port")],
            None,
            "port",
            "Receive from a DESTINATION port.",
        ));
        v.push(api(
            "pok_blackboard_create",
            vec![
                a_enum("name", "port_names", PORT_NAMES),
                a_int("size", 1, 128),
            ],
            Some("blackboard"),
            "blackboard",
            "Create a blackboard.",
        ));
        v.push(api(
            "pok_blackboard_display",
            vec![a_res("bb", "blackboard"), a_bytes("data", 128)],
            None,
            "blackboard",
            "Publish a message on a blackboard.",
        ));
        v.push(api(
            "pok_blackboard_read",
            vec![a_res("bb", "blackboard")],
            None,
            "blackboard",
            "Read the current message.",
        ));
        v.push(api(
            "pok_sched_slot",
            vec![a_int("n", 1, 16)],
            None,
            "kernel",
            "Advance the partition scheduler by n minor frames.",
        ));
        v.push(api(
            "pok_error_raise",
            vec![
                a_res("part", "partition"),
                a_enum("code", "error_codes", ERROR_CODES),
            ],
            None,
            "kernel",
            "Raise a health-monitor error against a partition.",
        ));
        v.push(api(
            "pok_buffer_create",
            vec![a_int("msg_size", 1, 64), a_int("capacity", 1, 16)],
            Some("msgbuf"),
            "buffer",
            "Create an intra-partition message buffer.",
        ));
        v.push(api(
            "pok_buffer_send",
            vec![a_res("buf", "msgbuf"), a_bytes("data", 64)],
            None,
            "buffer",
            "Send a message into a buffer.",
        ));
        v.push(api(
            "pok_buffer_receive",
            vec![a_res("buf", "msgbuf")],
            None,
            "buffer",
            "Receive the oldest message.",
        ));
        v.push(api(
            "pok_event_create",
            vec![],
            Some("event"),
            "event",
            "Create an ARINC event.",
        ));
        v.push(api(
            "pok_event_set",
            vec![a_res("evt", "event"), a_int("bits", 1, 0xffff)],
            None,
            "event",
            "Set event bits, releasing waiters.",
        ));
        v.push(api(
            "pok_event_wait",
            vec![
                a_res("evt", "event"),
                a_int("mask", 1, 0xffff),
                a_int("wait_all", 0, 1),
            ],
            None,
            "event",
            "Poll for event bits with AND/OR semantics.",
        ));
        v.push(api(
            "pok_event_reset",
            vec![a_res("evt", "event")],
            None,
            "event",
            "Clear all event bits.",
        ));
        v.push(api(
            "pok_sem_create",
            vec![a_int("value", 0, 8), a_int("max", 1, 8)],
            Some("sem"),
            "sem",
            "Create a counting semaphore.",
        ));
        v.push(api(
            "pok_sem_wait",
            vec![a_res("sem", "sem")],
            None,
            "sem",
            "Take a semaphore (no wait).",
        ));
        v.push(api(
            "pok_sem_signal",
            vec![a_res("sem", "sem")],
            None,
            "sem",
            "Signal a semaphore.",
        ));
        v.push(api(
            "pok_spi_transfer",
            vec![a_int("tx_len", 0, 64), a_int("rx_len", 0, 64)],
            None,
            "spi",
            "Exchange bytes on the partition's SPI device.",
        ));
        v.push(api(
            "pok_i2c_read",
            vec![a_int("addr", 0, 127), a_int("len", 0, 32)],
            None,
            "i2c",
            "Read from an I2C slave through the partition device server.",
        ));
        v.push(api(
            "pok_dma_start",
            vec![
                a_int("src", 0, 65535),
                a_int("dst", 0, 65535),
                a_int("len", 0, 65535),
            ],
            None,
            "dma",
            "Start a bounded DMA transfer (space partitioning enforced).",
        ));
        v
    }
}

impl Kernel for PokKernel {
    fn os(&self) -> OsKind {
        OsKind::PokOs
    }

    fn on_interrupt(&mut self, ctx: &mut ExecCtx<'_>, line: u8, payload: &[u8]) -> InvokeResult {
        match line {
            eof_hal::irq::TIMER => {
                ctx.cov("pokos::isr::minor_frame::entry");
                self.major_frame += 1;
                for (i, p) in self.partitions.iter().enumerate() {
                    if p.mode == 3 {
                        ctx.cov_var("pokos::isr::minor_frame::run", (i as u64).min(7));
                    }
                }
                InvokeResult::Ok(self.major_frame)
            }
            eof_hal::irq::GPIO => {
                ctx.cov("pokos::isr::gpio::entry");
                ctx.charge(2);
                InvokeResult::Ok(0)
            }
            eof_hal::irq::SPI => {
                ctx.cov("pokos::isr::spi_done::entry");
                ctx.charge(2);
                InvokeResult::Ok(0)
            }
            eof_hal::irq::I2C => {
                ctx.cov("pokos::isr::i2c_done::entry");
                ctx.charge(2);
                InvokeResult::Ok(0)
            }
            eof_hal::irq::DMA => {
                ctx.cov("pokos::isr::dma_done::entry");
                ctx.charge(3);
                let len = payload
                    .first_chunk::<4>()
                    .map(|b| u32::from_le_bytes(*b))
                    .unwrap_or(0);
                InvokeResult::Ok(len as u64)
            }
            _ => InvokeResult::Err(-38),
        }
    }

    fn api_table(&self) -> &[ApiDescriptor] {
        &API
    }

    fn exception_symbol(&self) -> &'static str {
        "pok_fatal"
    }

    fn assert_symbol(&self) -> &'static str {
        "pok_assert"
    }

    fn total_branch_sites(&self) -> usize {
        crate::image::total_sites(OsKind::PokOs)
    }

    fn boot_banner(&self) -> Vec<String> {
        vec!["POK kernel b2e1cc3 (partitioned)".into()]
    }

    fn reset(&mut self, _ctx: &mut ExecCtx<'_>) {
        *self = Self::new();
    }

    fn invoke(&mut self, ctx: &mut ExecCtx<'_>, api_id: u16, args: &[KArg]) -> InvokeResult {
        match api_id {
            // pok_partition_create
            0 => {
                ctx.cov("pokos::partition::create::entry");
                if self.partitions.len() >= 8 {
                    ctx.cov("pokos::partition::create::full");
                    return InvokeResult::Err(-1);
                }
                let slots = arg_int(args, 0).clamp(1, 8) as u32;
                ctx.cov_var("pokos::partition::create::slots", slots as u64);
                self.partitions.push(Partition {
                    slots,
                    mode: 1,
                    errors: 0,
                });
                InvokeResult::Ok(self.partitions.len() as u64 - 1)
            }
            // pok_partition_set_mode
            1 => {
                let mode = arg_int(args, 1).min(3);
                let Some(p) = self.partitions.get_mut(arg_int(args, 0) as usize) else {
                    return InvokeResult::Err(-2);
                };
                ctx.cov_var("pokos::partition::set_mode::transition", p.mode * 4 + mode);
                // ARINC mode machine: NORMAL only from WARM/COLD start.
                if mode == 3 && p.mode == 0 {
                    ctx.cov("pokos::partition::set_mode::illegal");
                    return InvokeResult::Err(-3);
                }
                p.mode = mode;
                InvokeResult::Ok(mode)
            }
            // pok_port_create
            2 => {
                ctx.cov("pokos::port::create::entry");
                let name = arg_int(args, 0).min(3);
                let dir = arg_int(args, 1).min(1);
                if self.ports.iter().any(|p| p.name == name && p.dir == dir) {
                    ctx.cov("pokos::port::create::dup");
                    return InvokeResult::Err(-4);
                }
                self.ports.push(Port {
                    name,
                    dir,
                    size: arg_int(args, 2).clamp(1, 128) as u32,
                    queue: Vec::new(),
                });
                InvokeResult::Ok(self.ports.len() as u64 - 1)
            }
            // pok_port_send
            3 => {
                let data = arg_bytes(args, 1).to_vec();
                let Some(p) = self.ports.get_mut(arg_int(args, 0) as usize) else {
                    return InvokeResult::Err(-2);
                };
                if p.dir != 0 {
                    ctx.cov("pokos::port::send::wrong_dir");
                    return InvokeResult::Err(-5);
                }
                if data.len() > p.size as usize {
                    ctx.cov("pokos::port::send::oversize");
                    return InvokeResult::Err(-6);
                }
                if p.queue.len() >= 8 {
                    ctx.cov("pokos::port::send::full");
                    return InvokeResult::Err(-7);
                }
                ctx.cov("pokos::port::send::ok");
                p.queue.push(data);
                InvokeResult::Ok(0)
            }
            // pok_port_receive — in this loopback model, DESTINATION
            // ports drain the SOURCE port with the same name.
            4 => {
                let h = arg_int(args, 0) as usize;
                let Some(p) = self.ports.get(h) else {
                    return InvokeResult::Err(-2);
                };
                if p.dir != 1 {
                    ctx.cov("pokos::port::recv::wrong_dir");
                    return InvokeResult::Err(-5);
                }
                let name = p.name;
                let src = self.ports.iter_mut().find(|q| q.name == name && q.dir == 0);
                match src.and_then(|q| {
                    if q.queue.is_empty() {
                        None
                    } else {
                        Some(q.queue.remove(0))
                    }
                }) {
                    Some(m) => {
                        ctx.cov("pokos::port::recv::ok");
                        InvokeResult::Ok(m.len() as u64)
                    }
                    None => {
                        ctx.cov("pokos::port::recv::empty");
                        InvokeResult::Err(-8)
                    }
                }
            }
            // pok_blackboard_create
            5 => {
                ctx.cov("pokos::blackboard::create::entry");
                let name = arg_int(args, 0).min(3);
                if self.blackboards.iter().any(|b| b.name == name) {
                    return InvokeResult::Err(-4);
                }
                self.blackboards.push(Blackboard {
                    name,
                    size: arg_int(args, 1).clamp(1, 128) as u32,
                    data: None,
                });
                InvokeResult::Ok(self.blackboards.len() as u64 - 1)
            }
            // pok_blackboard_display
            6 => {
                let data = arg_bytes(args, 1).to_vec();
                let Some(b) = self.blackboards.get_mut(arg_int(args, 0) as usize) else {
                    return InvokeResult::Err(-2);
                };
                if data.len() > b.size as usize {
                    ctx.cov("pokos::blackboard::display::oversize");
                    return InvokeResult::Err(-6);
                }
                ctx.cov(if b.data.is_some() {
                    "pokos::blackboard::display::replace"
                } else {
                    "pokos::blackboard::display::first"
                });
                b.data = Some(data);
                InvokeResult::Ok(0)
            }
            // pok_blackboard_read
            7 => {
                let Some(b) = self.blackboards.get(arg_int(args, 0) as usize) else {
                    return InvokeResult::Err(-2);
                };
                match &b.data {
                    Some(d) => {
                        ctx.cov("pokos::blackboard::read::ok");
                        InvokeResult::Ok(d.len() as u64)
                    }
                    None => {
                        ctx.cov("pokos::blackboard::read::empty");
                        InvokeResult::Err(-8)
                    }
                }
            }
            // pok_sched_slot
            8 => {
                let n = arg_int(args, 0).clamp(1, 16);
                self.major_frame += n;
                ctx.charge(n);
                for (i, p) in self.partitions.iter().enumerate() {
                    if p.mode == 3 {
                        // One edge per (partition, minor-frame slot).
                        for slot in 0..p.slots {
                            ctx.cov_var("pokos::kernel::slot_run", (i as u64) * 16 + slot as u64);
                        }
                    }
                }
                InvokeResult::Ok(self.major_frame)
            }
            // pok_error_raise
            9 => {
                let code = arg_int(args, 1);
                let Some(p) = self.partitions.get_mut(arg_int(args, 0) as usize) else {
                    return InvokeResult::Err(-2);
                };
                ctx.cov_var("pokos::kernel::error_raise::code", code.min(15));
                p.errors += 1;
                // Three errors trip the health monitor into IDLE.
                if p.errors >= 3 {
                    ctx.cov("pokos::kernel::error_raise::hm_idle");
                    p.mode = 0;
                }
                InvokeResult::Ok(p.errors as u64)
            }
            // pok_buffer_create
            10 => {
                ctx.cov("pokos::buffer::create::entry");
                if self.buffers.len() >= 16 {
                    return InvokeResult::Err(-1);
                }
                let size = arg_int(args, 0).clamp(1, 64) as u32;
                let cap = arg_int(args, 1).clamp(1, 16) as usize;
                self.buffers.push(MsgQueue::new(size, cap));
                InvokeResult::Ok(self.buffers.len() as u64 - 1)
            }
            // pok_buffer_send
            11 => match self.buffers.get_mut(arg_int(args, 0) as usize) {
                Some(q) => match q.put(ctx, "pokos::buffer::send", arg_bytes(args, 1)) {
                    Ok(()) => InvokeResult::Ok(0),
                    Err(IpcError::Full) => InvokeResult::Err(-7),
                    Err(_) => InvokeResult::Err(-6),
                },
                None => InvokeResult::Err(-2),
            },
            // pok_buffer_receive
            12 => match self.buffers.get_mut(arg_int(args, 0) as usize) {
                Some(q) => match q.get(ctx, "pokos::buffer::receive") {
                    Ok(m) => InvokeResult::Ok(m.len() as u64),
                    Err(_) => InvokeResult::Err(-8),
                },
                None => InvokeResult::Err(-2),
            },
            // pok_event_create
            13 => {
                ctx.cov("pokos::event::create::entry");
                if self.events.len() >= 16 {
                    return InvokeResult::Err(-1);
                }
                self.events.push(EventGroup::new());
                InvokeResult::Ok(self.events.len() as u64 - 1)
            }
            // pok_event_set
            14 => match self.events.get_mut(arg_int(args, 0) as usize) {
                Some(e) => match e.send(ctx, "pokos::event::set", arg_int(args, 1) as u32) {
                    Ok(bits) => InvokeResult::Ok(bits as u64),
                    Err(_) => InvokeResult::Err(-6),
                },
                None => InvokeResult::Err(-2),
            },
            // pok_event_wait
            15 => {
                let mask = arg_int(args, 1) as u32;
                let all = arg_int(args, 2) == 1;
                match self.events.get_mut(arg_int(args, 0) as usize) {
                    Some(e) => match e.recv(ctx, "pokos::event::wait", mask, all, false) {
                        Ok(got) => InvokeResult::Ok(got as u64),
                        Err(_) => InvokeResult::Err(-8),
                    },
                    None => InvokeResult::Err(-2),
                }
            }
            // pok_event_reset
            16 => match self.events.get_mut(arg_int(args, 0) as usize) {
                Some(e) => {
                    ctx.cov("pokos::event::reset::entry");
                    let _ = e.recv(ctx, "pokos::event::reset", u32::MAX, false, true);
                    InvokeResult::Ok(0)
                }
                None => InvokeResult::Err(-2),
            },
            // pok_sem_create
            17 => {
                ctx.cov("pokos::sem::create::entry");
                if self.sems.len() >= 16 {
                    return InvokeResult::Err(-1);
                }
                let max = arg_int(args, 1).clamp(1, 8) as i32;
                let value = (arg_int(args, 0) as i32).min(max);
                self.sems.push(Semaphore::new(value, max));
                InvokeResult::Ok(self.sems.len() as u64 - 1)
            }
            // pok_sem_wait
            18 => match self.sems.get_mut(arg_int(args, 0) as usize) {
                Some(sm) => match sm.try_take(ctx, "pokos::sem::wait") {
                    Ok(()) => InvokeResult::Ok(0),
                    Err(_) => InvokeResult::Err(-8),
                },
                None => InvokeResult::Err(-2),
            },
            // pok_sem_signal
            19 => match self.sems.get_mut(arg_int(args, 0) as usize) {
                Some(sm) => match sm.give(ctx, "pokos::sem::signal") {
                    Ok(()) => InvokeResult::Ok(0),
                    Err(_) => InvokeResult::Err(-7),
                },
                None => InvokeResult::Err(-2),
            },
            // pok_spi_transfer — PoK's partitioned drivers carry no
            // seeded bugs; the layer exists for the Gustave comparison.
            20 => {
                use eof_hal::mmio::{periph, reg, CTRL_START};
                ctx.cov("pokos::spi::pok_spi_transfer::entry");
                let tx_len = arg_int(args, 0).min(64);
                let rx_len = arg_int(args, 1).min(64);
                ctx.charge(8 + tx_len + rx_len);
                ctx.bus
                    .mmio_write(periph::SPI, reg::CTRL, CTRL_START | (tx_len << 8));
                let status = ctx.bus.mmio_read(SITE_SPI_STATUS, periph::SPI, reg::STATUS);
                ctx.cov_var(
                    "pokos::spi::pok_spi_transfer::status_band",
                    (status & 0x7) as u64,
                );
                let mut sum = 0u64;
                for i in 0..rx_len.min(8) as u32 {
                    sum += ctx.bus.mmio_read(SITE_SPI_DATA + i, periph::SPI, reg::DATA) as u64;
                }
                InvokeResult::Ok(sum)
            }
            // pok_i2c_read
            21 => {
                use eof_hal::mmio::{periph, reg, CTRL_START};
                ctx.cov("pokos::i2c::pok_i2c_read::entry");
                let addr = arg_int(args, 0) & 0x7f;
                let len = arg_int(args, 1).min(32);
                ctx.charge(6 + len);
                ctx.bus
                    .mmio_write(periph::I2C, reg::CTRL, CTRL_START | (addr << 1));
                let status = ctx.bus.mmio_read(SITE_I2C_STATUS, periph::I2C, reg::STATUS);
                if status & 0x1 != 0 {
                    ctx.cov("pokos::i2c::pok_i2c_read::nack");
                    return InvokeResult::Err(-8);
                }
                let mut sum = 0u64;
                for i in 0..len.min(8) as u32 {
                    sum += ctx.bus.mmio_read(SITE_I2C_DATA + i, periph::I2C, reg::DATA) as u64;
                }
                InvokeResult::Ok(sum)
            }
            // pok_dma_start
            22 => {
                use eof_hal::mmio::{periph, reg, CTRL_START};
                ctx.cov("pokos::dma::pok_dma_start::entry");
                let src = arg_int(args, 0);
                let dst = arg_int(args, 1);
                let len = arg_int(args, 2).min(65535);
                ctx.charge(10 + len / 64);
                ctx.bus.mmio_write(periph::DMA, reg::SRC, src);
                ctx.bus.mmio_write(periph::DMA, reg::DST, dst);
                ctx.bus.mmio_write(periph::DMA, reg::LEN, len);
                ctx.bus.mmio_write(periph::DMA, reg::CTRL, CTRL_START);
                let status = ctx.bus.mmio_read(SITE_DMA_STATUS, periph::DMA, reg::STATUS);
                ctx.cov_var(
                    "pokos::dma::pok_dma_start::chan_band",
                    (status & 0x3) as u64,
                );
                InvokeResult::Ok(len)
            }
            _ => InvokeResult::Err(-88),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::os::testutil::{bus, call, ok};

    #[test]
    fn partition_mode_machine() {
        let mut k = PokKernel::new();
        let mut b = bus();
        let p = ok(call(
            &mut k,
            &mut b,
            "pok_partition_create",
            &[KArg::Int(2), KArg::Int(10)],
        ));
        // COLD_START → NORMAL is legal.
        assert_eq!(
            ok(call(
                &mut k,
                &mut b,
                "pok_partition_set_mode",
                &[KArg::Int(p), KArg::Int(3)]
            )),
            3
        );
        // NORMAL → IDLE, then IDLE → NORMAL is illegal.
        ok(call(
            &mut k,
            &mut b,
            "pok_partition_set_mode",
            &[KArg::Int(p), KArg::Int(0)],
        ));
        assert!(matches!(
            call(
                &mut k,
                &mut b,
                "pok_partition_set_mode",
                &[KArg::Int(p), KArg::Int(3)]
            ),
            InvokeResult::Err(-3)
        ));
    }

    #[test]
    fn port_channel_source_to_destination() {
        let mut k = PokKernel::new();
        let mut b = bus();
        let src = ok(call(
            &mut k,
            &mut b,
            "pok_port_create",
            &[KArg::Int(0), KArg::Int(0), KArg::Int(32)],
        ));
        let dst = ok(call(
            &mut k,
            &mut b,
            "pok_port_create",
            &[KArg::Int(0), KArg::Int(1), KArg::Int(32)],
        ));
        // Duplicate (name, dir) is rejected.
        assert!(matches!(
            call(
                &mut k,
                &mut b,
                "pok_port_create",
                &[KArg::Int(0), KArg::Int(0), KArg::Int(32)]
            ),
            InvokeResult::Err(-4)
        ));
        ok(call(
            &mut k,
            &mut b,
            "pok_port_send",
            &[KArg::Int(src), KArg::Bytes(b"msg".to_vec())],
        ));
        assert_eq!(
            ok(call(&mut k, &mut b, "pok_port_receive", &[KArg::Int(dst)])),
            3
        );
        assert!(matches!(
            call(&mut k, &mut b, "pok_port_receive", &[KArg::Int(dst)]),
            InvokeResult::Err(-8)
        ));
        // Direction rules enforced both ways.
        assert!(matches!(
            call(&mut k, &mut b, "pok_port_receive", &[KArg::Int(src)]),
            InvokeResult::Err(-5)
        ));
        assert!(matches!(
            call(
                &mut k,
                &mut b,
                "pok_port_send",
                &[KArg::Int(dst), KArg::Bytes(b"x".to_vec())]
            ),
            InvokeResult::Err(-5)
        ));
    }

    #[test]
    fn blackboard_display_read() {
        let mut k = PokKernel::new();
        let mut b = bus();
        let bb = ok(call(
            &mut k,
            &mut b,
            "pok_blackboard_create",
            &[KArg::Int(2), KArg::Int(16)],
        ));
        assert!(matches!(
            call(&mut k, &mut b, "pok_blackboard_read", &[KArg::Int(bb)]),
            InvokeResult::Err(-8)
        ));
        ok(call(
            &mut k,
            &mut b,
            "pok_blackboard_display",
            &[KArg::Int(bb), KArg::Bytes(b"state".to_vec())],
        ));
        assert_eq!(
            ok(call(
                &mut k,
                &mut b,
                "pok_blackboard_read",
                &[KArg::Int(bb)]
            )),
            5
        );
        assert!(matches!(
            call(
                &mut k,
                &mut b,
                "pok_blackboard_display",
                &[KArg::Int(bb), KArg::Bytes(vec![0; 64])]
            ),
            InvokeResult::Err(-6)
        ));
    }

    #[test]
    fn health_monitor_idles_partition() {
        let mut k = PokKernel::new();
        let mut b = bus();
        let p = ok(call(
            &mut k,
            &mut b,
            "pok_partition_create",
            &[KArg::Int(1), KArg::Int(10)],
        ));
        ok(call(
            &mut k,
            &mut b,
            "pok_partition_set_mode",
            &[KArg::Int(p), KArg::Int(3)],
        ));
        for i in 1..=3u64 {
            assert_eq!(
                ok(call(
                    &mut k,
                    &mut b,
                    "pok_error_raise",
                    &[KArg::Int(p), KArg::Int(2)]
                )),
                i
            );
        }
        // Partition is now IDLE; NORMAL re-entry is illegal.
        assert!(matches!(
            call(
                &mut k,
                &mut b,
                "pok_partition_set_mode",
                &[KArg::Int(p), KArg::Int(3)]
            ),
            InvokeResult::Err(-3)
        ));
    }

    #[test]
    fn sched_slots_accumulate() {
        let mut k = PokKernel::new();
        let mut b = bus();
        assert_eq!(
            ok(call(&mut k, &mut b, "pok_sched_slot", &[KArg::Int(4)])),
            4
        );
        assert_eq!(
            ok(call(&mut k, &mut b, "pok_sched_slot", &[KArg::Int(4)])),
            8
        );
    }

    #[test]
    fn driver_layer_is_bug_free_under_hostile_streams() {
        // PoK carries no seeded driver bugs: any status byte only varies
        // data/error paths, never faults.
        for stream in [0x00u8, 0x01, 0x04, 0x08, 0x40, 0x80, 0xff] {
            let mut k = PokKernel::new();
            let mut b = bus();
            b.mmio.load_stream(&[stream]);
            assert!(!call(
                &mut k,
                &mut b,
                "pok_spi_transfer",
                &[KArg::Int(8), KArg::Int(64)],
            )
            .is_fault());
            assert!(!call(
                &mut k,
                &mut b,
                "pok_i2c_read",
                &[KArg::Int(0x50), KArg::Int(32)],
            )
            .is_fault());
            assert!(!call(
                &mut k,
                &mut b,
                "pok_dma_start",
                &[KArg::Int(1), KArg::Int(2), KArg::Int(65535)],
            )
            .is_fault());
        }
    }
}
