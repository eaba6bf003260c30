//! The full Table-2 matrix, end to end: every seeded bug triggered via
//! its canonical reproducer through the real stack — prog encoding,
//! debug-port upload, agent execution, monitor detection, banner-based
//! triage — and checked against the table's metadata (detection class,
//! hang behaviour).

use eof::core::crash::DetectionSource;
use eof::core::{boot_executor, cached_image};
use eof::hal::FaultPlan;
use eof::prelude::*;
use eof::rtos::bugs::{DetectionClass, BUG_TABLE};
use eof::speclang::prog::{ArgValue, Call};

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

fn i(v: u64) -> ArgValue {
    ArgValue::Int(v)
}

fn r(idx: u16) -> ArgValue {
    ArgValue::ResourceRef(idx)
}

fn s(v: &str) -> ArgValue {
    ArgValue::CString(v.to_string())
}

fn b(v: &[u8]) -> ArgValue {
    ArgValue::Buffer(v.to_vec())
}

/// The canonical reproducer for each Table-2 bug, as EOF's crash
/// minimiser would report it.
fn reproducer(number: u8) -> (OsKind, Prog) {
    let calls = match number {
        1 => vec![
            call("k_heap_init", vec![i(4096), i(8)]),
            call("k_heap_alloc", vec![r(0), i(64)]),
            call("k_heap_alloc", vec![r(0), i(64)]),
            call("sys_heap_stress", vec![i(64), i(7)]),
        ],
        2 => vec![
            call("k_msgq_alloc_init", vec![i(4), i(16)]),
            call("k_msgq_purge", vec![r(0)]),
            call("z_impl_k_msgq_get", vec![r(0), i(u64::MAX)]),
        ],
        3 => vec![call("json_obj_encode", vec![i(13), i(3)])],
        4 => vec![call("k_heap_init", vec![i(12), i(7)])],
        5 => vec![
            call("rt_object_init", vec![i(5), s("spi1")]),
            call("rt_object_detach", vec![r(0)]),
            call("rt_object_get_type", vec![r(0)]),
        ],
        6 => vec![
            call("rt_object_init", vec![i(4), s("mp0")]),
            call("rt_object_detach", vec![r(0)]),
            call("rt_object_detach", vec![r(0)]),
            call("rt_service_check", vec![i(4), i(11)]),
        ],
        7 => vec![
            call("rt_mp_create", vec![s("mp"), i(16), i(2)]),
            call("rt_mp_alloc", vec![r(0), i(0)]),
            call("rt_mp_alloc", vec![r(0), i(0)]),
            call("rt_mp_alloc", vec![r(0), i(0x5A)]),
        ],
        8 => vec![call("rt_object_init", vec![i(6), s("")])],
        9 => vec![
            call("rt_enter_critical", vec![]),
            call("rt_malloc", vec![i(2048)]),
        ],
        10 => vec![
            call("rt_event_create", vec![s("evt")]),
            call("rt_event_delete", vec![r(0)]),
            call("rt_event_send", vec![r(0), i((u32::MAX >> 6) as u64)]),
        ],
        11 => vec![
            call("rt_smem_init", vec![i(118)]),
            call("rt_smem_setname", vec![r(0), s("a-very-long-region-name")]),
        ],
        12 => vec![
            call("rt_console_device", vec![]),
            call("rt_device_close", vec![r(0)]),
            call("rt_device_unregister", vec![r(0)]),
            call(
                "syz_create_bind_socket",
                vec![i(2), i(1), i(0x101), i(48248)],
            ),
        ],
        13 => vec![call("load_partitions", vec![i(3), i(0x10)])],
        14 => vec![
            call("setenv", vec![s("A"), s("value0"), i(1)]),
            call("setenv", vec![s("A"), s(&"v".repeat(47)), i(0)]),
        ],
        15 => vec![
            call("clock_settime", vec![i(u64::MAX / 4)]),
            call("gettimeofday", vec![i(1), i(0)]),
        ],
        16 => vec![
            call("mq_open", vec![i(0), i(16), i(2)]),
            call("mq_send", vec![r(0), b(&[1]), i(1)]),
            call("mq_send", vec![r(0), b(&[2]), i(1)]),
            call("nxmq_timedsend", vec![r(0), b(&[3]), i(27), i(0)]),
        ],
        17 => vec![
            call("nxsem_init", vec![i(0)]),
            call("nxsem_wait", vec![r(0)]),
            call("nxsem_wait", vec![r(0)]),
            call("nxsem_wait", vec![r(0)]),
            call("nxsem_destroy", vec![r(0)]),
            call("nxsem_trywait", vec![r(0)]),
        ],
        18 => vec![call("timer_create", vec![i(1), i(2), i(512)])],
        19 => vec![call("clock_getres", vec![i(7), i(3)])],
        _ => unreachable!(),
    };
    let os = BUG_TABLE
        .iter()
        .find(|info| info.number == number)
        .unwrap()
        .os;
    (
        os,
        Prog {
            mmio: vec![],
            calls,
        },
    )
}

#[test]
fn all_nineteen_bugs_trigger_end_to_end() {
    // Group by OS so each executor is reused across its bugs (the target
    // recovers or is restored between cases, like a real campaign).
    for os in OsKind::ALL {
        let numbers: Vec<u8> = BUG_TABLE
            .iter()
            .filter(|info| info.os == os)
            .map(|info| info.number)
            .collect();
        if numbers.is_empty() {
            continue;
        }
        let mut ex = executor(os);
        for number in numbers {
            let info = BUG_TABLE.iter().find(|i| i.number == number).unwrap();
            let (prog_os, prog) = reproducer(number);
            assert_eq!(prog_os, os);
            let outcome = ex.run_one(&prog);
            let crash = outcome
                .crash
                .unwrap_or_else(|| panic!("bug #{number}: no crash detected"));
            assert_eq!(
                crash.bug.map(|bug| bug.number()),
                Some(number),
                "bug #{number}: triaged as {:?} ({})",
                crash.bug,
                crash.message
            );
            // Detection channel matches Table 2's attribution.
            match info.detection {
                DetectionClass::LogMonitor => {
                    assert_eq!(crash.source, DetectionSource::LogMonitor, "bug #{number}")
                }
                DetectionClass::ExceptionMonitor => assert_eq!(
                    crash.source,
                    DetectionSource::ExceptionMonitor,
                    "bug #{number}"
                ),
            }
            // Hang behaviour matches the inventory.
            assert_eq!(
                outcome.stalled, info.hangs,
                "bug #{number}: stalled={} but table says hangs={}",
                outcome.stalled, info.hangs
            );
            // The campaign continues afterwards: a benign input runs.
            let benign = Prog {
                mmio: vec![],
                calls: vec![match os {
                    OsKind::Zephyr => call("k_yield", vec![]),
                    OsKind::RtThread => call("rt_tick_increase", vec![i(1)]),
                    OsKind::NuttX => call("sched_tick", vec![i(1)]),
                    OsKind::FreeRtos => call("vTaskTickIncrement", vec![i(1)]),
                    OsKind::PokOs => call("pok_sched_slot", vec![i(1)]),
                }],
            };
            let after = ex.run_one(&benign);
            assert!(
                after.crash.is_none(),
                "bug #{number}: target unhealthy afterwards"
            );
        }
    }
}

#[test]
fn hanging_bug_count_matches_inventory() {
    // Sanity on the inventory itself: exactly the timeout-visible bugs
    // (Tardis's six) hang per Table 2's comparison discussion, plus the
    // depth-gated hangs EOF alone reaches.
    let hanging: Vec<u8> = BUG_TABLE
        .iter()
        .filter(|b| b.hangs)
        .map(|b| b.number)
        .collect();
    for required in [3, 4, 5, 8, 15, 18] {
        assert!(hanging.contains(&required), "#{required} must hang");
    }
}
