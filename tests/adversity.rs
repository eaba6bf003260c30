//! Robustness under adversity: campaigns must survive link outages,
//! scheduled flash corruption, core lockups and hostile coverage-buffer
//! state without host-side panics, and keep making progress afterwards.

use eof::core::{boot_executor, cached_image};
use eof::hal::{FaultPlan, InjectedFault};
use eof::prelude::*;
use eof::speclang::prog::{ArgValue, Call};

fn harness(os: OsKind, plan: FaultPlan) -> Executor {
    let config = FuzzerConfig::eof(os, 21);
    let image = cached_image(os, config.profile, &config.effective_instrument());
    boot_executor(&config, &image, plan)
}

fn probe(os: OsKind) -> Prog {
    let call = match os {
        OsKind::Zephyr => Call {
            api: "k_yield".into(),
            args: vec![],
        },
        OsKind::NuttX => Call {
            api: "sched_tick".into(),
            args: vec![ArgValue::Int(1)],
        },
        _ => Call {
            api: "rt_tick_increase".into(),
            args: vec![ArgValue::Int(1)],
        },
    };
    Prog {
        mmio: vec![],
        calls: vec![call],
    }
}

#[test]
fn survives_scheduled_core_kill() {
    // Plan cycles count from arming (post-boot); a trivial exec costs
    // ~80 bus cycles, so 2_000 lands the kill mid-loop.
    let mut ex = harness(
        OsKind::Zephyr,
        FaultPlan::none().at(2_000, InjectedFault::KillCore),
    );
    let prog = probe(OsKind::Zephyr);
    let mut restored = false;
    for _ in 0..120 {
        let out = ex.run_one(&prog);
        restored |= out.restored;
    }
    assert!(restored, "the kill must have forced a restoration");
    let out = ex.run_one(&prog);
    assert!(out.crash.is_none());
}

#[test]
fn survives_flash_corruption_plus_lockup() {
    // Corruption alone is latent; the lockup forces a reboot through the
    // damaged image, and only the verify+reflash path revives it.
    let mut ex = harness(
        OsKind::RtThread,
        FaultPlan::none()
            .at(
                1_000,
                InjectedFault::FlashBitFlip {
                    offset: 0x20_0000,
                    bit: 5,
                },
            )
            .at(2_500, InjectedFault::KillCore),
    );
    let prog = probe(OsKind::RtThread);
    for _ in 0..150 {
        let _ = ex.run_one(&prog);
    }
    assert!(ex.restorations() >= 1);
    let out = ex.run_one(&prog);
    assert!(out.crash.is_none(), "target must end healthy");
}

#[test]
fn survives_repeated_link_outages() {
    let mut ex = harness(OsKind::Zephyr, FaultPlan::none());
    let prog = probe(OsKind::Zephyr);
    // Schedule several short outages ahead of the fuzzing.
    let now = ex.now();
    for k in 0..5 {
        ex.transport_mut()
            .schedule_outage(now + 5_000 + k * 9_000, 1_500);
    }
    let mut completed = 0;
    for _ in 0..120 {
        let out = ex.run_one(&prog);
        if !out.target_lost {
            completed += 1;
        }
    }
    assert!(
        completed > 60,
        "most executions still complete: {completed}"
    );
}

#[test]
fn survives_hostile_coverage_header() {
    // A buggy target could scribble the ring header; the host must clamp
    // and carry on.
    let mut ex = harness(OsKind::Zephyr, FaultPlan::none());
    let prog = probe(OsKind::Zephyr);
    let _ = ex.run_one(&prog);
    let base =
        eof::agent::AgentLayout::for_board(&eof::rtos::registry::default_board(OsKind::Zephyr))
            .cov
            .base;
    // Claim an absurd record count.
    ex.transport_mut()
        .write_mem(base, &u32::MAX.to_le_bytes())
        .unwrap();
    let out = ex.run_one(&prog);
    assert!(out.crash.is_none());
    let out = ex.run_one(&prog);
    assert!(out.crash.is_none());
}

#[test]
fn frozen_firmware_mid_campaign_is_recovered() {
    let mut ex = harness(
        OsKind::NuttX,
        FaultPlan::none().at(1_500, InjectedFault::FreezeFirmware),
    );
    let prog = probe(OsKind::NuttX);
    let mut stalled = false;
    for _ in 0..120 {
        let out = ex.run_one(&prog);
        stalled |= out.stalled;
    }
    assert!(stalled, "the freeze must surface as a stall");
    let out = ex.run_one(&prog);
    assert!(out.crash.is_none());
}
