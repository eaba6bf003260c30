//! Integration tests of the debug-port stack: GDB RSP packets (single
//! commands and `vTxn` transactions) driving real agent firmware, plus
//! monitor behaviour over the same link.

use eof::dap::{decode_txn_reply, encode_txn, frame_packet, parse_packet};
use eof::monitors::{Liveness, LivenessWatchdog};
use eof::prelude::*;

fn transport(os: OsKind) -> DebugTransport {
    let m = boot_machine(
        BoardCatalog::qemu_virt_arm(),
        os,
        ImageProfile::FullSystem,
        &InstrumentMode::Full,
    );
    DebugTransport::attach(m, LinkConfig::default())
}

#[test]
fn rsp_session_against_live_agent() {
    let mut rsp = RspServer::new(transport(OsKind::Zephyr));
    rsp.run_budget = 500;
    let mut ask = |packet: &str| {
        let reply = rsp.handle(&frame_packet(packet)).unwrap();
        parse_packet(&reply).unwrap().to_string()
    };
    assert_eq!(ask("?"), "S05");
    // Let it boot, then read the PC twice — it must move.
    ask("c");
    let pc1 = ask("p20");
    ask("c");
    let pc2 = ask("p20");
    assert_ne!(pc1, pc2, "agent must make progress");
    // Memory scratch write via the text protocol, then a write and a
    // read-back as one vTxn transaction.
    assert_eq!(ask("M40000010,4:78563412"), "OK");
    assert_eq!(ask("m40000010,4"), "78563412");
    let mut txn = Txn::new();
    txn.write_mem(0x4000_0014, &[0xca, 0xfe])
        .read_mem(0x4000_0010, 6);
    let reply = decode_txn_reply(&ask(&encode_txn(&txn).unwrap())).unwrap();
    assert_eq!(
        reply,
        [
            TxnResult::Done,
            TxnResult::Bytes(vec![0x78, 0x56, 0x34, 0x12, 0xca, 0xfe])
        ]
    );
}

#[test]
fn rsp_session_sets_breakpoint_at_executor_main() {
    let t = transport(OsKind::FreeRtos);
    let main_addr = t.symbol("executor_main").unwrap();
    let mut rsp = eof::dap::RspServer::new(t);
    let z = format!("Z0,{main_addr:x},4");
    assert_eq!(
        parse_packet(&rsp.handle(&frame_packet(&z)).unwrap()).unwrap(),
        "OK"
    );
    let reply = rsp.handle(&frame_packet("c")).unwrap();
    assert_eq!(parse_packet(&reply).unwrap(), "S05");
    // Read the PC register packet and confirm it is the breakpoint.
    let pc_reply = rsp.handle(&frame_packet("p20")).unwrap();
    let hex = parse_packet(&pc_reply).unwrap().to_string();
    let bytes: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect();
    let pc = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    assert_eq!(pc, main_addr);
}

#[test]
fn watchdog_sees_healthy_agent_as_alive() {
    let mut t = transport(OsKind::NuttX);
    let mut w = LivenessWatchdog::new();
    for _ in 0..10 {
        t.continue_until_halt(300).unwrap();
        assert_eq!(w.check(&mut t), Liveness::Alive);
    }
    assert_eq!(w.stalls(), 0);
}

#[test]
fn uart_log_flows_over_the_link() {
    let mut t = transport(OsKind::Zephyr);
    t.continue_until_halt(2_000).unwrap();
    let log = String::from_utf8_lossy(&t.drain_uart()).into_owned();
    assert!(log.contains("Booting Zephyr OS"), "{log}");
}

#[test]
fn link_outage_and_recovery() {
    let mut t = transport(OsKind::Zephyr);
    let now = t.now();
    t.schedule_outage(now, 5_000);
    assert!(t.read_pc().is_err());
    t.sleep(6_000);
    assert!(t.read_pc().is_ok());
}

#[test]
fn flash_checksum_detects_corruption_over_link() {
    let mut t = transport(OsKind::Zephyr);
    let before = t.flash_checksum("kernel").unwrap();
    let off = t.machine().flash().table().get("kernel").unwrap().offset;
    t.machine_mut().flash_mut().flip_bit(off + 999, 1).unwrap();
    let after = t.flash_checksum("kernel").unwrap();
    assert_ne!(before, after);
}
