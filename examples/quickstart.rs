//! Quickstart: boot an embedded OS on a simulated board, poke it through
//! GDB remote-protocol packets, execute one hand-written test case
//! through the agent, and watch the monitors catch a seeded kernel bug.
//!
//! Run with: `cargo run --release --example quickstart`

use eof::dap::{encode_txn, frame_packet, parse_packet};
use eof::prelude::*;
use eof::speclang::prog::{ArgValue, Call};

fn main() {
    // ── 1. Build an instrumented FreeRTOS image and flash it onto an
    //        ESP32-class devkit. ────────────────────────────────────────
    let board = BoardCatalog::esp32_devkit();
    println!(
        "target : {} ({}, {} debug)",
        board.name, board.arch, board.debug_iface
    );
    let machine = boot_machine(
        board.clone(),
        OsKind::FreeRtos,
        ImageProfile::FullSystem,
        &InstrumentMode::Full,
    );
    println!("booted : {:?}", machine.state());

    // ── 2. Talk to it the way the paper does: a GDB remote-protocol
    //        session over the debug port — single packets, then a
    //        write + read-back as one vectored `vTxn` transaction. ─────
    let mut rsp = RspServer::new(DebugTransport::attach(machine, LinkConfig::default()));
    let mut txn = Txn::new();
    txn.write_mem(0x3ffb_0044, b"EOF!").read_mem(0x3ffb_0040, 8);
    for packet in [
        "?".to_string(),
        "p20".to_string(),
        "M3ffb0040,4:efbeadde".to_string(),
        "m3ffb0040,4".to_string(),
        encode_txn(&txn).unwrap(),
    ] {
        let reply = rsp.handle(&frame_packet(&packet)).unwrap();
        println!("rsp    > {packet}");
        println!("rsp    < {}", parse_packet(&reply).unwrap());
    }
    let transport = rsp.into_transport();

    // ── 3. Hand the session to the EOF executor and run a hand-written
    //        test case (create a queue, send to it, parse some JSON). ──
    let config = FuzzerConfig::eof(OsKind::FreeRtos, 7);
    let kconfig = eof::monitors::parse_kconfig(&eof::monitors::render_kconfig(
        "xtensa",
        transport.machine().flash().table(),
    ))
    .unwrap();
    let image = build_image(
        OsKind::FreeRtos,
        ImageProfile::FullSystem,
        &InstrumentMode::Full,
    );
    let restoration =
        StateRestoration::from_kconfig(&kconfig, board.flash_size, vec![("kernel".into(), image)])
            .unwrap();
    let mut executor = Executor::new(
        transport,
        config,
        api_table_of(OsKind::FreeRtos),
        restoration,
    )
    .unwrap();

    let prog = Prog {
        mmio: vec![],
        calls: vec![
            Call {
                api: "xQueueCreate".into(),
                args: vec![ArgValue::Int(4), ArgValue::Int(32)],
            },
            Call {
                api: "xQueueSend".into(),
                args: vec![
                    ArgValue::ResourceRef(0),
                    ArgValue::Buffer(b"hello".to_vec()),
                ],
            },
            Call {
                api: "json_parse".into(),
                args: vec![ArgValue::Buffer(br#"{"sensors":[1,2,3]}"#.to_vec())],
            },
        ],
    };
    println!("\nexecuting:\n{prog}");
    let outcome = executor.run_one(&prog);
    println!(
        "outcome: {} new edges, {} total hits, crash: {}",
        outcome.new_edges,
        outcome.edges_hit,
        outcome.crash.is_some()
    );

    // ── 4. Now a test case that trips seeded bug #13 — the exception
    //        monitor catches it at the panic handler and recovers the
    //        backtrace from the crash banner. ─────────────────────────
    let crasher = Prog {
        mmio: vec![],
        calls: vec![Call {
            api: "load_partitions".into(),
            args: vec![ArgValue::Int(3), ArgValue::Int(0x10)],
        }],
    };
    println!("executing:\n{crasher}");
    let outcome = executor.run_one(&crasher);
    match outcome.crash {
        Some(crash) => {
            println!("CRASH  : {}", crash.message);
            println!("  via  : {:?}", crash.source);
            println!("  bug  : Table 2 #{:?}", crash.bug.map(|b| b.number()));
            for (i, frame) in crash.backtrace.iter().enumerate() {
                println!("  #{i}  : {frame}");
            }
        }
        None => println!("no crash — unexpected for this input"),
    }

    // ── 5. The target survives (recoverable fault): keep fuzzing. ────
    let outcome = executor.run_one(&prog);
    println!(
        "\ntarget alive after crash: executed again with {} edge hits",
        outcome.edges_hit
    );
}
