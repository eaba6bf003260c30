//! Criterion micro-benchmarks of the per-component hot paths: prog
//! encoding, generation/mutation, kernel API dispatch, the JSON/HTTP
//! parsers, debug-port memory traffic, coverage drains, one full
//! fuzzing iteration, and the fleet runner (serial vs parallel batch).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use eof_core::config::GenerationMode;
use eof_core::{FuzzerConfig, Generator};
use eof_coverage::{CovRegion, InstrumentMode};
use eof_dap::{DebugTransport, LinkConfig, Txn};
use eof_hal::{BoardCatalog, Bus, Endianness};
use eof_rtos::api::KArg;
use eof_rtos::ctx::{CovState, ExecCtx};
use eof_rtos::image::ImageProfile;
use eof_rtos::registry::make_kernel;
use eof_rtos::OsKind;
use eof_specgen::extract_spec_text;
use eof_speclang::parser::parse_spec;
use eof_speclang::wire::{decode_prog, encode_prog, WireOrder};
use std::hint::black_box;

fn bench_wire(c: &mut Criterion) {
    let spec = parse_spec(&extract_spec_text(OsKind::RtThread)).unwrap();
    let mut g = Generator::new(spec, 1, GenerationMode::ApiAware, 8);
    let table = eof_agent::api_table_of(OsKind::RtThread);
    let prog = g.generate();
    let bytes = encode_prog(&prog, &table, WireOrder::Little).unwrap();
    c.bench_function("wire/encode_prog", |b| {
        b.iter(|| encode_prog(black_box(&prog), &table, WireOrder::Little).unwrap())
    });
    // The agent's decoder: id form, bound-checked against the table length.
    c.bench_function("wire/decode_prog", |b| {
        b.iter(|| decode_prog(black_box(&bytes), table.len(), WireOrder::Little).unwrap())
    });
}

fn bench_generator(c: &mut Criterion) {
    let spec = parse_spec(&extract_spec_text(OsKind::NuttX)).unwrap();
    let mut g = Generator::new(spec.clone(), 2, GenerationMode::ApiAware, 8);
    c.bench_function("gen/generate", |b| b.iter(|| black_box(g.generate())));
    let seed_prog = g.generate();
    c.bench_function("gen/mutate", |b| b.iter(|| black_box(g.mutate(&seed_prog))));
}

fn bench_kernel_dispatch(c: &mut Criterion) {
    let mut bus = Bus::new(0x4000_0000, 0x2_0000, Endianness::Little);
    let mut cov = CovState::uninstrumented();
    // Zephyr k_sem_init / k_sem_take / k_sem_give. No reset between
    // iterations: k_sem_init appends to an unbounded table, so every
    // iteration runs the same path on a fresh semaphore.
    let mut kernel = make_kernel(OsKind::Zephyr);
    c.bench_function("kernel/invoke_sem_cycle", |b| {
        b.iter(|| {
            let mut ctx = ExecCtx::new(&mut bus, &mut cov);
            let s = match kernel.invoke(&mut ctx, 14, &[KArg::Int(1), KArg::Int(2)]) {
                eof_rtos::api::InvokeResult::Ok(v) => v,
                _ => 0,
            };
            kernel.invoke(&mut ctx, 15, &[KArg::Int(s)]);
            kernel.invoke(&mut ctx, 16, &[KArg::Int(s)]);
        })
    });
    // The per-test-case reinitialisation the agent runs before every
    // prog.
    for os in OsKind::ALL {
        let mut kernel = make_kernel(os);
        c.bench_function(&format!("kernel/reset/{}", os.short()), |b| {
            b.iter(|| kernel.reset(&mut ExecCtx::new(&mut bus, &mut cov)))
        });
    }
}

fn bench_parsers(c: &mut Criterion) {
    let mut bus = Bus::new(0x2000_0000, 0x1000, Endianness::Little);
    let mut cov = CovState::uninstrumented();
    let json = br#"{"a":[1,2,3],"b":{"c":"deep","d":[true,null]},"e":1.5e3}"#;
    c.bench_function("subsys/json_parse", |b| {
        b.iter(|| {
            let mut ctx = ExecCtx::new(&mut bus, &mut cov);
            let _ = eof_rtos::subsys::json::parse(&mut ctx, "b::json::p", black_box(json));
        })
    });
    let http = b"POST /api/sensors?id=3 HTTP/1.1\r\nHost: dev\r\nContent-Length: 12\r\n\r\n";
    c.bench_function("subsys/http_parse", |b| {
        b.iter(|| {
            let mut ctx = ExecCtx::new(&mut bus, &mut cov);
            let _ = eof_rtos::subsys::http::parse_request(&mut ctx, "b::http::p", black_box(http));
        })
    });
}

fn bench_debug_port(c: &mut Criterion) {
    let machine = eof_agent::boot_machine(
        BoardCatalog::qemu_virt_arm(),
        OsKind::Zephyr,
        ImageProfile::FullSystem,
        &InstrumentMode::Full,
    );
    let mut t = DebugTransport::attach(machine, LinkConfig::default());
    let base = t.machine().board().ram_base;
    let buf = vec![0xa5u8; 256];
    c.bench_function("dap/write_mem_256B", |b| {
        b.iter(|| t.write_mem(base + 0x8000, black_box(&buf)).unwrap())
    });
    let mut out = vec![0u8; 256];
    c.bench_function("dap/read_mem_256B", |b| {
        b.iter(|| t.read_mem(base + 0x8000, &mut out).unwrap())
    });
    c.bench_function("dap/read_pc", |b| b.iter(|| t.read_pc().unwrap()));
}

fn bench_dap_txn(c: &mut Criterion) {
    // Vectored transaction layer vs the same ops issued scalar: one
    // breakpoint arm/disarm plus a coverage-header-sized read and two
    // counter resets — the executor's sync + drain shape.
    let machine = eof_agent::boot_machine(
        BoardCatalog::qemu_virt_arm(),
        OsKind::Zephyr,
        ImageProfile::FullSystem,
        &InstrumentMode::Full,
    );
    let mut t = DebugTransport::attach(machine, LinkConfig::default());
    let base = t.machine().board().ram_base + 0x8000;
    let zero = [0u8; 4];
    c.bench_function("dap_txn/drain_shape_vectored", |b| {
        b.iter(|| {
            let mut txn = Txn::new();
            txn.read_mem(base, 12)
                .write_mem(base, &zero)
                .write_mem(base + 8, &zero);
            black_box(t.run_txn(&txn).unwrap())
        })
    });
    c.bench_function("dap_txn/drain_shape_scalar", |b| {
        b.iter(|| {
            let mut hdr = [0u8; 12];
            t.read_mem(base, &mut hdr).unwrap();
            t.write_mem(base, &zero).unwrap();
            t.write_mem(base + 8, &zero).unwrap();
            black_box(hdr)
        })
    });
    let ops: Vec<u32> = (0..8).map(|i| base + 0x100 + i * 16).collect();
    c.bench_function("dap_txn/breakpoints_8_vectored", |b| {
        b.iter(|| {
            let mut txn = Txn::new();
            for &addr in &ops {
                txn.set_breakpoint(addr);
            }
            for &addr in &ops {
                txn.clear_breakpoint(addr);
            }
            black_box(t.run_txn(&txn).unwrap())
        })
    });
    c.bench_function("dap_txn/breakpoints_8_scalar", |b| {
        b.iter(|| {
            for &addr in &ops {
                t.set_breakpoint(addr).unwrap();
            }
            for &addr in &ops {
                t.clear_breakpoint(addr).unwrap();
            }
        })
    });
}

fn bench_snapshot_restore(c: &mut Criterion) {
    // The recovery fast path against the rungs it displaces: snapshot
    // capture, dirty-page delta restore at varying dirty counts, and
    // the verify-reflash / full-reflash ladder rungs.
    let machine = eof_agent::boot_machine(
        BoardCatalog::qemu_virt_arm(),
        OsKind::Zephyr,
        ImageProfile::FullSystem,
        &InstrumentMode::Full,
    );
    let image = eof_rtos::image::build_image(
        OsKind::Zephyr,
        ImageProfile::FullSystem,
        &InstrumentMode::Full,
    );
    let kconfig = eof_monitors::parse_kconfig(&eof_monitors::render_kconfig(
        "arm",
        machine.flash().table(),
    ))
    .unwrap();
    let mut resto = eof_monitors::StateRestoration::from_kconfig(
        &kconfig,
        machine.board().flash_size,
        vec![("kernel".into(), image)],
    )
    .unwrap();
    let mut t = DebugTransport::attach(machine, LinkConfig::default());
    let _ = t.continue_until_halt(200);
    c.bench_function("snapshot_restore/capture", |b| {
        b.iter(|| resto.capture_snapshot(&mut t).unwrap())
    });
    let base = t.machine().board().ram_base;
    for pages in [1usize, 16, 64] {
        resto.capture_snapshot(&mut t).unwrap();
        c.bench_function(&format!("snapshot_restore/delta_{pages}_pages"), |b| {
            b.iter(|| {
                for i in 0..pages {
                    t.write_mem(base + 0x4000 + (i * eof_hal::PAGE_SIZE) as u32, &[0xa5; 4])
                        .unwrap();
                }
                resto.snapshot_restore(&mut t).unwrap();
            })
        });
    }
    c.bench_function("snapshot_restore/verify_reflash", |b| {
        b.iter(|| resto.restore(&mut t).unwrap())
    });
    c.bench_function("snapshot_restore/full_reflash", |b| {
        b.iter(|| resto.restore_full(&mut t).unwrap())
    });
}

fn bench_coverage(c: &mut Criterion) {
    let mut bus = Bus::new(0x2000_0000, 0x1_0000, Endianness::Little);
    let region = CovRegion::new(0x2000_4000, 1024);
    region.init(&mut bus.ram, Endianness::Little).unwrap();
    let mut cov = CovState::instrumented(InstrumentMode::Full, region);
    c.bench_function("cov/hook_hit", |b| {
        b.iter(|| {
            let mut ctx = ExecCtx::new(&mut bus, &mut cov);
            ctx.cov_var("b::kernel::site", black_box(7));
            // Keep the ring from filling across iterations.
            ctx.cov.buffer_full = false;
            region.reset(&mut bus.ram, Endianness::Little).unwrap();
        })
    });
    let mut map = eof_coverage::CoverageMap::new();
    let edges: Vec<u64> = (0..64).map(|i| i * 7919).collect();
    c.bench_function("cov/map_merge_64", |b| {
        b.iter(|| black_box(map.merge(&edges)))
    });
}

fn bench_fuzz_iteration(c: &mut Criterion) {
    c.bench_function("fuzzer/one_iteration", |b| {
        b.iter_batched(
            || {
                let mut cfg = FuzzerConfig::eof(OsKind::Zephyr, 5);
                cfg.budget_hours = 100.0;
                let image = eof_rtos::image::build_image(cfg.os, cfg.profile, &cfg.instrument);
                let machine = eof_agent::boot_machine(
                    cfg.board.clone(),
                    cfg.os,
                    cfg.profile,
                    &cfg.instrument,
                );
                let kconfig = eof_monitors::parse_kconfig(&eof_monitors::render_kconfig(
                    "arm",
                    machine.flash().table(),
                ))
                .unwrap();
                let resto = eof_monitors::StateRestoration::from_kconfig(
                    &kconfig,
                    cfg.board.flash_size,
                    vec![("kernel".into(), image)],
                )
                .unwrap();
                let transport = DebugTransport::attach(machine, LinkConfig::default());
                let executor = eof_core::Executor::new(
                    transport,
                    cfg.clone(),
                    eof_agent::api_table_of(cfg.os),
                    resto,
                )
                .unwrap();
                let spec = parse_spec(&extract_spec_text(cfg.os)).unwrap();
                let generator = Generator::new(spec, cfg.seed, cfg.gen_mode, cfg.max_calls);
                eof_core::Fuzzer::new(cfg, generator, executor)
            },
            |mut fuzzer| {
                for _ in 0..16 {
                    fuzzer.step();
                }
                black_box(fuzzer.stats().execs)
            },
            BatchSize::PerIteration,
        )
    });
}

fn bench_fleet(c: &mut Criterion) {
    // Four short campaigns — the smallest batch where fan-out matters.
    let configs: Vec<FuzzerConfig> = [
        OsKind::NuttX,
        OsKind::Zephyr,
        OsKind::FreeRtos,
        OsKind::RtThread,
    ]
    .into_iter()
    .map(|os| {
        let mut cfg = FuzzerConfig::eof(os, 5);
        cfg.budget_hours = 0.02;
        cfg
    })
    .collect();
    let jobs = std::thread::available_parallelism().map_or(4, |n| n.get().min(4));
    c.bench_function("fleet/serial_4_campaigns", |b| {
        b.iter(|| black_box(eof_core::FleetRunner::new(1).run(configs.clone())))
    });
    c.bench_function("fleet/parallel_4_campaigns", |b| {
        b.iter(|| black_box(eof_core::FleetRunner::new(jobs).run(configs.clone())))
    });
}

criterion_group!(
    benches,
    bench_wire,
    bench_generator,
    bench_kernel_dispatch,
    bench_parsers,
    bench_debug_port,
    bench_dap_txn,
    bench_snapshot_restore,
    bench_coverage,
    bench_fuzz_iteration,
    bench_fleet
);
criterion_main!(benches);
