//! Property-based tests on the core data structures and invariants.

use eof::monitors::{parse_kconfig, render_kconfig, Pattern};
use eof::prelude::*;
use eof::speclang::prog::{ArgValue, Call};
use eof::speclang::wire::{decode_prog, encode_prog, ApiBinding, ApiTable, WireOrder};
use proptest::prelude::*;

fn arb_arg() -> impl Strategy<Value = ArgValue> {
    prop_oneof![
        any::<u64>().prop_map(ArgValue::Int),
        (0u16..16).prop_map(ArgValue::ResourceRef),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(ArgValue::Buffer),
        "[a-z0-9_]{0,24}".prop_map(ArgValue::CString),
    ]
}

fn arb_prog() -> impl Strategy<Value = Prog> {
    proptest::collection::vec((0u16..4, proptest::collection::vec(arb_arg(), 0..5)), 0..10)
        .prop_map(|calls| Prog {
            mmio: vec![],
            calls: calls
                .into_iter()
                .map(|(id, args)| Call {
                    api: format!("api{id}"),
                    args,
                })
                .collect(),
        })
}

fn table() -> ApiTable {
    ApiTable::new((0u16..4).map(|id| ApiBinding {
        id,
        name: format!("api{id}"),
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prog_wire_roundtrip_little(prog in arb_prog()) {
        let t = table();
        let bytes = encode_prog(&prog, &t, WireOrder::Little).unwrap();
        let back = t.decode(&bytes, WireOrder::Little).unwrap();
        prop_assert_eq!(back, prog);
    }

    #[test]
    fn prog_wire_roundtrip_big(prog in arb_prog()) {
        let t = table();
        let bytes = encode_prog(&prog, &t, WireOrder::Big).unwrap();
        let back = t.decode(&bytes, WireOrder::Big).unwrap();
        prop_assert_eq!(back, prog);
    }

    #[test]
    fn wire_decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_prog(&bytes, table().len(), WireOrder::Little);
    }

    #[test]
    fn wire_decoder_never_panics_on_any_truncation(prog in arb_prog(), cut in 0usize..512) {
        let t = table();
        let bytes = encode_prog(&prog, &t, WireOrder::Little).unwrap();
        let cut = cut.min(bytes.len());
        let _ = decode_prog(&bytes[..cut], t.len(), WireOrder::Little);
    }

    #[test]
    fn remove_call_preserves_backward_references(prog in arb_prog(), idx in 0usize..10) {
        let mut p = prog;
        // Normalise: clamp refs backward so the input itself is valid.
        for i in 0..p.calls.len() {
            for a in &mut p.calls[i].args {
                if let ArgValue::ResourceRef(r) = a {
                    if i == 0 {
                        *a = ArgValue::Int(0);
                    } else {
                        *r %= i as u16;
                    }
                }
            }
        }
        prop_assert_eq!(p.first_invalid_ref(), None);
        p.remove_call(idx);
        prop_assert_eq!(p.first_invalid_ref(), None);
    }

    #[test]
    fn json_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut bus = eof::hal::Bus::new(0x2000_0000, 0x1000, eof::hal::Endianness::Little);
        let mut cov = eof::rtos::ctx::CovState::uninstrumented();
        let mut ctx = eof::rtos::ctx::ExecCtx::new(&mut bus, &mut cov);
        let _ = eof::rtos::subsys::json::parse(&mut ctx, "t::json::p", &bytes);
    }

    #[test]
    fn http_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut bus = eof::hal::Bus::new(0x2000_0000, 0x1000, eof::hal::Endianness::Little);
        let mut cov = eof::rtos::ctx::CovState::uninstrumented();
        let mut ctx = eof::rtos::ctx::ExecCtx::new(&mut bus, &mut cov);
        let _ = eof::rtos::subsys::http::parse_request(&mut ctx, "t::http::p", &bytes);
    }

    #[test]
    fn every_kernel_survives_arbitrary_invocations(
        os_idx in 0usize..5,
        calls in proptest::collection::vec((any::<u16>(), proptest::collection::vec(any::<u64>(), 0..6)), 1..30)
    ) {
        let os = OsKind::ALL[os_idx];
        let mut kernel = eof::rtos::registry::make_kernel(os);
        let mut bus = eof::hal::Bus::new(0x2000_0000, 0x2_0000, eof::hal::Endianness::Little);
        let mut cov = eof::rtos::ctx::CovState::uninstrumented();
        for (api_id, args) in calls {
            let kargs: Vec<eof::rtos::api::KArg> =
                args.into_iter().map(eof::rtos::api::KArg::Int).collect();
            let mut ctx = eof::rtos::ctx::ExecCtx::new(&mut bus, &mut cov);
            // Must never panic at the host level, whatever the input.
            let _ = kernel.invoke(&mut ctx, api_id, &kargs);
        }
    }

    #[test]
    fn heap_invariants_under_arbitrary_op_sequences(
        ops in proptest::collection::vec((any::<bool>(), 0u32..512), 1..60)
    ) {
        use eof::rtos::subsys::heap::FreeListHeap;
        let mut bus = eof::hal::Bus::new(0x2000_0000, 0x1000, eof::hal::Endianness::Little);
        let mut cov = eof::rtos::ctx::CovState::uninstrumented();
        let mut ctx = eof::rtos::ctx::ExecCtx::new(&mut bus, &mut cov);
        let mut heap = FreeListHeap::new(4096);
        let mut live: Vec<u32> = Vec::new();
        for (is_alloc, v) in ops {
            if is_alloc {
                if let Ok(h) = heap.alloc(&mut ctx, "p::heap::a", v) {
                    live.push(h);
                }
            } else if !live.is_empty() {
                let h = live.remove((v as usize) % live.len());
                heap.free(&mut ctx, "p::heap::f", h).unwrap();
            }
            // The walk invariant must hold after every operation.
            prop_assert!(heap.check().is_ok());
        }
        prop_assert_eq!(heap.live_blocks(), live.len());
    }

    #[test]
    fn pattern_matcher_agrees_with_contains_for_plain_patterns(
        needle in "[a-zA-Z ]{1,12}",
        hay in "[a-zA-Z :._-]{0,64}"
    ) {
        let p = Pattern::new(&needle);
        prop_assert_eq!(p.matches(&hay), hay.contains(&needle));
    }

    #[test]
    fn kconfig_roundtrip(parts in proptest::collection::btree_map("[A-Z]{1,8}", (0u32..64, 1u32..64), 1..6)) {
        // Build a non-overlapping layout from the random sizes.
        let mut offset = 0u32;
        let mut list = Vec::new();
        for (name, (_gap, size_kb)) in &parts {
            let size = size_kb * 1024;
            list.push(eof::hal::Partition::new(name.to_lowercase(), offset, size));
            offset += size;
        }
        let table = eof::hal::PartitionTable::new(list, offset.max(1)).unwrap();
        let text = render_kconfig("arm", &table);
        let cfg = parse_kconfig(&text).unwrap();
        prop_assert_eq!(cfg.partition_table(offset.max(1)).unwrap(), table);
    }

    #[test]
    fn generated_progs_always_conform(seed in any::<u64>()) {
        let spec = parse_spec(&extract_spec_text(OsKind::RtThread)).unwrap();
        let mut g = Generator::new(spec, seed, GenerationMode::ApiAware, 6);
        for _ in 0..5 {
            let p = g.generate();
            prop_assert!(p.conforms_to(g.spec()));
            let m = g.mutate(&p);
            prop_assert!(m.conforms_to(g.spec()));
        }
    }
}

// ---------------------------------------------------------------------------
// Concurrent persist-store writers (the fabric's corpus exchange)
// ---------------------------------------------------------------------------
//
// Two workers importing seeds into one exchange must never lose an
// update. The exchange earns this without locks: every seed is a
// content-addressed file written atomically (temp + rename), and the
// manifest-last marker carries no membership data — loads scan the
// directory — so there is no read-modify-write step for interleavings
// to tear.

use eof::core::{persist::PersistedSeed, Exchange};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn exchange_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "eof-props-exchange-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A synthetic-but-valid persisted seed: the hash really is the prog's
/// stable hash, so `Exchange::load`'s integrity check accepts it.
fn synthetic_seed(i: u64) -> PersistedSeed {
    let prog = Prog {
        mmio: vec![],
        calls: vec![Call {
            api: format!("api{}", i % 4),
            args: vec![ArgValue::Int(i)],
        }],
    };
    PersistedSeed {
        hash: prog.stable_hash(),
        ordinal: i,
        new_edges: (i % 7) as usize,
        crashed: false,
        replay_edges: (i % 5) as usize,
        prog,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exchange_two_writer_interleavings_never_lose_seeds(
        batch_a in proptest::collection::vec(0u64..24, 1..16),
        batch_b in proptest::collection::vec(0u64..24, 1..16),
        schedule in proptest::collection::vec(any::<bool>(), 0..40),
    ) {
        let dir = exchange_dir("interleave");
        // Each writer holds its own handle, exactly like two fabric
        // workers pointed at the same exchange directory.
        let writer_a = Exchange::open(&dir).unwrap();
        let writer_b = Exchange::open(&dir).unwrap();
        let seeds_a: Vec<PersistedSeed> = batch_a.iter().map(|&i| synthetic_seed(i)).collect();
        let seeds_b: Vec<PersistedSeed> = batch_b.iter().map(|&i| synthetic_seed(i)).collect();

        // Drive the two imports one seed at a time in an arbitrary
        // interleaving (schedule bools pick the writer; an exhausted
        // writer yields its turn).
        let (mut ia, mut ib) = (0usize, 0usize);
        let mut accounted = 0usize;
        let mut steps = schedule.into_iter();
        while ia < seeds_a.len() || ib < seeds_b.len() {
            let pick_a = steps.next().unwrap_or(true);
            let stats = if (pick_a && ia < seeds_a.len()) || ib >= seeds_b.len() {
                ia += 1;
                writer_a.import(&seeds_a[ia - 1..ia], 0xfeed)
            } else {
                ib += 1;
                writer_b.import(&seeds_b[ib - 1..ib], 0xbeef)
            };
            prop_assert_eq!(stats.write_errors, 0);
            accounted += stats.imported + stats.deduped;

            // The pool is loadable mid-interleaving, never torn.
            let (loaded, skips) = writer_a.load();
            prop_assert_eq!(skips.total(), 0);
            prop_assert_eq!(loaded.len(), accounted_distinct(&seeds_a[..ia], &seeds_b[..ib]));
        }
        prop_assert_eq!(accounted, seeds_a.len() + seeds_b.len());

        // No update lost: the final pool is exactly the hash-union.
        let (loaded, skips) = writer_b.load();
        prop_assert_eq!(skips.total(), 0);
        let expect: std::collections::BTreeSet<u64> = seeds_a
            .iter()
            .chain(seeds_b.iter())
            .map(|s| s.hash)
            .collect();
        let got: std::collections::BTreeSet<u64> = loaded.iter().map(|s| s.hash).collect();
        prop_assert_eq!(got, expect);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Distinct hash count over the seeds imported so far.
fn accounted_distinct(a: &[PersistedSeed], b: &[PersistedSeed]) -> usize {
    a.iter()
        .chain(b.iter())
        .map(|s| s.hash)
        .collect::<std::collections::BTreeSet<_>>()
        .len()
}

#[test]
fn exchange_truly_concurrent_writers_reach_the_union() {
    // The threaded flavor of the property above: two OS threads racing
    // seed-by-seed imports into one directory. Scheduling is real, the
    // postcondition is the same — the union, with nothing torn.
    let dir = exchange_dir("threads");
    let seeds: Vec<PersistedSeed> = (0..48).map(synthetic_seed).collect();
    // Overlapping halves: [0, 32) and [16, 48) share a middle third.
    let a: Vec<PersistedSeed> = seeds[..32].to_vec();
    let b: Vec<PersistedSeed> = seeds[16..].to_vec();
    let dir_a = dir.clone();
    let dir_b = dir.clone();
    let ta = std::thread::spawn(move || {
        let ex = Exchange::open(&dir_a).unwrap();
        let mut errors = 0;
        for s in &a {
            errors += ex.import(std::slice::from_ref(s), 0xaaaa).write_errors;
        }
        errors
    });
    let tb = std::thread::spawn(move || {
        let ex = Exchange::open(&dir_b).unwrap();
        let mut errors = 0;
        for s in &b {
            errors += ex.import(std::slice::from_ref(s), 0xbbbb).write_errors;
        }
        errors
    });
    assert_eq!(ta.join().unwrap(), 0, "writer A hit write errors");
    assert_eq!(tb.join().unwrap(), 0, "writer B hit write errors");

    let ex = Exchange::open(&dir).unwrap();
    let (loaded, skips) = ex.load();
    assert_eq!(skips.total(), 0, "a racing writer tore an entry");
    let got: std::collections::BTreeSet<u64> = loaded.iter().map(|s| s.hash).collect();
    let expect: std::collections::BTreeSet<u64> = seeds.iter().map(|s| s.hash).collect();
    assert_eq!(got, expect, "concurrent import lost an update");
    let _ = std::fs::remove_dir_all(&dir);
}
