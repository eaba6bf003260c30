//! Absolute outcome pins: a handful of short campaigns whose simulated
//! results are fixed numbers. A host-only change (a cached table, a
//! decoder that skips an allocation, a borrowed spec) is thereby
//! *checked* to leave every exec, edge, stall, restoration, bug and
//! admitted seed where it was. The differential gates
//! (`vectored_equiv`, `snapshot_equiv`, …) compare two modes of one
//! build; these compare a build against the numbers every earlier build
//! produced.
//!
//! A change that is meant to move simulated behaviour (a generator
//! heuristic, a new kernel branch) updates these pins and says so.

use eof::core::FuzzerConfig;
use eof::coverage::CoverageKind;
use eof::rtos::OsKind;

/// One pinned cell: its config recipe and the outcome it must produce.
struct Pin {
    os: OsKind,
    /// `FuzzerConfig::eof_cmplog` (MMIO + cmplog) instead of `eof`.
    cmplog: bool,
    backend: CoverageKind,
    vectored: bool,
    hours: f64,
    /// `(execs, branches, stalls, restorations)`.
    counts: (u64, usize, u64, u64),
    bugs: &'static [u8],
    corpus: usize,
    digest: u64,
}

impl Pin {
    /// The cell's config with every environment-defaulted field set, so
    /// `EOF_VECTORED`/`EOF_SNAPSHOT`/`EOF_COV`/`EOF_CMPLOG` cannot move it.
    fn config(&self) -> FuzzerConfig {
        let mut c = if self.cmplog {
            FuzzerConfig::eof_cmplog(self.os, 1)
        } else {
            FuzzerConfig::eof(self.os, 1)
        };
        c.budget_hours = self.hours;
        c.snapshot_hours = self.hours / 4.0;
        c.snapshot = true;
        c.vectored = self.vectored;
        c.coverage_backend = self.backend;
        c.cmplog = self.cmplog;
        c
    }
}

/// An `eof` cell on the ring backend, cmplog off, 0.05 h.
fn ring(os: OsKind, vectored: bool, counts: (u64, usize, u64, u64)) -> Pin {
    Pin {
        os,
        cmplog: false,
        backend: CoverageKind::Ring,
        vectored,
        hours: 0.05,
        counts,
        bugs: &[],
        corpus: 0,
        digest: 0,
    }
}

/// An `eof_cmplog` cell on the trace backend, vectored, 0.25 h.
fn cmplog_trace(os: OsKind, counts: (u64, usize, u64, u64)) -> Pin {
    Pin {
        cmplog: true,
        backend: CoverageKind::Trace,
        hours: 0.25,
        ..ring(os, true, counts)
    }
}

fn pins() -> Vec<Pin> {
    vec![
        Pin {
            bugs: &[13],
            corpus: 96,
            digest: 0x05dd_68df_a7ed_de8f,
            ..ring(OsKind::FreeRtos, true, (638, 216, 0, 0))
        },
        Pin {
            corpus: 133,
            digest: 0x684a_231f_5ce7_2ff1,
            ..ring(OsKind::RtThread, true, (696, 228, 0, 0))
        },
        Pin {
            bugs: &[15, 19],
            corpus: 135,
            digest: 0x0ae1_bac0_b709_fd36,
            ..ring(OsKind::NuttX, true, (743, 196, 1, 1))
        },
        Pin {
            corpus: 127,
            digest: 0x4c5b_1628_4fec_d590,
            ..ring(OsKind::Zephyr, true, (710, 242, 0, 0))
        },
        Pin {
            corpus: 87,
            digest: 0x22fa_c576_b686_e4b6,
            ..ring(OsKind::PokOs, true, (970, 138, 0, 0))
        },
        Pin {
            corpus: 64,
            digest: 0x5662_3ad5_c06a_c58f,
            ..ring(OsKind::FreeRtos, false, (321, 150, 0, 0))
        },
        Pin {
            bugs: &[15, 19, 24, 25],
            corpus: 244,
            digest: 0x4a5d_d140_036f_7963,
            ..cmplog_trace(OsKind::NuttX, (2698, 335, 26, 26))
        },
        Pin {
            bugs: &[4, 21],
            corpus: 249,
            digest: 0xa749_052f_d864_2e07,
            ..cmplog_trace(OsKind::Zephyr, (2954, 402, 1, 1))
        },
    ]
}

/// FNV-1a 64 over each hash's 8 little-endian bytes, in admission order.
fn corpus_digest(hashes: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in hashes.iter().flat_map(|x| x.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[test]
fn pinned_campaign_outcomes() {
    let mut drift = Vec::new();
    for pin in pins() {
        let r = eof::core::run_campaign(pin.config());
        let counts = (
            r.stats.execs,
            r.branches,
            r.stats.stalls,
            r.stats.restorations,
        );
        let bugs: Vec<u8> = r.bugs.iter().map(|b| b.number()).collect();
        let corpus = r.corpus_hashes.len();
        let digest = corpus_digest(&r.corpus_hashes);
        if (counts, bugs.as_slice(), corpus, digest)
            != (pin.counts, pin.bugs, pin.corpus, pin.digest)
        {
            drift.push(format!(
                "{} {:?} vectored={} cmplog={}: \
                 got {counts:?} bugs {bugs:?} corpus {corpus} digest {digest:016x}, \
                 pinned {:?} bugs {:?} corpus {} digest {:016x}",
                pin.os,
                pin.backend,
                pin.vectored,
                pin.cmplog,
                pin.counts,
                pin.bugs,
                pin.corpus,
                pin.digest
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "simulated outcome drifted (execs, branches, stalls, restorations):\n{}",
        drift.join("\n")
    );
}

#[test]
fn corpus_digest_is_fnv1a_over_le_bytes() {
    // The empty input digests to the offset basis; one zero hash folds
    // eight zero bytes, each a bare multiply.
    assert_eq!(corpus_digest(&[]), 0xcbf2_9ce4_8422_2325);
    let eight_zeros = (0..8).fold(0xcbf2_9ce4_8422_2325u64, |h, _| {
        h.wrapping_mul(0x100_0000_01b3)
    });
    assert_eq!(corpus_digest(&[0]), eight_zeros);
}
