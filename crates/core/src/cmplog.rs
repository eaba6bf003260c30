//! Redqueen/I2S cmplog: the host half of the comparison-operand channel.
//!
//! The on-device ring ([`eof_coverage::CmpRegion`]) hands the executor
//! `(site, width, lhs, rhs)` records; this module turns them into
//! mutations. [`CmpJournal`] is the per-campaign operand store — a
//! bounded, deduplicated FIFO of observed comparison pairs. [`MutOp`]
//! names the mutation operators the cmplog fuzzer schedules between,
//! and [`OpScheduler`] reweights them MOpt-style by their observed
//! interesting-rates, never starving an operator below a floor.
//!
//! Everything here is deterministic per seed: the journal iterates in
//! insertion order, and the scheduler draws from its own `StdRng` plane
//! so the generator's streams stay untouched.

use eof_coverage::CmpRecord;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{HashSet, VecDeque};

/// Journal capacity: enough for every distinct comparison the kernel
/// models expose, small enough that candidate picks stay sharp.
const JOURNAL_CAP: usize = 256;

/// Reweight the operator distribution every this many picks (MOpt's
/// pilot/core cadence, collapsed to one period).
const REWEIGHT_EVERY: u32 = 64;

/// No operator's sampling weight ever drops below this: an operator
/// that looks useless today keeps enough probes to prove itself when
/// the campaign reaches inputs it can help with.
pub const WEIGHT_FLOOR: f64 = 0.05;

/// The per-campaign store of observed comparison operand pairs,
/// deduplicated by `(width, lhs, rhs)` and bounded FIFO — the oldest
/// pair falls out when a fresh one arrives at capacity. Iteration
/// order is insertion order, so candidate picks are deterministic.
#[derive(Debug, Clone, Default)]
pub struct CmpJournal {
    pairs: VecDeque<(u32, u64, u64)>,
    seen: HashSet<(u32, u64, u64)>,
}

impl CmpJournal {
    /// Empty journal.
    pub fn new() -> Self {
        CmpJournal::default()
    }

    /// Fold one execution's drained records in. The site id is dropped
    /// — splicing is positional (find the lhs bytes in the input), not
    /// site-targeted — and both operands of a pair are kept together so
    /// the splice can replace the input-derived side with the constant.
    pub fn absorb(&mut self, records: &[CmpRecord]) {
        for r in records {
            let key = (r.width, r.lhs, r.rhs);
            if !self.seen.insert(key) {
                continue;
            }
            self.pairs.push_back(key);
            if self.pairs.len() > JOURNAL_CAP {
                let old = self.pairs.pop_front().expect("len > cap > 0");
                self.seen.remove(&old);
            }
        }
    }

    /// Number of distinct pairs held.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the journal holds nothing yet.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The `i`-th pair in insertion order: `(width, lhs, rhs)`.
    pub fn get(&self, i: usize) -> (u32, u64, u64) {
        self.pairs[i]
    }
}

/// One mutation operator the cmplog scheduler can pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MutOp {
    /// The pre-cmplog structural mutation (`Generator::mutate`).
    Baseline,
    /// Input-to-state splice of a journal operand into a spec-typed
    /// integer argument (magic constants, handles, lengths), clamped to
    /// the parameter's declared range.
    I2sInt,
    /// Input-to-state splice of a journal operand's bytes into the MMIO
    /// response stream (driver campaigns).
    I2sMmio,
}

impl MutOp {
    /// Every operator, in scheduler index order.
    pub const ALL: [MutOp; 3] = [MutOp::Baseline, MutOp::I2sInt, MutOp::I2sMmio];

    /// Operator count.
    pub const COUNT: usize = 3;

    /// Dense index into per-operator arrays.
    pub fn index(self) -> usize {
        match self {
            MutOp::Baseline => 0,
            MutOp::I2sInt => 1,
            MutOp::I2sMmio => 2,
        }
    }

    /// Stable short name (telemetry counter fragment).
    pub fn name(self) -> &'static str {
        match self {
            MutOp::Baseline => "baseline",
            MutOp::I2sInt => "i2s_int",
            MutOp::I2sMmio => "i2s_mmio",
        }
    }

    /// Telemetry counter mirroring this operator's executions.
    pub fn execs_counter(self) -> &'static str {
        match self {
            MutOp::Baseline => "fuzz.op.baseline.execs",
            MutOp::I2sInt => "fuzz.op.i2s_int.execs",
            MutOp::I2sMmio => "fuzz.op.i2s_mmio.execs",
        }
    }

    /// Telemetry counter mirroring this operator's interesting hits.
    pub fn interesting_counter(self) -> &'static str {
        match self {
            MutOp::Baseline => "fuzz.op.baseline.interesting",
            MutOp::I2sInt => "fuzz.op.i2s_int.interesting",
            MutOp::I2sMmio => "fuzz.op.i2s_mmio.interesting",
        }
    }
}

/// MOpt-style operator scheduler: weighted sampling over [`MutOp`],
/// where each weight tracks the operator's Laplace-smoothed
/// interesting-rate `(interesting + 1) / (execs + 1)`, renormalised to
/// shares and floored at [`WEIGHT_FLOOR`]. The distribution refreshes
/// every `REWEIGHT_EVERY` picks — often enough to follow the
/// campaign's phase changes, rarely enough that one lucky mutant does
/// not whipsaw the mix.
#[derive(Debug, Clone)]
pub struct OpScheduler {
    rng: StdRng,
    execs: [u64; MutOp::COUNT],
    interesting: [u64; MutOp::COUNT],
    weights: [f64; MutOp::COUNT],
    picks_since_reweight: u32,
}

impl OpScheduler {
    /// Scheduler with its own RNG plane derived from the campaign seed
    /// (the generator's and MMIO planes are untouched by scheduling).
    pub fn new(seed: u64) -> Self {
        OpScheduler {
            rng: StdRng::seed_from_u64(seed ^ 0x4d4f_5054),
            execs: [0; MutOp::COUNT],
            interesting: [0; MutOp::COUNT],
            weights: [1.0 / MutOp::COUNT as f64; MutOp::COUNT],
            picks_since_reweight: 0,
        }
    }

    /// Pick the next operator by the current weights.
    pub fn pick(&mut self) -> MutOp {
        if self.picks_since_reweight >= REWEIGHT_EVERY {
            self.reweight();
            self.picks_since_reweight = 0;
        }
        self.picks_since_reweight += 1;
        let total: f64 = self.weights.iter().sum();
        let mut roll = self.rng.random_range(0.0..total);
        for op in MutOp::ALL {
            let w = self.weights[op.index()];
            if roll < w {
                return op;
            }
            roll -= w;
        }
        MutOp::ALL[MutOp::COUNT - 1]
    }

    /// Account one executed mutant of `op` and whether it was
    /// interesting (new coverage or a new crash class).
    pub fn record(&mut self, op: MutOp, interesting: bool) {
        self.execs[op.index()] += 1;
        if interesting {
            self.interesting[op.index()] += 1;
        }
    }

    /// Recompute weights from the smoothed interesting-rates.
    fn reweight(&mut self) {
        let rates: Vec<f64> = MutOp::ALL
            .iter()
            .map(|op| {
                let i = op.index();
                (self.interesting[i] + 1) as f64 / (self.execs[i] + 1) as f64
            })
            .collect();
        let sum: f64 = rates.iter().sum();
        for (i, rate) in rates.iter().enumerate() {
            self.weights[i] = (rate / sum).max(WEIGHT_FLOOR);
        }
    }

    /// The current sampling weight of an operator (floored share).
    pub fn weight(&self, op: MutOp) -> f64 {
        self.weights[op.index()]
    }

    /// Executions recorded for an operator.
    pub fn execs(&self, op: MutOp) -> u64 {
        self.execs[op.index()]
    }

    /// Interesting hits recorded for an operator.
    pub fn interesting(&self, op: MutOp) -> u64 {
        self.interesting[op.index()]
    }

    /// Smoothed interesting-rate of an operator (the reweight input).
    pub fn rate(&self, op: MutOp) -> f64 {
        let i = op.index();
        (self.interesting[i] + 1) as f64 / (self.execs[i] + 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(width: u32, lhs: u64, rhs: u64) -> CmpRecord {
        CmpRecord {
            site: 0,
            width,
            lhs,
            rhs,
        }
    }

    #[test]
    fn journal_dedups_and_keeps_insertion_order() {
        let mut j = CmpJournal::new();
        j.absorb(&[rec(32, 1, 2), rec(32, 3, 4), rec(32, 1, 2)]);
        j.absorb(&[rec(8, 1, 2)]);
        assert_eq!(j.len(), 3);
        assert_eq!(j.get(0), (32, 1, 2));
        assert_eq!(j.get(1), (32, 3, 4));
        assert_eq!(j.get(2), (8, 1, 2));
    }

    #[test]
    fn journal_evicts_fifo_at_capacity() {
        let mut j = CmpJournal::new();
        for v in 0..(JOURNAL_CAP as u64 + 10) {
            j.absorb(&[rec(32, v, v + 1)]);
        }
        assert_eq!(j.len(), JOURNAL_CAP);
        // The first ten fell out; the eleventh is now the oldest.
        assert_eq!(j.get(0), (32, 10, 11));
        // Evicted keys may re-enter (they left `seen` with the pair).
        j.absorb(&[rec(32, 0, 1)]);
        assert_eq!(j.get(j.len() - 1), (32, 0, 1));
    }

    #[test]
    fn scheduler_is_deterministic_per_seed() {
        let mut a = OpScheduler::new(9);
        let mut b = OpScheduler::new(9);
        for step in 0..500 {
            let oa = a.pick();
            let ob = b.pick();
            assert_eq!(oa, ob, "diverged at pick {step}");
            // Identical feedback keeps the streams aligned.
            a.record(oa, step % 7 == 0);
            b.record(ob, step % 7 == 0);
        }
        assert_eq!(a.weight(MutOp::Baseline), b.weight(MutOp::Baseline));
        assert_eq!(a.weight(MutOp::I2sMmio), b.weight(MutOp::I2sMmio));
    }

    #[test]
    fn scheduler_reweights_toward_productive_operators() {
        let mut s = OpScheduler::new(3);
        // I2sInt finds something every time; the others never do.
        for _ in 0..300 {
            let op = s.pick();
            s.record(op, op == MutOp::I2sInt);
        }
        assert!(
            s.weight(MutOp::I2sInt) > s.weight(MutOp::Baseline),
            "productive operator not upweighted: {:?} vs {:?}",
            s.weight(MutOp::I2sInt),
            s.weight(MutOp::Baseline)
        );
        assert!(s.execs(MutOp::I2sInt) > s.execs(MutOp::Baseline));
    }

    #[test]
    fn scheduler_never_starves_an_operator() {
        let mut s = OpScheduler::new(4);
        // Baseline is a total dud for thousands of picks.
        let mut baseline_picks = 0u32;
        for _ in 0..4000 {
            let op = s.pick();
            s.record(op, op != MutOp::Baseline);
            if op == MutOp::Baseline {
                baseline_picks += 1;
            }
        }
        assert!(
            s.weight(MutOp::Baseline) >= WEIGHT_FLOOR,
            "weight fell through the floor: {}",
            s.weight(MutOp::Baseline)
        );
        // The floor keeps real probes flowing (≥ ~4% of picks even with
        // two maximally-favoured competitors; allow slack for sampling).
        assert!(
            baseline_picks > 80,
            "starved operator got only {baseline_picks}/4000 picks"
        );
    }

    #[test]
    fn scheduler_counters_reconcile() {
        let mut s = OpScheduler::new(5);
        let mut execs = [0u64; MutOp::COUNT];
        let mut hits = [0u64; MutOp::COUNT];
        for step in 0..200 {
            let op = s.pick();
            let interesting = step % 3 == 0;
            s.record(op, interesting);
            execs[op.index()] += 1;
            if interesting {
                hits[op.index()] += 1;
            }
        }
        for op in MutOp::ALL {
            assert_eq!(s.execs(op), execs[op.index()]);
            assert_eq!(s.interesting(op), hits[op.index()]);
            assert!(s.rate(op) > 0.0 && s.rate(op) <= 1.0);
        }
        assert_eq!(execs.iter().sum::<u64>(), 200);
    }

    #[test]
    fn operator_names_and_counters_are_stable() {
        assert_eq!(MutOp::Baseline.name(), "baseline");
        assert_eq!(MutOp::I2sInt.execs_counter(), "fuzz.op.i2s_int.execs");
        assert_eq!(
            MutOp::I2sMmio.interesting_counter(),
            "fuzz.op.i2s_mmio.interesting"
        );
        for (i, op) in MutOp::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
        }
    }
}
