//! Folding the program's own span journal into per-layer host time.
//!
//! The program already records, when a telemetry recorder is installed
//! on the thread, one span per call into most layers (`exec`,
//! `exec.translate`, `exec.cov_drain`, `restore.snapshot`,
//! `campaign.boot`, ...), each with its wall-clock length. A span record
//! carries no wall start, so nesting is rebuilt from the journal order
//! (a span is journaled when it ends, after its children) plus the
//! simulated-cycle interval and the static parent table below. Self
//! time is a span's wall time minus its direct children's.

use std::collections::BTreeMap;

use eof_telemetry::{Registry, SpanRecord};

/// Which spans a program span may directly nest in. Spans not listed
/// (or found outside every listed parent) are top level.
const PARENTS: &[(&str, &[&str])] = &[
    ("fuzz.gen", &["campaign.fuzz"]),
    ("exec", &["campaign.fuzz"]),
    ("exec.translate", &["exec"]),
    ("exec.cov_drain", &["exec"]),
    ("exec.cmp_drain", &["exec.cov_drain", "exec"]),
    ("exec.triage", &["exec"]),
    ("recovery.episode", &["exec", "campaign.boot"]),
    ("restore.snapshot", &["recovery.episode"]),
    ("restore.verify_reflash", &["recovery.episode"]),
    ("restore.full_reflash", &["recovery.episode"]),
];

/// Spans whose individual wall times are kept for percentiles.
const SAMPLED: &[&str] = &[
    "exec",
    "fuzz.gen",
    "restore.snapshot",
    "restore.verify_reflash",
    "restore.full_reflash",
];

/// The restore spans: one per state restoration the supervisor applies.
pub const RESTORE_SPANS: &[&str] = &[
    "restore.snapshot",
    "restore.verify_reflash",
    "restore.full_reflash",
];

fn may_nest(child: &str, parent: &str) -> bool {
    PARENTS
        .iter()
        .any(|(c, ps)| *c == child && ps.contains(&parent))
}

fn contains(outer: &SpanRecord, inner: &SpanRecord) -> bool {
    outer.start_cycles <= inner.start_cycles && inner.end_cycles <= outer.end_cycles
}

/// Everything the traced run keeps from the program's registries.
#[derive(Debug, Default)]
pub struct Fold {
    /// Total wall ns per span name.
    pub wall_ns: BTreeMap<&'static str, u64>,
    /// Self wall ns per span name (span minus direct children).
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Spans per name.
    pub count: BTreeMap<&'static str, u64>,
    /// Simulated cycles per span name.
    pub cycles: BTreeMap<&'static str, u64>,
    /// Wall ns of each span in [`SAMPLED`].
    pub samples_ns: BTreeMap<&'static str, Vec<u64>>,
    /// Wall ns of spans with no parent: what the program's spans claim
    /// of the bench span they ran in.
    pub top_ns: u64,
    /// Program counters, summed.
    pub counters: BTreeMap<&'static str, u64>,
    /// Vectored transactions shipped and the ops they carried.
    pub txns: u64,
    pub txn_ops: u64,
    /// Individual debug-port operations.
    pub dap_ops: u64,
    /// Recovery episodes measured and their simulated cycles.
    pub episodes: u64,
    pub episode_cycles: u64,
    /// Span records the registry cap dropped (the sums above would be
    /// short by their wall time).
    pub spans_dropped: u64,
}

impl Fold {
    /// Fold one finished registry in.
    pub fn absorb(&mut self, reg: Registry) {
        // Records not yet adopted by a parent, in journal order.
        let mut pending: Vec<usize> = Vec::new();
        for (i, rec) in reg.spans.iter().enumerate() {
            let mut children_ns = 0u64;
            while let Some(&top) = pending.last() {
                let child = &reg.spans[top];
                if !(may_nest(child.name, rec.name) && contains(rec, child)) {
                    break;
                }
                children_ns += child.wall_ns;
                pending.pop();
            }
            *self.wall_ns.entry(rec.name).or_default() += rec.wall_ns;
            *self.self_ns.entry(rec.name).or_default() += rec.wall_ns.saturating_sub(children_ns);
            *self.count.entry(rec.name).or_default() += 1;
            *self.cycles.entry(rec.name).or_default() +=
                rec.end_cycles.saturating_sub(rec.start_cycles);
            if SAMPLED.contains(&rec.name) {
                self.samples_ns
                    .entry(rec.name)
                    .or_default()
                    .push(rec.wall_ns);
            }
            pending.push(i);
        }
        self.top_ns += pending.iter().map(|&i| reg.spans[i].wall_ns).sum::<u64>();
        for (name, v) in &reg.counters {
            *self.counters.entry(name).or_default() += v;
        }
        if let Some(h) = reg.hist("dap.txn.ops") {
            self.txns += h.count;
            self.txn_ops += h.sum;
        }
        if let Some(h) = reg.hist("recovery.episode_cycles") {
            self.episodes += h.count;
            self.episode_cycles += h.sum;
        }
        self.dap_ops += reg.ops.values().map(|o| o.count).sum::<u64>();
        self.spans_dropped += reg.spans_dropped;
    }

    /// Self seconds of the named spans.
    pub fn self_s(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .map(|n| self.self_ns.get(n).copied().unwrap_or(0))
            .sum::<u64>() as f64
            / 1e9
    }

    /// Total wall seconds of the named spans.
    pub fn wall_s(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .map(|n| self.wall_ns.get(n).copied().unwrap_or(0))
            .sum::<u64>() as f64
            / 1e9
    }

    /// Spans recorded under the named spans.
    pub fn spans(&self, names: &[&str]) -> u64 {
        names
            .iter()
            .map(|n| self.count.get(n).copied().unwrap_or(0))
            .sum()
    }

    /// Simulated cycles under the named spans.
    pub fn span_cycles(&self, names: &[&str]) -> u64 {
        names
            .iter()
            .map(|n| self.cycles.get(n).copied().unwrap_or(0))
            .sum()
    }

    /// Per-span wall samples of the named spans, in seconds.
    pub fn samples_s(&self, names: &[&str]) -> Vec<f64> {
        names
            .iter()
            .flat_map(|n| self.samples_ns.get(n).into_iter().flatten())
            .map(|&ns| ns as f64 / 1e9)
            .collect()
    }

    /// A program counter, summed.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, wall: u64) -> SpanRecord {
        SpanRecord {
            name,
            start_cycles: start,
            end_cycles: end,
            wall_ns: wall,
        }
    }

    fn registry(spans: Vec<SpanRecord>) -> Registry {
        let mut reg = Registry::new();
        for s in spans {
            reg.span(s);
        }
        reg
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        // gen at the same cycle as the exec that follows it is a sibling,
        // not a child; the restore nests in the episode, the episode in
        // the exec.
        let mut f = Fold::default();
        f.absorb(registry(vec![
            rec("fuzz.gen", 100, 100, 5),
            rec("exec.translate", 100, 100, 3),
            rec("exec.cov_drain", 100, 150, 10),
            rec("restore.snapshot", 160, 170, 40),
            rec("recovery.episode", 150, 200, 50),
            rec("exec", 100, 200, 100),
        ]));
        assert_eq!(f.self_ns["exec"], 100 - 3 - 10 - 50);
        assert_eq!(f.self_ns["recovery.episode"], 10);
        assert_eq!(f.self_ns["restore.snapshot"], 40);
        assert_eq!(f.self_ns["fuzz.gen"], 5);
        assert_eq!(f.top_ns, 5 + 100);
        assert_eq!(f.samples_s(&["exec"]), vec![100e-9]);
    }

    #[test]
    fn nested_and_sibling_cmp_drains_are_both_attributed() {
        let mut f = Fold::default();
        f.absorb(registry(vec![
            // Vectored: the operand ring drains inside the coverage txn.
            rec("exec.cmp_drain", 10, 20, 4),
            rec("exec.cov_drain", 5, 25, 9),
            rec("exec", 0, 30, 20),
            // Scalar: the operand ring drains after the coverage ring.
            rec("exec.cov_drain", 35, 40, 6),
            rec("exec.cmp_drain", 40, 45, 2),
            rec("exec", 30, 50, 12),
        ]));
        assert_eq!(f.self_ns["exec.cov_drain"], 5 + 6);
        assert_eq!(f.self_ns["exec.cmp_drain"], 6);
        assert_eq!(f.self_ns["exec"], 11 + 4);
        assert_eq!(f.top_ns, 32);
    }

    #[test]
    fn self_time_is_clamped_when_children_outlast_the_parent() {
        // Wall clocks of separate spans can disagree by a few ns.
        let mut f = Fold::default();
        f.absorb(registry(vec![
            rec("exec.translate", 0, 0, 7),
            rec("exec", 0, 10, 5),
        ]));
        assert_eq!(f.self_ns["exec"], 0);
    }
}
