//! The benchmark's own arithmetic: order statistics, self time, ratios
//! and the unattributed residual. Kept free of any campaign code so the
//! unit tests below pin every formula the report relies on.

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median of `samples` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    match sorted.len() {
        0 => None,
        n if n % 2 == 0 => Some((sorted[mid - 1] + sorted[mid]) / 2.0),
        _ => Some(sorted[mid]),
    }
}

/// A timing summary: the median and the highest percentile of the
/// ladder 90, 99, 99.9, 99.99 that still has at least ten samples above
/// it, with the sample count. `tail_pct` is `None` when fewer than 100
/// samples leave no such percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub median: f64,
    pub tail_pct: Option<f64>,
    pub tail: Option<f64>,
}

/// Summarise `samples` as [`Summary`]; `None` when empty. Percentiles
/// use the nearest-rank rule, in whole parts per ten thousand so the
/// ten-beyond test is exact.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let median = median(samples)?;
    let sorted = sorted(samples);
    let count = sorted.len();
    let tail = [9_999usize, 9_990, 9_900, 9_000]
        .into_iter()
        .find_map(|per_10k| {
            let rank = (count * per_10k).div_ceil(10_000);
            (count - rank >= 10).then(|| (per_10k as f64 / 100.0, sorted[rank - 1]))
        });
    Some(Summary {
        count,
        median,
        tail_pct: tail.map(|t| t.0),
        tail: tail.map(|t| t.1),
    })
}

/// Self time of a span: its length minus the part of it that the union
/// of its children covers. Children may overlap each other (parallel
/// workers) or stick out of the parent; only covered parent time counts,
/// once. Intervals are `(start, end)` in any common unit.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = ps;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    pe.saturating_sub(ps) - covered
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Share of failed operations: failed execs (a failed sync or a
/// discarded coverage or comparison drain) plus failed fabric cells,
/// over execs plus cells.
pub fn fail_ratio(failed_execs: u64, execs: u64, failed_cells: u64, cells: u64) -> f64 {
    ratio((failed_execs + failed_cells) as f64, (execs + cells) as f64)
}

/// Useful over attempted simulated time of a fabric: the budget hours
/// the cells needed, over the hours their checkpoint ladders executed.
pub fn rederive_ratio(budget_hours: f64, executed_hours: f64) -> f64 {
    ratio(budget_hours, executed_hours)
}

/// Wall time no layer claims: `base` minus the layers' self times,
/// never below zero (self times measured on separate clocks can sum to
/// slightly more than the base they are taken from).
pub fn unattributed(base: f64, self_times: &[f64]) -> f64 {
    (base - self_times.iter().sum::<f64>()).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        // 99 samples: even p90 leaves only 9.9 beyond it.
        let s: Vec<f64> = (0..99).map(f64::from).collect();
        let sum = summarize(&s).unwrap();
        assert_eq!(sum.count, 99);
        assert_eq!(sum.tail_pct, None);
        // 100 samples: p90 leaves exactly ten.
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        let sum = summarize(&s).unwrap();
        assert_eq!(sum.tail_pct, Some(90.0));
        assert_eq!(sum.tail, Some(90.0));
        // 1000 samples reach p99, 999 do not.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(summarize(&s).unwrap().tail_pct, Some(99.0));
        assert_eq!(summarize(&s).unwrap().tail, Some(990.0));
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(summarize(&s).unwrap().tail_pct, Some(90.0));
        // 100 000 samples reach p99.99.
        let s: Vec<f64> = (1..=100_000).map(f64::from).collect();
        let sum = summarize(&s).unwrap();
        assert_eq!(sum.tail_pct, Some(99.99));
        assert_eq!(sum.median, 50_000.5);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn self_time_subtracts_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two workers overlap in 20..40: covered time is 10..60 = 50.
        assert_eq!(self_time((0, 100), &[(10, 40), (20, 60)]), 50);
        // A child nested inside another adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        // Identical children count once.
        assert_eq!(self_time((0, 100), &[(0, 50), (0, 50)]), 50);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time((10, 20), &[(0, 100)]), 0);
        assert_eq!(self_time((10, 20), &[(30, 40)]), 10);
    }

    #[test]
    fn fail_ratio_counts_execs_and_cells_on_one_base() {
        assert_eq!(fail_ratio(0, 0, 0, 0), 0.0);
        assert_eq!(fail_ratio(2, 98, 0, 2), 0.02);
        assert_eq!(fail_ratio(0, 0, 1, 4), 0.25);
        assert_eq!(fail_ratio(1, 9, 1, 10), 2.0 / 19.0);
    }

    #[test]
    fn rederive_ratio_is_budget_over_executed_hours() {
        // Four slices of a 1 h cell re-derive from zero each time and
        // execute 0.25 + 0.5 + 0.75 + 1 h.
        let executed: f64 = (0..4)
            .map(|k| eof_core::fabric::slice_target_hours(1.0, 4, k))
            .sum();
        assert!((executed - 2.5).abs() < 1e-12);
        assert!((rederive_ratio(1.0, executed) - 0.4).abs() < 1e-12);
        // One slice wastes nothing.
        assert_eq!(rederive_ratio(2.0, 2.0), 1.0);
        assert_eq!(rederive_ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn unattributed_never_goes_negative() {
        assert_eq!(unattributed(10.0, &[3.0, 4.0]), 3.0);
        assert_eq!(unattributed(10.0, &[6.0, 5.0]), 0.0);
        assert_eq!(unattributed(0.0, &[]), 0.0);
    }
}
