//! Order statistics and the per-layer cost ledger.
//!
//! Pure arithmetic over recorded samples and spans, kept apart from the
//! workloads so the rules every reported number rests on are unit
//! tested on their own.

/// Samples beyond the reported tail percentile: a tail is only reported
/// where at least this many observations are worse than it.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The highest-percentile sample that still has at least
/// [`TAIL_BEYOND`] samples beyond it, with the number of samples
/// beyond it.
///
/// For `n` samples sorted ascending this is the sample at rank
/// `n - 1 - TAIL_BEYOND`. Ties at that rank count as "beyond" only when
/// they sit at a higher rank, so the count is always exactly
/// [`TAIL_BEYOND`]. With `TAIL_BEYOND` or fewer samples no percentile
/// qualifies; the maximum is returned with its (short) count so the
/// caller can still report something and show how thin it is.
pub fn tail(values: &[f64]) -> Option<(f64, usize)> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return Some((v[n - 1], 0));
    }
    let rank = n - 1 - TAIL_BEYOND;
    Some((v[rank], n - 1 - rank))
}

/// One recorded interval, in nanoseconds since the trace origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    pub start: u64,
    pub end: u64,
}

impl Interval {
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// How much of `parent` the union of `children` covers. Children are
/// clipped to the parent, and overlapping children are counted once,
/// so the result never exceeds the parent's length.
pub fn covered(parent: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = parent.start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// A span's self time: its length minus the part its children cover.
pub fn self_time(parent: Interval, children: &[Interval]) -> u64 {
    parent.len() - covered(parent, children)
}

/// The cost ledger of one traced pass: each row's summed self time,
/// plus the unattributed remainder of `total`.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    pub total: u64,
    pub rows: Vec<(&'static str, u64)>,
    pub unattributed: u64,
}

impl Ledger {
    /// Build the ledger from per-row self times. `total` is the traced
    /// wall time multiplied by the number of lanes that ran spans
    /// concurrently; when the rows exceed it (spans recorded outside
    /// the measured window) the total grows to cover them, so the
    /// remainder is never negative and rows plus remainder always sum
    /// to the total.
    pub fn new(total: u64, rows: Vec<(&'static str, u64)>) -> Self {
        let attributed: u64 = rows.iter().map(|(_, t)| t).sum();
        let total = total.max(attributed);
        Ledger {
            total,
            rows,
            unattributed: total - attributed,
        }
    }

    /// Each row's share of the total, then the unattributed share.
    pub fn shares(&self) -> (Vec<(&'static str, f64)>, f64) {
        let total = self.total.max(1) as f64;
        let rows = self
            .rows
            .iter()
            .map(|(name, t)| (*name, *t as f64 / total))
            .collect();
        (rows, self.unattributed as f64 / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(start: u64, end: u64) -> Interval {
        Interval { start, end }
    }

    #[test]
    fn tail_takes_the_rank_with_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples: rank 89 (value 90) has 91..=100 beyond it.
        assert_eq!(tail(&values), Some((90.0, 10)));
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven), Some((1.0, 10)));
    }

    #[test]
    fn tail_with_fewer_than_eleven_samples_reports_the_maximum_and_a_short_count() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), Some((10.0, 0)));
        assert_eq!(tail(&[7.5]), Some((7.5, 0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_ignores_input_order_and_keeps_ties() {
        let mut values = vec![5.0; 30];
        values.extend([9.0; 5]);
        values.reverse();
        // 35 samples: rank 24 is still inside the run of 5.0s even
        // though 5 of the 10 samples beyond it are ties of 5.0.
        assert_eq!(tail(&values), Some((5.0, 10)));
        let all_equal = vec![3.0; 50];
        assert_eq!(tail(&all_equal), Some((3.0, 10)));
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_once() {
        let parent = iv(0, 100);
        assert_eq!(self_time(parent, &[]), 100);
        assert_eq!(self_time(parent, &[iv(10, 20), iv(30, 50)]), 70);
        // Overlapping children are not subtracted twice.
        assert_eq!(self_time(parent, &[iv(10, 40), iv(20, 50)]), 60);
        // Children spilling outside the parent are clipped.
        assert_eq!(self_time(parent, &[iv(90, 150)]), 90);
        assert_eq!(self_time(parent, &[iv(0, 200), iv(5, 6)]), 0);
        assert_eq!(self_time(parent, &[iv(200, 300)]), 100);
    }

    #[test]
    fn ledger_rows_plus_remainder_sum_to_the_total() {
        let ledger = Ledger::new(1_000, vec![("sim", 600), ("core", 250)]);
        assert_eq!(ledger.unattributed, 150);
        let attributed: u64 = ledger.rows.iter().map(|(_, t)| t).sum();
        assert_eq!(attributed + ledger.unattributed, ledger.total);
        let (rows, rest) = ledger.shares();
        let sum: f64 = rows.iter().map(|(_, s)| s).sum::<f64>() + rest;
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ledger_remainder_is_never_negative() {
        let over = Ledger::new(100, vec![("sim", 80), ("fleet", 70)]);
        assert_eq!(over.unattributed, 0);
        assert_eq!(over.total, 150);
        let empty = Ledger::new(0, vec![]);
        assert_eq!(empty.unattributed, 0);
        let (rows, rest) = empty.shares();
        assert!(rows.is_empty());
        assert_eq!(rest, 0.0);
    }

    #[test]
    fn ledger_built_from_nested_spans_sums_to_the_traced_total() {
        // Two lanes over a 100 ns window: lane 0 runs a task with two
        // children, lane 1 a task with one child.
        let lane0_task = iv(0, 90);
        let lane0_kids = [iv(5, 45), iv(50, 80)];
        let lane1_task = iv(10, 70);
        let lane1_kids = [iv(15, 65)];
        let kids_self: u64 = lane0_kids
            .iter()
            .chain(&lane1_kids)
            .map(|k| self_time(*k, &[]))
            .sum();
        let task_self = self_time(lane0_task, &lane0_kids) + self_time(lane1_task, &lane1_kids);
        let ledger = Ledger::new(2 * 100, vec![("work", kids_self), ("task", task_self)]);
        assert_eq!(kids_self, 120);
        assert_eq!(task_self, 30);
        assert_eq!(ledger.unattributed, 50);
        assert_eq!(ledger.total, 200);
    }
}
