//! The runners' shared latency summarizer: nearest-rank percentiles of
//! per-request latencies, written into the `BENCH_*.json` artifacts.

/// Percentile summary of one set of per-request latencies
/// (microseconds).
pub(crate) struct LatencySummary {
    pub(crate) count: usize,
    pub(crate) p50_us: u128,
    pub(crate) p99_us: u128,
    pub(crate) p999_us: u128,
    pub(crate) max_us: u128,
}

impl LatencySummary {
    /// Summarizes `samples`; every field is `0` for an empty set.
    pub(crate) fn of<T: Into<u128>>(samples: impl IntoIterator<Item = T>) -> Self {
        let mut samples: Vec<u128> = samples.into_iter().map(Into::into).collect();
        samples.sort_unstable();
        let pick = |pct: f64| -> u128 {
            let rank = (samples.len().saturating_sub(1) as f64 * pct).round() as usize;
            samples.get(rank).copied().unwrap_or(0)
        };
        LatencySummary {
            count: samples.len(),
            p50_us: pick(0.50),
            p99_us: pick(0.99),
            p999_us: pick(0.999),
            max_us: samples.last().copied().unwrap_or(0),
        }
    }

    /// The summary as a JSON object.
    pub(crate) fn json(&self) -> String {
        format!(
            "{{\"count\": {}, \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}, \"max_us\": {}}}",
            self.count, self.p50_us, self.p99_us, self.p999_us, self.max_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::LatencySummary;

    #[test]
    fn nearest_rank_percentiles_and_empty_set() {
        let s = LatencySummary::of((1..=1000u64).rev());
        assert_eq!(
            (s.count, s.p50_us, s.p99_us, s.p999_us, s.max_us),
            (1000, 501, 990, 999, 1000)
        );
        let empty = LatencySummary::of(Vec::<u128>::new());
        assert_eq!((empty.count, empty.p50_us, empty.max_us), (0, 0, 0));
        assert_eq!(
            empty.json(),
            "{\"count\": 0, \"p50_us\": 0, \"p99_us\": 0, \"p999_us\": 0, \"max_us\": 0}"
        );
    }
}
