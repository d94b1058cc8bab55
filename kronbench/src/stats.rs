//! Order statistics for the harness: medians, nearest-rank percentiles,
//! the "highest percentile the sample supports" rule, and the
//! median-of-slices summary every timed window is reduced to.

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice — callers never summarise an empty window.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `pct` (0 < pct ≤ 100) of an ascending slice.
pub fn percentile_sorted(sorted: &[u64], pct: u32) -> u64 {
    assert!(!sorted.is_empty() && (1..=100).contains(&pct));
    let rank = (sorted.len() * pct as usize).div_ceil(100);
    sorted[rank.max(1) - 1]
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [u32; 5] = [99, 95, 90, 75, 50];

/// Samples a tail percentile must have beyond it. A percentile needs
/// ten to mean anything; asking for twenty keeps a workload whose
/// sample count wobbles around a rung of the ladder from changing
/// percentile — and so changing metric — between two runs.
const SAMPLES_BEYOND: usize = 20;

/// The highest percentile of the ladder with [`SAMPLES_BEYOND`] samples
/// beyond it in a sample of `n` (p99 needs 2000 samples, p95 400, p90
/// 200, p75 80, p50 40). Below 40 samples the median is all there is.
pub fn supported_tail(n: usize) -> u32 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n * (100 - p as usize) >= SAMPLES_BEYOND * 100)
        .unwrap_or(50)
}

/// One slice of a timed window: units of work done, wall seconds, and
/// the per-operation latencies (ns) that completed inside it.
#[derive(Clone, Debug, Default)]
pub struct Slice {
    pub units: u64,
    pub secs: f64,
    pub lat_ns: Vec<u64>,
}

/// What a window reduces to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Units of work per wall second: median of the per-slice rates.
    pub units_per_s: f64,
    /// Median operation time, µs.
    pub p50_us: f64,
    /// Operation time at `tail_pct`, µs.
    pub tail_us: f64,
    /// Which percentile `tail_us` is (see [`supported_tail`]).
    pub tail_pct: u32,
    /// Latency samples in the smallest slice.
    pub min_slice_samples: usize,
}

/// Reduce a window to its summary. The rate is always the median of
/// the per-slice rates, so one slice hit by a noisy neighbour cannot
/// move it. Latencies are per-slice percentiles (median across slices)
/// when every slice holds at least 40 samples; a batch workload, whose
/// "slices" are single repetitions, is pooled instead.
pub fn summarise(slices: &[Slice]) -> Summary {
    assert!(!slices.is_empty());
    let rates: Vec<f64> = slices
        .iter()
        .map(|s| s.units as f64 / s.secs.max(1e-9))
        .collect();
    let min_n = slices.iter().map(|s| s.lat_ns.len()).min().unwrap_or(0);
    let us = |ns: u64| ns as f64 / 1e3;
    let (p50_us, tail_us, tail_pct) = if min_n >= 2 * SAMPLES_BEYOND {
        let pct = supported_tail(min_n);
        let (mut p50s, mut tails) = (Vec::new(), Vec::new());
        for s in slices {
            let mut lat = s.lat_ns.clone();
            lat.sort_unstable();
            p50s.push(us(percentile_sorted(&lat, 50)));
            tails.push(us(percentile_sorted(&lat, pct)));
        }
        (median(&p50s), median(&tails), pct)
    } else {
        let mut pool: Vec<u64> = slices
            .iter()
            .flat_map(|s| s.lat_ns.iter().copied())
            .collect();
        assert!(
            !pool.is_empty(),
            "a window needs at least one latency sample"
        );
        pool.sort_unstable();
        let pct = supported_tail(pool.len());
        (
            us(percentile_sorted(&pool, 50)),
            us(percentile_sorted(&pool, pct)),
            pct,
        )
    };
    Summary {
        units_per_s: median(&rates),
        p50_us,
        tail_us,
        tail_pct,
        min_slice_samples: min_n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50), 50);
        assert_eq!(percentile_sorted(&v, 99), 99);
        assert_eq!(percentile_sorted(&v, 100), 100);
        assert_eq!(percentile_sorted(&[5], 99), 5);
        // 10 samples: rank ceil(10·0.75) = 8
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile_sorted(&v, 75), 8);
    }

    #[test]
    fn tail_needs_twenty_samples_beyond() {
        assert_eq!(supported_tail(2000), 99);
        assert_eq!(supported_tail(1999), 95);
        assert_eq!(supported_tail(400), 95);
        assert_eq!(supported_tail(399), 90);
        assert_eq!(supported_tail(200), 90);
        assert_eq!(supported_tail(199), 75);
        assert_eq!(supported_tail(80), 75);
        assert_eq!(supported_tail(79), 50);
        assert_eq!(supported_tail(5), 50);
    }

    fn slice(units: u64, secs: f64, lat: impl IntoIterator<Item = u64>) -> Slice {
        Slice {
            units,
            secs,
            lat_ns: lat.into_iter().collect(),
        }
    }

    #[test]
    fn one_noisy_slice_does_not_move_the_summary() {
        let quiet = || slice(2000, 1.0, (0..2000).map(|i| 10_000 + i));
        let noisy = slice(100, 1.0, (0..2000).map(|i| 900_000 + i));
        let s = summarise(&[quiet(), quiet(), noisy, quiet(), quiet()]);
        assert_eq!(s.units_per_s, 2000.0);
        assert_eq!(s.tail_pct, 99);
        assert_eq!(s.min_slice_samples, 2000);
        // nearest rank: p50 is sample 1000, p99 sample 1980 (1-based)
        assert_eq!(s.p50_us, 10.999);
        assert_eq!(s.tail_us, 11.979);
    }

    #[test]
    fn small_slices_lower_the_reported_percentile() {
        let s = summarise(&[
            slice(500, 1.0, 0..500),
            slice(400, 1.0, 0..400),
            slice(600, 1.0, 0..600),
        ]);
        assert_eq!(s.tail_pct, 95, "400 samples support p95, not p99");
    }

    #[test]
    fn repetitions_are_pooled() {
        // six repetitions of one sample each: only the median is supported
        let reps: Vec<Slice> = [5u64, 1, 3, 2, 4, 6]
            .into_iter()
            .map(|ms| slice(1_000_000, ms as f64 / 1e3, [ms * 1_000_000]))
            .collect();
        let s = summarise(&reps);
        assert_eq!(s.tail_pct, 50);
        assert_eq!(s.p50_us, 3000.0);
        assert_eq!(s.tail_us, s.p50_us);
        // rates 1e9/ms: median of {2e8,1e9,3.3e8,5e8,2.5e8,1.67e8}
        let expect = (1e6 / 0.003 + 1e6 / 0.004) / 2.0;
        assert!((s.units_per_s - expect).abs() < 1e-3);
    }
}
