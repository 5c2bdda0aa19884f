//! Order statistics, log2 latency histograms and the FNV-1a output digest.

/// Median of `values`: the middle value, or the mean of the middle pair
/// for an even count. Zero for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, the rule the benchmark's spread
/// acceptance is stated in. A single value is its own quartiles; an empty
/// slice gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative when the clamp raised `j`: Python extrapolates then.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The 1-based nearest rank of the `p`-th percentile among `n` values. The
/// small tolerance keeps `99.9 * 1000 / 100` at rank 999 despite rounding.
fn nearest_rank(p: f64, n: u64) -> u64 {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as u64).clamp(1, n.max(1))
}

/// Nearest-rank `p`-th percentile of an ascending slice (0 when empty).
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = nearest_rank(p, sorted.len() as u64) as usize;
    sorted[rank - 1]
}

/// Buckets of a log2 histogram: bucket `k > 0` holds values in
/// `[2^(k-1), 2^k)`, bucket 0 holds zero.
pub const LOG2_BUCKETS: usize = 65;

/// The log2 bucket of `value`.
pub fn log2_bucket(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Nearest-rank `p`-th percentile of a log2 histogram, interpolated
/// linearly by rank within the bucket it falls in (so never off by more
/// than the bucket's width). Zero for an empty histogram.
pub fn hist_percentile(buckets: &[u64; LOG2_BUCKETS], p: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    let rank = nearest_rank(p, total);
    let mut below = 0;
    for (k, &count) in buckets.iter().enumerate() {
        if below + count >= rank && count > 0 {
            if k == 0 {
                return 0.0;
            }
            let lo = 2f64.powi(k as i32 - 1);
            return lo + lo * (rank - below) as f64 / count as f64;
        }
        below += count;
    }
    0.0
}

/// 64-bit FNV-1a over everything written to it, counting the bytes. It is
/// both a `fmt::Write` (for `Debug` output, hashed without building the
/// string) and an `io::Write` (for streamed span bytes).
#[derive(Debug, Clone)]
pub struct Fnv {
    hash: u64,
    bytes: u64,
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv {
            hash: 0xcbf2_9ce4_8422_2325,
            bytes: 0,
        }
    }
}

impl Fnv {
    pub fn new() -> Self {
        Fnv::default()
    }

    pub fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.bytes += data.len() as u64;
    }

    pub fn digest(&self) -> u64 {
        self.hash
    }

    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

impl std::io::Write for Fnv {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// SplitMix64: the benchmark's own generator for input permutations, so
/// that the inputs do not move when the program's RNGs change.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), (1.25, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 500);
        assert_eq!(percentile_sorted(&v, 99.9), 999);
        assert_eq!(percentile_sorted(&v, 100.0), 1000);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
    }

    #[test]
    fn histogram_percentiles_land_in_the_right_bucket() {
        let mut h = [0u64; LOG2_BUCKETS];
        assert_eq!(hist_percentile(&h, 50.0), 0.0);
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(1000), 10); // [512, 1024)
        assert_eq!(log2_bucket(u64::MAX), 64);
        h[log2_bucket(1000)] += 98;
        h[log2_bucket(100_000)] += 2; // [65536, 131072)
        assert_eq!(hist_percentile(&h, 50.0), 512.0 + 512.0 * 50.0 / 98.0);
        assert_eq!(hist_percentile(&h, 98.0), 1024.0);
        assert_eq!(hist_percentile(&h, 99.0), 98_304.0);
        assert_eq!(hist_percentile(&h, 100.0), 131_072.0);
        h[0] += 100;
        assert_eq!(hist_percentile(&h, 50.0), 0.0);
    }

    #[test]
    fn fnv1a_known_vectors() {
        let hash = |s: &str| {
            let mut f = Fnv::new();
            f.write_str(s).unwrap();
            f.digest()
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
        let mut f = Fnv::new();
        std::io::Write::write_all(&mut f, b"foobar").unwrap();
        assert_eq!((f.digest(), f.bytes()), (hash("foobar"), 6));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        SplitMix64(7).shuffle(&mut a);
        SplitMix64(7).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..100).collect::<Vec<_>>());
        a.sort_unstable();
        assert_eq!(a, (0..100).collect::<Vec<_>>());
    }
}
