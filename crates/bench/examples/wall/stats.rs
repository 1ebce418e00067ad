//! Order statistics, least squares, a stable digest and a seeded generator.
//!
//! Everything the harness reports goes through these helpers, so `wall
//! self-test` checks each of them against hand-computed values.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice so callers need no special case.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method) does, because that
/// is what the benchmark driver uses to judge spread.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile (`p` in 0..=100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Least-squares line `y = intercept + slope * x`; `(mean(y), 0)` when
/// `x` has no variance.
pub fn least_squares(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    let n = xs.len().min(ys.len());
    if n == 0 {
        return (0.0, 0.0);
    }
    let mx = xs[..n].iter().sum::<f64>() / n as f64;
    let my = ys[..n].iter().sum::<f64>() / n as f64;
    let (mut sxx, mut sxy) = (0.0, 0.0);
    for i in 0..n {
        sxx += (xs[i] - mx) * (xs[i] - mx);
        sxy += (xs[i] - mx) * (ys[i] - my);
    }
    if sxx == 0.0 {
        return (my, 0.0);
    }
    let slope = sxy / sxx;
    (my - slope * mx, slope)
}

/// FNV-1a over 64-bit words: the digest printed as `values_digest` and
/// `sim_digest`. Stable across runs, platforms and Rust versions, unlike
/// `std::hash`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

/// SplitMix64: the harness's own seeded generator (sources, frontiers,
/// mutation scripts), independent of the library's `rand` shim.
#[derive(Clone, Debug)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Checks of the helpers above against hand-computed values.
pub fn self_test() -> Result<(), String> {
    let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
    let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
    if !close(median(&xs), 3.0) || !close(median(&[1.0, 2.0, 3.0, 4.0]), 2.5) {
        return Err("median".into());
    }
    // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
    let (q1, q2, q3) = quartiles(&xs);
    if !(close(q1, 1.5) && close(q2, 3.0) && close(q3, 4.5)) {
        return Err(format!("quartiles {q1} {q2} {q3}"));
    }
    // statistics.quantiles([1,2,4,8,16,32,64,128,256,512], n=4) == [3.5, 24.0, 160.0]
    let pow: Vec<f64> = (0..10).map(|i| f64::from(1u32 << i)).collect();
    let (q1, q2, q3) = quartiles(&pow);
    if !(close(q1, 3.5) && close(q2, 24.0) && close(q3, 160.0)) {
        return Err(format!("quartiles(10) {q1} {q2} {q3}"));
    }
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    if !close(percentile(&hundred, 99.0), 99.0) || !close(percentile(&hundred, 50.0), 50.0) {
        return Err("percentile".into());
    }
    let (a, b) = least_squares(&[0.0, 1.0, 2.0, 3.0], &[7.0, 9.0, 11.0, 13.0]);
    if !close(a, 7.0) || !close(b, 2.0) {
        return Err(format!("least_squares {a} {b}"));
    }
    let mut d = Digest::default();
    d.word(1);
    let mut e = Digest::default();
    e.word(2);
    if d == e || d == Digest::default() {
        return Err("digest".into());
    }
    let mut r = SplitMix(7);
    let mut s = SplitMix(7);
    if r.next() != s.next() || r.below(10) >= 10 || !(0.0..1.0).contains(&r.unit()) {
        return Err("splitmix".into());
    }
    Ok(())
}
