//! Synthetic workload generators.
//!
//! The paper motivates truly perfect sampling with network-monitoring,
//! distributed-database and event-detection streams. Those traces are not
//! available, so the experiments use synthetic streams whose frequency
//! vectors are fully controlled — which is exactly what is needed, because
//! every claim under test is a statement about the sampler's output
//! distribution *relative to the exact frequency vector*.
//!
//! All generators are deterministic given a seed.

use crate::update::{Item, MatrixUpdate, SignedUpdate};
use tps_random::{subset::shuffle, StreamRng};

/// Generates a stream of `m` updates drawn i.i.d. uniformly from `[n]`.
pub fn uniform_stream<R: StreamRng>(rng: &mut R, n: u64, m: usize) -> Vec<Item> {
    assert!(n > 0, "universe must be non-empty");
    (0..m).map(|_| rng.gen_range(n)).collect()
}

/// `2^53`: [`StreamRng::next_f64`] draws multiples of `2^-53`, so a uniform
/// times this is the 53-bit integer it was made from.
const F64_DRAW_SCALE: f64 = (1u64 << 53) as f64;

/// The inverse-CDF table of a Zipf(α) distribution over `[n]` (item `i` has
/// probability ∝ `1/(i+1)^α`), with a guide table that makes a draw O(1)
/// expected instead of a binary search.
///
/// A draw maps a uniform `u ∈ [0, 1)` to the target `u · total` and returns
/// the CDF index the binary search over the cumulative weights would. The
/// guide splits the 53 bits of `u` into `2^k` buckets by their top `k`
/// bits; bucket `b` stores the first index whose cumulative weight reaches
/// the smallest target of the bucket, and a draw scans forward from there
/// to the first weight `≥ target`. Floating-point multiplication is
/// monotone, so the scan never starts past the answer. An exact tie
/// (`cdf[i] == target`) is resolved by the binary search itself, so the
/// table returns the same index as the search on every input.
#[derive(Debug, Clone)]
pub struct ZipfTable {
    cdf: Vec<f64>,
    total: f64,
    guide: Vec<usize>,
    /// `53 - k`: a draw's 53 bits shifted right by this are its bucket.
    shift: u32,
}

impl ZipfTable {
    /// Builds the table in O(`n`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `alpha < 0`.
    pub fn new(n: u64, alpha: f64) -> Self {
        assert!(n > 0, "universe must be non-empty");
        assert!(alpha >= 0.0, "zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut total = 0.0f64;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(alpha);
            cdf.push(total);
        }
        // About four buckets per item, at most 2^16 so the guide stays in
        // cache; the bucket walk is one pass over guide and CDF together.
        let bits = (n.next_power_of_two().trailing_zeros() + 2).min(16);
        let shift = 53 - bits;
        let last = cdf.len() - 1;
        let mut guide = Vec::with_capacity(1 << bits);
        let mut idx = 0usize;
        for bucket in 0..1u64 << bits {
            let lowest = ((bucket << shift) as f64 / F64_DRAW_SCALE) * total;
            while idx < last && cdf[idx] < lowest {
                idx += 1;
            }
            guide.push(idx);
        }
        Self {
            cdf,
            total,
            guide,
            shift,
        }
    }

    /// The universe size `n`.
    pub fn universe(&self) -> u64 {
        self.cdf.len() as u64
    }

    /// The item a uniform `u ∈ [0, 1)` maps to: exactly the index a binary
    /// search of the cumulative weights for `u · total` yields (clamped to
    /// `n - 1`).
    #[inline]
    pub fn index(&self, u: f64) -> Item {
        let target = u * self.total;
        let bucket = ((u * F64_DRAW_SCALE) as u64 >> self.shift) as usize;
        let last = self.cdf.len() - 1;
        let mut idx = self.guide[bucket.min(self.guide.len() - 1)];
        while idx < last && self.cdf[idx] < target {
            idx += 1;
        }
        if self.cdf[idx] == target {
            // Among equal weights the search's own choice is the answer.
            return self.search(target);
        }
        idx as Item
    }

    /// One draw from `rng`.
    #[inline]
    pub fn sample<R: StreamRng>(&self, rng: &mut R) -> Item {
        self.index(rng.next_f64())
    }

    /// The binary search the guide table short-cuts.
    fn search(&self, target: f64) -> Item {
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&target).unwrap())
        {
            Ok(idx) => idx as Item,
            Err(idx) => (idx as Item).min(self.universe() - 1),
        }
    }
}

/// Generates a stream of `m` updates drawn i.i.d. from a Zipf(α)
/// distribution over `[n]` (item `i` has probability ∝ `1/(i+1)^α`).
///
/// Zipfian streams are the standard stand-in for skewed network / text
/// workloads; they exercise the heavy-hitter-dominated regime in which the
/// `L_p` samplers for `p > 1` concentrate on few items.
pub fn zipfian_stream<R: StreamRng>(rng: &mut R, n: u64, m: usize, alpha: f64) -> Vec<Item> {
    let table = ZipfTable::new(n, alpha);
    (0..m).map(|_| table.sample(rng)).collect()
}

/// Generates a stream where `heavy_count` designated items receive
/// `heavy_fraction` of the `m` updates and the rest are uniform over the
/// remaining universe.
pub fn heavy_hitter_stream<R: StreamRng>(
    rng: &mut R,
    n: u64,
    m: usize,
    heavy_count: u64,
    heavy_fraction: f64,
) -> Vec<Item> {
    assert!(
        heavy_count > 0 && heavy_count < n,
        "need 0 < heavy_count < n"
    );
    assert!(
        (0.0..=1.0).contains(&heavy_fraction),
        "heavy_fraction must be in [0,1]"
    );
    (0..m)
        .map(|_| {
            if rng.gen_bool(heavy_fraction) {
                rng.gen_range(heavy_count)
            } else {
                heavy_count + rng.gen_range(n - heavy_count)
            }
        })
        .collect()
}

/// Materialises an insertion-only stream realising an explicit frequency
/// vector, with all copies of each item adjacent ("sorted order").
pub fn stream_from_frequencies(frequencies: &[(Item, u64)]) -> Vec<Item> {
    let mut out = Vec::with_capacity(frequencies.iter().map(|&(_, c)| c as usize).sum());
    for &(item, count) in frequencies {
        out.extend(std::iter::repeat_n(item, count as usize));
    }
    out
}

/// Materialises a *random-order* stream realising an explicit frequency
/// vector: the multiset of updates is fixed, their arrival order is a
/// uniformly random permutation (the model of Theorems 1.6 / 1.7).
pub fn random_order_stream<R: StreamRng>(rng: &mut R, frequencies: &[(Item, u64)]) -> Vec<Item> {
    let mut out = stream_from_frequencies(frequencies);
    shuffle(rng, &mut out);
    out
}

/// Generates a drifting stream for sliding-window experiments: the active
/// item population shifts by `drift` universe positions every `phase_len`
/// updates, so the window's frequency vector keeps changing and expired items
/// must genuinely be forgotten.
pub fn drifting_stream<R: StreamRng>(
    rng: &mut R,
    n: u64,
    m: usize,
    phase_len: usize,
    active_width: u64,
    drift: u64,
) -> Vec<Item> {
    assert!(active_width > 0 && active_width <= n);
    assert!(phase_len > 0);
    let mut out = Vec::with_capacity(m);
    let mut offset = 0u64;
    for t in 0..m {
        if t > 0 && t % phase_len == 0 {
            offset = (offset + drift) % n;
        }
        let item = (offset + rng.gen_range(active_width)) % n;
        out.push(item);
    }
    out
}

/// Generates a strict-turnstile stream: insertions and deletions such that
/// every intermediate frequency is non-negative and a `target_fraction` of
/// the inserted mass survives to the end.
pub fn strict_turnstile_stream<R: StreamRng>(
    rng: &mut R,
    n: u64,
    m: usize,
    delete_fraction: f64,
) -> Vec<SignedUpdate> {
    assert!(
        (0.0..1.0).contains(&delete_fraction),
        "delete_fraction must be in [0,1)"
    );
    let mut live: Vec<Item> = Vec::new();
    let mut out = Vec::with_capacity(m);
    for _ in 0..m {
        let can_delete = !live.is_empty();
        if can_delete && rng.gen_bool(delete_fraction) {
            // Delete one unit of a uniformly chosen live insertion, keeping
            // every intermediate frequency non-negative by construction.
            let idx = rng.gen_index(live.len());
            let item = live.swap_remove(idx);
            out.push(SignedUpdate::delete(item));
        } else {
            let item = rng.gen_range(n);
            live.push(item);
            out.push(SignedUpdate::insert(item));
        }
    }
    out
}

/// Generates a stream of matrix updates with `n` rows and `d` columns where
/// row `r` receives a number of updates proportional to `r + 1` (so row
/// norms are known and distinct).
pub fn matrix_stream<R: StreamRng>(rng: &mut R, n: u64, d: u64, m: usize) -> Vec<MatrixUpdate> {
    assert!(n > 0 && d > 0);
    let total_weight: u64 = n * (n + 1) / 2;
    (0..m)
        .map(|_| {
            // Sample a row with probability proportional to row + 1.
            let target = rng.gen_range(total_weight) + 1;
            // Find the smallest r with (r+1)(r+2)/2 >= target.
            let mut lo = 0u64;
            let mut hi = n - 1;
            while lo < hi {
                let mid = (lo + hi) / 2;
                if (mid + 1) * (mid + 2) / 2 >= target {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            MatrixUpdate::new(lo, rng.gen_range(d))
        })
        .collect()
}

/// An instance of the two-party equality problem used by the Theorem 1.2
/// lower-bound experiment: Alice's bit-vector `x`, Bob's `y`, and whether
/// they are equal.
#[derive(Debug, Clone)]
pub struct EqualityInstance {
    /// Alice's input `x ∈ {0,1}^n`.
    pub x: Vec<bool>,
    /// Bob's input `y ∈ {0,1}^n`.
    pub y: Vec<bool>,
}

impl EqualityInstance {
    /// Whether `x = y`.
    pub fn equal(&self) -> bool {
        self.x == self.y
    }

    /// The turnstile stream Alice contributes: `+1` on every coordinate
    /// where `x_i = 1`.
    pub fn alice_stream(&self) -> Vec<SignedUpdate> {
        self.x
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b)
            .map(|(i, _)| SignedUpdate::insert(i as Item))
            .collect()
    }

    /// The turnstile stream Bob appends: `-1` on every coordinate where
    /// `y_i = 1`, so the final frequency vector is `x - y`.
    pub fn bob_stream(&self) -> Vec<SignedUpdate> {
        self.y
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b)
            .map(|(i, _)| SignedUpdate::delete(i as Item))
            .collect()
    }
}

/// Generates an equality instance of dimension `n`. With probability 1/2 the
/// two inputs are identical; otherwise they differ in `hamming` uniformly
/// chosen positions (at least one).
pub fn equality_instance<R: StreamRng>(rng: &mut R, n: usize, hamming: usize) -> EqualityInstance {
    assert!(n > 0);
    let x: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
    let mut y = x.clone();
    if rng.gen_bool(0.5) {
        let flips = hamming.clamp(1, n);
        let positions = tps_random::subset::sample_without_replacement(rng, n as u64, flips);
        for pos in positions {
            y[pos as usize] = !y[pos as usize];
        }
    }
    EqualityInstance { x, y }
}

/// Splits a stream into `portions` equal consecutive portions, modelling the
/// "reset the sampler every minute" usage pattern from the paper's
/// introduction (used by the composition experiments).
pub fn split_into_portions(items: &[Item], portions: usize) -> Vec<Vec<Item>> {
    assert!(portions > 0);
    let chunk = items.len().div_ceil(portions).max(1);
    items.chunks(chunk).map(|c| c.to_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frequency::FrequencyVector;
    use tps_random::default_rng;

    #[test]
    fn uniform_stream_covers_universe() {
        let mut rng = default_rng(1);
        let stream = uniform_stream(&mut rng, 16, 10_000);
        let v = FrequencyVector::from_stream(&stream);
        assert_eq!(v.f0(), 16);
        assert!(stream.iter().all(|&i| i < 16));
    }

    #[test]
    fn zipfian_stream_is_skewed() {
        let mut rng = default_rng(2);
        let stream = zipfian_stream(&mut rng, 1000, 50_000, 1.2);
        let v = FrequencyVector::from_stream(&stream);
        // Item 0 should dominate item 100 heavily under alpha = 1.2.
        assert!(
            v.get(0) > 10 * v.get(100).max(1),
            "f0={} f100={}",
            v.get(0),
            v.get(100)
        );
    }

    /// The guide table returns the binary search's index for every draw:
    /// random uniforms, the edge uniforms `0` and the largest `f64` below
    /// 1, and every bucket's lowest uniform (the guide's own build
    /// targets), across universes from 1 to `2^20` and exponents from flat
    /// to so steep that the cumulative weights plateau.
    #[test]
    fn zipf_table_matches_the_binary_search() {
        use tps_random::StreamRng;

        let below_one = 1.0 - f64::EPSILON / 2.0;
        for n in [1u64, 2, 3, 4096, 1 << 20] {
            for alpha in [0.0, 0.5, 1.2, 3.0] {
                let mut cdf = Vec::new();
                let mut total = 0.0f64;
                for i in 0..n {
                    total += 1.0 / ((i + 1) as f64).powf(alpha);
                    cdf.push(total);
                }
                let reference = |u: f64| {
                    let target = u * total;
                    match cdf.binary_search_by(|probe| probe.partial_cmp(&target).unwrap()) {
                        Ok(idx) => idx as u64,
                        Err(idx) => (idx as u64).min(n - 1),
                    }
                };
                let table = ZipfTable::new(n, alpha);
                assert_eq!(table.universe(), n);
                let mut rng = default_rng(n ^ alpha.to_bits());
                let buckets = (4 * n.next_power_of_two()).min(1 << 12);
                let edges = [0.0, below_one].into_iter();
                let lowest = (0..buckets).map(|b| b as f64 / buckets as f64);
                let random = (0..20_000).map(|_| rng.next_f64());
                for u in edges.chain(lowest).chain(random) {
                    assert_eq!(table.index(u), reference(u), "n={n} alpha={alpha} u={u}");
                }
            }
        }
    }

    #[test]
    fn zipfian_alpha_zero_is_uniformish() {
        let mut rng = default_rng(3);
        let stream = zipfian_stream(&mut rng, 10, 50_000, 0.0);
        let v = FrequencyVector::from_stream(&stream);
        for i in 0..10 {
            let c = v.get(i) as f64;
            assert!((c / 5_000.0 - 1.0).abs() < 0.15, "item {i} count {c}");
        }
    }

    #[test]
    fn heavy_hitter_stream_concentrates_mass() {
        let mut rng = default_rng(4);
        let stream = heavy_hitter_stream(&mut rng, 1000, 20_000, 2, 0.8);
        let v = FrequencyVector::from_stream(&stream);
        let heavy_mass = v.get(0) + v.get(1);
        assert!((heavy_mass as f64) > 0.75 * 20_000.0);
    }

    #[test]
    fn stream_from_frequencies_roundtrips() {
        let freqs = [(3u64, 5u64), (9, 2), (11, 1)];
        let stream = stream_from_frequencies(&freqs);
        assert_eq!(stream.len(), 8);
        let v = FrequencyVector::from_stream(&stream);
        assert_eq!(v.get(3), 5);
        assert_eq!(v.get(9), 2);
        assert_eq!(v.get(11), 1);
    }

    #[test]
    fn random_order_stream_preserves_frequencies() {
        let mut rng = default_rng(5);
        let freqs = [(1u64, 10u64), (2, 20), (3, 30)];
        let stream = random_order_stream(&mut rng, &freqs);
        let v = FrequencyVector::from_stream(&stream);
        assert_eq!(v.get(1), 10);
        assert_eq!(v.get(2), 20);
        assert_eq!(v.get(3), 30);
        // The order should differ from the sorted materialisation.
        assert_ne!(stream, stream_from_frequencies(&freqs));
    }

    #[test]
    fn drifting_stream_changes_population() {
        let mut rng = default_rng(6);
        let stream = drifting_stream(&mut rng, 1000, 10_000, 1000, 10, 100);
        let early = FrequencyVector::from_stream(&stream[..1000]);
        let late = FrequencyVector::from_stream(&stream[9000..]);
        // Early and late phases should have (almost) disjoint supports.
        let early_support: std::collections::HashSet<_> = early.support().into_iter().collect();
        let overlap = late
            .support()
            .iter()
            .filter(|i| early_support.contains(i))
            .count();
        assert!(overlap < 3, "supports overlap too much: {overlap}");
    }

    #[test]
    fn strict_turnstile_stream_never_goes_negative() {
        let mut rng = default_rng(7);
        let updates = strict_turnstile_stream(&mut rng, 50, 5_000, 0.4);
        let mut v = FrequencyVector::new();
        for &u in &updates {
            v.apply(u);
            assert!(v.is_non_negative(), "intermediate vector went negative");
        }
        assert!(!v.is_zero());
    }

    #[test]
    fn matrix_stream_rows_are_weighted() {
        let mut rng = default_rng(8);
        let updates = matrix_stream(&mut rng, 4, 3, 40_000);
        let mut row_counts = [0u64; 4];
        for u in &updates {
            assert!(u.row < 4 && u.col < 3);
            row_counts[u.row as usize] += 1;
        }
        // Row 3 has weight 4, row 0 weight 1.
        assert!(row_counts[3] > 3 * row_counts[0] / 2);
    }

    #[test]
    fn equality_instance_streams_cancel_iff_equal() {
        let mut rng = default_rng(9);
        let mut saw_equal = false;
        let mut saw_unequal = false;
        for _ in 0..50 {
            let inst = equality_instance(&mut rng, 64, 3);
            let mut updates = inst.alice_stream();
            updates.extend(inst.bob_stream());
            let v = FrequencyVector::from_signed_stream(&updates);
            if inst.equal() {
                assert!(v.is_zero());
                saw_equal = true;
            } else {
                assert!(!v.is_zero());
                saw_unequal = true;
            }
        }
        assert!(saw_equal && saw_unequal);
    }

    #[test]
    fn split_into_portions_covers_stream() {
        let items: Vec<u64> = (0..103).collect();
        let portions = split_into_portions(&items, 10);
        assert_eq!(portions.iter().map(Vec::len).sum::<usize>(), 103);
        assert!(portions.len() >= 10);
    }
}
