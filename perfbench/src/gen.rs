//! Seeded inputs: file contents, digests, skewed choices and identities.

use nexus_core::UserKeys;
use nexus_crypto::rng::{SecureRandom, SeededRandom};
use nexus_crypto::sha2::Sha256;

/// Mixes a run seed with a stream tag into an independent 64-bit seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded generator for stream `tag` of run `seed`.
pub fn rng(seed: u64, tag: u64) -> SeededRandom {
    SeededRandom::new(mix(seed, tag))
}

/// `size` pseudo-random bytes, a pure function of `(seed, tag)`.
pub fn content(seed: u64, tag: u64, size: usize) -> Vec<u8> {
    let mut out = vec![0u8; size];
    rng(seed, tag).fill(&mut out);
    out
}

pub fn digest(data: &[u8]) -> [u8; 32] {
    Sha256::digest(data)
}

/// A user identity whose key is a pure function of `(seed, index)`.
pub fn user(name: &str, seed: u64, index: u64) -> UserKeys {
    let mut key_seed = [0u8; 32];
    rng(seed, 0x05E7_0000 + index).fill(&mut key_seed);
    UserKeys::from_seed(name, &key_seed)
}

/// Zipf-skewed choice over `n` items: rank `r` (1-based) has weight
/// `r^-s`, and ranks map to items through a permutation fixed by
/// `ranking`, so which items are popular is part of the workload while the
/// draws come from the run's seed.
pub struct Zipf {
    cdf: Vec<f64>,
    items: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, ranking: u64) -> Zipf {
        let mut rng = SeededRandom::new(ranking);
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect::<Vec<_>>();
        let total = acc;
        let cdf = cdf.into_iter().map(|c| c / total).collect();
        let mut items: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            items.swap(i, rng.usize_below(i + 1));
        }
        Zipf { cdf, items }
    }

    pub fn sample(&self, rng: &mut SeededRandom) -> usize {
        let u = rng.f64_unit();
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.items.len() - 1);
        self.items[rank]
    }
}

/// Scans `haystack` for any of `needles` (each at least 2 bytes).
pub struct NeedleSet {
    by_prefix: Vec<Vec<usize>>,
    needles: Vec<Vec<u8>>,
}

impl NeedleSet {
    pub fn new(needles: Vec<Vec<u8>>) -> NeedleSet {
        let mut by_prefix = vec![Vec::new(); 1 << 16];
        for (i, n) in needles.iter().enumerate() {
            assert!(n.len() >= 2, "needles need a two-byte prefix");
            by_prefix[u16::from_le_bytes([n[0], n[1]]) as usize].push(i);
        }
        NeedleSet { by_prefix, needles }
    }

    /// The first needle found in `haystack`, if any.
    pub fn find(&self, haystack: &[u8]) -> Option<&[u8]> {
        for i in 0..haystack.len().saturating_sub(1) {
            let bucket =
                &self.by_prefix[u16::from_le_bytes([haystack[i], haystack[i + 1]]) as usize];
            for &n in bucket {
                let needle = &self.needles[n];
                if haystack[i..].starts_with(needle) {
                    return Some(needle);
                }
            }
        }
        None
    }
}
