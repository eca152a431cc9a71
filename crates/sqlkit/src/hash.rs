//! The workspace's two non-cryptographic hash families.
//!
//! - **FNV-1a** hashes bytes: canonical-form fingerprints, journal record
//!   checksums and run fingerprints, replication lineage hashes,
//!   transcript digests, and the simulated model's text-keyed draws.
//! - **SplitMix-style keyed draws** ([`splitmix`], [`unit()`]) avalanche a
//!   few integer words into one seeded draw: the simulated user's and
//!   model's per-call RNG seeds and latents, retry jitter, and the
//!   backend and disk fault injectors. Each caller keeps its own lane
//!   constants, so the lanes stay independent of one another.
//!
//! Both live in the leaf crate so every layer shares one definition.
//! Their outputs are persisted or compared across runs (goldens, digests,
//! seeded reports), so the constants here and every lane's arguments are
//! frozen.

/// FNV-1a 64-bit offset basis: the hash of the empty input.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV64_PRIME: u64 = 0x0100_0000_01b3;

/// Incremental 64-bit FNV-1a hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher at the FNV-1a offset basis.
    pub const fn new() -> Fnv64 {
        Fnv64(FNV64_OFFSET)
    }

    /// A hasher continuing from an earlier [`finish`](Fnv64::finish)
    /// value, so a rolling hash can be extended one chunk at a time.
    pub const fn resume(state: u64) -> Fnv64 {
        Fnv64(state)
    }

    /// Folds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV64_PRIME);
        }
    }

    /// The current hash value.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// 32-bit FNV-1a over `bytes`.
pub fn fnv1a_32(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// The SplitMix golden-ratio increment added to every word.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix-style avalanche of `words` from `init`: per word, xor in the
/// word plus the golden gamma rotated left by `rotate`, multiply by
/// `multiplier`, then, when `xor_shift` is `Some(s)`, fold in `h >> s`.
/// "No fold" is `None`, never `Some(0)`: `h ^= h >> 0` zeroes the state.
#[inline]
pub fn splitmix(
    init: u64,
    multiplier: u64,
    rotate: u32,
    xor_shift: Option<u32>,
    words: &[u64],
) -> u64 {
    let mut h = init;
    for &v in words {
        h ^= v.wrapping_add(GOLDEN_GAMMA).rotate_left(rotate);
        h = h.wrapping_mul(multiplier);
        if let Some(shift) = xor_shift {
            h ^= h >> shift;
        }
    }
    h
}

/// The top 53 bits of `h` as a uniform draw in `[0, 1)`.
#[inline]
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_vectors() {
        assert_eq!(fnv64(b""), FNV64_OFFSET);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_32(b""), 0x811c_9dc5);
        assert_eq!(fnv1a_32(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a_32(b"foobar"), 0xbf9c_f968);
    }

    #[test]
    fn incremental_and_resumed_hashing_agree_with_one_shot() {
        let mut h = Fnv64::new();
        h.update(b"foo");
        let mut resumed = Fnv64::resume(h.finish());
        resumed.update(b"bar");
        assert_eq!(resumed.finish(), fnv64(b"foobar"));
    }

    /// One output per call-site lane, pinned from the hand-rolled loops
    /// these lanes replaced; any drift would move seeded reports.
    #[test]
    fn splitmix_lanes_are_frozen() {
        let user = splitmix(0x2545F4914F6CDD1D, 0xD6E8FEB86659FD93, 17, None, &[1, 2, 3]);
        assert_eq!(user, 0x41c5_c36e_1ae3_f811);
        let model_rng = splitmix(0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 31, None, &[1, 2, 3]);
        assert_eq!(model_rng, 0xc570_3fd7_1514_af21);
        let latent = splitmix(0xA0761D6478BD642F, 0xE7037ED1A0B428DB, 23, None, &[1, 2, 3]);
        assert_eq!(latent, 0x6fc5_71b4_a17c_5101);
        let jitter = splitmix(
            0x9E6C63D0876A9A35,
            0xC2B2AE3D27D4EB4F,
            29,
            Some(31),
            &[1, 2, 3],
        );
        assert_eq!(jitter, 0x7c47_55f9_3563_6476);
        let fault = splitmix(
            0x2545F4914F6CDD1D,
            0xD6E8FEB86659FD93,
            17,
            Some(32),
            &[1, 2, 3, 4],
        );
        assert_eq!(fault, 0xc5cb_a8b8_a088_362c);
    }

    #[test]
    fn unit_draws_stay_in_the_half_open_interval() {
        assert_eq!(unit(0), 0.0);
        assert!(unit(u64::MAX) < 1.0);
        assert_eq!(unit(1 << 63), 0.5);
    }
}
