//! FNV-1a, the one non-cryptographic hash family the workspace uses for
//! fingerprints, checksums and seeded text keys.
//!
//! It lives in the leaf crate so every layer shares one definition:
//! canonical-form fingerprints, journal record checksums and run
//! fingerprints, replication lineage hashes, transcript digests, and the
//! simulated model's text-keyed draws. All of those are persisted or
//! compared across runs, so the constants here are frozen.

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
}
