//! FNV-1a fingerprints: the workspace's one hash for cache keys and
//! staleness checks.
//!
//! [`Fnv1a`] runs two FNV-1a streams over the same bytes. The first is
//! plain 64-bit FNV-1a ([`Fnv1a::finish64`]); the second starts from a
//! different offset basis and sees each byte rotated left by 3. Together
//! they give a 128-bit key ([`Fnv1a::finish128`]) without an external
//! hash dependency.

const PRIME: u64 = 0x100_0000_01b3;

/// A dual-stream FNV-1a hasher (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a {
    h1: u64,
    h2: u64,
}

impl Default for Fnv1a {
    /// A hasher over no bytes yet.
    fn default() -> Fnv1a {
        Fnv1a {
            h1: 0xcbf2_9ce4_8422_2325,
            h2: 0x6c62_272e_07bb_0142,
        }
    }
}

impl Fnv1a {
    /// Feeds `bytes` in order.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.h1 = (self.h1 ^ u64::from(byte)).wrapping_mul(PRIME);
            self.h2 = (self.h2 ^ u64::from(byte.rotate_left(3))).wrapping_mul(PRIME);
        }
    }

    /// Feeds a word as its eight little-endian bytes.
    pub fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    /// Feeds a 128-bit key (e.g. an earlier [`Fnv1a::finish128`]) as two
    /// words, high half first.
    pub fn word128(&mut self, key: u128) {
        self.word((key >> 64) as u64);
        self.word(key as u64);
    }

    /// The plain 64-bit FNV-1a of everything fed so far.
    pub fn finish64(&self) -> u64 {
        self.h1
    }

    /// Both streams as one 128-bit key: the plain stream in the high half.
    pub fn finish128(&self) -> u128 {
        (u128::from(self.h1) << 64) | u128::from(self.h2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(bytes: &[u8]) -> Fnv1a {
        let mut h = Fnv1a::default();
        h.bytes(bytes);
        h
    }

    #[test]
    fn known_vectors() {
        // The published 64-bit FNV-1a vectors.
        assert_eq!(of(b"").finish64(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(of(b"a").finish64(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(of(b"foobar").finish64(), 0x8594_4171_f739_67e8);
        // The rotated second stream, computed independently.
        assert_eq!(
            of(b"foobar").finish128(),
            0x8594_4171_f739_67e8_4fc6_dc55_4ce2_ae64
        );
    }

    #[test]
    fn words_are_their_little_endian_bytes() {
        let mut w = Fnv1a::default();
        w.word(0x0102_0304_0506_0708);
        w.word128(0x1111_2222_3333_4444_5555_6666_7777_8888);
        let mut b = Fnv1a::default();
        b.bytes(&[8, 7, 6, 5, 4, 3, 2, 1]);
        b.bytes(&0x1111_2222_3333_4444u64.to_le_bytes());
        b.bytes(&0x5555_6666_7777_8888u64.to_le_bytes());
        assert_eq!(w, b);
    }
}
