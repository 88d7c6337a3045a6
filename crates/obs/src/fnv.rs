//! 64-bit FNV-1a, the workspace's one fingerprint hash.
//!
//! Checkpoint fingerprints, streamed-proof hashes, verdict-cache keys
//! and the router's shard choice are all FNV-1a values that end up on
//! disk or decide placement, so they must never change.

/// The FNV-1a offset basis: the hash of no bytes, and the seed for a
/// fresh [`fnv1a`] run.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Extends the FNV-1a hash `hash` over `bytes`. Hashing in pieces gives
/// the same value as hashing the concatenation in one call.
///
/// # Examples
///
/// ```
/// use obs::{fnv1a, FNV1A_OFFSET};
///
/// assert_eq!(fnv1a(FNV1A_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
/// let split = fnv1a(fnv1a(FNV1A_OFFSET, b"foo"), b"bar");
/// assert_eq!(split, fnv1a(FNV1A_OFFSET, b"foobar"));
/// ```
#[must_use]
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        // from the FNV reference test suite (64-bit FNV-1a)
        assert_eq!(fnv1a(FNV1A_OFFSET, b""), FNV1A_OFFSET);
        assert_eq!(fnv1a(FNV1A_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV1A_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn hashing_in_pieces_equals_hashing_at_once() {
        let bytes: Vec<u8> = (0..=255).collect();
        let whole = fnv1a(FNV1A_OFFSET, &bytes);
        for cut in [0, 1, 7, 128, 256] {
            let (a, b) = bytes.split_at(cut);
            assert_eq!(fnv1a(fnv1a(FNV1A_OFFSET, a), b), whole, "cut {cut}");
        }
    }
}
