//! The two hash primitives every deterministic stream and fingerprint in the
//! workspace is built from, written once.
//!
//! [`fnv1a`] folds bytes into a 64-bit FNV-1a state: run fingerprints,
//! failure fingerprints, the model checker's state hashes and labeled RNG
//! forks all chain it from [`FNV_BASIS`]. [`mix64`] is SplitMix64's output
//! finalizer: decode tie-break streams, retry jitter, the chaos RNG and the
//! wire corpus all pass a Weyl-sequence state (steps of [`GOLDEN_GAMMA`])
//! through it. Each caller keeps its own pre-mixing, so every hash and stream
//! is bit-identical to the hand-written copies these functions replace.

/// FNV-1a's 64-bit offset basis: the state of an empty hash.
pub const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// SplitMix64's Weyl-sequence increment, `⌊2⁶⁴/φ⌋`.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The two multipliers of SplitMix64's finalizer ([`mix64`]).
pub const MIX_MULTIPLIERS: [u64; 2] = [0xBF58_476D_1CE4_E5B9, 0x94D0_49BB_1331_11EB];

/// Folds `bytes` into the FNV-1a state `hash` (start from [`FNV_BASIS`]).
///
/// ```
/// use isgc_core::hash::{fnv1a, FNV_BASIS};
///
/// assert_eq!(fnv1a(FNV_BASIS, b""), FNV_BASIS);
/// // Chaining is the same as hashing the concatenation.
/// assert_eq!(fnv1a(fnv1a(FNV_BASIS, b"ab"), b"c"), fnv1a(FNV_BASIS, b"abc"));
/// ```
#[must_use]
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// SplitMix64's finalizer: a bijective avalanche of `z`. A SplitMix64
/// stream is `mix64(state += GOLDEN_GAMMA)`.
///
/// ```
/// use isgc_core::hash::{mix64, GOLDEN_GAMMA};
///
/// // The first output of SplitMix64 seeded with 0.
/// assert_eq!(mix64(GOLDEN_GAMMA), 0xE220_A839_7B1D_CDAF);
/// ```
#[inline]
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(MIX_MULTIPLIERS[0]);
    z = (z ^ (z >> 27)).wrapping_mul(MIX_MULTIPLIERS[1]);
    z ^ (z >> 31)
}
