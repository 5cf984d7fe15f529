//! The two digests the system uses, implemented here because external
//! hashing crates are out of the dependency budget. Neither is
//! adversarial-grade; both detect accidental corruption.
//!
//! * **FNV-1a 64-bit** ([`fnv1a64`], [`Fnv1a`]) — the *whole-file*
//!   digest: `SIMFS_Bitrep`, `checksums.db` and the WAL record sum.
//! * **XXH64, seed 0** ([`xxh64`]) — the SDF container's footer.
//!
//! They differ because their costs land in different places. The footer
//! is recomputed on every `decode`/`verify`, i.e. on every resident
//! open, where FNV-1a's one dependent multiply per *byte* was the
//! largest single cost; XXH64 consumes 32 bytes per round in four
//! independent lanes. The whole-file digest stays FNV-1a because
//! `checksums.db` is reference data recorded by the initial simulation:
//! changing the function would invalidate every recorded value (and the
//! driver's `checksum` is the paper's user-replaceable hook, §III-C).

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One-shot FNV-1a 64-bit digest.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(data);
    h.finish()
}

/// Streaming FNV-1a 64-bit hasher.
#[derive(Clone, Debug)]
pub struct Fnv1a {
    state: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Fnv1a { state: FNV_OFFSET }
    }

    /// Feeds bytes into the digest.
    pub fn update(&mut self, data: &[u8]) {
        let mut h = self.state;
        for &b in data {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.state = h;
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

// XXH64 primes (Collet's reference specification).
const XXH_P1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_P3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_P4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_P5: u64 = 0x27D4_EB2F_1656_67C5;

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

fn xxh_merge(h: u64, acc: u64) -> u64 {
    (h ^ xxh_round(0, acc))
        .wrapping_mul(XXH_P1)
        .wrapping_add(XXH_P4)
}

/// One-shot XXH64 digest with seed 0 (the SDF footer).
///
/// Inputs of 32 bytes or more run through four accumulators that each
/// take 8 bytes per round and do not depend on one another, so the
/// multiplies pipeline; the ≤ 31-byte tail is folded in 8, 4 and 1
/// bytes at a time, then the result is avalanched.
pub fn xxh64(data: &[u8]) -> u64 {
    let (stripes, rest) = data.as_chunks::<32>();
    let mut h = if !stripes.is_empty() {
        let mut v = [
            XXH_P1.wrapping_add(XXH_P2),
            XXH_P2,
            0,
            0u64.wrapping_sub(XXH_P1),
        ];
        for stripe in stripes {
            for (acc, lane) in v.iter_mut().zip(stripe.as_chunks::<8>().0) {
                *acc = xxh_round(*acc, u64::from_le_bytes(*lane));
            }
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &acc| xxh_merge(h, acc))
    } else {
        XXH_P5
    };
    h = h.wrapping_add(data.len() as u64);

    let (words, mut tail) = rest.as_chunks::<8>();
    for word in words {
        h = (h ^ xxh_round(0, u64::from_le_bytes(*word)))
            .rotate_left(27)
            .wrapping_mul(XXH_P1)
            .wrapping_add(XXH_P4);
    }
    if let Some((half, bytes)) = tail.split_first_chunk::<4>() {
        h = (h ^ u64::from(u32::from_le_bytes(*half)).wrapping_mul(XXH_P1))
            .rotate_left(23)
            .wrapping_mul(XXH_P2)
            .wrapping_add(XXH_P3);
        tail = bytes;
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(XXH_P5))
            .rotate_left(11)
            .wrapping_mul(XXH_P1);
    }

    h ^= h >> 33;
    h = h.wrapping_mul(XXH_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_P3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn xxh64_known_vectors() {
        // Published XXH64 (seed 0) test vectors. The last two cross the
        // 32-byte lane loop and between them every tail width:
        // 39 = 32 + 4 + 3×1 and 43 = 32 + 8 + 3×1.
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
        assert_eq!(
            xxh64(b"The quick brown fox jumps over the lazy dog"),
            0x0B24_2D36_1FDA_71BC
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data = b"simulation output step 42";
        let mut h = Fnv1a::new();
        h.update(&data[..7]);
        h.update(&data[7..]);
        assert_eq!(h.finish(), fnv1a64(data));
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(fnv1a64(b"step-000001"), fnv1a64(b"step-000002"));
        assert_ne!(xxh64(b"step-000001"), xxh64(b"step-000002"));
    }
}
