//! The transcript-commitment hash — the checker's half of the spec.
//!
//! This is deliberately an *independent implementation* of the chain the
//! simulator's transcript recorder computes (`treelocal-sim`'s
//! `transcript` module): FNV-1a over 64-bit words, little-endian byte
//! order, seeded at the offset basis and threaded across segments. The
//! two sides sharing no code is what makes a matching commitment
//! meaningful — an engine bug and a checker bug would have to coincide.
//!
//! Per round `r` (1-based within its segment), with `live` nodes running
//! (awake or asleep) and the nodes `v_1 < ... < v_k` halting in it, the
//! chain `h` advances as
//! `h ← fold(fold(fold(fold(h, r), live), k), v_1 ... v_k)` and the
//! resulting value is the round's commitment. Every node is folded once,
//! in the round it halts, so a segment costs O(participants + rounds).

/// FNV-1a 64-bit offset basis — the start of every commitment chain.
pub const COMMITMENT_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const COMMITMENT_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one `u64` into an FNV-1a 64-bit hash, little-endian byte order.
///
/// XOR with a zero byte changes nothing, so each zero high byte of `x`
/// is a bare multiplication by the prime; they are applied together, as
/// one multiplication by the prime's power.
pub fn commitment_fold(mut h: u64, x: u64) -> u64 {
    let mut rest = x;
    let mut steps = 0;
    while rest != 0 {
        h = (h ^ (rest & 0xff)).wrapping_mul(COMMITMENT_PRIME);
        rest >>= 8;
        steps += 1;
    }
    h.wrapping_mul(PRIME_TO_THE[8 - steps])
}

/// `PRIME_TO_THE[k]` is [`COMMITMENT_PRIME`]`^k`, wrapping.
const PRIME_TO_THE: [u64; 9] = {
    let mut table = [1u64; 9];
    let mut k = 1;
    while k < table.len() {
        table[k] = table[k - 1].wrapping_mul(COMMITMENT_PRIME);
        k += 1;
    }
    table
};

/// Advances the chain by one round: fold the 1-based round number, the
/// round's live count, the number of nodes that halted in it, then those
/// nodes' indices in ascending order.
pub fn commit_round(chain: u64, round: u64, live: u64, halted: &[u64]) -> u64 {
    let mut h = commitment_fold(chain, round);
    h = commitment_fold(h, live);
    h = commitment_fold(h, treelocal_graph::widen_u64(halted.len()));
    for &v in halted {
        h = commitment_fold(h, v);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_is_fnv1a_over_little_endian_bytes() {
        // Reference: byte-at-a-time FNV-1a of the 8 LE bytes of 0x0102.
        let mut h = COMMITMENT_OFFSET;
        for b in [0x02u64, 0x01, 0, 0, 0, 0, 0, 0] {
            h = (h ^ b).wrapping_mul(COMMITMENT_PRIME);
        }
        assert_eq!(commitment_fold(COMMITMENT_OFFSET, 0x0102), h);
    }

    #[test]
    fn fold_equals_the_eight_byte_reference_on_every_width() {
        for bits in 0..64u32 {
            for x in [0, 1u64 << bits, (1u64 << bits) - 1, u64::MAX >> bits, 0xff << (bits / 8 * 8)]
            {
                let mut reference = COMMITMENT_OFFSET ^ u64::from(bits);
                for b in x.to_le_bytes() {
                    reference = (reference ^ u64::from(b)).wrapping_mul(COMMITMENT_PRIME);
                }
                assert_eq!(commitment_fold(COMMITMENT_OFFSET ^ u64::from(bits), x), reference);
            }
        }
    }

    #[test]
    fn commitments_are_order_sensitive() {
        let a = commit_round(COMMITMENT_OFFSET, 1, 3, &[0, 1, 2]);
        let b = commit_round(COMMITMENT_OFFSET, 1, 3, &[2, 1, 0]);
        assert_ne!(a, b);
        // And chain-sensitive: the same round from a different chain state
        // commits differently.
        assert_ne!(commit_round(a, 2, 1, &[0]), commit_round(b, 2, 1, &[0]));
    }

    #[test]
    fn commitments_fold_the_live_count() {
        // The same halts with one more node still running commit apart.
        let a = commit_round(COMMITMENT_OFFSET, 1, 3, &[0]);
        let b = commit_round(COMMITMENT_OFFSET, 1, 4, &[0]);
        assert_ne!(a, b);
    }
}
