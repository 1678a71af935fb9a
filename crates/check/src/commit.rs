//! The frontier-commitment hash — the checker's half of the spec.
//!
//! This is deliberately an *independent implementation* of the chain the
//! simulator's transcript recorder computes (`treelocal-sim`'s
//! `transcript` module): FNV-1a over 64-bit words, little-endian byte
//! order, seeded at the offset basis and threaded across segments. The
//! two sides sharing no code is what makes a matching commitment
//! meaningful — an engine bug and a checker bug would have to coincide.
//!
//! Per round `r` (1-based within its segment) with frontier
//! `v_1, ..., v_k` in commit order, the chain `h` advances as
//! `h ← fold(fold(fold(h, r), k), v_1 ... v_k)` and the resulting value
//! is the round's commitment.

/// FNV-1a 64-bit offset basis — the start of every commitment chain.
pub const COMMITMENT_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const COMMITMENT_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one `u64` into an FNV-1a 64-bit hash, little-endian byte order.
pub fn commitment_fold(mut h: u64, x: u64) -> u64 {
    for shift in 0..8u32 {
        let byte = (x >> (8 * shift)) & 0xff;
        h = (h ^ byte).wrapping_mul(COMMITMENT_PRIME);
    }
    h
}

/// Advances the chain by one round: fold the 1-based round number, the
/// frontier size, then every frontier node index in commit order.
pub fn commit_round(chain: u64, round: u64, frontier: &[u64]) -> u64 {
    commit_frontier(chain, round, frontier.iter().copied())
}

/// [`commit_round`] over any exactly sized frontier iterator.
pub(crate) fn commit_frontier(
    chain: u64,
    round: u64,
    frontier: impl ExactSizeIterator<Item = u64>,
) -> u64 {
    let mut h = commitment_fold(chain, round);
    h = commitment_fold(h, treelocal_graph::widen_u64(frontier.len()));
    for v in frontier {
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
    fn commitments_are_order_sensitive() {
        let a = commit_round(COMMITMENT_OFFSET, 1, &[0, 1, 2]);
        let b = commit_round(COMMITMENT_OFFSET, 1, &[2, 1, 0]);
        assert_ne!(a, b);
        // And chain-sensitive: the same round from a different chain state
        // commits differently.
        assert_ne!(commit_round(a, 2, &[0]), commit_round(b, 2, &[0]));
    }
}
