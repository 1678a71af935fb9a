//! Uniformly random labeled trees via Prüfer sequences.
//!
//! A uniformly random sequence in `{0, ..., n-1}^{n-2}` decodes to a
//! uniformly random labeled tree on `n` nodes (Cayley's bijection). The
//! decoder below is the linear-time pointer variant, packaged as a
//! streaming [`EdgeSource`]: the only stored state is the u32 sequence
//! itself (4 bytes per node), and each pass re-runs the decoder with a
//! transient u32 degree table — no edge list is ever materialized.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use treelocal_graph::{narrow_u32, widen_u32, EdgeSource, Graph, OrInvariant};

/// Runs the pointer-variant Prüfer decoder over `seq`, emitting the
/// `n - 1` tree edges in decode order. Callers have validated `seq`.
fn stream_decode(n: usize, seq: &[u32], emit: &mut dyn FnMut(usize, usize)) {
    debug_assert!(n >= 2 && seq.len() == n - 2);
    let mut degree = vec![1u32; n];
    for &x in seq {
        degree[widen_u32(x)] += 1;
    }
    // `ptr` scans for the smallest leaf; `leaf` tracks the current leaf,
    // possibly below `ptr` when removing an entry creates a smaller leaf.
    let mut ptr = 0usize;
    while degree[ptr] != 1 {
        ptr += 1;
    }
    let mut leaf = ptr;
    for &x in seq {
        let x = widen_u32(x);
        emit(leaf, x);
        degree[x] -= 1;
        if degree[x] == 1 && x < ptr {
            leaf = x;
        } else {
            ptr += 1;
            while degree[ptr] != 1 {
                ptr += 1;
            }
            leaf = ptr;
        }
    }
    emit(leaf, n - 1);
}

/// A Prüfer sequence as a rewindable [`EdgeSource`]: the tree's `n - 1`
/// edges stream out of the pointer decoder on demand. The sequence is the
/// only stored state — 4 bytes per node, versus the 16 bytes per edge a
/// materialized list would cost.
#[derive(Clone, Debug)]
pub struct PruferEdges {
    n: usize,
    seq: Vec<u32>,
}

impl PruferEdges {
    /// Wraps a validated Prüfer sequence over `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, `seq.len() != n - 2`, or any entry is `>= n`.
    pub fn new(n: usize, seq: Vec<u32>) -> Self {
        assert!(n >= 2, "Prüfer decoding needs n >= 2");
        assert_eq!(seq.len(), n - 2, "sequence length must be n - 2");
        assert!(seq.iter().all(|&x| widen_u32(x) < n), "sequence entries must be < n");
        PruferEdges { n, seq }
    }

    /// A uniformly random sequence over `n` nodes (`n >= 2`), i.e. a
    /// uniformly random labeled tree.
    pub fn uniform(n: usize, seed: u64) -> Self {
        assert!(n >= 2, "Prüfer decoding needs n >= 2");
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7275_6665);
        let seq: Vec<u32> = (0..n - 2).map(|_| narrow_u32(rng.gen_range(0..n))).collect();
        PruferEdges { n, seq }
    }
}

impl EdgeSource for PruferEdges {
    fn node_count(&self) -> usize {
        self.n
    }

    fn edge_count(&self) -> usize {
        self.n - 1
    }

    fn stream(&self, emit: &mut dyn FnMut(usize, usize)) {
        stream_decode(self.n, &self.seq, emit);
    }
}

/// Decodes a Prüfer sequence into the edge list of the corresponding tree
/// — the thin materializing wrapper over the streaming decoder, kept for
/// tests and small instances.
///
/// # Panics
///
/// Panics if `seq.len() + 2` does not fit the implied node count or any
/// entry is out of range.
pub fn decode_prufer(n: usize, seq: &[usize]) -> Vec<(usize, usize)> {
    assert!(n >= 2, "Prüfer decoding needs n >= 2");
    assert_eq!(seq.len(), n - 2, "sequence length must be n - 2");
    assert!(seq.iter().all(|&x| x < n), "sequence entries must be < n");
    let narrowed: Vec<u32> = seq.iter().map(|&x| narrow_u32(x)).collect();
    PruferEdges { n, seq: narrowed }.materialize()
}

/// A uniformly random labeled tree on `n` nodes (`n ≥ 1`), built by
/// streaming the decoder straight into the graph's compact records.
///
/// # Examples
///
/// ```
/// use treelocal_gen::random_tree;
/// let t = random_tree(100, 42);
/// assert!(treelocal_graph::is_tree(&t));
/// ```
pub fn random_tree(n: usize, seed: u64) -> Graph {
    assert!(n >= 1, "tree needs at least one node");
    if n == 1 {
        return Graph::from_edges(1, &[]).or_invariant("single node");
    }
    if n == 2 {
        return Graph::from_edges(2, &[(0, 1)]).or_invariant("edge");
    }
    Graph::from_edge_source(&PruferEdges::uniform(n, seed))
        .or_invariant("Prüfer decoding yields a tree")
}

/// Every labelled tree on `n` nodes, one per Prüfer sequence: Cayley's
/// `n^(n-2)` trees for `n ≥ 2`, the one-node tree for `n = 1` and none for
/// `n = 0`. Tree `i` decodes the sequence whose digits, least significant
/// first, are `i` written in base `n`.
///
/// # Panics
///
/// Panics if `n^(n-2)` overflows `usize` (from `n = 16` on 64-bit hosts).
///
/// # Examples
///
/// ```
/// assert_eq!(treelocal_gen::labelled_trees(5).count(), 125);
/// ```
pub fn labelled_trees(n: usize) -> impl Iterator<Item = Graph> {
    let count = match n {
        0 | 1 => n,
        _ => n.checked_pow(narrow_u32(n - 2)).or_invariant("n^(n-2) labelled trees fit usize"),
    };
    (0..count).map(move |code| {
        let mut rest = code;
        let seq: Vec<usize> = (2..n)
            .map(|_| {
                let digit = rest % n;
                rest /= n;
                digit
            })
            .collect();
        let edges = if n < 2 { Vec::new() } else { decode_prufer(n, &seq) };
        Graph::from_edges(n, &edges).or_invariant("a Prüfer sequence decodes to a tree")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use treelocal_graph::is_tree;

    #[test]
    fn labelled_trees_are_distinct_trees_in_cayley_numbers() {
        for n in 0..=6usize {
            let mut canon: Vec<Vec<(usize, usize)>> = labelled_trees(n)
                .map(|g| {
                    assert!(is_tree(&g), "n = {n}");
                    let mut es: Vec<(usize, usize)> = g
                        .edge_ids()
                        .map(|e| {
                            let [u, v] = g.endpoints(e);
                            (u.index().min(v.index()), u.index().max(v.index()))
                        })
                        .collect();
                    es.sort_unstable();
                    es
                })
                .collect();
            let total = canon.len();
            canon.sort();
            canon.dedup();
            assert_eq!(canon.len(), total, "n = {n}: a tree repeats");
            assert_eq!(total, [0, 1, 1, 3, 16, 125, 1296][n], "n = {n}");
        }
    }

    #[test]
    fn decode_known_sequence() {
        // Classic example: seq = [3, 3, 3, 4] over n = 6 gives a tree where
        // node 3 has degree 4.
        let edges = decode_prufer(6, &[3, 3, 3, 4]);
        let g = Graph::from_edges(6, &edges).unwrap();
        assert!(is_tree(&g));
        assert_eq!(g.degree(treelocal_graph::NodeId::new(3)), 4);
    }

    #[test]
    fn all_sequences_of_small_n_decode_to_trees() {
        // n = 5: all 125 sequences decode to valid (and distinct) trees.
        let n = 5;
        let mut seen = std::collections::BTreeSet::new();
        for a in 0..n {
            for b in 0..n {
                for c in 0..n {
                    let edges = decode_prufer(n, &[a, b, c]);
                    let g = Graph::from_edges(n, &edges).unwrap();
                    assert!(is_tree(&g), "seq {:?}", (a, b, c));
                    let mut canon: Vec<(usize, usize)> =
                        edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
                    canon.sort_unstable();
                    seen.insert(canon);
                }
            }
        }
        // Cayley: 5^3 = 125 labeled trees on 5 nodes, all distinct.
        assert_eq!(seen.len(), 125);
    }

    #[test]
    fn prufer_source_is_rewindable() {
        let src = PruferEdges::uniform(40, 6);
        assert_eq!(src.node_count(), 40);
        assert_eq!(src.edge_count(), 39);
        let first = src.materialize();
        assert_eq!(first.len(), 39);
        // A second pass replays the identical stream.
        assert_eq!(src.materialize(), first);
    }

    #[test]
    fn streamed_tree_matches_materialized_decode() {
        // The streamed build and the classic decode-then-build path must
        // produce slot-identical graphs (edge ids in decode order).
        let src = PruferEdges::uniform(120, 17);
        let streamed = Graph::from_edge_source(&src).unwrap();
        let via_vec = Graph::from_edges(120, &src.materialize()).unwrap();
        for e in via_vec.edge_ids() {
            assert_eq!(streamed.endpoints(e), via_vec.endpoints(e));
        }
        for v in via_vec.node_ids() {
            assert_eq!(streamed.neighbor_nodes(v), via_vec.neighbor_nodes(v));
        }
    }

    #[test]
    fn random_trees_are_trees() {
        for n in [1usize, 2, 3, 10, 100, 1000] {
            for seed in 0..3 {
                assert!(is_tree(&random_tree(n, seed)), "n {n} seed {seed}");
            }
        }
    }

    #[test]
    fn random_tree_deterministic_in_seed() {
        let a = random_tree(50, 9);
        let b = random_tree(50, 9);
        let ea: Vec<_> = a.edge_ids().map(|e| a.endpoints(e)).collect();
        let eb: Vec<_> = b.edge_ids().map(|e| b.endpoints(e)).collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn degree_distribution_is_plausible() {
        // In a uniform random tree the expected number of leaves is ~ n/e.
        let n = 2000;
        let g = random_tree(n, 123);
        let leaves = g.node_ids().filter(|&v| g.degree(v) == 1).count();
        let ratio = leaves as f64 / n as f64;
        assert!((0.30..0.44).contains(&ratio), "leaf ratio {ratio}");
        // Max degree of a random tree is O(log n / log log n); allow slack.
        assert!(g.max_degree() < 30, "max degree {}", g.max_degree());
        let mut hist: BTreeMap<usize, usize> = BTreeMap::new();
        for v in g.node_ids() {
            *hist.entry(g.degree(v)).or_default() += 1;
        }
        assert!(hist.len() > 3, "degenerate degree histogram {hist:?}");
    }
}
