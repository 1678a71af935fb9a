//! Algorithm 3: the `(b, k)`-decomposition for bounded-arboricity graphs —
//! the paper's new decomposition behind Theorem 15.
//!
//! Each iteration marks every node `u` whose remaining degree is at most
//! `k` and that has at most `b` remaining neighbors of degree greater than
//! `k` (the key relaxation over rake-and-compress: low-degree nodes may
//! leave while still adjacent to a few high-degree ones — which also makes
//! rake steps unnecessary). With `b = 2a` and `k ≥ 5a`, Lemma 13 shows all
//! nodes are marked within `⌈10 · log_{k/a} n⌉ + 1` iterations.
//!
//! During the process the **atypical** edges are recorded: edge
//! `{u, v}` with `u` marked in an earlier layer than `v` is atypical iff
//! `v`'s remaining degree exceeded `k` at the time `u` was marked. Each
//! node has at most `b = 2a` atypical edges toward higher layers; the
//! typical edges induce a graph of maximum degree ≤ `k` (Lemma 14).

use crate::order::LayerOrder;
use treelocal_graph::OrInvariant;
use treelocal_graph::{narrow_u32, widen_u32, Graph, NodeId, SemiGraph, Topology};
use treelocal_sim::{ceil_log, run, Ctx, Snapshot, StateCodec, SyncAlgorithm, Verdict};

/// The output of Algorithm 3 plus the edge classification.
#[derive(Clone, Debug)]
pub struct ArbDecomposition {
    /// The iteration (1-based) at which each node was marked.
    pub iteration_of: Vec<u32>,
    /// Whether each edge is atypical (for its lower endpoint).
    pub atypical: Vec<bool>,
    /// Number of iterations executed.
    pub iterations: u32,
    /// The degree parameter `k` (`≥ 5a`).
    pub k: usize,
    /// The high-degree-neighbor budget `b` (`= 2a`).
    pub b: usize,
    /// The arboricity bound `a` the parameters were derived from.
    pub a: usize,
    /// LOCAL rounds of the distributed execution (2 per iteration).
    pub rounds: u64,
}

impl ArbDecomposition {
    /// The paper's layer order (`C_i` = iteration `i`).
    pub fn layer_order(&self) -> LayerOrder {
        LayerOrder { layer_rank: self.iteration_of.iter().map(|&i| i - 1).collect() }
    }

    /// The semi-graph `G[E_2]` induced by the typical edges.
    pub fn typical_semigraph<'g>(&self, g: &'g Graph) -> SemiGraph<'g> {
        SemiGraph::induced_by_edges(g, |e| !self.atypical[e.index()])
    }

    /// The atypical edge ids (`E_1`).
    pub fn atypical_edges(&self) -> Vec<treelocal_graph::EdgeId> {
        self.atypical
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a)
            .map(|(i, _)| treelocal_graph::EdgeId::new(i))
            .collect()
    }
}

/// Centralized reference implementation of Algorithm 3 with `b = 2a`.
///
/// # Panics
///
/// Panics if `k < 5a`, `a < 1`, or the process exceeds a generous safety
/// cap (Lemma 13 guarantees termination within `⌈10·log_{k/a} n⌉ + 1`
/// iterations on graphs of arboricity ≤ `a`).
pub fn arb_decompose(g: &Graph, a: usize, k: usize) -> ArbDecomposition {
    assert!(a >= 1, "arboricity bound must be positive");
    assert!(k >= 5 * a, "Algorithm 3 needs k >= 5a (k = {k}, a = {a})");
    let b = 2 * a;
    let n = g.node_count();
    let mut iteration_of = vec![0u32; n];
    let mut atypical = vec![false; g.edge_count()];
    let mut alive = vec![true; n];
    let mut deg: Vec<usize> = (0..n).map(|i| g.degree(NodeId::new(i))).collect();
    let mut remaining = n;
    let mut iterations = 0u32;
    let cap = lemma13_bound(n, a, k) * 4 + 16;
    while remaining > 0 {
        iterations += 1;
        assert!(u64::from(iterations) <= cap, "(b,k)-decomposition exceeded safety cap");
        let mut marked = Vec::new();
        for v in g.node_ids() {
            if !alive[v.index()] || deg[v.index()] > k {
                continue;
            }
            let high = g
                .neighbor_nodes(v)
                .iter()
                .filter(|&&w| alive[w.index()] && deg[w.index()] > k)
                .count();
            if high <= b {
                marked.push(v);
                // Record atypical edges now: neighbors that are currently
                // alive with degree > k end in strictly higher layers.
                for (w, e) in g.neighbors(v) {
                    if alive[w.index()] && deg[w.index()] > k {
                        atypical[e.index()] = true;
                    }
                }
            }
        }
        for &v in &marked {
            alive[v.index()] = false;
            iteration_of[v.index()] = iterations;
            remaining -= 1;
        }
        for v in g.node_ids() {
            if alive[v.index()] {
                deg[v.index()] = g.neighbor_nodes(v).iter().filter(|&&w| alive[w.index()]).count();
            }
        }
    }
    ArbDecomposition {
        iteration_of,
        atypical,
        iterations,
        k,
        b,
        a,
        rounds: 2 * u64::from(iterations),
    }
}

/// The Lemma 13 iteration bound `⌈10 · log_{k/a} n⌉ + 1`.
pub fn lemma13_bound(n: usize, a: usize, k: usize) -> u64 {
    if n <= 1 {
        return 1;
    }
    let base = k as f64 / a as f64;
    10 * ceil_log(base, n as f64) + 1
}

/// Checks Lemma 13 on an instance.
pub fn check_lemma13(d: &ArbDecomposition, n: usize) -> bool {
    u64::from(d.iterations) <= lemma13_bound(n, d.a, d.k)
}

/// The Lemma 14 quantity: maximum degree of the graph induced by typical
/// edges.
pub fn typical_max_degree(g: &Graph, d: &ArbDecomposition) -> usize {
    let mut deg = vec![0usize; g.node_count()];
    for e in g.edge_ids() {
        if !d.atypical[e.index()] {
            let [u, v] = g.endpoints(e);
            deg[u.index()] += 1;
            deg[v.index()] += 1;
        }
    }
    deg.into_iter().max().unwrap_or(0)
}

/// Checks Lemma 14: the typical-edge graph has degree ≤ k.
pub fn check_lemma14(g: &Graph, d: &ArbDecomposition) -> bool {
    typical_max_degree(g, d) <= d.k
}

/// The maximum number of atypical edges any node has toward **higher**
/// layers (the compress condition bounds this by `b = 2a`).
pub fn max_atypical_to_higher(g: &Graph, d: &ArbDecomposition) -> usize {
    let order = d.layer_order();
    let mut count = vec![0usize; g.node_count()];
    for e in g.edge_ids() {
        if d.atypical[e.index()] {
            let lo = order.lower_endpoint(g, e);
            count[lo.index()] += 1;
        }
    }
    count.into_iter().max().unwrap_or(0)
}

/// Checks that atypical edges always rise strictly in layer and respect
/// the per-node budget `b`.
pub fn check_atypical_structure(g: &Graph, d: &ArbDecomposition) -> bool {
    for e in g.edge_ids() {
        if d.atypical[e.index()] {
            let [u, v] = g.endpoints(e);
            if d.iteration_of[u.index()] == d.iteration_of[v.index()] {
                return false;
            }
        }
    }
    max_atypical_to_higher(g, d) <= d.b
}

// ---------------------------------------------------------------------
// Distributed implementation
// ---------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
struct ArbState {
    alive: bool,
    deg: usize,
    marked_at: Option<u32>,
    /// The last iteration at which this node published `deg > k` (0 if
    /// never). Alive-degrees never increase, so the node was high-degree
    /// in exactly the iterations `1..=last_high` — which is all the
    /// post-run pass needs to rebuild the atypical edges.
    last_high: u32,
}

/// Flag bits of lane 0 in [`ArbState`]'s codec.
const ARB_ALIVE: u32 = 1;
const ARB_MARKED: u32 = 1 << 1;

/// `[flags, marked_iteration, deg, last_high]` u32 lanes. The iteration
/// lane is only meaningful under [`ARB_MARKED`] and encodes as zero
/// otherwise, so equal states have equal lane bytes.
impl StateCodec for ArbState {
    const U32_LANES: usize = 4;
    const U64_LANES: usize = 0;

    fn encode(&self, lanes32: &mut [u32], _lanes64: &mut [u64]) {
        let mut flags = 0u32;
        if self.alive {
            flags |= ARB_ALIVE;
        }
        if self.marked_at.is_some() {
            flags |= ARB_MARKED;
        }
        lanes32[0] = flags;
        lanes32[1] = self.marked_at.unwrap_or(0);
        lanes32[2] = narrow_u32(self.deg);
        lanes32[3] = self.last_high;
    }

    fn decode(lanes32: &[u32], _lanes64: &[u64]) -> Self {
        ArbState {
            alive: lanes32[0] & ARB_ALIVE != 0,
            deg: widen_u32(lanes32[2]),
            marked_at: (lanes32[0] & ARB_MARKED != 0).then_some(lanes32[1]),
            last_high: lanes32[3],
        }
    }
}

struct ArbDistributed {
    k: usize,
    b: usize,
}

impl<T: Topology> SyncAlgorithm<T> for ArbDistributed {
    type State = ArbState;

    fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Verdict<ArbState> {
        Verdict::Active(ArbState {
            alive: true,
            deg: ctx.topo.degree(v),
            marked_at: None,
            last_high: 0,
        })
    }

    fn step(
        &self,
        ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        own: ArbState,
        prev: &Snapshot<'_, ArbState>,
    ) -> Verdict<ArbState> {
        let iteration = u32::try_from((round - 1) / 2 + 1).or_invariant("round counts fit u32");
        let sub = (round - 1) % 2;
        let mut next = own;
        if sub == 0 {
            // Publish the alive-degree.
            next.deg = ctx.topo.neighbor_nodes(v).iter().filter(|&&w| prev.get(w).alive).count();
            if next.deg > self.k {
                next.last_high = iteration;
            }
            return Verdict::Active(next);
        }
        // Mark decision.
        debug_assert!(next.alive);
        if next.deg > self.k {
            return Verdict::Active(next);
        }
        let high = ctx
            .topo
            .neighbor_nodes(v)
            .iter()
            .filter(|&&w| {
                let s = prev.get(w);
                s.alive && s.deg > self.k
            })
            .count();
        if high <= self.b {
            next.alive = false;
            next.marked_at = Some(iteration);
            Verdict::Halted(next)
        } else {
            Verdict::Active(next)
        }
    }
}

/// Distributed Algorithm 3: identical output to [`arb_decompose`], with
/// honest LOCAL round counting (2 rounds per iteration).
///
/// Nodes keep no edge lists: an edge `{v, w}` with `v` marked before `w`
/// is atypical iff `w` still published `deg > k` in `v`'s marking
/// iteration, i.e. iff `marked_at(v) ≤ last_high(w)` — one O(m) pass over
/// the final states.
pub fn arb_decompose_distributed(g: &Graph, a: usize, k: usize) -> ArbDecomposition {
    assert!(a >= 1 && k >= 5 * a);
    let b = 2 * a;
    let n = g.node_count();
    if n == 0 {
        return ArbDecomposition {
            iteration_of: Vec::new(),
            atypical: Vec::new(),
            iterations: 0,
            k,
            b,
            a,
            rounds: 0,
        };
    }
    let ctx = Ctx::of(g);
    let algo = ArbDistributed { k, b };
    let cap = (lemma13_bound(n, a, k) * 4 + 16) * 2;
    let out = run(&ctx, &algo, cap);
    let mut iteration_of = vec![0u32; n];
    let mut last_high = vec![0u32; n];
    for v in g.node_ids() {
        let st = out.state(v);
        iteration_of[v.index()] = st.marked_at.or_invariant("all nodes marked (Lemma 13)");
        last_high[v.index()] = st.last_high;
    }
    let atypical = g
        .edge_ids()
        .map(|e| {
            let [u, w] = g.endpoints(e);
            let (iu, iw) = (iteration_of[u.index()], iteration_of[w.index()]);
            (iu < iw && iu <= last_high[w.index()]) || (iw < iu && iw <= last_high[u.index()])
        })
        .collect();
    let iterations = iteration_of.iter().copied().max().unwrap_or(0);
    ArbDecomposition { iteration_of, atypical, iterations, k, b, a, rounds: out.rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelocal_gen::{grid, random_arboricity_graph, random_tree, triangulated_grid};

    fn check_all(g: &Graph, a: usize, k: usize) {
        let d = arb_decompose(g, a, k);
        assert!(check_lemma13(&d, g.node_count()), "Lemma 13: {} iters", d.iterations);
        assert!(check_lemma14(g, &d), "Lemma 14: degree {}", typical_max_degree(g, &d));
        assert!(check_atypical_structure(g, &d));
    }

    #[test]
    fn lemmas_on_trees() {
        for seed in 0..5 {
            let g = random_tree(150, seed);
            check_all(&g, 1, 5);
            check_all(&g, 1, 8);
        }
    }

    #[test]
    fn lemmas_on_bounded_arboricity_graphs() {
        check_all(&grid(12, 12), 2, 10);
        check_all(&triangulated_grid(10, 10), 3, 15);
        for a in [2usize, 3, 4] {
            let g = random_arboricity_graph(160, a, 7);
            check_all(&g, a, 5 * a);
            check_all(&g, a, 8 * a);
        }
    }

    #[test]
    fn every_node_marked() {
        let g = random_arboricity_graph(100, 3, 1);
        let d = arb_decompose(&g, 3, 15);
        assert!(d.iteration_of.iter().all(|&i| i >= 1));
    }

    #[test]
    fn low_degree_graph_marks_in_one_iteration() {
        // Path: every node has degree ≤ 2 ≤ k and no high-degree
        // neighbors.
        let g = treelocal_gen::path(40);
        let d = arb_decompose(&g, 1, 5);
        assert_eq!(d.iterations, 1);
        assert!(d.atypical.iter().all(|&x| !x));
    }

    #[test]
    fn star_center_is_atypical_neighbor() {
        let g = treelocal_gen::star(30);
        let d = arb_decompose(&g, 1, 5);
        // Leaves mark in iteration 1; the center (degree 29 > k) is a
        // high-degree neighbor, but each leaf has only 1 ≤ b = 2 of them,
        // so all leaf edges are atypical.
        assert_eq!(d.iterations, 2);
        assert!(d.atypical.iter().all(|&x| x));
        assert!(check_lemma14(&g, &d));
        assert_eq!(typical_max_degree(&g, &d), 0);
    }

    #[test]
    fn distributed_matches_centralized() {
        for seed in 0..4 {
            let g = random_arboricity_graph(120, 2, seed);
            let a = arb_decompose(&g, 2, 10);
            let b = arb_decompose_distributed(&g, 2, 10);
            assert_eq!(a.iteration_of, b.iteration_of, "seed {seed}");
            assert_eq!(a.atypical, b.atypical, "seed {seed}");
            assert_eq!(b.rounds, 2 * u64::from(b.iterations));
        }
    }

    proptest::proptest! {
        /// The codec law for Algorithm 3 states, marked or not, full lanes.
        #[test]
        fn arb_state_round_trips_through_its_lanes(
            alive in proptest::prelude::any::<bool>(),
            deg in proptest::prelude::any::<u32>(),
            marked in proptest::prelude::any::<bool>(),
            iteration in proptest::prelude::any::<u32>(),
            last_high in proptest::prelude::any::<u32>(),
        ) {
            let marked_at = marked.then_some(iteration);
            let s = ArbState { alive, deg: widen_u32(deg), marked_at, last_high };
            let mut lanes32 = [0u32; ArbState::U32_LANES];
            s.encode(&mut lanes32, &mut []);
            proptest::prop_assert_eq!(ArbState::decode(&lanes32, &[]), s);
        }
    }

    #[test]
    fn typical_semigraph_is_all_rank2() {
        let g = random_arboricity_graph(80, 2, 3);
        let d = arb_decompose(&g, 2, 10);
        let s = d.typical_semigraph(&g);
        for &e in s.edges() {
            assert_eq!(s.rank(e), 2);
        }
        assert_eq!(s.edges().len() + d.atypical_edges().len(), g.edge_count());
    }

    #[test]
    #[should_panic(expected = "k >= 5a")]
    fn rejects_small_k() {
        let g = random_tree(10, 1);
        let _ = arb_decompose(&g, 2, 5);
    }
}
