//! Algorithm 1: the rake-and-compress decomposition of \[CHL+19\] used by
//! Theorem 12.
//!
//! Each iteration on the remaining tree first **compresses** (marks every
//! node whose own degree and all of whose neighbors' degrees are at most
//! `k`), then **rakes** (marks every remaining node of degree ≤ 1). The
//! iteration number and operation type induce the layer structure
//! `C_1, R_1, C_2, R_2, ...`; Lemma 9 guarantees all nodes are marked
//! within `⌈log_k n⌉ + 1` iterations, Lemma 10 bounds the degree of the
//! graph induced by edges with compressed lower endpoints by `k`, and
//! Lemma 11 bounds the diameter of raked components by
//! `4(log_k n + 1) + 2`.
//!
//! Both a fast centralized implementation ([`rake_compress`]) and a
//! round-faithful distributed one ([`rake_compress_distributed`], 3 LOCAL
//! rounds per iteration) are provided; they produce identical layerings,
//! which the test suite asserts.

use crate::order::LayerOrder;
use treelocal_graph::OrInvariant;
use treelocal_graph::{narrow_u32, widen_u32, Graph, NodeId, SemiGraph, Topology};
use treelocal_sim::{ceil_log, run, Ctx, GatherPlan, Ports, StateCodec, SyncAlgorithm, Verdict};

/// Which operation marked a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mark {
    /// Marked by a compress step (layer `C_i`).
    Compress,
    /// Marked by a rake step (layer `R_i`).
    Rake,
}

/// The output of Algorithm 1.
#[derive(Clone, Debug)]
pub struct RakeCompress {
    /// The iteration (1-based) at which each node was marked.
    pub iteration_of: Vec<u32>,
    /// Which operation marked each node.
    pub mark_of: Vec<Mark>,
    /// Number of iterations executed.
    pub iterations: u32,
    /// The degree parameter `k`.
    pub k: usize,
    /// LOCAL rounds of the distributed execution (3 per iteration).
    pub rounds: u64,
}

impl RakeCompress {
    /// Whether `v` was compressed.
    pub fn is_compressed(&self, v: NodeId) -> bool {
        self.mark_of[v.index()] == Mark::Compress
    }

    /// Whether `v` was raked.
    pub fn is_raked(&self, v: NodeId) -> bool {
        self.mark_of[v.index()] == Mark::Rake
    }

    /// The paper's total layer order: layer `C_i` has rank `2(i-1)`, layer
    /// `R_i` rank `2(i-1) + 1` (compress precedes rake within an
    /// iteration).
    pub fn layer_order(&self) -> LayerOrder {
        let layer_rank = self
            .iteration_of
            .iter()
            .zip(&self.mark_of)
            .map(|(&it, &mark)| {
                debug_assert!(it >= 1);
                2 * (it - 1) + u32::from(mark == Mark::Rake)
            })
            .collect();
        LayerOrder { layer_rank }
    }

    /// The semi-graph `T_C` (induced by the compressed nodes).
    pub fn compressed_semigraph<'g>(&self, g: &'g Graph) -> SemiGraph<'g> {
        SemiGraph::induced_by_nodes(g, |v| self.is_compressed(v))
    }

    /// The semi-graph `T_R` (induced by the raked nodes).
    pub fn raked_semigraph<'g>(&self, g: &'g Graph) -> SemiGraph<'g> {
        SemiGraph::induced_by_nodes(g, |v| self.is_raked(v))
    }
}

/// Centralized reference implementation of Algorithm 1.
///
/// # Panics
///
/// Panics if `k < 2`, if the graph is not a tree, or if the process fails
/// to mark all nodes within a generous safety cap (which would indicate a
/// bug, as Lemma 9 guarantees termination in `⌈log_k n⌉ + 1` iterations).
pub fn rake_compress(g: &Graph, k: usize) -> RakeCompress {
    assert!(k >= 2, "rake-and-compress needs k >= 2");
    assert!(treelocal_graph::is_tree(g) || g.node_count() <= 1, "Algorithm 1 runs on trees");
    let n = g.node_count();
    let mut iteration_of = vec![0u32; n];
    let mut mark_of = vec![Mark::Rake; n];
    let mut alive: Vec<bool> = vec![true; n];
    let mut deg: Vec<u32> = (0..n).map(|i| narrow_u32(g.degree(NodeId::new(i)))).collect();
    // The not-yet-marked nodes, kept in increasing index order so every
    // scan below visits them exactly as a full `node_ids()` sweep skipping
    // dead nodes would — the layering is bit-for-bit that of the naive
    // all-nodes loops, but each iteration only pays for the survivors
    // (which Lemma 9 shrinks geometrically: O(n) total work, not
    // O(n log_k n)).
    let mut alive_list: Vec<NodeId> = g.node_ids().collect();
    let mut compressed: Vec<NodeId> = Vec::new();
    let mut iterations = 0u32;
    let cap = lemma9_bound(n, k) * 4 + 16;
    // A node is "just compressed" (marked by this iteration's compress
    // step) iff its mark was written this iteration and is Compress —
    // derivable from the output tables, no per-iteration scratch array.
    let just = |iteration_of: &[u32], mark_of: &[Mark], w: NodeId, it: u32| {
        iteration_of[w.index()] == it && mark_of[w.index()] == Mark::Compress
    };
    while !alive_list.is_empty() {
        iterations += 1;
        assert!(u64::from(iterations) <= cap, "rake-compress exceeded safety cap");
        // Compress step on G[V_{i-1}].
        compressed.clear();
        for &v in &alive_list {
            if widen_u32(deg[v.index()]) > k {
                continue;
            }
            let ok = g
                .neighbor_nodes(v)
                .iter()
                .all(|&w| !alive[w.index()] || widen_u32(deg[w.index()]) <= k);
            if ok {
                compressed.push(v);
            }
        }
        for &v in &compressed {
            iteration_of[v.index()] = iterations;
            mark_of[v.index()] = Mark::Compress;
        }
        // Rake step on G[V_{i-1} \ C_i].
        for &v in &alive_list {
            if just(&iteration_of, &mark_of, v, iterations) {
                continue;
            }
            let d = g
                .neighbor_nodes(v)
                .iter()
                .filter(|&&w| alive[w.index()] && !just(&iteration_of, &mark_of, w, iterations))
                .count();
            if d <= 1 {
                iteration_of[v.index()] = iterations;
                mark_of[v.index()] = Mark::Rake;
            }
        }
        // Remove every node marked this iteration, then recompute the
        // survivors' alive-degrees exactly (removals within the same
        // iteration interact; recompute keeps the implementation obviously
        // correct — dead nodes' stale entries are never read, every check
        // above tests `alive` first).
        alive_list.retain(|&v| {
            let marked = iteration_of[v.index()] == iterations;
            if marked {
                alive[v.index()] = false;
            }
            !marked
        });
        for &v in &alive_list {
            deg[v.index()] =
                narrow_u32(g.neighbor_nodes(v).iter().filter(|&&w| alive[w.index()]).count());
        }
    }
    RakeCompress { iteration_of, mark_of, iterations, k, rounds: 3 * u64::from(iterations) }
}

/// The Lemma 9 iteration bound `⌈log_k n⌉ + 1`.
pub fn lemma9_bound(n: usize, k: usize) -> u64 {
    if n <= 1 {
        return 1;
    }
    ceil_log(k as f64, n as f64) + 1
}

/// Checks Lemma 9: the recorded iteration count is within the bound.
pub fn check_lemma9(rc: &RakeCompress, n: usize) -> bool {
    u64::from(rc.iterations) <= lemma9_bound(n, rc.k)
}

/// The Lemma 10 quantity: the maximum degree of the graph induced by the
/// edges whose **lower endpoint** lies in a compress layer.
pub fn compress_edge_max_degree(g: &Graph, rc: &RakeCompress) -> usize {
    let order = rc.layer_order();
    let mut deg = vec![0usize; g.node_count()];
    for e in g.edge_ids() {
        let lo = order.lower_endpoint(g, e);
        if rc.is_compressed(lo) {
            let [u, v] = g.endpoints(e);
            deg[u.index()] += 1;
            deg[v.index()] += 1;
        }
    }
    deg.into_iter().max().unwrap_or(0)
}

/// Checks Lemma 10: `compress_edge_max_degree ≤ k`. Also implies the
/// bound used by Theorem 12: the underlying degree of `T_C` is at most `k`.
pub fn check_lemma10(g: &Graph, rc: &RakeCompress) -> bool {
    compress_edge_max_degree(g, rc) <= rc.k
        && rc.compressed_semigraph(g).underlying_max_degree() <= rc.k
}

/// The Lemma 11 quantity: the maximum diameter over connected components
/// of the graph induced by the raked nodes.
///
/// Exact: raked components are subtrees of the input tree, and a tree
/// component's diameter is the maximum eccentricity over its members. The
/// eccentricities come from a [`GatherPlan`] over `T_R` — the same cache
/// that costs Algorithm 2's gathers — which fills each component with one
/// rerooting-DP pass on its first query, so every component costs linear
/// time: no per-component double sweep, and no `components()` partition.
pub fn raked_component_max_diameter(g: &Graph, rc: &RakeCompress) -> u32 {
    let tr = rc.raked_semigraph(g);
    let plan = GatherPlan::new(&tr);
    tr.nodes().iter().map(|&v| plan.eccentricity(v)).max().unwrap_or(0)
}

/// The Lemma 11 bound `4(log_k n + 1) + 2`.
pub fn lemma11_bound(n: usize, k: usize) -> u32 {
    let lg = if n <= 1 { 0.0 } else { (n as f64).ln() / (k as f64).ln() };
    // lint:allow(no-bare-index-cast): float-to-int conversion of a
    // small round bound, not an index-space crossing.
    (4.0 * (lg + 1.0) + 2.0).ceil() as u32
}

/// Checks Lemma 11 on an instance.
pub fn check_lemma11(g: &Graph, rc: &RakeCompress) -> bool {
    raked_component_max_diameter(g, rc) <= lemma11_bound(g.node_count(), rc.k)
}

// ---------------------------------------------------------------------
// Distributed implementation
// ---------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
struct RcState {
    alive: bool,
    /// Alive-degree, published in sub-round 1 of each iteration.
    deg: usize,
    /// Set during sub-round 2 of the iteration in which the node
    /// compresses.
    just_compressed: bool,
    marked_at: Option<(u32, Mark)>,
}

/// Flag bits of lane 0 in [`RcState`]'s codec.
const RC_ALIVE: u32 = 1;
const RC_JUST_COMPRESSED: u32 = 1 << 1;
const RC_MARKED: u32 = 1 << 2;
const RC_MARK_IS_RAKE: u32 = 1 << 3;

/// `[flags, marked_iteration, deg]` u32 lanes, no u64 lanes. The iteration
/// lane is only meaningful under [`RC_MARKED`] and encodes as zero
/// otherwise, so equal states have equal lane bytes; `deg` crosses the
/// usize boundary through the checked id-width helpers.
impl StateCodec for RcState {
    const U32_LANES: usize = 3;
    const U64_LANES: usize = 0;

    fn encode(&self, lanes32: &mut [u32], _lanes64: &mut [u64]) {
        let mut flags = 0u32;
        if self.alive {
            flags |= RC_ALIVE;
        }
        if self.just_compressed {
            flags |= RC_JUST_COMPRESSED;
        }
        let mut iteration = 0u32;
        if let Some((it, mark)) = self.marked_at {
            flags |= RC_MARKED;
            if mark == Mark::Rake {
                flags |= RC_MARK_IS_RAKE;
            }
            iteration = it;
        }
        lanes32[0] = flags;
        lanes32[1] = iteration;
        lanes32[2] = narrow_u32(self.deg);
    }

    fn decode(lanes32: &[u32], _lanes64: &[u64]) -> Self {
        let flags = lanes32[0];
        let marked_at = (flags & RC_MARKED != 0).then(|| {
            let mark = if flags & RC_MARK_IS_RAKE != 0 { Mark::Rake } else { Mark::Compress };
            (lanes32[1], mark)
        });
        RcState {
            alive: flags & RC_ALIVE != 0,
            deg: widen_u32(lanes32[2]),
            just_compressed: flags & RC_JUST_COMPRESSED != 0,
            marked_at,
        }
    }
}

struct RcDistributed {
    k: usize,
}

impl<T: Topology> SyncAlgorithm<T> for RcDistributed {
    type State = RcState;

    fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Verdict<RcState> {
        Verdict::Active(RcState {
            alive: true,
            deg: ctx.topo.degree(v),
            just_compressed: false,
            marked_at: None,
        })
    }

    fn step(
        &self,
        _ctx: &Ctx<T>,
        _v: NodeId,
        round: u64,
        own: RcState,
        prev: &Ports<'_, RcState>,
    ) -> Verdict<RcState> {
        let iteration = u32::try_from((round - 1) / 3 + 1).or_invariant("round counts fit u32");
        let sub = (round - 1) % 3;
        let mut next = own;
        match sub {
            0 => {
                // Publish the current alive-degree.
                next.deg = prev.iter().filter(|s| s.alive).count();
                Verdict::Active(next)
            }
            1 => {
                // Compress decision.
                debug_assert!(next.alive);
                let me_ok = next.deg <= self.k;
                let nbrs_ok = prev.iter().all(|s| !s.alive || s.deg <= self.k);
                if me_ok && nbrs_ok {
                    next.just_compressed = true;
                    next.marked_at = Some((iteration, Mark::Compress));
                }
                Verdict::Active(next)
            }
            _ => {
                // Rake decision, then the iteration ends.
                if next.just_compressed {
                    next.alive = false;
                    next.just_compressed = false;
                    return Verdict::Halted(next);
                }
                let d = prev.iter().filter(|s| s.alive && !s.just_compressed).count();
                if d <= 1 {
                    next.alive = false;
                    next.marked_at = Some((iteration, Mark::Rake));
                    Verdict::Halted(next)
                } else {
                    Verdict::Active(next)
                }
            }
        }
    }
}

/// Distributed Algorithm 1: identical layering to [`rake_compress`],
/// with honest LOCAL round counting (3 rounds per iteration).
pub fn rake_compress_distributed(g: &Graph, k: usize) -> RakeCompress {
    assert!(k >= 2, "rake-and-compress needs k >= 2");
    let n = g.node_count();
    if n == 0 {
        return RakeCompress {
            iteration_of: Vec::new(),
            mark_of: Vec::new(),
            iterations: 0,
            k,
            rounds: 0,
        };
    }
    let ctx = Ctx::of(g);
    let algo = RcDistributed { k };
    let cap = (lemma9_bound(n, k) * 4 + 16) * 3;
    // Iteration state lives in three flat u32 columns.
    let out = run(&ctx, &algo, cap);
    let mut iteration_of = vec![0u32; n];
    let mut mark_of = vec![Mark::Rake; n];
    let mut iterations = 0u32;
    for v in g.node_ids() {
        let st = out.state(v);
        let (it, mark) = st.marked_at.or_invariant("every node marked (Lemma 9)");
        iteration_of[v.index()] = it;
        mark_of[v.index()] = mark;
        iterations = iterations.max(it);
    }
    RakeCompress { iteration_of, mark_of, iterations, k, rounds: out.rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelocal_gen::{balanced_regular_tree, path, random_tree, star};

    fn check_all_lemmas(g: &Graph, k: usize) {
        let rc = rake_compress(g, k);
        assert!(check_lemma9(&rc, g.node_count()), "Lemma 9: {} iterations", rc.iterations);
        assert!(check_lemma10(g, &rc), "Lemma 10 violated (k = {k})");
        assert!(check_lemma11(g, &rc), "Lemma 11 violated (k = {k})");
    }

    #[test]
    fn lemmas_on_structured_trees() {
        for k in [2usize, 3, 5, 10] {
            check_all_lemmas(&path(50), k);
            check_all_lemmas(&star(50), k);
            check_all_lemmas(&balanced_regular_tree(3, 80), k);
            check_all_lemmas(&balanced_regular_tree(8, 80), k);
        }
    }

    #[test]
    fn raked_diameter_matches_a_double_sweep_per_component() {
        // Double sweep: the farthest node from any member of a tree
        // component is an end of its diameter.
        let small = (1..=6).flat_map(treelocal_gen::labelled_trees);
        let large = (1..=20usize).map(|i| random_tree(100 * i, treelocal_graph::widen_u64(i)));
        for g in small.chain(large) {
            for k in [2usize, 3, 4] {
                let rc = rake_compress(&g, k);
                let tr = rc.raked_semigraph(&g);
                let cc = treelocal_graph::components(&tr);
                let swept = cc.iter().map(|members| {
                    let (end, _) = treelocal_graph::sparse_bfs_farthest(&tr, members[0]);
                    treelocal_graph::eccentricity_sparse(&tr, end)
                });
                let edges: Vec<_> = g.edge_ids().map(|e| g.endpoints(e)).collect();
                assert_eq!(
                    raked_component_max_diameter(&g, &rc),
                    swept.max().unwrap_or(0),
                    "k = {k}, n = {}, edges {edges:?}",
                    g.node_count()
                );
            }
        }
    }

    #[test]
    fn lemmas_on_random_trees() {
        for seed in 0..8 {
            let g = random_tree(200, seed);
            for k in [2usize, 4, 16] {
                check_all_lemmas(&g, k);
            }
        }
    }

    #[test]
    fn every_node_marked_exactly_once() {
        let g = random_tree(100, 42);
        let rc = rake_compress(&g, 3);
        assert!(rc.iteration_of.iter().all(|&i| i >= 1));
        let c = g.node_ids().filter(|&v| rc.is_compressed(v)).count();
        let r = g.node_ids().filter(|&v| rc.is_raked(v)).count();
        assert_eq!(c + r, 100);
    }

    #[test]
    fn path_compresses_in_one_iteration() {
        let g = path(30);
        let rc = rake_compress(&g, 2);
        assert_eq!(rc.iterations, 1);
        assert!(g.node_ids().all(|v| rc.is_compressed(v)));
    }

    #[test]
    fn star_rakes_leaves_then_compresses_center() {
        let g = star(20);
        let rc = rake_compress(&g, 3);
        assert_eq!(rc.iterations, 2);
        // The high-degree center survives iteration 1 (degree 19 > k) and
        // is compressed once isolated (degree 0 ≤ k, no neighbors).
        assert!(rc.is_compressed(NodeId::new(0)));
        assert_eq!(rc.iteration_of[0], 2);
        for v in 1..20 {
            assert!(rc.is_raked(NodeId::new(v)));
            assert_eq!(rc.iteration_of[v], 1);
        }
    }

    #[test]
    fn distributed_matches_centralized() {
        for seed in 0..5 {
            let g = random_tree(120, seed);
            for k in [2usize, 5] {
                let a = rake_compress(&g, k);
                let b = rake_compress_distributed(&g, k);
                assert_eq!(a.iteration_of, b.iteration_of, "seed {seed} k {k}");
                assert_eq!(a.mark_of, b.mark_of, "seed {seed} k {k}");
                // The centralized round charge is what the execution took.
                assert_eq!(a.rounds, b.rounds, "seed {seed} k {k}");
                assert!(b.rounds <= 3 * u64::from(b.iterations));
            }
        }
    }

    #[test]
    fn engines_agree_on_the_cross_check_trees() {
        for g in treelocal_gen::cross_check_trees() {
            let ctx = Ctx::of(&g);
            for k in [2usize, 3] {
                let cap = (lemma9_bound(g.node_count(), k) * 4 + 16) * 3;
                crate::assert_engines_agree(&ctx, &RcDistributed { k }, cap);
            }
        }
    }

    #[test]
    fn rc_state_round_trips_through_its_lanes() {
        // Exhaustive over the reachable shape space: every flag/mark
        // combination crossed with boundary lane values.
        for alive in [false, true] {
            for just_compressed in [false, true] {
                for deg in [0usize, 1, 7, 1 << 20, widen_u32(u32::MAX)] {
                    for marked_at in [
                        None,
                        Some((1u32, Mark::Compress)),
                        Some((1u32, Mark::Rake)),
                        Some((u32::MAX, Mark::Compress)),
                        Some((u32::MAX, Mark::Rake)),
                    ] {
                        let s = RcState { alive, deg, just_compressed, marked_at };
                        let mut lanes32 = [0u32; RcState::U32_LANES];
                        s.encode(&mut lanes32, &mut []);
                        assert_eq!(RcState::decode(&lanes32, &[]), s, "lanes {lanes32:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn pool_sizes_match_the_sequential_run() {
        use treelocal_sim::par;
        let g = random_tree(3000, 13);
        let ctx = Ctx::of(&g);
        let algo = RcDistributed { k: 3 };
        let cap = (lemma9_bound(g.node_count(), 3) * 4 + 16) * 3;
        let reference = par::with_threads(1, || run(&ctx, &algo, cap));
        for threads in [2usize, 4, par::auto_threads()] {
            let pooled = par::with_threads(threads, || run(&ctx, &algo, cap));
            assert_eq!(reference.rounds, pooled.rounds, "{threads} threads: rounds diverge");
            assert!(reference.states().eq(pooled.states()), "{threads} threads: states diverge");
        }
    }

    #[test]
    fn semigraph_views_partition_nodes() {
        let g = random_tree(60, 9);
        let rc = rake_compress(&g, 4);
        let tc = rc.compressed_semigraph(&g);
        let tr = rc.raked_semigraph(&g);
        assert_eq!(tc.nodes().len() + tr.nodes().len(), 60);
        // Half-edges partition (each edge's halves split by endpoint side).
        assert_eq!(tc.half_edge_count() + tr.half_edge_count(), 2 * g.edge_count());
    }

    #[test]
    fn single_node_tree() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let rc = rake_compress(&g, 2);
        assert_eq!(rc.iterations, 1);
        // A solitary node has degree 0 ≤ k with no neighbors: compressed.
        assert!(rc.is_compressed(NodeId::new(0)));
    }
}
