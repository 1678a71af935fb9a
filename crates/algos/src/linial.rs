//! Linial-style color reduction in `log* n + O(1)` rounds.
//!
//! The classic deterministic symmetry-breaking primitive \[Lin92, GPS87\]:
//! starting from the unique identifiers (a proper `id_space`-coloring),
//! each round shrinks a proper `C`-coloring to a proper `q²`-coloring via
//! the polynomial construction: encode the current color as a degree-`d`
//! polynomial `p` over `F_q` (digits base `q`), pick an evaluation point
//! `x` on which `p` disagrees with every neighbor's polynomial (possible
//! because `q > d·Δ`), and adopt the color `(x, p(x))`.
//!
//! Iterating with a deterministic schedule of `(d, q)` stages reaches a
//! proper `O(Δ²)`-coloring after `log*`-many rounds; the schedule is a pure
//! function of `(id_space, Δ)`, so all nodes compute it locally.
//!
//! The search for `x` runs in increasing order from `x = 0`, and `p(0)` is
//! the constant coefficient, the color's lowest base-`q` digit `c % q`. So
//! a node first compares `own % q` with every neighbor's `c % q`; nearly
//! always they all differ and the node adopts `(0, own % q)` without
//! expanding a digit row or evaluating a polynomial. Only on a collision
//! at 0 does it build the rows and go on from `x = 1`. That is the first
//! point of the same search computed exactly, so no color changes.
//!
//! A step reads its neighbors' colors from its ports, so one algorithm
//! runs on both engines: [`run_linial`] on the snapshot engine and
//! [`run_linial_messages`] with every color sent as a message.

use treelocal_graph::OrInvariant;
use treelocal_graph::{NodeId, Topology};
use treelocal_sim::{
    next_prime, run, run_messages, Ctx, Ports, RunOutcome, SyncAlgorithm, Verdict,
};

/// One stage of the reduction: colors `< c_in` become colors `< q²` using
/// degree-`d` polynomials over `F_q`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stage {
    /// Polynomial degree bound.
    pub d: u32,
    /// Field size (prime, `q > d·Δ`, `q^{d+1} ≥ c_in`).
    pub q: u64,
    /// Upper bound on input colors.
    pub c_in: u64,
}

/// Computes the deterministic stage schedule for initial color space
/// `id_space` and maximum degree `delta`. The final color bound is
/// `schedule.last().q²` (or `id_space` if no stage helps).
pub fn linial_schedule(id_space: u64, delta: usize) -> Vec<Stage> {
    let mut stages = Vec::new();
    let mut c = id_space.max(2);
    while let Some((d, q)) = best_stage(c, delta) {
        let c_next = q * q;
        if c_next >= c {
            break;
        }
        stages.push(Stage { d, q, c_in: c });
        c = c_next;
        debug_assert!(stages.len() < 64, "schedule diverged");
    }
    stages
}

/// The final color bound after running the schedule.
pub fn linial_final_colors(id_space: u64, delta: usize) -> u64 {
    linial_schedule(id_space, delta).last().map_or(id_space.max(2), |s| s.q * s.q)
}

/// Picks the stage `(d, q)` minimizing the output bound `q²` for input
/// bound `c`.
fn best_stage(c: u64, delta: usize) -> Option<(u32, u64)> {
    let mut best: Option<(u32, u64)> = None;
    for d in 1..=48u32 {
        // q ≥ d·Δ + 1 (distinct polynomials disagree somewhere among the
        // valid evaluation points) and q^{d+1} ≥ c (colors encodable).
        let lower_deg = (d as u64) * (delta as u64) + 1;
        let lower_enc = integer_root_ceil(c, d + 1);
        let q = next_prime(lower_deg.max(lower_enc).max(2));
        debug_assert!(pow_at_least(q, d + 1, c), "q^{{d+1}} >= c by construction");
        match best {
            Some((_, bq)) if bq <= q => {}
            _ => best = Some((d, q)),
        }
        // Larger d only helps while the encoding bound dominates.
        if lower_deg >= lower_enc {
            break;
        }
    }
    best
}

/// `⌈c^{1/k}⌉` computed exactly.
fn integer_root_ceil(c: u64, k: u32) -> u64 {
    if c <= 1 {
        return 1;
    }
    let mut r = (c as f64).powf(1.0 / f64::from(k)).ceil() as u64;
    r = r.max(1);
    while !pow_at_least(r, k, c) {
        r += 1;
    }
    while r > 1 && pow_at_least(r - 1, k, c) {
        r -= 1;
    }
    r
}

/// Whether `base^exp >= target`, without overflow.
fn pow_at_least(base: u64, exp: u32, target: u64) -> bool {
    let mut acc: u128 = 1;
    for _ in 0..exp {
        acc = acc.saturating_mul(base as u128);
        if acc >= target as u128 {
            return true;
        }
    }
    acc >= target as u128
}

/// Per-node state: the current color, one `u64`, so ten million nodes
/// occupy one flat 80 MB column.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ColorState {
    /// Proper color, bounded by the current stage's input bound.
    pub color: u64,
}

struct LinialAlgo {
    schedule: Vec<Stage>,
}

impl<T: Topology> SyncAlgorithm<T> for LinialAlgo {
    type State = ColorState;

    fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Verdict<ColorState> {
        let color = ctx.topo.local_id(v);
        if self.schedule.is_empty() {
            Verdict::Halted(ColorState { color })
        } else {
            Verdict::Active(ColorState { color })
        }
    }

    fn step(
        &self,
        _ctx: &Ctx<T>,
        _v: NodeId,
        round: u64,
        own: ColorState,
        prev: &Ports<'_, ColorState>,
    ) -> Verdict<ColorState> {
        let stage = self.schedule[(round - 1) as usize];
        let state = ColorState { color: recolor(stage, own.color, prev.iter().map(|s| s.color)) };
        if round as usize == self.schedule.len() {
            Verdict::Halted(state)
        } else {
            Verdict::Active(state)
        }
    }
}

/// One stage of the polynomial construction at one node: encode `own` as a
/// degree-`d` polynomial over `F_q`, pick the first evaluation point `x`
/// disagreeing with every neighbor polynomial, adopt `(x, p(x))`.
///
/// The search starts at `x = 0`, where a polynomial's value is its
/// constant coefficient: the lowest base-`q` digit of its color, `c % q`.
/// So `x = 0` is settled from `own % q` and each neighbor's `c % q`, with
/// no digit rows and no Horner pass. Only when a neighbor agrees at 0 are
/// the rows built and the same search continued from `x = 1`. Both paths
/// evaluate the same polynomials at the same points in the same order, so
/// the shortcut cannot change a color.
///
fn recolor(stage: Stage, own: u64, neighbor_colors: impl Iterator<Item = u64>) -> u64 {
    let Stage { q, .. } = stage;
    let width = stage.d as usize + 1;
    debug_assert!(fits_in_digits(own, stage), "color must fit in d+1 digits base q");
    let mine_at_0 = own % q;
    NEIGHBOR_SCRATCH.with(|cell| {
        // One reused thread-local buffer: the neighbor colors, then (only
        // after a collision at 0) one `width`-sized digit row per
        // neighbor. The hot loop allocates nothing once it has warmed up
        // to the maximum degree seen.
        let scratch = &mut *cell.borrow_mut();
        scratch.clear();
        let mut agree_at_0 = false;
        for c in neighbor_colors {
            debug_assert!(fits_in_digits(c, stage), "color must fit in d+1 digits base q");
            agree_at_0 |= c % q == mine_at_0;
            scratch.push(c);
        }
        if !agree_at_0 {
            return mine_at_0;
        }
        let degree = scratch.len();
        scratch.resize(degree * (width + 1), 0);
        let (colors, polys) = scratch.split_at_mut(degree);
        for (&c, row) in colors.iter().zip(polys.chunks_exact_mut(width)) {
            digits_into(c, q, row);
        }
        // `best_stage` caps d at 48, so a stack row holds any polynomial.
        let mut my_poly = [0u64; MAX_STAGE_DEGREE + 1];
        digits_into(own, q, &mut my_poly[..width]);
        let mine = &my_poly[..width];
        let (x, px) = (1..q)
            .find_map(|x| {
                let px = eval_poly(mine, x, q);
                polys
                    .chunks_exact(width)
                    .all(|theirs| eval_poly(theirs, x, q) != px)
                    .then_some((x, px))
            })
            .or_invariant("q > d*Delta guarantees an evaluation point");
        let color = x * q + px;
        debug_assert!(u128::from(color) < u128::from(q) * u128::from(q));
        color
    })
}

/// Upper bound on the stage degree `d` (enforced by [`best_stage`]'s search
/// range), sizing the stack-allocated polynomial row in [`recolor`].
const MAX_STAGE_DEGREE: usize = 48;

thread_local! {
    /// Per-call scratch for [`recolor`]: the neighbor colors, then their
    /// digit rows. It is cleared on entry, so reuse across
    /// nodes/rounds/engines cannot leak state or perturb results.
    static NEIGHBOR_SCRATCH: std::cell::RefCell<Vec<u64>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Writes the `out.len()` base-`q` digits of `c` into `out` (little-endian
/// coefficient order, matching [`eval_poly`]).
fn digits_into(mut c: u64, q: u64, out: &mut [u64]) {
    for slot in out.iter_mut() {
        *slot = c % q;
        c /= q;
    }
    debug_assert_eq!(c, 0, "color must fit in d+1 digits base q");
}

/// Whether `c` has at most `d + 1` base-`q` digits, i.e. `q^{d+1} > c`.
fn fits_in_digits(c: u64, stage: Stage) -> bool {
    c.checked_add(1).is_some_and(|above| pow_at_least(stage.q, stage.d + 1, above))
}

fn eval_poly(coeffs: &[u64], x: u64, q: u64) -> u64 {
    // Horner. For q < 2^32 (every schedule in practice — `best_stage`
    // minimizes q) the accumulator stays below (q-1)·q < 2^64, so plain
    // u64 arithmetic is exact and the hot loop avoids u128 division; the
    // u128 form remains for astronomically large fields.
    if q <= u64::from(u32::MAX) {
        let mut acc: u64 = 0;
        for &c in coeffs.iter().rev() {
            acc = (acc * x + c) % q;
        }
        acc
    } else {
        let mut acc: u128 = 0;
        for &c in coeffs.iter().rev() {
            acc = (acc * u128::from(x) + u128::from(c)) % u128::from(q);
        }
        // lint:allow(no-bare-index-cast): value < q fits u64 by
        // construction (reduction mod q), not an index-space crossing.
        acc as u64
    }
}

/// The result of the reduction: a proper coloring with `colors[v] <
/// final_bound` for every participating node.
#[derive(Clone, Debug)]
pub struct LinialOutcome {
    /// Final color per node (parent index space).
    pub colors: Vec<Option<u64>>,
    /// Exclusive upper bound on the final colors.
    pub final_bound: u64,
    /// Rounds executed.
    pub rounds: u64,
}

/// Runs the reduction on a topology, producing a proper `O(Δ²)`-coloring in
/// `log*`-many rounds.
///
/// Colors live in one flat `u64` state column, which is what keeps the
/// 10M-node tier's peak RSS flat.
pub fn run_linial<T: Topology + Sync>(ctx: &Ctx<'_, T>) -> LinialOutcome {
    linial_on(ctx, run)
}

/// [`run_linial`] through the literal Definition 5 message-passing engine
/// ([`run_messages`]): the same algorithm, with every color sent as a
/// message. Identical colors, final bound and round count — the
/// `linial-message-*` certificates equal the `linial-snapshot-*` ones.
pub fn run_linial_messages<T: Topology + Sync>(ctx: &Ctx<'_, T>) -> LinialOutcome {
    linial_on(ctx, run_messages)
}

/// The reduction on `engine`, either [`run`] or [`run_messages`]. An empty
/// stage schedule halts every node at seeding, after zero rounds.
fn linial_on<'t, T: Topology + Sync>(
    ctx: &Ctx<'t, T>,
    engine: impl FnOnce(&Ctx<'t, T>, &LinialAlgo, u64) -> RunOutcome<'t, T, ColorState>,
) -> LinialOutcome {
    let schedule = linial_schedule(ctx.id_space, ctx.max_degree);
    let final_bound = schedule.last().map_or(ctx.id_space.max(2), |s| s.q * s.q);
    let out = engine(ctx, &LinialAlgo { schedule }, 200);
    LinialOutcome {
        colors: out.states().map(|s| s.map(|st| st.color)).collect(),
        final_bound,
        rounds: out.rounds,
    }
}

/// Checks that `colors` is proper on the topology (test helper).
pub fn is_proper<T: Topology>(topo: &T, colors: &[Option<u64>]) -> bool {
    topo.nodes()
        .all(|v| topo.neighbor_nodes(v).iter().all(|&w| colors[v.index()] != colors[w.index()]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelocal_graph::{Graph, SliceEdges};

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn schedule_reaches_poly_delta() {
        for delta in [1usize, 2, 3, 8, 20] {
            for id_space in [100u64, 10_000, 1 << 32] {
                let final_c = linial_final_colors(id_space, delta);
                let bound = 30 * (delta as u64 + 1) * (delta as u64 + 1) + 200;
                assert!(final_c <= bound, "delta {delta} id_space {id_space}: {final_c} > {bound}");
            }
        }
    }

    #[test]
    fn schedule_length_is_log_star_like() {
        // Even for astronomically large id spaces the schedule is short.
        let s = linial_schedule(u64::MAX, 4);
        assert!(s.len() <= 8, "schedule too long: {}", s.len());
        let s_small = linial_schedule(100, 4);
        assert!(s_small.len() <= s.len() + 1);
    }

    #[test]
    fn reduction_is_proper_on_paths_and_stars() {
        for g in
            [path(50), Graph::from_edges(9, &(1..9).map(|i| (0, i)).collect::<Vec<_>>()).unwrap()]
        {
            let ctx = Ctx::of(&g);
            let out = run_linial(&ctx);
            assert!(is_proper(&g, &out.colors), "improper coloring");
            for v in g.node_ids() {
                assert!(out.colors[v.index()].unwrap() < out.final_bound);
            }
            assert_eq!(out.rounds as usize, linial_schedule(ctx.id_space, ctx.max_degree).len());
        }
    }

    #[test]
    fn reduction_with_sparse_ids() {
        // Huge identifier space exercises multiple stages.
        let n = 40;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let ids: Vec<u64> = (0..n as u64).map(|i| i * i * 131 + 17).collect();
        let g = Graph::from_edge_source_with_ids(&SliceEdges::new(n, &edges), ids).unwrap();
        let ctx = Ctx::of(&g);
        let out = run_linial(&ctx);
        assert!(is_proper(&g, &out.colors));
        assert!(out.final_bound <= 1000, "final bound {}", out.final_bound);
    }

    #[test]
    fn integer_root_is_exact() {
        assert_eq!(integer_root_ceil(8, 3), 2);
        assert_eq!(integer_root_ceil(9, 3), 3);
        assert_eq!(integer_root_ceil(27, 3), 3);
        assert_eq!(integer_root_ceil(28, 3), 4);
        assert_eq!(integer_root_ceil(1, 5), 1);
        assert_eq!(integer_root_ceil(u64::MAX, 2), 1 << 32);
    }

    #[test]
    fn poly_eval_matches_naive() {
        let coeffs = vec![3u64, 0, 2, 5];
        let q = 7u64;
        for x in 0..q {
            let naive = (3 + 2 * x * x + 5 * x * x * x) % q;
            assert_eq!(eval_poly(&coeffs, x, q), naive);
        }
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let ctx = Ctx::of(&g);
        let out = run_linial(&ctx);
        assert!(out.colors[0].is_some());
    }

    #[test]
    fn message_form_matches_the_snapshot_form() {
        use treelocal_gen::{caterpillar, cross_check_trees, random_tree, relabel, IdStrategy};
        // After every small tree and the random corpus, two inputs start
        // with a frontier above the engine's parallel threshold, so at two
        // workers the receive phase runs on the pool.
        let big = [
            relabel(&random_tree(3000, 11), IdStrategy::Sparse { seed: 11 }),
            caterpillar(1500, 1),
        ];
        for (i, g) in cross_check_trees().chain(big).enumerate() {
            let ctx = Ctx::of(&g);
            let (snap, msgs) = treelocal_sim::par::with_threads(2, || {
                (run_linial(&ctx), run_linial_messages(&ctx))
            });
            assert_eq!(snap.rounds, msgs.rounds, "tree {i}: round counts diverge");
            assert_eq!(snap.final_bound, msgs.final_bound, "tree {i}");
            assert_eq!(snap.colors, msgs.colors, "tree {i}: colors diverge");
            assert!(is_proper(&g, &msgs.colors), "tree {i}: improper");
        }
    }

    #[test]
    fn message_form_matches_with_sparse_ids_and_restrictions() {
        // Sparse ids exercise multi-stage schedules; the semi-graph
        // restriction exercises partial index spaces.
        let n = 48;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let ids: Vec<u64> = (0..n as u64).map(|i| i * i * 131 + 17).collect();
        let g = Graph::from_edge_source_with_ids(&SliceEdges::new(n, &edges), ids).unwrap();
        let snap_whole = run_linial(&Ctx::of(&g));
        let msgs_whole = run_linial_messages(&Ctx::of(&g));
        assert_eq!(snap_whole.colors, msgs_whole.colors);
        assert_eq!(snap_whole.rounds, msgs_whole.rounds);
        let s = treelocal_graph::SemiGraph::induced_by_nodes(&g, |v| v.index() % 5 != 0);
        let ctx = Ctx::restricted(&s, g.node_count(), g.id_space());
        let snap = run_linial(&ctx);
        let msgs = run_linial_messages(&ctx);
        assert_eq!(snap.colors, msgs.colors);
        assert_eq!(snap.rounds, msgs.rounds);
    }

    #[test]
    fn pool_sizes_match_the_sequential_run() {
        use treelocal_sim::par;
        // Above the engine's parallel threshold so worker pools genuinely
        // chunk the frontier.
        let g = treelocal_gen::relabel(
            &treelocal_gen::random_tree(3000, 9),
            treelocal_gen::IdStrategy::Permuted { seed: 9 },
        );
        let ctx = Ctx::of(&g);
        let reference = par::with_threads(1, || run_linial(&ctx));
        for threads in [2usize, 4, par::auto_threads()] {
            let pooled = par::with_threads(threads, || run_linial(&ctx));
            assert_eq!(reference.rounds, pooled.rounds, "{threads} threads: rounds diverge");
            assert_eq!(reference.colors, pooled.colors, "{threads} threads: colors diverge");
        }
    }

    /// The search without the `x = 0` shortcut: every color expanded into
    /// its digit row and every point evaluated from `x = 0`.
    fn recolor_full_search(stage: Stage, own: u64, neighbors: &[u64]) -> u64 {
        let Stage { q, .. } = stage;
        let digits = |c| {
            let mut row = vec![0; stage.d as usize + 1];
            digits_into(c, q, &mut row);
            row
        };
        let mine = digits(own);
        let theirs: Vec<Vec<u64>> = neighbors.iter().map(|&c| digits(c)).collect();
        (0..q)
            .find_map(|x| {
                let px = eval_poly(&mine, x, q);
                theirs.iter().all(|row| eval_poly(row, x, q) != px).then(|| x * q + px)
            })
            .expect("q > d*Delta guarantees an evaluation point")
    }

    /// Every stage of the schedules for four id spaces and Δ ∈ 1..=16,
    /// each with its Δ, plus a stage whose field exceeds `u32::MAX`, which
    /// takes `eval_poly`'s `u128` branch.
    fn stages_under_test() -> Vec<(Stage, usize)> {
        let mut stages = Vec::new();
        for id_space in [1 << 10, 1_000_000, 1_000_000_000_000, u64::MAX] {
            for delta in 1..=16 {
                stages.extend(linial_schedule(id_space, delta).into_iter().map(|s| (s, delta)));
            }
        }
        let q = next_prime(u64::from(u32::MAX) + 1);
        stages.push((Stage { d: 1, q, c_in: u64::MAX }, 16));
        stages
    }

    /// A proper neighborhood at `stage`: `own` and at most `delta` neighbor
    /// colors, all below `c_in` and none equal to `own`. Where `c_in`
    /// leaves room, about half the neighbors share `own`'s residue mod `q`,
    /// so they agree with `own` at `x = 0` and the search goes on.
    fn neighborhood(stage: Stage, delta: usize, seed: u64) -> (u64, Vec<u64>) {
        let Stage { q, c_in, .. } = stage;
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let own = next() % c_in;
        let residue = own % q;
        // Colors below `c_in` congruent to `own`: residue + q·k, k < same.
        let same = (c_in - 1 - residue) / q + 1;
        let degree = next() % (delta as u64 + 1);
        let neighbors = (0..degree)
            .map(|_| {
                if same >= 2 && next() % 2 == 0 {
                    let k = next() % same;
                    let c = residue + q * k;
                    if c == own {
                        residue + q * ((k + 1) % same)
                    } else {
                        c
                    }
                } else {
                    let c = next() % c_in;
                    if c == own {
                        (c + 1) % c_in
                    } else {
                        c
                    }
                }
            })
            .collect();
        (own, neighbors)
    }

    proptest::proptest! {
        /// The `x = 0` shortcut picks the color the full search picks, at
        /// every stage under test, including neighbors that collide with
        /// `own` at 0.
        #[test]
        fn recolor_matches_the_full_search(seed in proptest::prelude::any::<u64>()) {
            let mut collisions = 0;
            for (i, (stage, delta)) in stages_under_test().into_iter().enumerate() {
                let (own, neighbors) = neighborhood(stage, delta, seed ^ ((i as u64) << 40));
                collisions += usize::from(neighbors.iter().any(|&c| c % stage.q == own % stage.q));
                let fast = recolor(stage, own, neighbors.iter().copied());
                proptest::prop_assert_eq!(
                    fast,
                    recolor_full_search(stage, own, &neighbors),
                    "stage {:?}, own {}, neighbors {:?}",
                    stage,
                    own,
                    neighbors
                );
            }
            proptest::prop_assert!(collisions > 0, "no neighborhood reached x >= 1");
        }
    }

    #[test]
    fn message_form_zero_stage_schedule_runs_zero_rounds() {
        // A tiny id space can make every stage useless; both forms must
        // report the identity coloring after zero rounds.
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let ctx = Ctx::of(&g);
        if !linial_schedule(ctx.id_space, ctx.max_degree).is_empty() {
            return; // schedule helps here; the zero-stage case is covered elsewhere
        }
        let snap = run_linial(&ctx);
        let msgs = run_linial_messages(&ctx);
        assert_eq!(snap.rounds, 0);
        assert_eq!(msgs.rounds, 0);
        assert_eq!(snap.colors, msgs.colors);
    }
}
