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

use treelocal_graph::OrInvariant;
use treelocal_graph::{NodeId, Topology};
use treelocal_sim::{
    next_prime, run, run_messages, Ctx, MessageAlgorithm, ParSafe, Snapshot, StateCodec,
    SyncAlgorithm, Verdict,
};

#[cfg(feature = "parallel")]
use treelocal_sim::{run_messages_with_threads, run_with_threads};

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

/// Per-node state: the current color.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColorState {
    /// Proper color, bounded by the current stage's input bound.
    pub color: u64,
}

/// A color is one `u64` lane, so ten million nodes occupy one flat 80 MB
/// column.
impl StateCodec for ColorState {
    const U32_LANES: usize = 0;
    const U64_LANES: usize = 1;

    fn encode(&self, _lanes32: &mut [u32], lanes64: &mut [u64]) {
        lanes64[0] = self.color;
    }

    fn decode(_lanes32: &[u32], lanes64: &[u64]) -> Self {
        ColorState { color: lanes64[0] }
    }
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
        ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        own: ColorState,
        prev: &Snapshot<'_, ColorState>,
    ) -> Verdict<ColorState> {
        let stage = self.schedule[(round - 1) as usize];
        let neighbor_colors = ctx.topo.neighbor_nodes(v).iter().map(|&w| prev.get(w).color);
        let state = ColorState { color: recolor(stage, own.color, neighbor_colors) };
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
/// Shared verbatim by the snapshot form (neighbor colors read through the
/// state snapshot) and the message form (neighbor colors received through
/// ports), which is what makes the two engines produce identical colorings
/// round for round.
fn recolor(stage: Stage, own: u64, neighbor_colors: impl Iterator<Item = u64>) -> u64 {
    // `best_stage` caps d at 48, so a stack row holds any polynomial and
    // the flat neighbor scratch (one `width`-sized row per neighbor) is
    // reused across every node and round on this thread: the hot loop
    // allocates nothing after the first node warms the scratch up to the
    // maximum degree seen.
    let width = stage.d as usize + 1;
    let mut my_poly = [0u64; MAX_STAGE_DEGREE + 1];
    digits_into(own, stage.q, &mut my_poly[..width]);
    NEIGHBOR_POLY_SCRATCH.with(|cell| {
        let polys = &mut *cell.borrow_mut();
        polys.clear();
        for c in neighbor_colors {
            let row = polys.len();
            polys.resize(row + width, 0);
            digits_into(c, stage.q, &mut polys[row..row + width]);
        }
        // Find an evaluation point disagreeing with every neighbor.
        let mut x_found = None;
        'outer: for x in 0..stage.q {
            let mine = eval_poly(&my_poly[..width], x, stage.q);
            for theirs in polys.chunks_exact(width) {
                if eval_poly(theirs, x, stage.q) == mine {
                    continue 'outer;
                }
            }
            x_found = Some((x, mine));
            break;
        }
        let (x, px) = x_found.or_invariant("q > d*Delta guarantees an evaluation point");
        let color = x * stage.q + px;
        debug_assert!(color < stage.q * stage.q);
        color
    })
}

/// Upper bound on the stage degree `d` (enforced by [`best_stage`]'s search
/// range), sizing the stack-allocated polynomial row in [`recolor`].
const MAX_STAGE_DEGREE: usize = 48;

thread_local! {
    /// Flat neighbor-polynomial scratch for [`recolor`]: row `i` of width
    /// `d + 1` holds neighbor `i`'s digits. Purely per-call scratch — it is
    /// cleared on entry, so reuse across nodes/rounds/engines cannot leak
    /// state or perturb results.
    static NEIGHBOR_POLY_SCRATCH: std::cell::RefCell<Vec<u64>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// The reduction in explicit Definition 5 message-passing form: each round
/// every active node sends its current color on every port and recolors
/// from the received colors. All nodes run the same stage schedule and
/// halt together at its last stage, so every inbox is fully populated in
/// every round and the colors computed are identical to [`LinialAlgo`]'s.
struct LinialMsgAlgo {
    schedule: Vec<Stage>,
}

impl<T: Topology> MessageAlgorithm<T> for LinialMsgAlgo {
    type State = ColorState;
    type Msg = u64;

    fn init(&self, ctx: &Ctx<T>, v: NodeId) -> ColorState {
        ColorState { color: ctx.topo.local_id(v) }
    }

    fn send(&self, ctx: &Ctx<T>, v: NodeId, _round: u64, state: &ColorState) -> Vec<Option<u64>> {
        vec![Some(state.color); ctx.topo.degree(v)]
    }

    fn receive(
        &self,
        _ctx: &Ctx<T>,
        _v: NodeId,
        round: u64,
        state: ColorState,
        inbox: &[Option<u64>],
    ) -> Verdict<ColorState> {
        let stage = self.schedule[(round - 1) as usize];
        let state =
            ColorState { color: recolor(stage, state.color, inbox.iter().flatten().copied()) };
        if round as usize == self.schedule.len() {
            Verdict::Halted(state)
        } else {
            Verdict::Active(state)
        }
    }
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
/// Colors live in one flat `u64` lane column, which is what keeps the
/// 10M-node tier's peak RSS flat.
pub fn run_linial<T: Topology + ParSafe>(ctx: &Ctx<'_, T>) -> LinialOutcome {
    linial_inner(ctx, None)
}

/// [`run_linial`] on a fixed worker-pool size: identical colors, bound and
/// rounds for every pool size — the certificate matrix pins byte-identity
/// of emitted certificates across `threads` ∈ {1, 2, 4, auto}.
#[cfg(feature = "parallel")]
pub fn run_linial_with_threads<T: Topology + ParSafe>(
    ctx: &Ctx<'_, T>,
    threads: usize,
) -> LinialOutcome {
    linial_inner(ctx, Some(threads))
}

fn linial_inner<T: Topology + ParSafe>(ctx: &Ctx<'_, T>, threads: Option<usize>) -> LinialOutcome {
    let schedule = linial_schedule(ctx.id_space, ctx.max_degree);
    let final_bound = schedule.last().map_or(ctx.id_space.max(2), |s| s.q * s.q);
    let algo = LinialAlgo { schedule };
    #[cfg(feature = "parallel")]
    let out = match threads {
        Some(t) => run_with_threads(ctx, &algo, 200, t),
        None => run(ctx, &algo, 200),
    };
    #[cfg(not(feature = "parallel"))]
    let out = {
        let _ = threads;
        run(ctx, &algo, 200)
    };
    LinialOutcome {
        colors: out.states().map(|s| s.map(|st| st.color)).collect(),
        final_bound,
        rounds: out.rounds,
    }
}

/// [`run_linial`] through the literal Definition 5 message-passing engine
/// ([`run_messages`]): identical colors, final bound and round count — the
/// cross-engine parity the `msgpar` bench asserts before timing.
///
/// An empty stage schedule needs zero communication; the message trait has
/// no round-0 halt (a snapshot algorithm halts in `init`), so that case
/// returns the identity coloring directly instead of burning a round.
pub fn run_linial_messages<T: Topology + ParSafe>(ctx: &Ctx<'_, T>) -> LinialOutcome {
    linial_messages_inner(ctx, None)
}

/// [`run_linial_messages`] on a fixed worker-pool size — the message-engine
/// half of the certificate pool-size matrix.
#[cfg(feature = "parallel")]
pub fn run_linial_messages_with_threads<T: Topology + ParSafe>(
    ctx: &Ctx<'_, T>,
    threads: usize,
) -> LinialOutcome {
    linial_messages_inner(ctx, Some(threads))
}

fn linial_messages_inner<T: Topology + ParSafe>(
    ctx: &Ctx<'_, T>,
    threads: Option<usize>,
) -> LinialOutcome {
    let schedule = linial_schedule(ctx.id_space, ctx.max_degree);
    let final_bound = schedule.last().map_or(ctx.id_space.max(2), |s| s.q * s.q);
    if schedule.is_empty() {
        let mut colors = vec![None; ctx.topo.index_space()];
        for v in ctx.topo.nodes() {
            colors[v.index()] = Some(ctx.topo.local_id(v));
        }
        return LinialOutcome { colors, final_bound, rounds: 0 };
    }
    let algo = LinialMsgAlgo { schedule };
    #[cfg(feature = "parallel")]
    let out = match threads {
        Some(t) => run_messages_with_threads(ctx, &algo, 200, t),
        None => run_messages(ctx, &algo, 200),
    };
    #[cfg(not(feature = "parallel"))]
    let out = {
        let _ = threads;
        run_messages(ctx, &algo, 200)
    };
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
    use treelocal_graph::Graph;

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
        let mut b = treelocal_graph::GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i, i + 1);
        }
        let ids: Vec<u64> = (0..n as u64).map(|i| i * i * 131 + 17).collect();
        b.local_ids(ids);
        let g = b.finish().unwrap();
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
        for (label, g) in [
            ("path", path(60)),
            ("star", Graph::from_edges(12, &(1..12).map(|i| (0, i)).collect::<Vec<_>>()).unwrap()),
            ("tree", treelocal_gen::random_tree(200, 5)),
        ] {
            let ctx = Ctx::of(&g);
            let snap = run_linial(&ctx);
            let msgs = run_linial_messages(&ctx);
            assert_eq!(snap.rounds, msgs.rounds, "{label}: round counts diverge");
            assert_eq!(snap.final_bound, msgs.final_bound, "{label}");
            assert_eq!(snap.colors, msgs.colors, "{label}: colors diverge");
            assert!(is_proper(&g, &msgs.colors), "{label}: improper");
        }
    }

    #[test]
    fn message_form_matches_with_sparse_ids_and_restrictions() {
        // Sparse ids exercise multi-stage schedules; the semi-graph
        // restriction exercises partial index spaces.
        let n = 48;
        let mut b = treelocal_graph::GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i, i + 1);
        }
        b.local_ids((0..n as u64).map(|i| i * i * 131 + 17).collect());
        let g = b.finish().unwrap();
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

    #[cfg(feature = "parallel")]
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
        let reference = run_linial_with_threads(&ctx, 1);
        for threads in [2usize, 4, par::auto_threads()] {
            let pooled = run_linial_with_threads(&ctx, threads);
            assert_eq!(reference.rounds, pooled.rounds, "{threads} threads: rounds diverge");
            assert_eq!(reference.colors, pooled.colors, "{threads} threads: colors diverge");
        }
    }

    proptest::proptest! {
        /// The codec law for colors: `decode(encode(s)) == s` across the
        /// full lane range.
        #[test]
        fn color_state_round_trips_through_its_lanes(color in proptest::prelude::any::<u64>()) {
            let s = ColorState { color };
            let mut lanes64 = [0u64; ColorState::U64_LANES];
            s.encode(&mut [], &mut lanes64);
            proptest::prop_assert_eq!(ColorState::decode(&[], &lanes64), s);
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
