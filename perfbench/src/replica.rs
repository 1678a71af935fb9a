//! Traced replicas of the two transformation pipelines.
//!
//! Each replica replays one-call pipeline (`mis_on_tree`,
//! `edge_coloring_on_tree`) as the sequence of public calls it makes into
//! each layer, one span per call, and returns the labeling and per-phase
//! [`RoundReport`] so the caller can hold them to the one-call output
//! byte for byte. After the pipeline, a separate `stages` pass reruns the
//! inner algorithm's engine stages on the same `Ctx` sub-instance so that
//! `TrulyLocal::solve` can be split into stages without editing it.

use treelocal_algos::{
    kw_reduce, line_graph, mis_from_coloring, run_linial, simulated_rounds, sweep_reduce,
    ChargedModel, EdgeColoringAlgo, GlobalCtx, MisAlgo, TrulyLocal,
};
use treelocal_core::{k_for, solve_g};
use treelocal_decomp::{arb_decompose, rake_compress, split_atypical};
use treelocal_graph::{components, Graph, NodeId};
use treelocal_problems::{
    solve_edges_sequential, solve_nodes_sequential, verify_graph, EdgeColLabel, EdgeDegreeColoring,
    HalfEdgeLabeling, Mis, MisLabel,
};
use treelocal_sim::{Ctx, GatherPlan, RoundReport};

use crate::trace::Tracer;

/// What a replica reproduced.
#[derive(Debug)]
pub struct Replayed<L> {
    /// The assembled labeling.
    pub labeling: HalfEdgeLabeling<L>,
    /// Executed rounds by phase, as the one-call pipeline reports them.
    pub executed: RoundReport,
    /// Whether the labeling verified on the whole instance.
    pub valid: bool,
}

/// Theorem 12 on a tree, as `mis_on_tree` runs it: the global context and
/// `k`, rake-and-compress, the two semigraphs, `MisAlgo` on `T_C`, then
/// the residual components of `T_R` gathered and completed sequentially,
/// `verify_graph`, and the member-set extraction.
///
/// The one-call loop interleaves three pure steps per residual component
/// (order the members, cost the gather, solve sequentially); the replica
/// runs each step over all components in turn, which leaves every call
/// and the order of the labeling writes unchanged.
///
/// # Errors
///
/// Fails when the sequential completion gets stuck or the `stages` pass
/// disagrees with the round report of `solve`.
pub fn theorem12_mis(t: &mut Tracer, tree: &Graph) -> Result<Replayed<MisLabel>, String> {
    let (out, tc, rep_a, gctx) = t.span("replica", |t| -> Result<_, String> {
        let (gctx, k) = t.span("core.params", |_| {
            let model = ChargedModel::bek14_coloring();
            (GlobalCtx::of(tree), k_for(tree.node_count(), |d| model.eval(d)))
        });
        let mut executed = RoundReport::new();
        let rc = t.span("decomp.rake_compress", |_| rake_compress(tree, k));
        executed.push("rake-compress(Alg1)", rc.rounds);
        t.value("decomp.iterations", f64::from(rc.iterations));
        let tc = t.span("decomp.semigraph", |_| rc.compressed_semigraph(tree));
        let tr = t.span("decomp.semigraph", |_| rc.raked_semigraph(tree));
        let (mut labeling, rep_a) = t.span("algos.solve", |_| MisAlgo.solve(&tc, &gctx, &Mis));
        executed.absorb("A", &rep_a);

        let order = t.span("decomp.layer_order", |_| rc.layer_order());
        let cc = t.span("graph.components", |_| components(&tr));
        t.value("sim.gather_components", cc.count() as f64);
        let residual: Vec<Vec<NodeId>> = t.span("core.residual_order", |_| {
            (0..cc.count())
                .map(|c| {
                    let mut members = cc.members(c).to_vec();
                    members.sort_by(|&x, &y| {
                        let kx = (order.rank(x), tree.local_id(x));
                        let ky = (order.rank(y), tree.local_id(y));
                        ky.cmp(&kx) // highest first
                    });
                    members
                })
                .collect()
        });
        let max_gather = t.span("sim.gather", |_| {
            let plan = GatherPlan::new(&tr);
            residual.iter().map(|members| plan.rounds_at(members[0])).max().unwrap_or(0)
        });
        t.span("problems.solve_seq", |_| {
            residual.iter().try_for_each(|members| {
                solve_nodes_sequential(&Mis, tree, members, &mut labeling)
                    .map_err(|e| format!("sequential completion stuck: {e:?}"))
            })
        })?;
        executed.push("gather-residual(Alg2)", max_gather);

        let valid = t.span("problems.verify", |_| verify_graph(&Mis, tree, &labeling).is_ok());
        t.span("problems.extract", |_| Mis.extract(tree, &labeling));
        Ok((Replayed { labeling, executed, valid }, tc, rep_a, gctx))
    })?;

    if !tc.nodes().is_empty() {
        let stages = t.span("stages", |t| {
            let ctx = Ctx::restricted(&tc, gctx.n, gctx.id_space);
            let lin = t.span("algos.linial", |_| run_linial(&ctx));
            let red = t.span("algos.kw_reduce", |_| kw_reduce(&ctx, &lin.colors, lin.final_bound));
            let mis = t.span("algos.mis_sweep", |_| {
                mis_from_coloring(&ctx, &red.colors, u64::from(red.final_colors))
            });
            let mut stages = RoundReport::new();
            stages
                .push("linial", lin.rounds)
                .push("kw-reduce", red.rounds)
                .push("mis-sweep", mis.rounds)
                .push("labeling", 1);
            stages
        });
        if stages != rep_a {
            return Err(format!("stage pass {stages:?} disagrees with solve's report {rep_a:?}"));
        }
    }
    Ok(out)
}

/// Theorem 15 with `a = 1, ρ = 1` on a tree, as `edge_coloring_on_tree`
/// runs it: the global context and `k`, Algorithm 3, the forest split,
/// `EdgeColoringAlgo` on the typical semigraph, the star groups completed
/// sequentially, `verify_graph`, and the color extraction.
///
/// # Errors
///
/// As [`theorem12_mis`].
pub fn theorem15_edge_coloring(
    t: &mut Tracer,
    g: &Graph,
) -> Result<Replayed<EdgeColLabel>, String> {
    let (out, e2, rep_a, gctx) = t.span("replica", |t| -> Result<_, String> {
        let (gctx, k) = t.span("core.params", |_| {
            let model = ChargedModel::bbko22b_edge_coloring();
            let n = g.node_count();
            let g_value = if n >= 4 { solve_g(n as f64, |d| model.eval(d)) } else { 2.0 };
            // k = ⌊g^ρ⌋ clamped to ≥ 5a, with a = ρ = 1.
            (GlobalCtx::of(g), (g_value.floor() as usize).max(5).max(2))
        });
        let mut executed = RoundReport::new();
        let d = t.span("decomp.arb_decompose", |_| arb_decompose(g, 1, k));
        executed.push("decomposition(Alg3)", d.rounds);
        t.value("decomp.iterations", f64::from(d.iterations));
        let split = t.span("decomp.split_atypical", |_| split_atypical(g, &d));
        executed.push("forest-split(CV)", split.rounds);
        let e2 = t.span("decomp.typical_semigraph", |_| d.typical_semigraph(g));
        let (mut labeling, rep_a) =
            t.span("algos.solve", |_| EdgeColoringAlgo.solve(&e2, &gctx, &EdgeDegreeColoring));
        executed.absorb("A", &rep_a);

        let mut star_rounds = 0u64;
        for (i, j) in split.groups() {
            let mut edges = t.span("decomp.group_edges", |_| split.group_edges(i, j));
            if edges.is_empty() {
                continue;
            }
            star_rounds += 3;
            edges.sort_unstable();
            t.span("problems.solve_seq", |_| {
                solve_edges_sequential(&EdgeDegreeColoring, g, &edges, &mut labeling)
            })
            .map_err(|e| format!("sequential completion stuck: {e:?}"))?;
        }
        executed.push("star-groups(Alg4)", star_rounds);

        let valid =
            t.span("problems.verify", |_| verify_graph(&EdgeDegreeColoring, g, &labeling).is_ok());
        t.span("problems.extract", |_| EdgeDegreeColoring.extract(g, &labeling));
        Ok((Replayed { labeling, executed, valid }, e2, rep_a, gctx))
    })?;

    let stages = t.span("stages", |t| {
        let l = t.span("algos.line_graph", |_| line_graph(&e2));
        let mut stages = RoundReport::new();
        if l.graph.node_count() > 0 {
            let ctx = Ctx {
                topo: &l.graph,
                n: gctx.n,
                id_space: l.id_space,
                max_degree: l.graph.max_degree(),
            };
            let lin = t.span("algos.linial", |_| run_linial(&ctx));
            let red =
                t.span("algos.sweep_reduce", |_| sweep_reduce(&ctx, &lin.colors, lin.final_bound));
            stages
                .push("linial(L)", simulated_rounds(lin.rounds))
                .push("sweep-reduce(L)", simulated_rounds(red.rounds));
        }
        stages.push("labeling", 1);
        stages
    });
    if stages != rep_a {
        return Err(format!("stage pass {stages:?} disagrees with solve's report {rep_a:?}"));
    }
    Ok(out)
}
