//! Certificate emission: runs the quick-profile pipelines with transcript
//! recording armed and packages the results as `treelocal-cert v2`
//! certificates for the engine-blind `treelocal-check` verifier.
//!
//! Every certificate is fully deterministic — instances are seeded, runs
//! are deterministic for every pool size, and the transcript recorder
//! hashes each round's halts in node order — so the emitted bytes are
//! identical across pool sizes and (for Linial) across the snapshot and
//! message engines. `tests/cert_matrix.rs` pins both identities; the
//! `check` CI job replays the emission and validates every file.

use std::io::Write as _;
use std::path::Path;

use treelocal_algos::{kw_reduce, mis_from_coloring, run_linial, run_linial_messages, MisDecision};
use treelocal_check::{
    Certificate, EdgePalette, Envelope, MisWitness, Palette, Rule, Segment, Solution,
};
use treelocal_gen::{caterpillar, random_tree, relabel, IdStrategy};
use treelocal_graph::{widen_u64, Graph, OrInvariant};
use treelocal_problems::classic::{greedy_matching, greedy_mis};
use treelocal_problems::{
    extract_coloring, solve_edges_sequential, solve_nodes_sequential, BMatching, Color,
    DegPlusOneColoring, EdgeDegreeColoring, EdgeSequential, HalfEdgeLabeling, ListColoring,
    NodeSequential,
};
use treelocal_sim::{par, transcript, Ctx};

use crate::ExperimentSize;

/// Converts a recorded transcript into certificate segments.
fn segments_of(t: &transcript::Transcript) -> Vec<Segment> {
    t.segments
        .iter()
        .map(|s| Segment {
            rounds: s.rounds,
            participants: s.halts.len(),
            halts: s.halts.iter().map(|&(v, r)| (v.index(), r)).collect(),
            commitments: s.commitments.clone(),
        })
        .collect()
}

fn edge_list(g: &Graph) -> Vec<(usize, usize)> {
    g.edge_ids()
        .map(|e| {
            let [u, v] = g.endpoints(e);
            (u.index(), v.index())
        })
        .collect()
}

/// The quick instance zoo: sparse LOCAL ids so the Linial schedule is
/// non-empty and the transcripts carry real rounds.
fn instances(size: ExperimentSize) -> Vec<(String, Graph)> {
    let n = match size {
        ExperimentSize::Quick => 150,
        ExperimentSize::Full => 2000,
    };
    vec![
        ("tree".to_string(), relabel(&random_tree(n, 7), IdStrategy::Sparse { seed: 11 })),
        (
            "caterpillar".to_string(),
            relabel(&caterpillar(n / 3, 2), IdStrategy::Sparse { seed: 13 }),
        ),
    ]
}

/// A Linial run on the chosen engine, wrapped in transcript recording.
fn linial_cert(name: &str, g: &Graph, message_engine: bool) -> Certificate {
    let ctx = Ctx::of(g);
    transcript::begin();
    let out = if message_engine { run_linial_messages(&ctx) } else { run_linial(&ctx) };
    let t = transcript::take();
    // Linial colors are 0-based (`< final_bound`); certificate colors are
    // from `{1, ...}`, so shift by one and bound by `final_bound`.
    let colors: Vec<u64> = out.colors.iter().map(|c| c.map_or(0, |x| x + 1)).collect();
    Certificate {
        instance: name.to_string(),
        rule: Rule::Coloring { palette: Palette::AtMost(out.final_bound) },
        nodes: g.node_count(),
        id_space: g.id_space(),
        edges: edge_list(g),
        lists: None,
        solution: Solution::NodeColors(colors),
        envelope: Envelope::Linial,
        rounds: t.total_rounds(),
        segments: segments_of(&t),
    }
}

/// The full Theorem 12 pipeline — Linial, Kuhn–Wattenhofer reduction,
/// color-class sweep — recorded as one multi-segment transcript.
fn mis_pipeline_cert(name: &str, g: &Graph) -> Certificate {
    let ctx = Ctx::of(g);
    transcript::begin();
    let mis = {
        let lin = run_linial(&ctx);
        let kw = kw_reduce(&ctx, &lin.colors, lin.final_bound);
        let m = u64::from(kw.final_colors);
        mis_from_coloring(&ctx, &kw.colors, m)
    };
    let t = transcript::take();
    let witnesses: Vec<MisWitness> = mis
        .decisions
        .iter()
        .map(|d| match d {
            Some(MisDecision::Member) => MisWitness::Member,
            Some(MisDecision::NonMember { witness }) => {
                MisWitness::NonMember { witness: witness.index() }
            }
            None => MisWitness::Member,
        })
        .collect();
    Certificate {
        instance: name.to_string(),
        rule: Rule::Mis,
        nodes: g.node_count(),
        id_space: g.id_space(),
        edges: edge_list(g),
        lists: None,
        solution: Solution::MisWitnesses(witnesses),
        envelope: Envelope::MisPipeline,
        rounds: t.total_rounds(),
        segments: segments_of(&t),
    }
}

/// `p`'s sequential solution, deciding every node in index order.
fn by_node_order<P: NodeSequential>(p: &P, g: &Graph) -> HalfEdgeLabeling<P::Label> {
    let mut labeling = HalfEdgeLabeling::for_graph(g);
    let order: Vec<_> = g.node_ids().collect();
    solve_nodes_sequential(p, g, &order, &mut labeling).or_invariant("a P1 problem never sticks");
    labeling
}

/// `p`'s sequential solution, deciding every edge in index order.
fn by_edge_order<P: EdgeSequential>(p: &P, g: &Graph) -> HalfEdgeLabeling<P::Label> {
    let mut labeling = HalfEdgeLabeling::for_graph(g);
    let order: Vec<_> = g.edge_ids().collect();
    solve_edges_sequential(p, g, &order, &mut labeling).or_invariant("a P2 problem never sticks");
    labeling
}

/// Certificate colors from problem colors.
fn widen(colors: Vec<Color>) -> Vec<u64> {
    colors.into_iter().map(u64::from).collect()
}

/// The deterministic color lists of the list-coloring certificate:
/// `deg(v) + 1` consecutive colors starting at a per-node offset, so
/// lists genuinely differ across nodes.
fn offset_lists(g: &Graph) -> Vec<Vec<u64>> {
    g.node_ids()
        .map(|v| {
            let offset = widen_u64(v.index() * 7 % 5);
            (1..=widen_u64(g.degree(v)) + 1).map(|c| offset + c).collect()
        })
        .collect()
}

/// A transcript-free certificate for a sequentially constructed solution.
fn solver_cert(
    name: &str,
    g: &Graph,
    rule: Rule,
    solution: Solution,
    lists: Option<Vec<Vec<u64>>>,
) -> Certificate {
    Certificate {
        instance: name.to_string(),
        rule,
        nodes: g.node_count(),
        id_space: g.id_space(),
        edges: edge_list(g),
        lists,
        solution,
        envelope: Envelope::None,
        rounds: 0,
        segments: Vec::new(),
    }
}

/// Builds the full certificate suite: Linial on both engines, the MIS
/// pipeline, and the sequential solver zoo, for every quick instance.
///
/// `threads` pins the engines' pool size (`None` = [`par::auto_threads`]);
/// it changes scheduling only, never bytes.
pub fn cert_suite(size: ExperimentSize, threads: Option<usize>) -> Vec<(String, Certificate)> {
    par::with_threads(threads.unwrap_or_else(par::auto_threads), || build_suite(size))
}

fn build_suite(size: ExperimentSize) -> Vec<(String, Certificate)> {
    let mut suite = Vec::new();
    for (label, g) in instances(size) {
        // Both engine certs embed the bare instance label: the emitted
        // bytes must be identical across engines, and the engine name is
        // carried by the file name only.
        suite.push((format!("linial-snapshot-{label}"), linial_cert(&label, &g, false)));
        suite.push((format!("linial-message-{label}"), linial_cert(&label, &g, true)));
        suite.push((
            format!("mis-pipeline-{label}"),
            mis_pipeline_cert(&format!("mis-pipeline-{label}"), &g),
        ));
        // The sequential solver zoo, every node or edge decided in index
        // order.
        let b2 = BMatching { b: 2 };
        let nodes: Vec<_> = g.node_ids().collect();
        let edges: Vec<_> = g.edge_ids().collect();
        let deg_colors = extract_coloring(&g, &by_node_order(&DegPlusOneColoring, &g));
        let edge_colors = EdgeDegreeColoring.extract(&g, &by_edge_order(&EdgeDegreeColoring, &g));
        let lists = offset_lists(&g);
        let narrow = |list: &Vec<u64>| {
            list.iter().map(|&c| Color::try_from(c).or_invariant("small color")).collect()
        };
        let list_problem = ListColoring::new(&g, lists.iter().map(narrow).collect())
            .or_invariant("offset lists have deg + 1 colors");
        let list_colors = extract_coloring(&g, &by_node_order(&list_problem, &g));
        let zoo = [
            ("matching", Rule::Matching { b: 1 }, Solution::EdgeSet(greedy_matching(&g, &edges))),
            (
                "bmatching",
                Rule::Matching { b: 2 },
                Solution::EdgeSet(b2.extract(&g, &by_edge_order(&b2, &g))),
            ),
            ("mis", Rule::Mis, Solution::NodeSet(greedy_mis(&g, &nodes))),
            (
                "coloring",
                Rule::Coloring { palette: Palette::DegreePlusOne },
                Solution::NodeColors(widen(deg_colors)),
            ),
            (
                "edgecoloring",
                Rule::EdgeColoring { palette: EdgePalette::EdgeDegreePlusOne },
                Solution::EdgeColors(widen(edge_colors)),
            ),
            ("listcoloring", Rule::ListColoring, Solution::NodeColors(widen(list_colors))),
        ];
        for (kind, rule, solution) in zoo {
            let name = format!("{kind}-greedy-{label}");
            let lists = matches!(rule, Rule::ListColoring).then(|| lists.clone());
            suite.push((name.clone(), solver_cert(&name, &g, rule, solution, lists)));
        }
    }
    suite
}

/// Writes every certificate of `suite` to `dir` as `<name>.cert`.
pub fn emit_certs(dir: &Path, suite: &[(String, Certificate)]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (name, cert) in suite {
        let mut f = std::fs::File::create(dir.join(format!("{name}.cert")))?;
        f.write_all(cert.to_text().as_bytes())?;
    }
    Ok(())
}
