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

/// Greedy maximal `b`-matching by edge order (maximal by construction).
fn greedy_b_matching(g: &Graph, b: u32) -> Vec<bool> {
    let mut chosen = vec![false; g.edge_count()];
    let mut saturation = vec![0u32; g.node_count()];
    for e in g.edge_ids() {
        let [u, v] = g.endpoints(e);
        if saturation[u.index()] < b && saturation[v.index()] < b {
            chosen[e.index()] = true;
            saturation[u.index()] += 1;
            saturation[v.index()] += 1;
        }
    }
    chosen
}

/// Greedy proper `(deg+1)`-coloring by node order.
fn greedy_deg_coloring(g: &Graph) -> Vec<u64> {
    let mut colors = vec![0u64; g.node_count()];
    for v in g.node_ids() {
        colors[v.index()] = smallest_free(g.neighbor_nodes(v).iter().map(|&w| colors[w.index()]));
    }
    colors
}

/// Greedy proper edge coloring by edge order (`≤ edge_degree + 1`).
fn greedy_edge_coloring(g: &Graph) -> Vec<u64> {
    let mut colors = vec![0u64; g.edge_count()];
    for e in g.edge_ids() {
        let [u, v] = g.endpoints(e);
        colors[e.index()] = smallest_free(
            g.neighbor_edges(u)
                .iter()
                .chain(g.neighbor_edges(v).iter())
                .map(|&f| colors[f.index()]),
        );
    }
    colors
}

/// Smallest color `≥ 1` not in `used` (0 marks "unassigned").
fn smallest_free(used: impl Iterator<Item = u64>) -> u64 {
    let mut used: Vec<u64> = used.filter(|&c| c > 0).collect();
    used.sort_unstable();
    used.dedup();
    let mut c = 1u64;
    for u in used {
        if u == c {
            c += 1;
        } else if u > c {
            break;
        }
    }
    c
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

/// Greedy list coloring: each node takes the first list entry unused by
/// its already-colored neighbors (possible: `|list| = deg + 1`).
fn greedy_list_coloring(g: &Graph, lists: &[Vec<u64>]) -> Vec<u64> {
    let mut colors = vec![0u64; g.node_count()];
    for v in g.node_ids() {
        let used: Vec<u64> =
            g.neighbor_nodes(v).iter().map(|&w| colors[w.index()]).filter(|&c| c > 0).collect();
        colors[v.index()] = lists[v.index()]
            .iter()
            .find(|c| !used.contains(c))
            .copied()
            .or_invariant("a (deg+1)-list always has a free color");
    }
    colors
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
        let matching = greedy_matching(&g, &g.edge_ids().collect::<Vec<_>>());
        suite.push((
            format!("matching-greedy-{label}"),
            solver_cert(
                &format!("matching-greedy-{label}"),
                &g,
                Rule::Matching { b: 1 },
                Solution::EdgeSet(matching),
                None,
            ),
        ));
        suite.push((
            format!("bmatching-greedy-{label}"),
            solver_cert(
                &format!("bmatching-greedy-{label}"),
                &g,
                Rule::Matching { b: 2 },
                Solution::EdgeSet(greedy_b_matching(&g, 2)),
                None,
            ),
        ));
        let order: Vec<_> = g.node_ids().collect();
        let mis = greedy_mis(&g, &order);
        suite.push((
            format!("mis-greedy-{label}"),
            solver_cert(
                &format!("mis-greedy-{label}"),
                &g,
                Rule::Mis,
                Solution::NodeSet(mis),
                None,
            ),
        ));
        suite.push((
            format!("coloring-greedy-{label}"),
            solver_cert(
                &format!("coloring-greedy-{label}"),
                &g,
                Rule::Coloring { palette: Palette::DegreePlusOne },
                Solution::NodeColors(greedy_deg_coloring(&g)),
                None,
            ),
        ));
        suite.push((
            format!("edgecoloring-greedy-{label}"),
            solver_cert(
                &format!("edgecoloring-greedy-{label}"),
                &g,
                Rule::EdgeColoring { palette: EdgePalette::EdgeDegreePlusOne },
                Solution::EdgeColors(greedy_edge_coloring(&g)),
                None,
            ),
        ));
        let lists = offset_lists(&g);
        let colors = greedy_list_coloring(&g, &lists);
        suite.push((
            format!("listcoloring-greedy-{label}"),
            solver_cert(
                &format!("listcoloring-greedy-{label}"),
                &g,
                Rule::ListColoring,
                Solution::NodeColors(colors),
                Some(lists),
            ),
        ));
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
