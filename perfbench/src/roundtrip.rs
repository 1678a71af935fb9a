//! The certificate round trip: the transcript-armed MIS stages that the
//! bench crate's MIS certificate runs (Linial → Kuhn–Wattenhofer → class
//! sweep), packed into a `treelocal-cert v1` [`Certificate`], serialized,
//! parsed back and checked — all in memory.

use treelocal_algos::{kw_reduce, mis_from_coloring, run_linial, MisDecision, MisOutcome};
use treelocal_check::{
    check_certificate, Certificate, Envelope, MisWitness, Rule, Segment, Solution,
};
use treelocal_graph::Graph;
use treelocal_sim::{transcript, Ctx};

use crate::trace::Tracer;

/// Bytes per reported megabyte.
pub const MB: f64 = 1024.0 * 1024.0;

/// What one round trip produced.
#[derive(Debug)]
pub struct Roundtrip {
    /// The certificate as packed from the run.
    pub cert: Certificate,
    /// Whether parsing the text gave back exactly `cert`.
    pub parsed_identical: bool,
    /// The checker's verdict on the parsed certificate.
    pub verdict: Result<(), String>,
}

/// Runs the round trip on `g`, one span per call.
pub fn cert_roundtrip(t: &mut Tracer, g: &Graph) -> Roundtrip {
    t.span("replica", |t| {
        let ctx = Ctx::of(g);
        transcript::begin();
        let lin = t.span("algos.linial", |_| run_linial(&ctx));
        let kw = t.span("algos.kw_reduce", |_| kw_reduce(&ctx, &lin.colors, lin.final_bound));
        let mis = t.span("algos.mis_sweep", |_| {
            mis_from_coloring(&ctx, &kw.colors, u64::from(kw.final_colors))
        });
        let recorded = t.span("sim.transcript", |_| transcript::take());
        let cert = t.span("check.pack", |_| pack(g, &mis, &recorded));
        let text = t.span("check.to_text", |_| cert.to_text());
        t.value("check.cert_mb", text.len() as f64 / MB);
        let (parsed_identical, verdict) = match t.span("check.parse", |_| Certificate::parse(&text))
        {
            Ok(parsed) => (
                parsed == cert,
                t.span("check.rules", |_| check_certificate(&parsed)).map_err(|e| e.to_string()),
            ),
            Err(e) => (false, Err(format!("parse: {e}"))),
        };
        Roundtrip { cert, parsed_identical, verdict }
    })
}

/// Packs the run as the bench crate's MIS pipeline certificate does (a
/// copy of its private packing; `tests/replicas.rs` holds the two equal).
fn pack(g: &Graph, mis: &MisOutcome, recorded: &transcript::Transcript) -> Certificate {
    let witnesses = mis
        .decisions
        .iter()
        .map(|d| match d {
            Some(MisDecision::NonMember { witness }) => {
                MisWitness::NonMember { witness: witness.index() }
            }
            Some(MisDecision::Member) | None => MisWitness::Member,
        })
        .collect();
    let segments = recorded
        .segments
        .iter()
        .map(|s| Segment {
            rounds: s.rounds,
            participants: s.halts.len(),
            halts: s.halts.iter().map(|&(v, r)| (v.index(), r)).collect(),
            commitments: s.commitments.clone(),
        })
        .collect();
    Certificate {
        instance: "mis-pipeline-prufer".to_string(),
        rule: Rule::Mis,
        nodes: g.node_count(),
        id_space: g.id_space(),
        edges: g
            .edge_ids()
            .map(|e| {
                let [u, v] = g.endpoints(e);
                (u.index(), v.index())
            })
            .collect(),
        lists: None,
        solution: Solution::MisWitnesses(witnesses),
        envelope: Envelope::MisPipeline,
        rounds: recorded.total_rounds(),
        segments,
    }
}
