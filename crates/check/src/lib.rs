//! `treelocal-check` — an engine-blind certificate checker.
//!
//! Runs of the `treelocal` engines can emit versioned certificates
//! (per-node output witnesses, round counts, chained per-round
//! commitments; see `treelocal-sim`'s `transcript` module). This crate
//! validates them without touching engine internals, in three
//! independent layers:
//!
//! 1. **Solution legality** — a single typed [`Rule`] table
//!    ([`check_solution`]) judging proper colorings, list colorings,
//!    maximal independent sets, (b-)matchings and edge colorings, with
//!    located [`CheckError`] diagnostics. The classic per-problem
//!    verifiers in `treelocal-problems` are thin wrappers over this
//!    table.
//! 2. **Round envelopes** — [`check_envelope`] recomputes the paper's
//!    bounds (`log* + 2` for Linial, the Theorem 12 pipeline envelope
//!    for MIS) from the instance alone and rejects round claims above
//!    them.
//! 3. **Transcript consistency** — [`check_certificate`] re-derives
//!    every round commitment (the round, its live count and the nodes
//!    that halted in it) from the halt records alone, in time linear in
//!    the transcript; the hash is an independent implementation of the
//!    recorder's chain, so engine and checker cross-validate.
//!
//! The `treelocal-check` binary validates a directory of `.cert` files.
//!
//! This crate depends only on `treelocal-graph`: it can never observe
//! how a solution was produced, only whether the certificate is
//! internally consistent and legal.
//!
//! # Examples
//!
//! ```
//! use treelocal_check::{check_solution, CheckError, Rule, Solution};
//! use treelocal_graph::Graph;
//!
//! let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
//! let mis = Solution::NodeSet(vec![true, false, true]);
//! assert!(check_solution(&g, &Rule::Mis, &mis, None).is_ok());
//! let clique = Solution::NodeSet(vec![true, true, false]);
//! assert_eq!(
//!     check_solution(&g, &Rule::Mis, &clique, None),
//!     Err(CheckError::NotIndependent { edge: 0 })
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cert;
mod commit;
mod envelope;
mod error;
mod rule;

pub use cert::{check_certificate, check_text, Certificate, Segment, FORMAT_VERSION};
pub use commit::{commit_round, commitment_fold, COMMITMENT_OFFSET, COMMITMENT_PRIME};
pub use envelope::{check_envelope, envelope_limit, log_star, Envelope};
pub use error::CheckError;
pub use rule::{
    check_solution, independence, matching_validity, members_of, EdgePalette, MisWitness, Palette,
    Rule, Solution,
};
