//! Graphs, semi-graphs and half-edges for deterministic LOCAL algorithms on
//! trees.
//!
//! This crate is the structural foundation of the `treelocal` workspace, a
//! reproduction of *“Towards Optimal Deterministic LOCAL Algorithms on
//! Trees”* (Brandt & Narayanan, PODC 2025). It provides:
//!
//! * [`Graph`] — immutable simple undirected graphs with LOCAL identifiers,
//! * [`EdgeSource`] — streaming edge ingestion: graphs build in one pass
//!   from a rewindable edge stream, with no materialized edge list,
//! * [`SemiGraph`] — Definition 4's semi-graphs (edges of rank 0, 1 or 2)
//!   realized as restrictions of a parent graph,
//! * [`Topology`] — the abstraction over which the simulator and all
//!   distributed algorithms are generic,
//! * traversal: [`components`], the sparse single-source BFS
//!   [`sparse_bfs_farthest`], and the per-component eccentricity pass
//!   [`component_eccentricities`],
//! * forest utilities ([`is_tree`], [`root_forest`]), and
//! * arboricity tooling ([`degeneracy`], [`forest_partition`]).
//!
//! # Examples
//!
//! ```
//! use treelocal_graph::{Graph, SemiGraph, NodeId, components};
//!
//! let tree = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (2, 4)]).unwrap();
//! assert!(treelocal_graph::is_tree(&tree));
//!
//! // Restrict to the "inner" nodes: boundary edges become rank-1 edges.
//! let inner = SemiGraph::induced_by_nodes(&tree, |v| tree.degree(v) > 1);
//! assert_eq!(inner.nodes().len(), 2);
//! assert_eq!(components(&inner).count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adjacency;
mod arboricity;
mod csr;
mod eccentricity;
mod forest;
mod ids;
mod invariant;
mod semigraph;
mod source;
pub mod stats;
mod topology;
mod traversal;

pub use adjacency::{Graph, GraphEdges};
pub use arboricity::{degeneracy, forest_partition, is_forest_partition, ForestPartition, Peeling};
pub use csr::Neighbors;
pub use eccentricity::{component_eccentricities, ECC_UNCOMPUTED};
pub use forest::{is_forest, is_tree, root_forest, RootedForest};
pub use ids::{narrow_u32, widen_u32, widen_u64, EdgeId, HalfEdge, NodeId, NodeRange, Side};
pub use invariant::OrInvariant;
pub use semigraph::SemiGraph;
pub use source::{EdgeSource, FnEdgeSource, SliceEdges};
pub use topology::{NodeIter, Topology};
pub use traversal::{components, eccentricity_sparse, sparse_bfs_farthest, Components};

use std::error::Error;
use std::fmt;

/// Errors produced while validating graph construction.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// An edge references a node index outside `0..n`.
    NodeOutOfRange {
        /// The offending index.
        index: usize,
        /// The number of nodes.
        n: usize,
    },
    /// An edge connects a node to itself.
    SelfLoop {
        /// The node with the loop.
        node: usize,
    },
    /// Two edges connect the same pair of nodes.
    ParallelEdge {
        /// First endpoint (lower index).
        u: usize,
        /// Second endpoint (higher index).
        v: usize,
    },
    /// The number of provided identifiers does not match the node count.
    IdCountMismatch {
        /// Expected count (`n`).
        expected: usize,
        /// Provided count.
        got: usize,
    },
    /// Two nodes share a LOCAL identifier.
    DuplicateId,
    /// A LOCAL identifier is zero (identifiers are from `{1, ..., n^c}`).
    ZeroId,
    /// The instance exceeds the u32 index space of the CSR adjacency
    /// (`n <= u32::MAX` nodes, `2m <= u32::MAX` half-edges).
    TooLarge {
        /// The requested node count.
        nodes: usize,
        /// The requested edge count.
        edges: usize,
    },
    /// An [`EdgeSource`] emitted a different number of edges than its
    /// [`edge_count`](EdgeSource::edge_count) declared.
    EdgeCountMismatch {
        /// The declared edge count.
        declared: usize,
        /// The number of edges the stream emitted.
        emitted: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { index, n } => {
                write!(f, "node index {index} out of range for {n} nodes")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            GraphError::ParallelEdge { u, v } => write!(f, "parallel edge between {u} and {v}"),
            GraphError::IdCountMismatch { expected, got } => {
                write!(f, "expected {expected} identifiers, got {got}")
            }
            GraphError::DuplicateId => write!(f, "duplicate LOCAL identifier"),
            GraphError::ZeroId => write!(f, "LOCAL identifiers must be positive"),
            GraphError::TooLarge { nodes, edges } => write!(
                f,
                "instance with {nodes} nodes / {edges} edges exceeds the u32 index space \
                 (need n <= {} and 2m <= {})",
                u32::MAX,
                u32::MAX
            ),
            GraphError::EdgeCountMismatch { declared, emitted } => {
                write!(f, "edge source declared {declared} edges but emitted {emitted}")
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = GraphError::SelfLoop { node: 3 };
        assert!(e.to_string().contains("self-loop"));
        let e = GraphError::ParallelEdge { u: 1, v: 2 };
        assert!(e.to_string().contains("parallel"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_err<E: std::error::Error + Send + Sync>() {}
        assert_err::<GraphError>();
    }
}
