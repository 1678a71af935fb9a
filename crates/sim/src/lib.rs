//! A synchronous LOCAL-model simulator with honest round accounting.
//!
//! This crate executes deterministic distributed algorithms exactly as the
//! LOCAL model (Definition 5 of Brandt–Narayanan, PODC 2025) prescribes:
//! synchronous rounds, unbounded messages (modeled as full state exchange),
//! unique identifiers, and knowledge of `n` and `Δ`. It provides:
//!
//! * [`SyncAlgorithm`] / [`run`] — per-node state machines over
//!   [`StateCodec`] lane columns, executed in lockstep with exact round
//!   counting, and [`MessageAlgorithm`] / [`run_messages`] — the same
//!   core driven by explicit per-port messages,
//! * [`RoundReport`] — per-phase accounting used by every pipeline,
//! * [`gather_rounds_at`] and the [`GatherPlan`] eccentricity cache — the
//!   honest cost of the paper's "gather the component at its highest
//!   node" steps, one linear pass per costed component,
//! * [`log_star_f64`] / [`ceil_log`] — the complexity-function helpers,
//! * [`next_prime`] — support for Linial-style color reduction, and
//! * [`counters`] — process-wide round/node-step counters that progress
//!   reporters (the `treelocal-bench` driver) read.
//!
//! # Examples
//!
//! A state is anything with a fixed-width [`StateCodec`]; the engine keeps
//! it in flat lane columns and hands it to `step` by value.
//!
//! ```
//! use treelocal_graph::{Graph, NodeId, Topology};
//! use treelocal_sim::{run, Ctx, Snapshot, StateCodec, SyncAlgorithm, Verdict};
//!
//! /// The largest identifier seen so far, one u64 lane.
//! #[derive(Debug)]
//! struct MaxId(u64);
//!
//! impl StateCodec for MaxId {
//!     const U32_LANES: usize = 0;
//!     const U64_LANES: usize = 1;
//!     fn encode(&self, _lanes32: &mut [u32], lanes64: &mut [u64]) {
//!         lanes64[0] = self.0;
//!     }
//!     fn decode(_lanes32: &[u32], lanes64: &[u64]) -> Self {
//!         MaxId(lanes64[0])
//!     }
//! }
//!
//! /// Each node halts with the maximum identifier among its neighbors.
//! struct MaxNeighbor;
//! impl<T: Topology> SyncAlgorithm<T> for MaxNeighbor {
//!     type State = MaxId;
//!     fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Verdict<MaxId> {
//!         Verdict::Active(MaxId(ctx.topo.local_id(v)))
//!     }
//!     fn step(&self, ctx: &Ctx<T>, v: NodeId, _r: u64, own: MaxId,
//!             prev: &Snapshot<'_, MaxId>) -> Verdict<MaxId> {
//!         let m = ctx.topo.neighbor_nodes(v).iter()
//!             .map(|&w| prev.get(w).0)
//!             .fold(own.0, u64::max);
//!         Verdict::Halted(MaxId(m))
//!     }
//! }
//!
//! let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
//! let ctx = Ctx::of(&g);
//! let out = run(&ctx, &MaxNeighbor, 10);
//! assert_eq!(out.rounds, 1);
//! assert_eq!(out.state(NodeId::new(0)).0, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
pub mod counters;
mod engine;
mod exec_core;
mod gather;
mod logstar;
mod msg_engine;
#[cfg(feature = "parallel")]
pub mod par;
mod primes;
mod rounds;
pub mod transcript;

pub use codec::{RunOutcome, Snapshot, StateCodec};
#[cfg(feature = "parallel")]
pub use engine::run_with_threads;
pub use engine::{run, Ctx, ParSafe, SyncAlgorithm, Verdict};
pub use exec_core::ExecCore;
pub use gather::{
    gather_rounds_at, highest_id_center, parallel_gather_rounds, sequential_gather_rounds,
    GatherPlan,
};
pub use logstar::{ceil_log, log_star_f64, log_star_u64};
#[cfg(feature = "parallel")]
pub use msg_engine::run_messages_with_threads;
pub use msg_engine::{run_messages, MessageAlgorithm};
pub use primes::{is_prime, next_prime};
pub use rounds::{Phase, RoundReport};
