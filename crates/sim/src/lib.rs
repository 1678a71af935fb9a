//! A synchronous LOCAL-model simulator with honest round accounting.
//!
//! This crate executes deterministic distributed algorithms exactly as the
//! LOCAL model (Definition 5 of Brandt–Narayanan, PODC 2025) prescribes:
//! synchronous rounds, unbounded messages (modeled as full state exchange),
//! unique identifiers, and knowledge of `n` and `Δ`. It provides:
//!
//! * [`SyncAlgorithm`] / [`run`] — per-node state machines over
//!   [`StateCodec`] lane columns, executed in lockstep with exact round
//!   counting. A step reads its neighbours only through [`Ports`], in
//!   port order, so every algorithm is local by construction; and
//!   [`run_messages`] runs any such algorithm with explicit per-port
//!   messages, the state itself being the message,
//! * [`RoundReport`] — per-phase accounting used by every pipeline,
//! * [`gather_rounds_at`] and the [`GatherPlan`] eccentricity cache — the
//!   honest cost of the paper's "gather the component at its highest
//!   node" steps and every other eccentricity read, one pass per component,
//! * [`log_star_f64`] / [`ceil_log`] — the complexity-function helpers,
//! * [`next_prime`] — support for Linial-style color reduction,
//! * [`counters`] — process-wide round/node-step counters that the
//!   `perfbench` benchmark and the counter tests read, and
//! * [`par`] — the deterministic worker pool and the one pool-size source
//!   ([`par::with_threads`] scopes an override around any run).
//!
//! # Examples
//!
//! A state is anything with a fixed-width [`StateCodec`]; the engine keeps
//! it in flat lane columns and hands it to `step` by value, with the
//! neighbours' states on its ports.
//!
//! ```
//! use treelocal_graph::{Graph, NodeId, Topology};
//! use treelocal_sim::{run, run_messages, Ctx, Ports, StateCodec, SyncAlgorithm, Verdict};
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
//!     fn step(&self, _ctx: &Ctx<T>, _v: NodeId, _r: u64, own: MaxId,
//!             prev: &Ports<'_, MaxId>) -> Verdict<MaxId> {
//!         let m = prev.iter().map(|s| s.0).fold(own.0, u64::max);
//!         Verdict::Halted(MaxId(m))
//!     }
//! }
//!
//! let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
//! let ctx = Ctx::of(&g);
//! let out = run(&ctx, &MaxNeighbor, 10);
//! assert_eq!(out.rounds, 1);
//! assert_eq!(out.state(NodeId::new(0)).0, 2);
//! // The same algorithm with every state sent as a message.
//! let sent = run_messages(&ctx, &MaxNeighbor, 10);
//! assert_eq!(sent.rounds, 1);
//! assert_eq!(sent.state(NodeId::new(0)).0, 2);
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
pub mod par;
mod primes;
mod rounds;
pub mod transcript;

pub use codec::{Ports, RunOutcome, StateCodec};
pub use engine::{run, Ctx, SyncAlgorithm, Verdict};
pub use exec_core::ExecCore;
pub use gather::{gather_rounds_at, GatherPlan};
pub use logstar::{ceil_log, log_star_f64, log_star_u64};
pub use msg_engine::run_messages;
pub use primes::{is_prime, next_prime};
pub use rounds::{Phase, RoundReport};
