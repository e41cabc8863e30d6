//! Max-flow substrate for the exact DDS algorithms.
//!
//! Three layers:
//!
//! * [`dinic`] — a general-purpose Dinic's max-flow over `u128` capacities
//!   with extraction of both the minimal and the maximal min-cut source
//!   sides, plus in-place buffer recycling ([`FlowNetwork::reset_for`]);
//! * [`arena`] — [`FlowArena`], the owner of one recyclable network that
//!   makes the steady state of a ratio search allocation-free and counts
//!   `arena_reuse_hits` for the instrumentation reports;
//! * [`decision`] — the DDS-specific decision procedure: one min-cut
//!   answers "is there a pair `(S, T)` whose ratio-weighted density exceeds
//!   the guess β?", with exact rational capacities scaled to integers.
//!   [`decide_in`] draws its network from a caller-owned arena; [`decide`]
//!   is the one-shot wrapper. The [`decision`] module docs derive the
//!   network and the β-space trick that keeps everything rational.

#![warn(missing_docs)]

pub mod arena;
pub mod decision;
pub mod dinic;

pub use arena::FlowArena;
pub use decision::{beta_of_pair, decide, decide_in, Decision, DecisionStats};
pub use dinic::{EdgeId, FlowNetwork, MinCut};
