//! Directed-graph substrate for densest subgraph discovery (DDS).
//!
//! This crate owns everything the DDS algorithms need from a graph library:
//!
//! * [`DiGraph`] — an immutable, compressed-sparse-row (CSR) simple directed
//!   graph stored in **both** directions (out-adjacency and in-adjacency),
//!   because the `[x, y]`-core peels and the flow networks walk both;
//! * [`GraphBuilder`] — ingestion with configurable handling of self-loops
//!   and parallel edges (the DDS problem is defined on simple graphs);
//! * [`io`] — buffered edge-list reading/writing with precise error
//!   positions;
//! * [`gen`] — deterministic, seeded workload generators (uniform `G(n,m)`,
//!   directed power-law, planted dense blocks, plus closed-form fixtures)
//!   used by the test suite and the experiment harness as substitutes for
//!   the paper's real datasets (`dds-bench`'s workload registry maps them
//!   onto size classes);
//! * [`Pair`] / [`StMask`] — the two representations of a candidate
//!   `(S, T)` answer, with exact density evaluation via
//!   [`dds_num::Density`].
//!
//! Vertices are dense `u32` indices (`0..n`), the representation the
//! performance guide favours for cache-friendly traversal of million-edge
//! graphs.
//!
//! # Example
//!
//! ```
//! use dds_graph::{DiGraph, Pair};
//!
//! let g = DiGraph::from_edges(4, &[(0, 2), (0, 3), (1, 2), (1, 3)]).unwrap();
//! assert_eq!(g.out_neighbors(0), &[2, 3]);
//! assert_eq!(g.in_degree(2), 2);
//!
//! let pair = Pair::new(vec![0, 1], vec![2, 3]);
//! assert_eq!(pair.edges_between(&g), 4);
//! assert_eq!(pair.density(&g).to_f64(), 2.0); // 4/√(2·2)
//! ```

#![warn(missing_docs)]

mod builder;
mod dot;
mod error;
pub mod gen;
mod graph;
pub mod io;
mod stats;
mod view;

pub use builder::GraphBuilder;
pub use dot::{to_dot, weakly_connected_components};
pub use error::GraphError;
pub use graph::DiGraph;
pub use stats::GraphStats;
pub use view::{Pair, StMask};

/// Dense vertex identifier (`0..n`).
pub type VertexId = u32;
