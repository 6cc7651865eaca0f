//! # RisGraph — a real-time streaming system for evolving graphs
//!
//! A from-scratch Rust reproduction of **RisGraph** (Feng et al.,
//! SIGMOD 2021): per-update incremental analysis of monotonic graph
//! algorithms (BFS, SSSP, SSWP, WCC, …) on evolving graphs, with
//! sub-millisecond processing latency at millions of updates per
//! second, via *localized data access* (Indexed Adjacency Lists, sparse
//! active sets, Hybrid Parallel Mode) and *inter-update parallelism*
//! (safe/unsafe classification + epoch loop scheduling).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`common`] | `risgraph-common` | ids, sparse sets, bitmaps, stats |
//! | [`storage`] | `risgraph-storage` | Indexed Adjacency Lists, index variants, baselines, CSR |
//! | [`algorithms`] | `risgraph-algorithms` | the Algorithm API + Table 2 algorithms |
//! | [`core`] | `risgraph-core` | engine, classification, epoch loop, scheduler, history, WAL, server |
//! | [`net`] | `risgraph-net` | TCP serving tier: framed wire protocol, pipelined sessions, NetClient |
//! | [`baselines`] | `risgraph-baselines` | KickStarter-/DD-style + recompute comparisons |
//! | [`workloads`] | `risgraph-workloads` | graph generators, dataset registry, update streams |
//!
//! ## Quick start
//!
//! ```
//! use risgraph::prelude::*;
//!
//! // Maintain BFS-from-vertex-0 over an evolving graph.
//! let engine: Engine = Engine::with_algorithm(Bfs::new(0), 1024);
//! engine.load_edges(&[(0, 1, 0), (1, 2, 0)]);
//! assert_eq!(engine.value(0, 2), 2);
//!
//! // Stream an update; the result repairs incrementally.
//! engine.apply(&Update::InsEdge(Edge::new(0, 2, 0))).unwrap();
//! assert_eq!(engine.value(0, 2), 1);
//!
//! // Deletions recover through the dependency tree.
//! engine.apply(&Update::DelEdge(Edge::new(0, 2, 0))).unwrap();
//! assert_eq!(engine.value(0, 2), 2);
//! ```
//!
//! ## Storage backends
//!
//! The engine is generic over [`storage::DynamicGraph`], the storage
//! contract extracted from the paper's §6.3 comparison. One engine —
//! and one server — drives the whole backend matrix:
//!
//! | `--store` | type | layout |
//! |-----------|------|--------|
//! | `ia-hash` (default) | `GraphStore<HashIndex>` | Indexed Adjacency Lists + hash indexes |
//! | `ia-btree` / `ia-art` | `GraphStore<_>` | ditto with B-tree / ART indexes |
//! | `io-hash` / `io-btree` / `io-art` | `IndexOnlyStore<_>` | edges only in per-vertex indexes |
//! | `ooc-mmap` | `MmapOocStore` | out-of-core mmap-backed 4 KiB block chains, per-vertex lock striping + chain indexes |
//!
//! ```
//! use risgraph::prelude::*;
//! use std::sync::Arc;
//!
//! // The same engine API over a runtime-selected backend:
//! let kind = BackendKind::parse("io-hash").unwrap();
//! let store = AnyStore::open(&kind, 1024, Default::default()).unwrap();
//! let engine = Engine::from_store(
//!     store,
//!     vec![Arc::new(Bfs::new(0)) as DynAlgorithm],
//!     Default::default(),
//! );
//! engine.load_edges(&[(0, 1, 0), (1, 2, 0)]);
//! assert_eq!(engine.value(0, 2), 2);
//! ```
//!
//! Servers select their backend through
//! [`core::server::ServerConfig::backend`] (defaulting from the
//! `RISGRAPH_STORE` environment variable); the CLI exposes the same
//! choice as `risgraph --store <backend>`. A cross-backend differential
//! property test (`tests/proptest_invariants.rs`) holds all backends to
//! identical results and store contents under random update streams.
//!
//! For the full interactive tier (sessions, versioned snapshots,
//! transactions, durability) see [`core::server::Server`]; to serve it
//! over TCP — pipelined clients, client-observed latency percentiles,
//! a network ≡ in-process differential proof — see [`net::NetServer`] /
//! [`net::NetClient`] and `risgraph serve --listen ADDR`. Runnable
//! scenarios live in `examples/`.

pub use risgraph_algorithms as algorithms;
pub use risgraph_baselines as baselines;
pub use risgraph_common as common;
pub use risgraph_core as core;
pub use risgraph_net as net;
pub use risgraph_storage as storage;
pub use risgraph_workloads as workloads;

/// The types most programs need.
pub mod prelude {
    pub use risgraph_algorithms::{Bfs, MaxLabel, Monotonic, Reachability, Sssp, Sswp, Wcc};
    pub use risgraph_common::ids::{Edge, Update, VersionId, VertexId, Weight};
    pub use risgraph_common::{Error, Result};
    pub use risgraph_core::engine::{ChangeSet, DynAlgorithm, Engine, EngineConfig, Safety};
    pub use risgraph_core::server::{Reply, Server, ServerConfig, Session};
    pub use risgraph_storage::{AnyStore, BackendKind, DefaultStore, DynamicGraph, GraphStore};
    pub use risgraph_workloads::{DatasetSpec, StreamConfig};
}
