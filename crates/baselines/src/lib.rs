//! Comparison engines for the Figure 14 evaluation (§6.4) and the
//! recompute datapoints of §3.2/§6.4.
//!
//! * [`kickstarter`] — a KickStarter-style *batch* incremental engine:
//!   the same dependency-tree + trimmed-approximation model RisGraph
//!   adopts, but with the costs §3 attributes to it — dense bitmaps
//!   cleared per iteration, whole value-array copies per iteration, and
//!   full vertex-table passes when applying updates and when
//!   invalidating subtrees.
//! * [`differential`] — a Differential-Dataflow-style generalized
//!   incremental engine: no graph-awareness, arrangement-style ordered
//!   indexes, round-synchronous delta processing. Insert-only batches
//!   are processed incrementally; batches containing effective
//!   deletions re-derive the fixpoint from initial values (see
//!   PAPER.md "Substitutions" for the rationale).
//! * [`recompute`] — whole-graph recomputation with dense frontiers
//!   over a CSR snapshot (the GraphOne "0.76 s BFS re-compute" style
//!   datapoint).
//!
//! All three are differential-tested against the reference oracle, so
//! the Figure 14 comparison measures *performance* differences, never
//! correctness differences.

pub mod differential;
pub mod kickstarter;
pub mod recompute;

pub use differential::Differential;
pub use kickstarter::KickStarter;
