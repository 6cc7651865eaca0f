//! Workload generation for the RisGraph reproduction.
//!
//! The paper evaluates on ten real graphs (Table 3) plus the USA road
//! network (§7). Those datasets are multi-gigabyte downloads; this
//! reproduction regenerates their *relevant structure* synthetically
//! (see PAPER.md "Substitutions"):
//!
//! * [`rmat`] — R-MAT/Kronecker power-law graphs: skewed degrees, small
//!   effective diameter — the properties RisGraph's localized access
//!   and safe-update classification exploit;
//! * [`road`] — grid-based road networks: bounded degree, huge
//!   diameter — the §7 non-power-law stress case;
//! * [`datasets`] — a registry mirroring Table 3's shapes (|V|, |E|
//!   ratios, temporality, roots) at a configurable scale factor;
//! * [`stream`] — the §6.1 update-stream protocol: pre-populate a
//!   fraction of edges, split the rest into insertion/deletion sets
//!   (timestamp-ordered when the dataset is temporal), alternate them
//!   at a configurable insertion ratio, optionally pack transactions.

pub mod datasets;
pub mod io;
pub mod rmat;
pub mod road;
pub mod stream;

pub use datasets::{Dataset, DatasetSpec, TABLE3};
pub use rmat::RmatConfig;
pub use stream::{StreamConfig, UpdateStream};
