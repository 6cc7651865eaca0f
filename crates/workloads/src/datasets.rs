//! The Table 3 dataset registry, regenerated synthetically.
//!
//! Each entry preserves the dataset's *shape*: the edges-per-vertex
//! ratio, the graph family (power-law social/web vs. collaboration
//! vs. road), temporality (timestamped streams split oldest/newest per
//! §6.1), and the evaluation root. Absolute sizes scale down by a
//! configurable factor so experiments run on one machine; PAPER.md
//! "Substitutions" documents the substitution.

use risgraph_common::ids::{VertexId, Weight};

use crate::rmat::RmatConfig;
use crate::road::RoadConfig;

/// Graph family, controlling which generator is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Power-law (social, web, interaction, transaction) — R-MAT.
    PowerLaw,
    /// Road network (§7) — grid generator.
    Road,
}

/// A Table 3 dataset descriptor.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Full name as the paper prints it.
    pub name: &'static str,
    /// Two-letter abbreviation (Table 3's "Abbr.").
    pub abbr: &'static str,
    /// Vertex count in the original dataset.
    pub paper_vertices: u64,
    /// Edge count in the original dataset.
    pub paper_edges: u64,
    /// Whether the original is timestamped ("Temporal" column).
    pub temporal: bool,
    /// Graph family.
    pub family: Family,
    /// Evaluation root for BFS/SSSP/SSWP ("Root" column).
    pub root: VertexId,
    /// R-MAT skew parameter `a` (ignored for roads); webs are more
    /// skewed than social graphs.
    pub skew_a: f64,
}

/// The ten Table 3 datasets plus §7's USA road network.
pub const TABLE3: &[DatasetSpec] = &[
    DatasetSpec {
        name: "HepPh",
        abbr: "PH",
        paper_vertices: 281_000,
        paper_edges: 4_600_000,
        temporal: true,
        family: Family::PowerLaw,
        root: 1,
        skew_a: 0.45,
    },
    DatasetSpec {
        name: "Wiki",
        abbr: "WK",
        paper_vertices: 2_130_000,
        paper_edges: 9_000_000,
        temporal: true,
        family: Family::PowerLaw,
        root: 0,
        skew_a: 0.52,
    },
    DatasetSpec {
        name: "Flickr",
        abbr: "FC",
        paper_vertices: 2_300_000,
        paper_edges: 33_100_000,
        temporal: true,
        family: Family::PowerLaw,
        root: 1,
        skew_a: 0.57,
    },
    DatasetSpec {
        name: "StackOverflow",
        abbr: "SO",
        paper_vertices: 2_600_000,
        paper_edges: 63_500_000,
        temporal: true,
        family: Family::PowerLaw,
        root: 0,
        skew_a: 0.55,
    },
    DatasetSpec {
        name: "BitCoin",
        abbr: "BC",
        paper_vertices: 24_600_000,
        paper_edges: 123_000_000,
        temporal: true,
        family: Family::PowerLaw,
        root: 2,
        skew_a: 0.50,
    },
    DatasetSpec {
        name: "SNB-SF-1000",
        abbr: "SB",
        paper_vertices: 3_140_000,
        paper_edges: 202_000_000,
        temporal: true,
        family: Family::PowerLaw,
        root: 0,
        skew_a: 0.55,
    },
    DatasetSpec {
        name: "LinkBench",
        abbr: "LB",
        paper_vertices: 128_000_000,
        paper_edges: 560_000_000,
        temporal: true,
        family: Family::PowerLaw,
        root: 0,
        skew_a: 0.55,
    },
    DatasetSpec {
        name: "Twitter-2010",
        abbr: "TT",
        paper_vertices: 41_700_000,
        paper_edges: 1_470_000_000,
        temporal: false,
        family: Family::PowerLaw,
        root: 0,
        skew_a: 0.57,
    },
    DatasetSpec {
        name: "Subdomain",
        abbr: "SD",
        paper_vertices: 102_000_000,
        paper_edges: 2_040_000_000,
        temporal: false,
        family: Family::PowerLaw,
        root: 0,
        skew_a: 0.60,
    },
    DatasetSpec {
        name: "UK-2007",
        abbr: "UK",
        paper_vertices: 106_000_000,
        paper_edges: 3_740_000_000,
        temporal: false,
        family: Family::PowerLaw,
        root: 0,
        skew_a: 0.60,
    },
    DatasetSpec {
        name: "USA-road",
        abbr: "RD",
        paper_vertices: 23_900_000,
        paper_edges: 28_900_000,
        temporal: false,
        family: Family::Road,
        root: 0,
        skew_a: 0.25,
    },
];

/// Look up a dataset by abbreviation.
pub fn by_abbr(abbr: &str) -> Option<&'static DatasetSpec> {
    TABLE3.iter().find(|d| d.abbr == abbr)
}

/// A generated dataset instance.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The spec this instance was generated from.
    pub spec: DatasetSpec,
    /// Vertex-id upper bound of the generated graph.
    pub num_vertices: usize,
    /// Edge list, ordered by generation "time" (index = timestamp for
    /// temporal datasets).
    pub edges: Vec<(VertexId, VertexId, Weight)>,
    /// Root vertex for rooted algorithms.
    pub root: VertexId,
}

impl DatasetSpec {
    /// The paper dataset's edges-per-vertex ratio.
    pub fn edge_factor(&self) -> f64 {
        self.paper_edges as f64 / self.paper_vertices as f64
    }

    /// Generate an instance with roughly `2^scale` vertices, preserving
    /// the original edge-factor, family and skew. `max_weight = 0`
    /// generates an unweighted graph.
    pub fn generate(&self, scale: u32, max_weight: Weight) -> Dataset {
        match self.family {
            Family::PowerLaw => {
                let cfg = RmatConfig {
                    scale,
                    edge_factor: self.edge_factor().clamp(2.0, 40.0),
                    a: self.skew_a,
                    b: (1.0 - self.skew_a) * 0.45,
                    c: (1.0 - self.skew_a) * 0.45,
                    seed: 0xDA7A ^ self.abbr.as_bytes()[0] as u64,
                    max_weight,
                };
                Dataset {
                    spec: *self,
                    num_vertices: cfg.num_vertices(),
                    edges: cfg.generate(),
                    root: self.root,
                }
            }
            Family::Road => {
                let side = 1usize << (scale / 2);
                let cfg = RoadConfig {
                    width: side,
                    height: side,
                    seed: 0x20AD,
                    max_weight: max_weight.max(1),
                    ..RoadConfig::default()
                };
                Dataset {
                    spec: *self,
                    num_vertices: cfg.num_vertices(),
                    edges: cfg.generate(),
                    root: self.root,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table3() {
        assert_eq!(TABLE3.len(), 11);
        let tt = by_abbr("TT").unwrap();
        assert_eq!(tt.name, "Twitter-2010");
        assert!(!tt.temporal);
        assert_eq!(tt.root, 0);
        assert!((tt.edge_factor() - 35.25).abs() < 0.1);
        assert!(by_abbr("XX").is_none());
    }

    #[test]
    fn generation_preserves_edge_factor() {
        let d = by_abbr("WK").unwrap().generate(10, 0);
        assert_eq!(d.num_vertices, 1024);
        let factor = d.edges.len() as f64 / d.num_vertices as f64;
        assert!((factor - by_abbr("WK").unwrap().edge_factor()).abs() < 0.5);
    }

    #[test]
    fn road_dataset_uses_grid() {
        let d = by_abbr("RD").unwrap().generate(10, 8);
        assert_eq!(d.num_vertices, 1024); // 32×32
        let factor = d.edges.len() as f64 / d.num_vertices as f64;
        assert!(factor < 6.0, "road graphs have bounded degree");
    }

    #[test]
    fn weighted_generation() {
        let d = by_abbr("PH").unwrap().generate(8, 100);
        assert!(d.edges.iter().all(|&(_, _, w)| (1..=100).contains(&w)));
    }
}
