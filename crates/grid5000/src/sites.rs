//! Static description of the Grid'5000 resources used in the paper.
//!
//! This is Table 1 ("Characteristics of available computing resources at the
//! different sites") plus the round-trip times to the Nancy submitter quoted
//! in the legends of Figures 2 and 3, and the link capacities given in
//! Section 5 ("the bandwidth between sites is 10 Gbps everywhere except the
//! link to Bordeaux which is at 1 Gbps").

/// One row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Grid'5000 site name.
    pub site: &'static str,
    /// Cluster name.
    pub cluster: &'static str,
    /// CPU model.
    pub cpu_model: &'static str,
    /// Number of nodes (hosts).
    pub nodes: usize,
    /// Total CPU sockets.
    pub cpus: usize,
    /// Total cores.
    pub cores: usize,
    /// Estimated per-core rate in operations per second (not in the paper;
    /// derived from the CPU model's clock so that relative speeds are
    /// plausible — absolute times are not expected to match 2008 hardware).
    pub(crate) ops_per_core: f64,
}

impl ClusterSpec {
    /// Cores per node.
    pub(crate) const fn cores_per_node(&self) -> usize {
        self.cores / self.nodes
    }

    /// CPU sockets per node.
    pub(crate) const fn cpus_per_node(&self) -> usize {
        self.cpus / self.nodes
    }
}

/// Table 1 of the paper, verbatim.
pub const TABLE1: &[ClusterSpec] = &[
    ClusterSpec {
        site: "nancy",
        cluster: "grelon",
        cpu_model: "Intel Xeon 5110",
        nodes: 60,
        cpus: 120,
        cores: 240,
        ops_per_core: 1.6e9,
    },
    ClusterSpec {
        site: "lyon",
        cluster: "capricorn",
        cpu_model: "AMD Opteron 246",
        nodes: 50,
        cpus: 100,
        cores: 100,
        ops_per_core: 2.0e9,
    },
    ClusterSpec {
        site: "rennes",
        cluster: "paravent",
        cpu_model: "AMD Opteron 246",
        nodes: 90,
        cpus: 180,
        cores: 180,
        ops_per_core: 2.0e9,
    },
    ClusterSpec {
        site: "bordeaux",
        cluster: "bordereau",
        cpu_model: "AMD Opteron 2218",
        nodes: 60,
        cpus: 120,
        cores: 240,
        ops_per_core: 2.6e9,
    },
    ClusterSpec {
        site: "grenoble",
        cluster: "idpot",
        cpu_model: "Intel Xeon IA32",
        nodes: 8,
        cpus: 16,
        cores: 16,
        ops_per_core: 1.5e9,
    },
    ClusterSpec {
        site: "grenoble",
        cluster: "idcalc",
        cpu_model: "Intel Itanium 2",
        nodes: 12,
        cpus: 24,
        cores: 48,
        ops_per_core: 1.5e9,
    },
    ClusterSpec {
        site: "sophia",
        cluster: "azur",
        cpu_model: "AMD Opteron 246",
        nodes: 32,
        cpus: 64,
        cores: 64,
        ops_per_core: 2.0e9,
    },
    ClusterSpec {
        site: "sophia",
        cluster: "sol",
        cpu_model: "AMD Opteron 2218",
        nodes: 38,
        cpus: 76,
        cores: 152,
        ops_per_core: 2.6e9,
    },
];

/// Site names in the order the paper lists them (submitter site first, then
/// by ascending RTT to Nancy).
pub const SITE_ORDER: &[&str] = &["nancy", "lyon", "rennes", "bordeaux", "grenoble", "sophia"];

/// Round-trip time from the Nancy submitter to each site, in milliseconds,
/// as printed in the Figure 2/3 legends.  The Nancy entry is the intra-site
/// RTT.
pub const RTT_TO_NANCY_MS: &[(&str, f64)] = &[
    ("nancy", 0.087),
    ("lyon", 10.576),
    ("rennes", 11.612),
    ("bordeaux", 12.674),
    ("grenoble", 13.204),
    ("sophia", 17.167),
];

/// WAN bandwidth in bits per second between two sites: 10 Gbps everywhere,
/// 1 Gbps on any link involving Bordeaux.
pub(crate) fn wan_bandwidth_bps(site_a: &str, site_b: &str) -> f64 {
    if site_a == "bordeaux" || site_b == "bordeaux" {
        1e9
    } else {
        10e9
    }
}

/// RTT to Nancy for a given site, in milliseconds.
fn rtt_to_nancy_ms(site: &str) -> Option<f64> {
    RTT_TO_NANCY_MS
        .iter()
        .find(|(s, _)| *s == site)
        .map(|&(_, ms)| ms)
}

/// Estimated RTT between two arbitrary sites, in milliseconds.
///
/// The paper only reports RTTs to Nancy.  The French research backbone of
/// the period was close to a star, so the estimate used here is the larger of
/// the two legs to Nancy — good enough to keep "remote" clearly separated
/// from "local", which is all the experiments depend on.
pub(crate) fn rtt_between_ms(site_a: &str, site_b: &str) -> Option<f64> {
    if site_a == site_b {
        return Some(0.087);
    }
    let a = rtt_to_nancy_ms(site_a)?;
    let b = rtt_to_nancy_ms(site_b)?;
    if site_a == "nancy" {
        return Some(b);
    }
    if site_b == "nancy" {
        return Some(a);
    }
    Some(a.max(b))
}

/// Table 1 with every cluster's node count multiplied by `factor` (per-node
/// shape, CPU models, link specs unchanged).
///
/// The paper's grid tops out at 1040 cores, which caps honest Figure 4 runs
/// at a few hundred ranks; the analytical collective model
/// (`p2pmpi_mpi::model`) has no such limit, so sweep-scale modeled
/// experiments run on a "what if every site were k× larger" grid that keeps
/// the published per-core rates, RTTs and bandwidths.
pub fn scaled_table1(factor: usize) -> Vec<ClusterSpec> {
    assert!(factor >= 1, "the scale factor must be >= 1");
    TABLE1
        .iter()
        .map(|spec| ClusterSpec {
            nodes: spec.nodes * factor,
            cpus: spec.cpus * factor,
            cores: spec.cores * factor,
            ..*spec
        })
        .collect()
}

/// [`scaled_table1`] with the per-core rates *skewed*: the CPU heterogeneity
/// of Table 1 amplified so that the booking order (ascending RTT from the
/// Nancy submitter) anti-correlates with compute speed — Nancy's grelon
/// nodes run at half their Table-1 rate while the far Bordeaux/Sophia
/// Opteron 2218 clusters run half again faster.
///
/// This is a synthetic stress grid, not a paper artefact: on it, both fixed
/// strategies are provably poor for compute-bound kernels (concentrate
/// fills the slow-but-close Nancy nodes first, spread deals one rank to
/// every slow host it walks past), so it is where a model-driven placement
/// *search* must beat best-of(concentrate, spread) by a clear margin —
/// `p2pmpi_bench::search`'s `search_beats_both_baselines_on_the_skewed_grid`
/// test asserts >3% here.
/// Node shapes, RTTs and bandwidths are unchanged.
pub fn skewed_table1(factor: usize) -> Vec<ClusterSpec> {
    scaled_table1(factor)
        .into_iter()
        .map(|spec| ClusterSpec {
            ops_per_core: match spec.site {
                "nancy" => spec.ops_per_core * 0.5,
                "grenoble" => spec.ops_per_core * 0.8,
                _ if spec.cpu_model.contains("2218") => spec.ops_per_core * 1.5,
                _ => spec.ops_per_core,
            },
            ..spec
        })
        .collect()
}

/// The smallest factor for [`scaled_table1`] such that the grid holds at
/// least `cores` cores.
pub fn scale_factor_for_cores(cores: usize) -> usize {
    let (_, base) = totals();
    cores.div_ceil(base).max(1)
}

/// Totals over Table 1: (hosts, cores).
pub fn totals() -> (usize, usize) {
    TABLE1
        .iter()
        .fold((0, 0), |(h, c), spec| (h + spec.nodes, c + spec.cores))
}

/// Per-site totals: (hosts, cores), in [`SITE_ORDER`] order.
pub(crate) fn totals_by_site() -> Vec<(&'static str, usize, usize)> {
    SITE_ORDER
        .iter()
        .map(|&site| {
            let (h, c) = TABLE1
                .iter()
                .filter(|s| s.site == site)
                .fold((0, 0), |(h, c), s| (h + s.nodes, c + s.cores));
            (site, h, c)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper_totals() {
        // Figure legends: 350 hosts, 1040 cores overall.
        assert_eq!(totals(), (350, 1040));
        let by_site = totals_by_site();
        assert_eq!(by_site[0], ("nancy", 60, 240));
        assert_eq!(by_site[1], ("lyon", 50, 100));
        assert_eq!(by_site[2], ("rennes", 90, 180));
        assert_eq!(by_site[3], ("bordeaux", 60, 240));
        assert_eq!(by_site[4], ("grenoble", 20, 64));
        assert_eq!(by_site[5], ("sophia", 70, 216));
    }

    #[test]
    fn cores_and_cpus_per_node_are_integral() {
        for spec in TABLE1 {
            assert_eq!(spec.cores % spec.nodes, 0, "{}", spec.cluster);
            assert_eq!(spec.cpus % spec.nodes, 0, "{}", spec.cluster);
            assert!(spec.cores_per_node() >= 1);
            assert!(spec.cpus_per_node() >= 1);
        }
        // Spot-check the per-node shapes quoted in the text (dual-CPU nodes,
        // grelon/bordereau/sol/idcalc are 4-core nodes).
        let grelon = &TABLE1[0];
        assert_eq!(grelon.cores_per_node(), 4);
        let capricorn = &TABLE1[1];
        assert_eq!(capricorn.cores_per_node(), 2);
    }

    #[test]
    fn rtt_ranking_matches_the_paper() {
        let mut sites: Vec<&str> = SITE_ORDER.to_vec();
        sites.sort_by(|a, b| {
            rtt_to_nancy_ms(a)
                .unwrap()
                .partial_cmp(&rtt_to_nancy_ms(b).unwrap())
                .unwrap()
        });
        assert_eq!(
            sites,
            vec!["nancy", "lyon", "rennes", "bordeaux", "grenoble", "sophia"]
        );
        assert_eq!(rtt_to_nancy_ms("mars"), None);
    }

    #[test]
    fn scaled_table1_multiplies_nodes_only() {
        let doubled = scaled_table1(2);
        assert_eq!(doubled.len(), TABLE1.len());
        for (orig, scaled) in TABLE1.iter().zip(&doubled) {
            assert_eq!(scaled.nodes, orig.nodes * 2);
            assert_eq!(scaled.cores, orig.cores * 2);
            assert_eq!(scaled.cores_per_node(), orig.cores_per_node());
            assert_eq!(scaled.cpus_per_node(), orig.cpus_per_node());
            assert_eq!(scaled.ops_per_core, orig.ops_per_core);
        }
        assert_eq!(scale_factor_for_cores(1), 1);
        assert_eq!(scale_factor_for_cores(1040), 1);
        assert_eq!(scale_factor_for_cores(1041), 2);
        assert_eq!(scale_factor_for_cores(4096), 4);
    }

    #[test]
    fn skewed_table1_widens_heterogeneity_only() {
        let skewed = skewed_table1(2);
        let plain = scaled_table1(2);
        assert_eq!(skewed.len(), plain.len());
        for (s, p) in skewed.iter().zip(&plain) {
            assert_eq!(s.nodes, p.nodes);
            assert_eq!(s.cores, p.cores);
            assert_eq!(s.cores_per_node(), p.cores_per_node());
        }
        // Nancy halved, the Opteron 2218 clusters (bordereau, sol) boosted.
        assert_eq!(skewed[0].site, "nancy");
        assert_eq!(skewed[0].ops_per_core, plain[0].ops_per_core * 0.5);
        let sol = skewed.iter().find(|s| s.cluster == "sol").unwrap();
        assert_eq!(sol.ops_per_core, 2.6e9 * 1.5);
        // The fast/slow spread is what makes fixed strategies beatable.
        let max = skewed.iter().map(|s| s.ops_per_core).fold(0.0, f64::max);
        let min = skewed
            .iter()
            .map(|s| s.ops_per_core)
            .fold(f64::INFINITY, f64::min);
        assert!(max / min > 4.0, "skew too weak: {max} / {min}");
    }

    #[test]
    fn bordeaux_links_are_slower() {
        assert_eq!(wan_bandwidth_bps("nancy", "bordeaux"), 1e9);
        assert_eq!(wan_bandwidth_bps("bordeaux", "sophia"), 1e9);
        assert_eq!(wan_bandwidth_bps("nancy", "lyon"), 10e9);
    }

    #[test]
    fn inter_site_rtt_estimates_are_sane() {
        assert_eq!(rtt_between_ms("nancy", "lyon"), Some(10.576));
        assert_eq!(rtt_between_ms("lyon", "nancy"), Some(10.576));
        assert_eq!(rtt_between_ms("lyon", "lyon"), Some(0.087));
        // Star estimate: the larger leg.
        assert_eq!(rtt_between_ms("lyon", "sophia"), Some(17.167));
        assert_eq!(rtt_between_ms("unknown", "lyon"), None);
    }
}
