//! Site→shard partitioning for the sharded parallel sweep driver.
//!
//! A sharded sweep (see `bench::shard`) runs one independent overlay
//! timeline per shard; a shard owns whole *sites* (all clusters of a site
//! stay together, so intra-site traffic never crosses a shard boundary).
//! [`ShardPlan::partition`] assigns sites to shards deterministically:
//!
//! * the submitter site (`nancy`, when present) always lands in shard 0,
//!   so shard 0's testbed boots exactly like the sequential one;
//! * the remaining sites are taken in [`crate::sites::SITE_ORDER`] order
//!   and each goes to the currently least-loaded shard (by total cores,
//!   ties to the lowest shard index) — a greedy core-balance that keeps
//!   per-shard work comparable without any randomness.
//!
//! With one shard the plan is the identity: every cluster spec, in input
//! order, in shard 0.  That is what lets the sharded driver reproduce the
//! sequential sweep bit-for-bit at `shards == 1`.

use crate::sites::ClusterSpec;

/// A deterministic assignment of sites (and their clusters) to shards.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Cluster specs per shard, preserving the input spec order within a
    /// shard.
    shards: Vec<Vec<ClusterSpec>>,
    /// `(site name, shard index)` in first-appearance order.
    site_shard: Vec<(String, usize)>,
}

impl ShardPlan {
    /// Partitions `specs` into `shards` site-aligned, core-balanced shards.
    /// Deterministic in its inputs; see the module docs for the rules.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds the number of distinct sites
    /// (an empty shard would have no testbed to run).
    pub fn partition(specs: &[ClusterSpec], shards: usize) -> Self {
        assert!(shards > 0, "a sweep needs at least one shard");
        // Distinct sites in first-appearance order, with their core totals.
        let mut sites: Vec<(&str, usize)> = Vec::new();
        for spec in specs {
            match sites.iter_mut().find(|(name, _)| *name == spec.site) {
                Some((_, cores)) => *cores += spec.cores,
                None => sites.push((spec.site, spec.cores)),
            }
        }
        assert!(
            shards <= sites.len(),
            "{shards} shards over {} sites would leave a shard empty",
            sites.len()
        );
        let mut shard_cores = vec![0usize; shards];
        let mut site_shard: Vec<(String, usize)> = Vec::new();
        // The submitter site anchors shard 0.
        if let Some(pos) = sites.iter().position(|(name, _)| *name == "nancy") {
            let (name, cores) = sites.remove(pos);
            shard_cores[0] += cores;
            site_shard.push((name.to_string(), 0));
        }
        for (name, cores) in sites {
            let lightest = shard_cores
                .iter()
                .enumerate()
                .min_by_key(|&(i, &c)| (c, i))
                .map(|(i, _)| i)
                .expect("shards > 0");
            shard_cores[lightest] += cores;
            site_shard.push((name.to_string(), lightest));
        }
        let mut plan = ShardPlan {
            shards: vec![Vec::new(); shards],
            site_shard,
        };
        for spec in specs {
            let shard = plan
                .shard_of_site(spec.site)
                .expect("every spec's site was assigned");
            plan.shards[shard].push(*spec);
        }
        plan
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The cluster specs assigned to `shard`, in input order.
    pub fn specs_for(&self, shard: usize) -> &[ClusterSpec] {
        &self.shards[shard]
    }

    /// The shard owning `site`, if the site exists in the plan.
    pub fn shard_of_site(&self, site: &str) -> Option<usize> {
        self.site_shard
            .iter()
            .find(|(name, _)| name == site)
            .map(|&(_, shard)| shard)
    }

    /// Total cores per shard (the balance the greedy assignment optimised).
    pub fn cores_per_shard(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|specs| specs.iter().map(|s| s.cores).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::TABLE1;

    #[test]
    fn one_shard_is_the_identity() {
        let plan = ShardPlan::partition(TABLE1, 1);
        assert_eq!(plan.shard_count(), 1);
        assert_eq!(plan.specs_for(0), TABLE1);
        assert_eq!(plan.shard_of_site("nancy"), Some(0));
        assert_eq!(plan.cores_per_shard(), vec![1040]);
    }

    #[test]
    fn nancy_anchors_shard_zero_and_sites_stay_whole() {
        for shards in 2..=6 {
            let plan = ShardPlan::partition(TABLE1, shards);
            assert_eq!(plan.shard_count(), shards);
            assert_eq!(plan.shard_of_site("nancy"), Some(0), "{shards} shards");
            // Every cluster of a site lands in that site's shard.
            for spec in TABLE1 {
                let shard = plan.shard_of_site(spec.site).unwrap();
                assert!(
                    plan.specs_for(shard).contains(spec),
                    "{} missing from shard {shard} of {shards}",
                    spec.cluster
                );
            }
            // No shard is empty, and nothing is lost or duplicated.
            let total: usize = (0..shards).map(|s| plan.specs_for(s).len()).sum();
            assert_eq!(total, TABLE1.len(), "{shards} shards");
            assert!((0..shards).all(|s| !plan.specs_for(s).is_empty()));
        }
    }

    #[test]
    fn four_shards_balance_cores_within_reason() {
        let plan = ShardPlan::partition(TABLE1, 4);
        let cores = plan.cores_per_shard();
        assert_eq!(cores.iter().sum::<usize>(), 1040);
        // Greedy balance: no shard holds more than half the grid.
        assert!(*cores.iter().max().unwrap() <= 520, "{cores:?}");
        assert!(*cores.iter().min().unwrap() >= 64, "{cores:?}");
    }

    #[test]
    fn partition_is_deterministic() {
        let a = ShardPlan::partition(TABLE1, 3);
        let b = ShardPlan::partition(TABLE1, 3);
        assert_eq!(a.site_shard, b.site_shard);
        for s in 0..3 {
            assert_eq!(a.specs_for(s), b.specs_for(s));
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn more_shards_than_sites_panics() {
        ShardPlan::partition(TABLE1, 7);
    }
}
