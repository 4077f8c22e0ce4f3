//! Resource-owner preferences.
//!
//! The MPD acts as a *gatekeeper* of its resource: the owner configures how
//! the CPU may be shared.  Two settings drive the co-allocation behaviour
//! (Section 4.1 of the paper):
//!
//! * `J` — the number of distinct applications the node accepts to run
//!   simultaneously;
//! * `P` — the number of processes *per MPI application* the node accepts.
//!
//! The owner can also deny specific requesters outright.

use std::collections::HashSet;

/// Owner preferences enforced by the MPD/RS gatekeeper.
#[derive(Debug, Clone)]
pub struct OwnerConfig {
    /// `J`: maximum number of distinct applications accepted at once.
    pub(crate) max_apps: u32,
    /// `P`: maximum number of processes of a single application accepted.
    pub(crate) max_procs_per_app: u32,
    /// Requester addresses that are always refused.
    pub(crate) denied_addresses: HashSet<String>,
}

impl Default for OwnerConfig {
    fn default() -> Self {
        // The paper's experiment sets P to the number of cores of the host's
        // CPU and leaves J at one application at a time; keep the same
        // spirit for a generic dual-core default.
        OwnerConfig {
            max_apps: 1,
            max_procs_per_app: 2,
            denied_addresses: HashSet::new(),
        }
    }
}

impl OwnerConfig {
    /// A configuration accepting one application of at most `p` processes —
    /// the setting used throughout the paper's experiments, with `p` equal to
    /// the host's core count.
    pub fn with_procs(p: u32) -> Self {
        OwnerConfig {
            max_apps: 1,
            max_procs_per_app: p,
            denied_addresses: HashSet::new(),
        }
    }

    /// A configuration with explicit `J` and `P` values.
    #[cfg(test)]
    pub(crate) fn new(max_apps: u32, max_procs_per_app: u32) -> Self {
        OwnerConfig {
            max_apps,
            max_procs_per_app,
            denied_addresses: HashSet::new(),
        }
    }

    /// Adds an address to the deny list.
    #[cfg(test)]
    pub(crate) fn deny(&mut self, address: impl Into<String>) -> &mut Self {
        self.denied_addresses.insert(address.into());
        self
    }

    /// True if `address` is denied by this owner.
    pub(crate) fn is_denied(&self, address: &str) -> bool {
        self.denied_addresses.contains(address)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_single_app_dual_core() {
        let c = OwnerConfig::default();
        assert_eq!(c.max_apps, 1);
        assert_eq!(c.max_procs_per_app, 2);
        assert!(c.denied_addresses.is_empty());
    }

    #[test]
    fn with_procs_sets_p() {
        let c = OwnerConfig::with_procs(4);
        assert_eq!(c.max_apps, 1);
        assert_eq!(c.max_procs_per_app, 4);
    }

    #[test]
    fn deny_list_matches_exact_addresses() {
        let mut c = OwnerConfig::new(2, 1);
        c.deny("10.0.0.1:9200");
        assert!(c.is_denied("10.0.0.1:9200"));
        assert!(!c.is_denied("10.0.0.2:9200"));
    }

    #[test]
    fn paper_example_settings() {
        // "J=2 and P=1 would allow two distinct users to run simultaneously
        // one process each" / "J=1 and P=2 ... two processes of a single
        // application (often used for dual-core CPUs)".
        let two_users = OwnerConfig::new(2, 1);
        assert_eq!((two_users.max_apps, two_users.max_procs_per_app), (2, 1));
        let dual_core = OwnerConfig::new(1, 2);
        assert_eq!((dual_core.max_apps, dual_core.max_procs_per_app), (1, 2));
    }
}
