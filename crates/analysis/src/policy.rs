//! The checked-in atomic-ordering policy table.
//!
//! The ordering rule ([`crate::rules::atomics`]) accepts an `Ordering::*`
//! use in an audited module in exactly two ways: an `// ordering:` comment
//! at the use site, or a `(file, ordering)` entry here. The table is for
//! files where one argument covers *every* use — repeating the same comment
//! fourteen times next to fourteen `Relaxed` counter bumps would train
//! readers to skip ordering comments entirely. Site comments are for the
//! cases where the argument is local (a shutdown flag, a cancellation
//! token); those must stay next to the code they justify.
//!
//! Adding an entry is a reviewed change to this crate, which is the point:
//! relaxing the ordering discipline of a file leaves a diff here, not just
//! a missing comment.

/// One policy entry: every use of `ordering` in files whose workspace
/// relative path ends with `file_suffix` is pre-justified by `reason`.
#[derive(Debug, Clone, Copy)]
pub struct OrderingPolicy {
    pub file_suffix: &'static str,
    pub ordering: &'static str,
    pub reason: &'static str,
}

/// The policy table. Suffix-matched so the linter works from any checkout
/// root; orderings are the bare variant name (`Relaxed`, `SeqCst`, ...).
pub const ORDERING_POLICY: &[OrderingPolicy] = &[
    OrderingPolicy {
        file_suffix: "crates/telemetry/src/metrics.rs",
        ordering: "Relaxed",
        reason: "every atomic is an independent monotonic cell (counter, gauge, histogram shard); snapshots \
                 merge cells without inter-cell ordering requirements, so Relaxed is sufficient everywhere \
                 in this file",
    },
    OrderingPolicy {
        file_suffix: "crates/tensor/src/kernels/counters.rs",
        ordering: "Relaxed",
        reason: "each stripe cell is an independent monotonic tally and the stripe cursor only spreads threads \
                 across cells; reads sum the cells without inter-cell ordering and are exact once recorders \
                 quiesce, so Relaxed is sufficient everywhere in this file",
    },
    OrderingPolicy {
        file_suffix: "crates/faults/src/lib.rs",
        ordering: "Relaxed",
        reason: "draw counters only need each fetch_add to be atomic; rule evaluation tolerates any \
                 interleaving of concurrent draws, and determinism in tests comes from single-threaded use",
    },
];

/// Looks up the policy entry covering (`path`, `ordering`), if any.
pub fn lookup(path: &str, ordering: &str) -> Option<&'static OrderingPolicy> {
    ORDERING_POLICY.iter().find(|p| path.ends_with(p.file_suffix) && p.ordering == ordering)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_covers_telemetry_relaxed_but_not_seqcst() {
        assert!(lookup("crates/telemetry/src/metrics.rs", "Relaxed").is_some());
        assert!(lookup("crates/telemetry/src/metrics.rs", "SeqCst").is_none());
        assert!(lookup("crates/serve/src/server.rs", "Relaxed").is_none());
    }
}
