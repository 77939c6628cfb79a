//! Error type for the core clustering crate.

/// Errors raised by the clustering algorithm and pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// K was zero.
    ZeroClusters,
    /// A forgetting-model operation failed.
    Forgetting(nidc_forgetting::Error),
    /// An initial assignment referenced a cluster index ≥ K.
    InvalidInitialAssignment {
        /// The offending cluster index.
        cluster: usize,
        /// The configured K.
        k: usize,
    },
    /// A sharded pipeline was configured with zero shards.
    ZeroShards,
    /// A persisted sharded state carries an unsupported format version.
    StateVersionMismatch {
        /// The version found in the state file.
        found: u32,
        /// The version this build reads and writes.
        expected: u32,
    },
    /// A persisted sharded state's declared shard count disagrees with the
    /// number of per-shard states it actually carries.
    ShardCountMismatch {
        /// The declared shard count.
        declared: usize,
        /// The number of per-shard states present.
        found: usize,
    },
    /// A persisted lineage slot lists its representative's term ids or its
    /// member ids out of strictly ascending order.
    MalformedLineageSlot {
        /// The slot's position in the persisted lineage state.
        slot: usize,
        /// The offending field: `"rep_entries"` or `"members"`.
        field: &'static str,
    },
    /// A persisted lineage state lists its universe of live documents out
    /// of strictly ascending order.
    MalformedLineageUniverse,
    /// A stitching threshold τ was NaN or negative. NaN compares false
    /// with every `sim`, so it would merge every window into one cluster;
    /// +∞ is valid and never merges.
    InvalidStitchThreshold(f64),
    /// A persisted configuration names an assignment criterion other than
    /// `"g_term"` or `"avg_sim"`.
    UnknownCriterion(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::ZeroClusters => write!(f, "K must be at least 1"),
            Error::Forgetting(e) => write!(f, "forgetting model error: {e}"),
            Error::InvalidInitialAssignment { cluster, k } => {
                write!(f, "initial assignment uses cluster {cluster} but K = {k}")
            }
            Error::ZeroShards => write!(f, "shard count must be at least 1"),
            Error::StateVersionMismatch { found, expected } => {
                write!(
                    f,
                    "sharded state version {found} is not supported (expected {expected})"
                )
            }
            Error::ShardCountMismatch { declared, found } => {
                write!(
                    f,
                    "sharded state declares {declared} shards but carries {found} shard states"
                )
            }
            Error::MalformedLineageSlot { slot, field } => {
                write!(f, "lineage slot {slot}: {field} are not strictly ascending")
            }
            Error::MalformedLineageUniverse => {
                write!(f, "lineage universe is not strictly ascending")
            }
            Error::InvalidStitchThreshold(tau) => {
                write!(
                    f,
                    "stitch threshold must be a non-negative number, got {tau}"
                )
            }
            Error::UnknownCriterion(name) => {
                write!(f, "unknown assignment criterion {name:?}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Forgetting(e) => Some(e),
            _ => None,
        }
    }
}

impl From<nidc_forgetting::Error> for Error {
    fn from(e: nidc_forgetting::Error) -> Self {
        Error::Forgetting(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error as _;
        assert!(Error::ZeroClusters.to_string().contains("K"));
        let e = Error::from(nidc_forgetting::Error::UnknownDocument(
            nidc_textproc::DocId(1),
        ));
        assert!(e.to_string().contains("d1"));
        assert!(e.source().is_some());
        assert!(Error::ZeroClusters.source().is_none());
    }

    #[test]
    fn shard_errors_display() {
        use std::error::Error as _;
        assert!(Error::ZeroShards.to_string().contains("shard"));
        let v = Error::StateVersionMismatch {
            found: 9,
            expected: 1,
        };
        assert!(v.to_string().contains('9') && v.to_string().contains('1'));
        let c = Error::ShardCountMismatch {
            declared: 4,
            found: 2,
        };
        assert!(c.to_string().contains('4') && c.to_string().contains('2'));
        assert!(v.source().is_none());
        let t = Error::InvalidStitchThreshold(f64::NAN);
        assert!(t.to_string().contains("NaN"), "{t}");
    }
}
