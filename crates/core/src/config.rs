//! Algorithm configuration.

/// How a document's candidate assignment is scored (paper §4.3 step 1).
///
/// The paper says a document is "assigned to the cluster of which the
/// increase of intra-cluster similarity is the largest", while the
/// convergence criterion is defined on the clustering index
/// `G = Σ_p |C_p|·avg_sim(C_p)` (eq. 17). The two readings of "increase":
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Criterion {
    /// Δ = `avg_sim(C ∪ {d}) − avg_sim(C)`, the literal reading. A document
    /// joins only if its mean similarity to the members *exceeds* the
    /// current intra-cluster average — extremely conservative; clusters stay
    /// tight and small and many documents land in the outlier list.
    AvgSim,
    /// Δ = `|C∪{d}|·avg_sim(C∪{d}) − |C|·avg_sim(C)`, the increase of the
    /// cluster's G-term — a greedy ascent of the index the algorithm's own
    /// convergence test is defined on (join iff mean similarity to members
    /// exceeds *half* the current average). This reading grows clusters the
    /// way the paper's reported cluster sizes require, and is the default.
    #[default]
    GTerm,
}

/// Configuration of the extended K-means (§4.3) and the incremental driver
/// (§5.2).
#[derive(Debug, Clone)]
pub struct ClusteringConfig {
    /// Number of clusters K. The paper uses K = 32 (Experiment 1) and
    /// K = 24 (Experiment 2).
    pub k: usize,
    /// Convergence constant δ: terminate when `(G_new − G_old)/G_old < δ`.
    pub delta: f64,
    /// Hard cap on repetition-process iterations (safety net; the paper's
    /// criterion normally fires first).
    pub max_iters: usize,
    /// RNG seed for the random selection of initial documents.
    pub seed: u64,
    /// Keep a cluster's last member in place instead of re-evaluating it
    /// (prevents cluster death during the online repetition process; the
    /// paper implicitly maintains K clusters). Disable for the ablation.
    pub keep_last_member: bool,
    /// The assignment criterion (see [`Criterion`]).
    pub criterion: Criterion,
    /// How many shards of a [`crate::ShardedPipeline`] run at once: `0` =
    /// all hardware threads, `1` = sequential. Nothing else in the pipeline
    /// reads it: within a shard the φ build, the statistics rebuild and the
    /// extended K-means (sequential by the paper's definition) run on one
    /// thread, so one shard is single-threaded at any value. The
    /// clustering, its statistics, and the iteration count are
    /// bit-identical for any value — see `nidc-parallel` for the contract.
    pub threads: usize,
}

impl Default for ClusteringConfig {
    fn default() -> Self {
        Self {
            k: 24,
            delta: 1e-3,
            max_iters: 30,
            seed: 19980104,
            keep_last_member: true,
            criterion: Criterion::GTerm,
            threads: 0,
        }
    }
}

impl ClusteringConfig {
    /// The paper's Experiment 1 setting (K = 32).
    pub fn experiment1() -> Self {
        Self {
            k: 32,
            ..Self::default()
        }
    }

    /// The paper's Experiment 2 setting (K = 24).
    pub fn experiment2() -> Self {
        Self {
            k: 24,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        assert_eq!(ClusteringConfig::experiment1().k, 32);
        assert_eq!(ClusteringConfig::experiment2().k, 24);
    }

    #[test]
    fn default_is_sane() {
        let c = ClusteringConfig::default();
        assert!(c.k > 0);
        assert!(c.delta > 0.0);
        assert!(c.max_iters > 0);
        assert!(c.keep_last_member);
    }
}
