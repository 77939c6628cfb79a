//! Pipeline persistence: snapshot and restore a running [`NoveltyPipeline`]
//! — repository, configuration, and the previous clustering's assignment
//! (the warm-start state of §5.2) — so an on-line clustering service can
//! survive restarts without replaying its history.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use nidc_forgetting::RepositoryState;
use nidc_textproc::DocId;

use crate::config::Criterion;
use crate::lineage::LineageState;
use crate::{ClusteringConfig, Error, NoveltyPipeline, Result, ShardedPipeline};

/// The sharded checkpoint format version this build reads and writes.
/// Bumped on any incompatible change to [`ShardedPipelineState`]; loading a
/// state with a different version fails with
/// [`Error::StateVersionMismatch`] instead of misinterpreting the bytes.
pub const SHARDED_STATE_VERSION: u32 = 1;

/// Serialisable form of [`ClusteringConfig`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConfigState {
    /// K.
    pub k: usize,
    /// Convergence constant δ.
    pub delta: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// RNG seed.
    pub seed: u64,
    /// Keep-last-member behaviour.
    pub keep_last_member: bool,
    /// `"g_term"` or `"avg_sim"`.
    pub criterion: String,
}

impl From<&ClusteringConfig> for ConfigState {
    fn from(c: &ClusteringConfig) -> Self {
        Self {
            k: c.k,
            delta: c.delta,
            max_iters: c.max_iters,
            seed: c.seed,
            keep_last_member: c.keep_last_member,
            criterion: match c.criterion {
                Criterion::GTerm => "g_term".to_owned(),
                Criterion::AvgSim => "avg_sim".to_owned(),
            },
        }
    }
}

impl From<&ConfigState> for ClusteringConfig {
    fn from(s: &ConfigState) -> Self {
        Self {
            k: s.k,
            delta: s.delta,
            max_iters: s.max_iters,
            seed: s.seed,
            keep_last_member: s.keep_last_member,
            criterion: if s.criterion == "avg_sim" {
                Criterion::AvgSim
            } else {
                Criterion::GTerm
            },
            // threads is a property of the host, not of the clustering
            // (results are bit-identical for any value), so it is not
            // persisted; restored pipelines use the default.
            threads: ClusteringConfig::default().threads,
        }
    }
}

/// The complete serialisable state of a [`NoveltyPipeline`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineState {
    /// The repository (documents, clock, decay parameters).
    pub repository: RepositoryState,
    /// The clustering configuration.
    pub config: ConfigState,
    /// The previous clustering's assignment (`doc id → cluster index`),
    /// used to warm-start the next re-clustering.
    pub previous_assignment: Option<Vec<(u64, usize)>>,
    /// The lineage tracker's state, so persistent lineage ids survive
    /// save → load → resume. `None` in checkpoints written before lineage
    /// tracking existed (missing fields deserialise as `None`) or when the
    /// tracker had observed no window yet.
    pub lineage: Option<LineageState>,
}

/// One shard's persisted state: its repository and its warm-start
/// assignment. The shard's index is its position in
/// [`ShardedPipelineState::shard_states`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardState {
    /// The shard's repository (documents, clock, decay parameters).
    pub repository: RepositoryState,
    /// The shard's previous clustering assignment (`doc id → local cluster
    /// index`), used to warm-start its next re-clustering.
    pub previous_assignment: Option<Vec<(u64, usize)>>,
}

/// The complete serialisable state of a [`ShardedPipeline`]: the shard
/// topology plus every shard's state. The router is a pure function of the
/// shard count, so persisting `shards` is enough to restore identical
/// routing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardedPipelineState {
    /// Format version ([`SHARDED_STATE_VERSION`]).
    pub version: u32,
    /// The shard count (must equal `shard_states.len()`).
    pub shards: usize,
    /// The clustering configuration (shared by every shard).
    pub config: ConfigState,
    /// Per-shard states, in shard-index order.
    pub shard_states: Vec<ShardState>,
    /// The top-level lineage tracker's state (over merged/stitched cluster
    /// ids). Additive and optional, so version-1 checkpoints from before
    /// lineage tracking still load (missing fields deserialise as `None`).
    pub lineage: Option<LineageState>,
}

impl NoveltyPipeline {
    /// Captures the pipeline's full state (repository + config + warm-start
    /// assignment). The last clustering *result* object is not persisted —
    /// re-clustering after a restore reproduces it.
    pub fn to_state(&self) -> PipelineState {
        PipelineState {
            repository: self.repository().to_state(),
            config: ConfigState::from(self.config()),
            previous_assignment: self
                .previous_assignment()
                .map(|m| m.iter().map(|(&d, &p)| (d.0, p)).collect()),
            lineage: self.lineage_state(),
        }
    }

    /// Restores a pipeline from a captured state.
    ///
    /// # Errors
    /// Propagates repository-restore failures (invalid parameters,
    /// duplicate documents, …).
    pub fn from_state(state: &PipelineState) -> Result<NoveltyPipeline> {
        let repo = nidc_forgetting::Repository::from_state(&state.repository)?;
        let config = ClusteringConfig::from(&state.config);
        let previous: Option<BTreeMap<DocId, usize>> = state
            .previous_assignment
            .as_ref()
            .map(|v| v.iter().map(|&(d, p)| (DocId(d), p)).collect());
        let mut pipeline = NoveltyPipeline::from_parts(repo, config, previous);
        if let Some(lineage) = &state.lineage {
            pipeline.restore_lineage_state(lineage);
        }
        Ok(pipeline)
    }

    /// Serialises the pipeline state as JSON.
    pub fn save_json<W: std::io::Write>(&self, writer: W) -> std::io::Result<()> {
        serde_json::to_writer(writer, &self.to_state()).map_err(std::io::Error::from)
    }

    /// Restores a pipeline from JSON written by
    /// [`NoveltyPipeline::save_json`].
    pub fn load_json<R: std::io::Read>(reader: R) -> std::io::Result<NoveltyPipeline> {
        let state: PipelineState = serde_json::from_reader(reader)?;
        NoveltyPipeline::from_state(&state)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

impl ShardedPipeline {
    /// Captures the sharded pipeline's full state: topology (shard count),
    /// shared configuration, and every shard's repository + warm-start
    /// assignment.
    pub fn to_state(&self) -> ShardedPipelineState {
        ShardedPipelineState {
            version: SHARDED_STATE_VERSION,
            shards: self.num_shards(),
            config: ConfigState::from(self.config()),
            shard_states: self
                .shards()
                .iter()
                .map(|s| ShardState {
                    repository: s.repository().to_state(),
                    previous_assignment: s
                        .pipeline()
                        .previous_assignment()
                        .map(|m| m.iter().map(|(&d, &p)| (d.0, p)).collect()),
                })
                .collect(),
            lineage: self.lineage_state(),
        }
    }

    /// Restores a sharded pipeline from a captured state.
    ///
    /// # Errors
    /// [`Error::StateVersionMismatch`] if the state was written by an
    /// incompatible format version, [`Error::ShardCountMismatch`] if the
    /// declared topology disagrees with the per-shard states carried, plus
    /// any repository-restore failure.
    pub fn from_state(state: &ShardedPipelineState) -> Result<ShardedPipeline> {
        if state.version != SHARDED_STATE_VERSION {
            return Err(Error::StateVersionMismatch {
                found: state.version,
                expected: SHARDED_STATE_VERSION,
            });
        }
        if state.shards != state.shard_states.len() {
            return Err(Error::ShardCountMismatch {
                declared: state.shards,
                found: state.shard_states.len(),
            });
        }
        let config = ClusteringConfig::from(&state.config);
        let pipelines = state
            .shard_states
            .iter()
            .map(|s| {
                let repo = nidc_forgetting::Repository::from_state(&s.repository)?;
                let previous: Option<BTreeMap<DocId, usize>> = s
                    .previous_assignment
                    .as_ref()
                    .map(|v| v.iter().map(|&(d, p)| (DocId(d), p)).collect());
                Ok(NoveltyPipeline::from_parts(repo, config.clone(), previous))
            })
            .collect::<Result<Vec<_>>>()?;
        let mut sharded = ShardedPipeline::from_shard_pipelines(pipelines, config)?;
        if let Some(lineage) = &state.lineage {
            sharded.restore_lineage_state(lineage);
        }
        Ok(sharded)
    }

    /// Serialises the sharded pipeline state as JSON.
    pub fn save_json<W: std::io::Write>(&self, writer: W) -> std::io::Result<()> {
        serde_json::to_writer(writer, &self.to_state()).map_err(std::io::Error::from)
    }

    /// Restores a sharded pipeline from JSON.
    ///
    /// Accepts both the sharded format (written by
    /// [`ShardedPipeline::save_json`]) and the legacy single-pipeline format
    /// (written by [`NoveltyPipeline::save_json`]), which loads as a
    /// one-shard pipeline — the migration path for checkpoints that predate
    /// sharding.
    pub fn load_json<R: std::io::Read>(reader: R) -> std::io::Result<ShardedPipeline> {
        let value: serde_json::Value = serde_json::from_reader(reader)?;
        let invalid = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
        if value.get("shard_states").is_some() {
            let state: ShardedPipelineState =
                serde_json::from_value(value).map_err(std::io::Error::from)?;
            ShardedPipeline::from_state(&state).map_err(|e| invalid(e.to_string()))
        } else {
            let state: PipelineState =
                serde_json::from_value(value).map_err(std::io::Error::from)?;
            let pipeline =
                NoveltyPipeline::from_state(&state).map_err(|e| invalid(e.to_string()))?;
            let config = pipeline.config().clone();
            let mut sharded = ShardedPipeline::from_shard_pipelines(vec![pipeline], config)
                .map_err(|e| invalid(e.to_string()))?;
            // A single pipeline's lineage keys are already shard-0 global
            // ids, so the one-shard migration continues the same lineages.
            if let Some(lineage) = &state.lineage {
                sharded.restore_lineage_state(lineage);
            }
            Ok(sharded)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nidc_forgetting::{DecayParams, Timestamp};
    use nidc_textproc::{SparseVector, TermId};

    fn tf(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_entries(pairs.iter().map(|&(i, w)| (TermId(i), w)).collect())
    }

    fn running_pipeline() -> NoveltyPipeline {
        let decay = DecayParams::from_spans(7.0, 21.0).unwrap();
        let config = ClusteringConfig {
            k: 2,
            seed: 1,
            ..ClusteringConfig::default()
        };
        let mut p = NoveltyPipeline::new(decay, config);
        for i in 0..4u64 {
            p.ingest(
                DocId(i),
                Timestamp(0.1 * i as f64),
                tf(&[(0, 3.0), (1, 1.0 + i as f64 * 0.1)]),
            )
            .unwrap();
        }
        for i in 4..8u64 {
            p.ingest(
                DocId(i),
                Timestamp(0.1 * i as f64),
                tf(&[(7, 3.0), (8, 1.0 + i as f64 * 0.1)]),
            )
            .unwrap();
        }
        p.recluster_incremental().unwrap();
        p
    }

    #[test]
    fn pipeline_roundtrip_preserves_clustering_behaviour() {
        let mut original = running_pipeline();
        let mut buf = Vec::new();
        original.save_json(&mut buf).unwrap();
        let mut restored = NoveltyPipeline::load_json(buf.as_slice()).unwrap();

        assert_eq!(restored.repository().len(), original.repository().len());
        assert_eq!(restored.config().k, original.config().k);

        // both continue identically: same ingest, same re-clustering
        for p in [&mut original, &mut restored] {
            p.ingest(DocId(100), Timestamp(1.0), tf(&[(0, 2.0), (1, 2.0)]))
                .unwrap();
        }
        let a = original.recluster_incremental().unwrap();
        let b = restored.recluster_incremental().unwrap();
        assert_eq!(a.member_lists(), b.member_lists());
        assert_eq!(a.outliers(), b.outliers());
        assert!((a.g() - b.g()).abs() < 1e-12);
    }

    #[test]
    fn config_state_roundtrip_both_criteria() {
        for criterion in [Criterion::GTerm, Criterion::AvgSim] {
            let config = ClusteringConfig {
                k: 5,
                delta: 0.01,
                max_iters: 9,
                seed: 77,
                keep_last_member: false,
                criterion,
                threads: 3,
            };
            let back = ClusteringConfig::from(&ConfigState::from(&config));
            assert_eq!(back.k, 5);
            assert_eq!(back.delta, 0.01);
            assert_eq!(back.max_iters, 9);
            assert_eq!(back.seed, 77);
            assert!(!back.keep_last_member);
            assert_eq!(back.criterion, criterion);
            // threads is a host property, deliberately not persisted
            assert_eq!(back.threads, ClusteringConfig::default().threads);
        }
    }

    #[test]
    fn fresh_pipeline_roundtrips_without_assignment() {
        let decay = DecayParams::from_spans(7.0, 14.0).unwrap();
        let p = NoveltyPipeline::new(decay, ClusteringConfig::default());
        let state = p.to_state();
        assert!(state.previous_assignment.is_none());
        let restored = NoveltyPipeline::from_state(&state).unwrap();
        assert!(restored.repository().is_empty());
    }

    #[test]
    fn corrupt_state_is_rejected() {
        assert!(NoveltyPipeline::load_json(&b"[]"[..]).is_err());
        assert!(ShardedPipeline::load_json(&b"[]"[..]).is_err());
    }

    fn running_sharded(shards: usize) -> ShardedPipeline {
        let decay = DecayParams::from_spans(7.0, 21.0).unwrap();
        let config = ClusteringConfig {
            k: 2,
            seed: 1,
            ..ClusteringConfig::default()
        };
        let mut p = ShardedPipeline::new(decay, config, shards).unwrap();
        for i in 0..4u64 {
            p.ingest(
                DocId(i),
                Timestamp(0.1 * i as f64),
                tf(&[(0, 3.0), (1, 1.0 + i as f64 * 0.1)]),
            )
            .unwrap();
        }
        for i in 4..8u64 {
            p.ingest(
                DocId(i),
                Timestamp(0.1 * i as f64),
                tf(&[(7, 3.0), (8, 1.0 + i as f64 * 0.1)]),
            )
            .unwrap();
        }
        p.recluster_incremental().unwrap();
        p
    }

    #[test]
    fn sharded_roundtrip_preserves_topology_and_warm_start() {
        let mut original = running_sharded(3);
        let mut buf = Vec::new();
        original.save_json(&mut buf).unwrap();
        let mut restored = ShardedPipeline::load_json(buf.as_slice()).unwrap();

        assert_eq!(restored.num_shards(), 3);
        assert_eq!(restored.num_docs(), original.num_docs());
        // warm-start state survives per shard
        for (a, b) in original.shards().iter().zip(restored.shards()) {
            assert_eq!(
                a.pipeline().previous_assignment(),
                b.pipeline().previous_assignment()
            );
        }
        // both continue identically
        for p in [&mut original, &mut restored] {
            p.ingest(DocId(100), Timestamp(1.0), tf(&[(0, 2.0), (1, 2.0)]))
                .unwrap();
        }
        let a = original.recluster_incremental().unwrap();
        let b = restored.recluster_incremental().unwrap();
        assert_eq!(a.member_lists(), b.member_lists());
        assert_eq!(a.outliers(), b.outliers());
        assert_eq!(a.g().to_bits(), b.g().to_bits());
    }

    #[test]
    fn sharded_state_version_bump_is_rejected() {
        let p = running_sharded(2);
        let mut state = p.to_state();
        state.version = SHARDED_STATE_VERSION + 1;
        match ShardedPipeline::from_state(&state) {
            Err(Error::StateVersionMismatch { found, expected }) => {
                assert_eq!(found, SHARDED_STATE_VERSION + 1);
                assert_eq!(expected, SHARDED_STATE_VERSION);
            }
            other => panic!("expected StateVersionMismatch, got {other:?}"),
        }
        // the JSON path surfaces the same failure as InvalidData
        let mut json = Vec::new();
        serde_json::to_writer(&mut json, &state).unwrap();
        let err = ShardedPipeline::load_json(json.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn sharded_state_topology_mismatch_is_rejected() {
        let p = running_sharded(2);
        let mut state = p.to_state();
        state.shard_states.pop();
        assert!(matches!(
            ShardedPipeline::from_state(&state),
            Err(Error::ShardCountMismatch {
                declared: 2,
                found: 1
            })
        ));
    }

    #[test]
    fn legacy_unsharded_checkpoint_loads_as_one_shard() {
        let mut single = running_pipeline();
        let mut buf = Vec::new();
        single.save_json(&mut buf).unwrap();
        let mut sharded = ShardedPipeline::load_json(buf.as_slice()).unwrap();

        assert_eq!(sharded.num_shards(), 1);
        assert_eq!(sharded.num_docs(), single.repository().len());
        // the migrated pipeline continues exactly like the original
        single
            .ingest(DocId(100), Timestamp(1.0), tf(&[(0, 2.0), (1, 2.0)]))
            .unwrap();
        sharded
            .ingest(DocId(100), Timestamp(1.0), tf(&[(0, 2.0), (1, 2.0)]))
            .unwrap();
        let a = single.recluster_incremental().unwrap();
        let b = sharded.recluster_incremental().unwrap();
        assert_eq!(a.member_lists(), b.member_lists());
        assert_eq!(a.outliers().to_vec(), b.outliers());
    }
}
