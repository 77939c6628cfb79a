//! Pipeline persistence: snapshot and restore a running [`ShardedPipeline`]
//! — every shard's repository and previous clustering's assignment (the
//! warm-start state of §5.2), the shared configuration, and the lineage
//! tracker — so an on-line clustering service can survive restarts without
//! replaying its history.
//!
//! [`ShardedPipelineState`] is the one format written. The older
//! single-pipeline [`PipelineState`] is still read: it loads as one shard.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use nidc_forgetting::RepositoryState;
use nidc_textproc::DocId;

use crate::config::Criterion;
use crate::lineage::{LineageState, LineageTracker};
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

/// The legacy single-pipeline checkpoint format, written before sharding
/// existed. Read-only: [`ShardedPipeline::load_json`] converts it into a
/// one-shard [`ShardedPipelineState`].
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
    /// Format version (`SHARDED_STATE_VERSION`).
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

impl From<PipelineState> for ShardedPipelineState {
    /// A single pipeline is shard 0 of a one-shard pipeline, and its
    /// lineage keys are already shard-0 global ids, so the migrated
    /// pipeline continues the same clustering and the same lineages.
    fn from(legacy: PipelineState) -> Self {
        ShardedPipelineState {
            version: SHARDED_STATE_VERSION,
            shards: 1,
            config: legacy.config,
            shard_states: vec![ShardState {
                repository: legacy.repository,
                previous_assignment: legacy.previous_assignment,
            }],
            lineage: legacy.lineage,
        }
    }
}

impl ShardedPipeline {
    /// Captures the sharded pipeline's full state: topology (shard count),
    /// shared configuration, every shard's repository + warm-start
    /// assignment, and the lineage tracker once it has observed a window.
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
            lineage: (self.lineage().windows_observed() > 0).then(|| self.lineage().to_state()),
        }
    }

    /// Restores a sharded pipeline from a captured state.
    ///
    /// # Errors
    /// [`Error::StateVersionMismatch`] if the state was written by an
    /// incompatible format version, [`Error::ShardCountMismatch`] if the
    /// declared topology disagrees with the per-shard states carried,
    /// [`Error::MalformedLineageSlot`] for a lineage slot out of order, plus
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
        let lineage = match &state.lineage {
            Some(l) => LineageTracker::from_state(l)?,
            None => LineageTracker::new(),
        };
        ShardedPipeline::from_parts(pipelines, config, lineage)
    }

    /// Serialises the sharded pipeline state as JSON.
    pub fn save_json<W: std::io::Write>(&self, writer: W) -> std::io::Result<()> {
        serde_json::to_writer(writer, &self.to_state()).map_err(std::io::Error::from)
    }

    /// Restores a sharded pipeline from JSON.
    ///
    /// Accepts both the sharded format (written by
    /// [`ShardedPipeline::save_json`]) and the legacy single-pipeline
    /// [`PipelineState`], which loads as a one-shard pipeline — the
    /// migration path for checkpoints that predate sharding.
    pub fn load_json<R: std::io::Read>(reader: R) -> std::io::Result<ShardedPipeline> {
        let value: serde_json::Value = serde_json::from_reader(reader)?;
        let state: ShardedPipelineState = if value.get("shard_states").is_some() {
            serde_json::from_value(value)?
        } else {
            serde_json::from_value::<PipelineState>(value)?.into()
        };
        ShardedPipeline::from_state(&state)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::LineageSlotState;
    use nidc_forgetting::{DecayParams, Timestamp};
    use nidc_textproc::{SparseVector, TermId};

    fn tf(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_entries(pairs.iter().map(|&(i, w)| (TermId(i), w)).collect())
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
    fn fresh_pipeline_roundtrips_without_assignment_or_lineage() {
        let decay = DecayParams::from_spans(7.0, 14.0).unwrap();
        let p = ShardedPipeline::new(decay, ClusteringConfig::default(), 1).unwrap();
        let state = p.to_state();
        assert!(state.shard_states[0].previous_assignment.is_none());
        assert!(state.lineage.is_none(), "no window observed yet");
        let restored = ShardedPipeline::from_state(&state).unwrap();
        assert!(restored.is_empty());
        assert_eq!(restored.lineage().windows_observed(), 0);
    }

    #[test]
    fn corrupt_state_is_rejected() {
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
        for shards in [1, 3] {
            let mut original = running_sharded(shards);
            let mut buf = Vec::new();
            original.save_json(&mut buf).unwrap();
            let mut restored = ShardedPipeline::load_json(buf.as_slice()).unwrap();

            assert_eq!(restored.num_shards(), shards);
            assert_eq!(restored.num_docs(), original.num_docs());
            assert_eq!(restored.config().k, original.config().k);
            // warm-start state survives per shard
            for (a, b) in original.shards().iter().zip(restored.shards()) {
                assert_eq!(
                    a.pipeline().previous_assignment(),
                    b.pipeline().previous_assignment()
                );
            }
            assert_eq!(
                restored.lineage().current_lineages(),
                original.lineage().current_lineages()
            );
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

    /// A checkpoint whose lineage slots break the ascending order every
    /// merge-join over them relies on is refused as `InvalidData` — the
    /// representative's term ids reversed or duplicated, or the members out
    /// of order — in release builds too.
    #[test]
    fn malformed_lineage_slots_are_rejected() {
        let state = running_sharded(3).to_state();
        let slots = &state.lineage.as_ref().expect("lineage observed").slots;
        let wide = slots.iter().position(|s| s.rep_entries.len() >= 2).unwrap();
        let crowded = slots.iter().position(|s| s.members.len() >= 2).unwrap();
        type Corrupt = fn(&mut LineageSlotState);
        let cases: [(&str, usize, Corrupt); 3] = [
            ("reversed rep_entries", wide, |s| s.rep_entries.reverse()),
            ("duplicated rep entry", wide, |s| {
                s.rep_entries.insert(1, s.rep_entries[0]);
            }),
            ("unsorted members", crowded, |s| s.members.swap(0, 1)),
        ];
        for (what, slot, corrupt) in cases {
            let mut bad = state.clone();
            corrupt(&mut bad.lineage.as_mut().unwrap().slots[slot]);
            assert!(
                matches!(
                    ShardedPipeline::from_state(&bad),
                    Err(Error::MalformedLineageSlot { slot: s, .. }) if s == slot
                ),
                "{what} was accepted"
            );
            let mut json = Vec::new();
            serde_json::to_writer(&mut json, &bad).unwrap();
            let err = ShardedPipeline::load_json(json.as_slice()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
        }
    }

    proptest::proptest! {
        /// A checkpoint cut short at any byte — a crash mid-write — fails
        /// to load with an error, never a panic or a half-restored pipeline.
        #[test]
        fn truncated_checkpoint_is_an_error(frac in 0.0f64..1.0) {
            let mut buf = Vec::new();
            running_sharded(3).save_json(&mut buf).unwrap();
            let cut = (frac * buf.len() as f64) as usize;
            proptest::prop_assert!(ShardedPipeline::load_json(&buf[..cut]).is_err());
        }
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
}
