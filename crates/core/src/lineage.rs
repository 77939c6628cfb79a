//! Cluster lineage tracking across consecutive re-clusterings.
//!
//! A re-clustering replaces the whole clustering object, so K-slot indices
//! (and [`GlobalClusterId`]s) carry no identity *between* windows: slot 3
//! today and slot 3 tomorrow may hold unrelated topics. The
//! [`LineageTracker`] restores that identity. After every re-clustering it
//! matches the new clusters against the previous window's clusters and
//! assigns each a **persistent lineage id** that survives as long as the
//! underlying topic does — across incremental re-clusterings, cross-shard
//! stitching, and checkpoint save/load.
//!
//! # Matching rule
//!
//! Candidate pairs `(previous cluster, current cluster)` are scored by the
//! normalized representative similarity
//! `cr_sim(a,b) / √(cr_sim(a,a)·cr_sim(b,b))` — the same eq. 21/25
//! machinery the stitcher uses — and matched greedily one-to-one in
//! descending score order. Ties break on member overlap (descending), then
//! on `(previous index, current index)` so the matching is deterministic.
//! Only pairs with positive similarity are candidates.
//!
//! # Event classification
//!
//! With the matching fixed, every cluster's fate is one typed event:
//!
//! * matched current cluster → [`Continuation`](LifecycleEvent::Continuation)
//!   carrying **drift** (1 − normalized rep similarity vs the previous
//!   window) and membership churn (`joined`/`left` counts);
//! * unmatched current cluster that inherited ≥ 1 member from some previous
//!   cluster → [`Split`](LifecycleEvent::Split) (new lineage, parent
//!   recorded, `from_parent` = members inherited from the largest donor);
//! * unmatched current cluster with no inherited members →
//!   [`Birth`](LifecycleEvent::Birth);
//! * unmatched previous cluster whose members flowed into current clusters →
//!   [`Merge`](LifecycleEvent::Merge) into the largest recipient, then
//!   [`Death`](LifecycleEvent::Death) with cause `absorbed`;
//! * unmatched previous cluster none of whose members remain in the current
//!   universe (clusters ∪ outlier list) → `Death` with cause `expired` —
//!   documents only leave the repository through forgetting-driven expiry,
//!   so absence means the forgetting model reclaimed them. A dead cluster
//!   whose members survive *only* on the outlier list is reported as
//!   `absorbed` (its documents live on) without a `merge` companion event.
//!
//! Per-document deltas ride along: a document whose cluster *lineage*
//! changed emits [`Moved`](LifecycleEvent::Moved), one demoted to the
//! outlier list emits [`Outliered`](LifecycleEvent::Outliered).
//!
//! # Determinism contract
//!
//! The tracker is a pure observer: it reads finished clusterings and never
//! feeds anything back into the algorithm, so clustering results are
//! bit-identical whether lineage tracking, metrics, or the event stream are
//! on or off (`tests/obs_determinism.rs`). The tracker itself always runs —
//! lineage ids are pipeline state and must stay continuous across windows
//! where no consumer happened to be attached — but event *serialisation* is
//! gated on [`nidc_obs::events::enabled`] and gauge computation on
//! [`nidc_obs::enabled`], so the disabled cost per window is two relaxed
//! loads plus the matching itself.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use nidc_obs::{self as obs, LazyCounter, LazyFloatGauge};
use nidc_similarity::ClusterRep;
use nidc_textproc::{DocId, TermId};

use crate::merge::GlobalClusterId;
use crate::{Clustering, Error, Result};

static LIFECYCLE_BIRTHS: LazyCounter = LazyCounter::new("nidc_lifecycle_births_total");
static LIFECYCLE_DEATHS: LazyCounter = LazyCounter::new("nidc_lifecycle_deaths_total");
static LIFECYCLE_SPLITS: LazyCounter = LazyCounter::new("nidc_lifecycle_splits_total");
static LIFECYCLE_MERGES: LazyCounter = LazyCounter::new("nidc_lifecycle_merges_total");
static LIFECYCLE_DRIFT_MAX: LazyFloatGauge = LazyFloatGauge::new("nidc_lifecycle_drift_max");
static QUALITY_COHESION: LazyFloatGauge = LazyFloatGauge::new("nidc_quality_cohesion");
static QUALITY_SEPARATION: LazyFloatGauge = LazyFloatGauge::new("nidc_quality_separation");
static QUALITY_NOVELTY_RATE: LazyFloatGauge = LazyFloatGauge::new("nidc_quality_novelty_rate");
static QUALITY_OUTLIER_RATE: LazyFloatGauge = LazyFloatGauge::new("nidc_quality_outlier_rate");
static QUALITY_CHURN_RATE: LazyFloatGauge = LazyFloatGauge::new("nidc_quality_churn_rate");

/// Registers every lifecycle counter and quality gauge (at zero) so that
/// metric snapshots taken before the first re-clustering — and the metrics
/// manifest check — see the full set. Called at tracker construction,
/// following the registration-at-construction pattern of
/// `register_sharded_metrics`.
pub(crate) fn register_lifecycle_metrics() {
    LIFECYCLE_BIRTHS.add(0);
    LIFECYCLE_DEATHS.add(0);
    LIFECYCLE_SPLITS.add(0);
    LIFECYCLE_MERGES.add(0);
    LIFECYCLE_DRIFT_MAX.touch();
    QUALITY_COHESION.touch();
    QUALITY_SEPARATION.touch();
    QUALITY_NOVELTY_RATE.touch();
    QUALITY_OUTLIER_RATE.touch();
    QUALITY_CHURN_RATE.touch();
}

/// Why a lineage ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeathCause {
    /// Every member left the repository through forgetting-driven expiry.
    Expired,
    /// The members live on — in other clusters (see the paired
    /// [`LifecycleEvent::Merge`]) or on the outlier list.
    Absorbed,
}

impl DeathCause {
    fn as_str(self) -> &'static str {
        match self {
            DeathCause::Expired => "expired",
            DeathCause::Absorbed => "absorbed",
        }
    }
}

/// One typed lifecycle event, produced by [`LineageTracker::observe`].
///
/// `window` is the 0-based re-clustering index at which the event was
/// observed; `lineage` ids are persistent across windows (and checkpoints).
#[derive(Debug, Clone, PartialEq)]
pub enum LifecycleEvent {
    /// A cluster with no ancestor appeared.
    Birth {
        /// Observation window.
        window: u64,
        /// The newly assigned lineage id.
        lineage: u64,
        /// The cluster's id in this window's clustering.
        cluster: GlobalClusterId,
        /// Member count.
        size: usize,
    },
    /// A lineage ended.
    Death {
        /// Observation window.
        window: u64,
        /// The ended lineage.
        lineage: u64,
        /// Why it ended.
        cause: DeathCause,
        /// Member count in its final window.
        last_size: usize,
    },
    /// A previous cluster matched a current one: the lineage continues.
    Continuation {
        /// Observation window.
        window: u64,
        /// The continuing lineage.
        lineage: u64,
        /// The cluster's id in this window's clustering.
        cluster: GlobalClusterId,
        /// Member count this window.
        size: usize,
        /// `1 −` normalized representative similarity vs the previous
        /// window, clamped to `[0, 1]`. 0 = identical topic vector.
        drift: f64,
        /// Members present now that were not members last window.
        joined: usize,
        /// Members present last window that are gone now.
        left: usize,
    },
    /// An unmatched cluster that inherited members from a surviving parent.
    Split {
        /// Observation window.
        window: u64,
        /// The newly assigned lineage id.
        lineage: u64,
        /// The lineage of the largest donor of members.
        parent: u64,
        /// The cluster's id in this window's clustering.
        cluster: GlobalClusterId,
        /// Member count.
        size: usize,
        /// Members inherited from `parent`.
        from_parent: usize,
    },
    /// A dying cluster's members flowed into another lineage.
    Merge {
        /// Observation window.
        window: u64,
        /// The lineage being absorbed (its `Death` follows).
        absorbed: u64,
        /// The absorbing lineage (largest recipient of members).
        into: u64,
        /// Members the absorber received from the absorbed cluster.
        from_absorbed: usize,
    },
    /// A document's cluster lineage changed between windows.
    Moved {
        /// Observation window.
        window: u64,
        /// The document.
        doc: DocId,
        /// Lineage it belonged to last window.
        from: u64,
        /// Lineage it belongs to now.
        to: u64,
    },
    /// A previously clustered document fell to the outlier list.
    Outliered {
        /// Observation window.
        window: u64,
        /// The document.
        doc: DocId,
        /// Lineage it belonged to last window.
        from: u64,
    },
}

impl LifecycleEvent {
    /// Serialises the event as one single-line JSON object (the wire format
    /// of the `--events` stream, schema `nidc-events` v1).
    pub fn to_json_line(&self) -> String {
        match self {
            LifecycleEvent::Birth {
                window,
                lineage,
                cluster,
                size,
            } => format!(
                "{{\"kind\":\"birth\",\"window\":{window},\"lineage\":{lineage},\
                 \"cluster\":\"{cluster}\",\"size\":{size}}}"
            ),
            LifecycleEvent::Death {
                window,
                lineage,
                cause,
                last_size,
            } => format!(
                "{{\"kind\":\"death\",\"window\":{window},\"lineage\":{lineage},\
                 \"cause\":\"{}\",\"last_size\":{last_size}}}",
                cause.as_str()
            ),
            LifecycleEvent::Continuation {
                window,
                lineage,
                cluster,
                size,
                drift,
                joined,
                left,
            } => format!(
                "{{\"kind\":\"continuation\",\"window\":{window},\"lineage\":{lineage},\
                 \"cluster\":\"{cluster}\",\"size\":{size},\"drift\":{drift},\
                 \"joined\":{joined},\"left\":{left}}}"
            ),
            LifecycleEvent::Split {
                window,
                lineage,
                parent,
                cluster,
                size,
                from_parent,
            } => format!(
                "{{\"kind\":\"split\",\"window\":{window},\"lineage\":{lineage},\
                 \"parent\":{parent},\"cluster\":\"{cluster}\",\"size\":{size},\
                 \"from_parent\":{from_parent}}}"
            ),
            LifecycleEvent::Merge {
                window,
                absorbed,
                into,
                from_absorbed,
            } => format!(
                "{{\"kind\":\"merge\",\"window\":{window},\"absorbed\":{absorbed},\
                 \"into\":{into},\"from_absorbed\":{from_absorbed}}}"
            ),
            LifecycleEvent::Moved {
                window,
                doc,
                from,
                to,
            } => format!(
                "{{\"kind\":\"moved\",\"window\":{window},\"doc\":{},\"from\":{from},\
                 \"to\":{to}}}",
                doc.0
            ),
            LifecycleEvent::Outliered { window, doc, from } => format!(
                "{{\"kind\":\"outliered\",\"window\":{window},\"doc\":{},\"from\":{from}}}",
                doc.0
            ),
        }
    }
}

/// A borrowed view of one current-window cluster, the tracker's input shape.
/// Unsharded pipelines pass `shard = 0` slots; sharded pipelines pass
/// merged — and, when stitching is active, *stitched* — cluster ids, so a
/// cross-shard stitch reads as one continuing lineage instead of a
/// death + birth pair.
#[derive(Debug, Clone, Copy)]
pub struct ObservedCluster<'a> {
    /// The cluster's stable id within this window.
    pub id: GlobalClusterId,
    /// Member document ids, ascending.
    pub members: &'a [DocId],
    /// The cluster representative with cached statistics.
    pub rep: &'a ClusterRep,
}

/// One previous-window cluster the tracker remembers.
#[derive(Debug, Clone)]
struct LineageSlot {
    lineage: u64,
    key: GlobalClusterId,
    /// Sorted ascending.
    members: Vec<DocId>,
    rep: ClusterRep,
}

/// Serialisable form of one remembered cluster (a `LineageSlot`). The
/// representative is persisted **verbatim** — entries in ascending term
/// order plus the cached `size`, `cr_sim(c,c)` and `ss` statistics — and
/// restored through [`ClusterRep::from_parts`] without recomputation, so a
/// restored tracker scores candidate pairs bit-identically to the
/// uninterrupted run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LineageSlotState {
    /// Persistent lineage id.
    pub lineage: u64,
    /// Owning shard of the cluster's id last window.
    pub shard: usize,
    /// Local slot of the cluster's id last window.
    pub local: usize,
    /// Member document ids, ascending.
    pub members: Vec<u64>,
    /// Representative entries `(term id, weight)`, ascending term order.
    pub rep_entries: Vec<(u32, f64)>,
    /// Cached member count of the representative.
    pub rep_size: usize,
    /// Cached `cr_sim(c, c)`.
    pub rep_cr_self: f64,
    /// Cached sum of member self-similarities `ss`.
    pub rep_ss: f64,
}

/// The complete serialisable state of a [`LineageTracker`], embedded in
/// pipeline checkpoints so lineage ids survive save → load → resume.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LineageState {
    /// Next lineage id to assign.
    pub next_lineage: u64,
    /// Next observation window index.
    pub window: u64,
    /// Every document alive last window (clustered or outliered), ascending.
    pub universe: Vec<u64>,
    /// Previous-window clusters in observation order.
    pub slots: Vec<LineageSlotState>,
}

/// Matches clusters across consecutive re-clusterings and classifies what
/// happened to each (see the module docs for the rule).
#[derive(Debug, Clone)]
pub struct LineageTracker {
    next_lineage: u64,
    window: u64,
    prev: Vec<LineageSlot>,
    prev_universe: BTreeSet<DocId>,
}

impl Default for LineageTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl LineageTracker {
    /// A tracker with no history; the first observed window is window 0 and
    /// every cluster in it is a [`LifecycleEvent::Birth`].
    pub fn new() -> Self {
        register_lifecycle_metrics();
        Self {
            next_lineage: 0,
            window: 0,
            prev: Vec::new(),
            prev_universe: BTreeSet::new(),
        }
    }

    /// Windows observed so far (also the index the *next* observation gets).
    pub fn windows_observed(&self) -> u64 {
        self.window
    }

    /// The lineage id currently assigned to cluster `id`, if `id` was a
    /// non-empty cluster in the last observed window.
    pub fn lineage_of(&self, id: GlobalClusterId) -> Option<u64> {
        self.prev.iter().find(|s| s.key == id).map(|s| s.lineage)
    }

    /// `(cluster id, lineage id)` for every cluster of the last observed
    /// window, in observation order.
    pub fn current_lineages(&self) -> Vec<(GlobalClusterId, u64)> {
        self.prev.iter().map(|s| (s.key, s.lineage)).collect()
    }

    /// Observes an unsharded [`Clustering`] (cluster ids become
    /// `shard 0` [`GlobalClusterId`]s, matching what a one-shard
    /// `ShardedPipeline` produces).
    pub fn observe_clustering(&mut self, clustering: &Clustering) -> Vec<LifecycleEvent> {
        let observed: Vec<ObservedCluster<'_>> = clustering
            .clusters()
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_empty())
            .map(|(local, c)| ObservedCluster {
                id: GlobalClusterId { shard: 0, local },
                members: c.members(),
                rep: c.rep(),
            })
            .collect();
        self.observe(&observed, clustering.outliers(), clustering.g())
    }

    /// Observes one re-clustering: matches `clusters` against the previous
    /// window, classifies lifecycle events, samples the
    /// `nidc_lifecycle_*`/`nidc_quality_*` metrics, emits the events to the
    /// active `--events` stream (if any), and advances the tracker's state.
    ///
    /// `clusters` must be the window's **non-empty** clusters; `outliers`
    /// the window's outlier list; `g` the clustering index (eq. 17) used
    /// for the cohesion gauge. Returns the events in emission order.
    pub fn observe(
        &mut self,
        clusters: &[ObservedCluster<'_>],
        outliers: &[DocId],
        g: f64,
    ) -> Vec<LifecycleEvent> {
        let window = self.window;

        let outlier_set: BTreeSet<DocId> = outliers.iter().copied().collect();
        let mut universe: BTreeSet<DocId> = outlier_set.clone();
        for c in clusters {
            universe.extend(c.members.iter().copied());
        }

        // Previous ownership and member flows between windows.
        let mut prev_owner: BTreeMap<DocId, usize> = BTreeMap::new();
        for (i, slot) in self.prev.iter().enumerate() {
            for &d in &slot.members {
                prev_owner.insert(d, i);
            }
        }
        let mut overlap: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        let mut cur_owner: BTreeMap<DocId, usize> = BTreeMap::new();
        for (j, c) in clusters.iter().enumerate() {
            for &d in c.members {
                cur_owner.insert(d, j);
                if let Some(&i) = prev_owner.get(&d) {
                    *overlap.entry((i, j)).or_insert(0) += 1;
                }
            }
        }

        // Candidate scores: normalized cr_sim, positive pairs only.
        let mut candidates: Vec<(f64, usize, usize, usize)> = Vec::new();
        for (i, slot) in self.prev.iter().enumerate() {
            for (j, c) in clusters.iter().enumerate() {
                let denom = slot.rep.cr_self() * c.rep.cr_self();
                if denom <= 0.0 {
                    continue;
                }
                let sim = slot.rep.dot_rep(c.rep) / denom.sqrt();
                if sim > 0.0 {
                    let ov = overlap.get(&(i, j)).copied().unwrap_or(0);
                    candidates.push((sim, ov, i, j));
                }
            }
        }
        candidates.sort_by(|a, b| {
            b.0.total_cmp(&a.0)
                .then(b.1.cmp(&a.1))
                .then(a.2.cmp(&b.2))
                .then(a.3.cmp(&b.3))
        });

        // Greedy one-to-one matching.
        let mut prev_match: Vec<Option<usize>> = vec![None; self.prev.len()];
        let mut cur_match: Vec<Option<usize>> = vec![None; clusters.len()];
        let mut cur_sim: Vec<f64> = vec![0.0; clusters.len()];
        for &(sim, _, i, j) in &candidates {
            if prev_match[i].is_none() && cur_match[j].is_none() {
                prev_match[i] = Some(j);
                cur_match[j] = Some(i);
                cur_sim[j] = sim;
            }
        }

        let mut events = Vec::new();
        let mut cur_lineage: Vec<u64> = vec![0; clusters.len()];
        let mut drift_max = 0.0f64;

        // Continuations, in current order.
        for (j, c) in clusters.iter().enumerate() {
            if let Some(i) = cur_match[j] {
                let slot = &self.prev[i];
                cur_lineage[j] = slot.lineage;
                let joined = c
                    .members
                    .iter()
                    .filter(|d| slot.members.binary_search(d).is_err())
                    .count();
                let left = slot
                    .members
                    .iter()
                    .filter(|d| c.members.binary_search(d).is_err())
                    .count();
                let drift = (1.0 - cur_sim[j]).clamp(0.0, 1.0);
                drift_max = drift_max.max(drift);
                events.push(LifecycleEvent::Continuation {
                    window,
                    lineage: slot.lineage,
                    cluster: c.id,
                    size: c.members.len(),
                    drift,
                    joined,
                    left,
                });
            }
        }

        // Births and splits for unmatched current clusters, ids assigned in
        // current order so the numbering is deterministic.
        let mut births = 0u64;
        let mut splits = 0u64;
        for (j, c) in clusters.iter().enumerate() {
            if cur_match[j].is_some() {
                continue;
            }
            let lineage = self.next_lineage;
            self.next_lineage += 1;
            cur_lineage[j] = lineage;
            // Largest donor of members, ties to the lowest previous index.
            let mut parent: Option<(usize, usize)> = None; // (count, i)
            for i in 0..self.prev.len() {
                if let Some(&n) = overlap.get(&(i, j)) {
                    if parent.is_none_or(|(best, _)| n > best) {
                        parent = Some((n, i));
                    }
                }
            }
            match parent {
                Some((from_parent, i)) => {
                    splits += 1;
                    events.push(LifecycleEvent::Split {
                        window,
                        lineage,
                        parent: self.prev[i].lineage,
                        cluster: c.id,
                        size: c.members.len(),
                        from_parent,
                    });
                }
                None => {
                    births += 1;
                    events.push(LifecycleEvent::Birth {
                        window,
                        lineage,
                        cluster: c.id,
                        size: c.members.len(),
                    });
                }
            }
        }

        // Merges and deaths for unmatched previous clusters.
        let mut merges = 0u64;
        let mut deaths = 0u64;
        for (i, slot) in self.prev.iter().enumerate() {
            if prev_match[i].is_some() {
                continue;
            }
            deaths += 1;
            // Largest recipient among current clusters, ties to the lowest
            // current index.
            let mut absorber: Option<(usize, usize)> = None; // (count, j)
            for j in 0..clusters.len() {
                if let Some(&n) = overlap.get(&(i, j)) {
                    if absorber.is_none_or(|(best, _)| n > best) {
                        absorber = Some((n, j));
                    }
                }
            }
            let cause = match absorber {
                Some((from_absorbed, j)) => {
                    merges += 1;
                    events.push(LifecycleEvent::Merge {
                        window,
                        absorbed: slot.lineage,
                        into: cur_lineage[j],
                        from_absorbed,
                    });
                    DeathCause::Absorbed
                }
                None if slot.members.iter().any(|d| universe.contains(d)) => {
                    // Survivors sit on the outlier list only: the documents
                    // live on but no cluster absorbed them.
                    DeathCause::Absorbed
                }
                None => DeathCause::Expired,
            };
            events.push(LifecycleEvent::Death {
                window,
                lineage: slot.lineage,
                cause,
                last_size: slot.members.len(),
            });
        }

        // Per-document deltas and churn.
        let mut moved = 0usize;
        let mut outliered = 0usize;
        let mut surviving = 0usize;
        for (&d, &i) in &prev_owner {
            let from = self.prev[i].lineage;
            if let Some(&j) = cur_owner.get(&d) {
                surviving += 1;
                if cur_lineage[j] != from {
                    moved += 1;
                    events.push(LifecycleEvent::Moved {
                        window,
                        doc: d,
                        from,
                        to: cur_lineage[j],
                    });
                }
            } else if outlier_set.contains(&d) {
                surviving += 1;
                outliered += 1;
                events.push(LifecycleEvent::Outliered {
                    window,
                    doc: d,
                    from,
                });
            }
            // else: expired — covered by the Death{expired}/expiry counters.
        }

        // Lifecycle counters (internally gated) and quality gauges (guarded
        // here because separation is an O(k²) rep-similarity scan).
        LIFECYCLE_BIRTHS.add(births);
        LIFECYCLE_DEATHS.add(deaths);
        LIFECYCLE_SPLITS.add(splits);
        LIFECYCLE_MERGES.add(merges);
        LIFECYCLE_DRIFT_MAX.set(drift_max);
        if obs::enabled() {
            // G over Σ ss(C_p): φ scales cancel, and each cluster's G-term
            // is at most its ss (Cauchy–Schwarz), so this lies in [0, 1].
            let ss: f64 = clusters.iter().map(|c| c.rep.ss()).sum();
            QUALITY_COHESION.set(if ss > 0.0 { g / ss } else { 0.0 });
            let assigned: usize = clusters.iter().map(|c| c.members.len()).sum();
            QUALITY_SEPARATION.set(separation(clusters));
            let novel = universe.difference(&self.prev_universe).count();
            let novelty_rate = if universe.is_empty() {
                0.0
            } else {
                novel as f64 / universe.len() as f64
            };
            QUALITY_NOVELTY_RATE.set(novelty_rate);
            let total = assigned + outliers.len();
            let outlier_rate = if total > 0 {
                outliers.len() as f64 / total as f64
            } else {
                0.0
            };
            QUALITY_OUTLIER_RATE.set(outlier_rate);
            let churn_rate = if surviving > 0 {
                (moved + outliered) as f64 / surviving as f64
            } else {
                0.0
            };
            QUALITY_CHURN_RATE.set(churn_rate);
        }

        if nidc_obs::events::enabled() {
            for e in &events {
                nidc_obs::events::emit_line(&e.to_json_line());
            }
        }

        // Advance.
        self.prev = clusters
            .iter()
            .enumerate()
            .map(|(j, c)| {
                let mut members = c.members.to_vec();
                members.sort_unstable();
                LineageSlot {
                    lineage: cur_lineage[j],
                    key: c.id,
                    members,
                    rep: c.rep.clone(),
                }
            })
            .collect();
        self.prev_universe = universe;
        self.window += 1;
        events
    }

    /// Captures the tracker's state for checkpointing.
    pub fn to_state(&self) -> LineageState {
        LineageState {
            next_lineage: self.next_lineage,
            window: self.window,
            universe: self.prev_universe.iter().map(|d| d.0).collect(),
            slots: self
                .prev
                .iter()
                .map(|s| {
                    let mut rep_entries = Vec::with_capacity(s.rep.nnz());
                    s.rep.for_each_entry(|t, w| rep_entries.push((t.0, w)));
                    LineageSlotState {
                        lineage: s.lineage,
                        shard: s.key.shard,
                        local: s.key.local,
                        members: s.members.iter().map(|d| d.0).collect(),
                        rep_entries,
                        rep_size: s.rep.size(),
                        rep_cr_self: s.rep.cr_self(),
                        rep_ss: s.rep.ss(),
                    }
                })
                .collect(),
        }
    }

    /// Restores a tracker from a checkpointed state. Representatives are
    /// rebuilt verbatim (no recomputation), so the restored tracker matches
    /// the uninterrupted run bit for bit.
    ///
    /// # Errors
    /// [`Error::MalformedLineageSlot`] if a slot's representative term ids
    /// or its members are not strictly ascending — the order every
    /// merge-join over them relies on.
    pub fn from_state(state: &LineageState) -> Result<Self> {
        let prev = state
            .slots
            .iter()
            .enumerate()
            .map(|(slot, s)| {
                if !strictly_ascending(s.rep_entries.iter().map(|&(t, _)| u64::from(t))) {
                    return Err(Error::MalformedLineageSlot {
                        slot,
                        field: "rep_entries",
                    });
                }
                if !strictly_ascending(s.members.iter().copied()) {
                    return Err(Error::MalformedLineageSlot {
                        slot,
                        field: "members",
                    });
                }
                let entries = s.rep_entries.iter().map(|&(t, w)| (TermId(t), w)).collect();
                Ok(LineageSlot {
                    lineage: s.lineage,
                    key: GlobalClusterId {
                        shard: s.shard,
                        local: s.local,
                    },
                    members: s.members.iter().map(|&d| DocId(d)).collect(),
                    rep: ClusterRep::from_parts(entries, s.rep_size, s.rep_cr_self, s.rep_ss),
                })
            })
            .collect::<Result<Vec<_>>>()?;
        register_lifecycle_metrics();
        Ok(Self {
            next_lineage: state.next_lineage,
            window: state.window,
            prev,
            prev_universe: state.universe.iter().map(|&d| DocId(d)).collect(),
        })
    }
}

/// Whether `ids` is strictly ascending (no repeats).
fn strictly_ascending(ids: impl IntoIterator<Item = u64>) -> bool {
    let mut last = None;
    ids.into_iter().all(|id| last.replace(id) < Some(id))
}

/// `1 −` the maximum pairwise normalized rep similarity between distinct
/// clusters; 1.0 for fewer than two clusters. Higher = better separated.
fn separation(clusters: &[ObservedCluster<'_>]) -> f64 {
    let mut max_sim = 0.0f64;
    for (a_idx, a) in clusters.iter().enumerate() {
        for b in clusters.iter().skip(a_idx + 1) {
            let denom = a.rep.cr_self() * b.rep.cr_self();
            if denom <= 0.0 {
                continue;
            }
            max_sim = max_sim.max(a.rep.dot_rep(b.rep) / denom.sqrt());
        }
    }
    (1.0 - max_sim).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built representative whose entries act as plain vectors:
    /// `cr_self` is the self dot product, so normalized similarities are
    /// ordinary cosines.
    fn rep(entries: &[(u32, f64)], size: usize) -> ClusterRep {
        let cr_self: f64 = entries.iter().map(|&(_, w)| w * w).sum();
        ClusterRep::from_parts(
            entries.iter().map(|&(t, w)| (TermId(t), w)).collect(),
            size,
            cr_self,
            0.0,
        )
    }

    fn docs(ids: &[u64]) -> Vec<DocId> {
        ids.iter().map(|&d| DocId(d)).collect()
    }

    fn gid(local: usize) -> GlobalClusterId {
        GlobalClusterId { shard: 0, local }
    }

    #[test]
    fn first_window_is_all_births_with_sequential_lineages() {
        let mut t = LineageTracker::new();
        let ra = rep(&[(0, 2.0)], 2);
        let rb = rep(&[(5, 3.0)], 1);
        let ma = docs(&[1, 2]);
        let mb = docs(&[3]);
        let events = t.observe(
            &[
                ObservedCluster {
                    id: gid(0),
                    members: &ma,
                    rep: &ra,
                },
                ObservedCluster {
                    id: gid(1),
                    members: &mb,
                    rep: &rb,
                },
            ],
            &[],
            1.0,
        );
        assert_eq!(
            events,
            vec![
                LifecycleEvent::Birth {
                    window: 0,
                    lineage: 0,
                    cluster: gid(0),
                    size: 2
                },
                LifecycleEvent::Birth {
                    window: 0,
                    lineage: 1,
                    cluster: gid(1),
                    size: 1
                },
            ]
        );
        assert_eq!(t.lineage_of(gid(0)), Some(0));
        assert_eq!(t.lineage_of(gid(1)), Some(1));
        assert_eq!(t.windows_observed(), 1);
    }

    #[test]
    fn continuation_tracks_drift_and_churn_even_across_slot_moves() {
        let mut t = LineageTracker::new();
        let r0 = rep(&[(0, 1.0), (1, 1.0)], 3);
        let m0 = docs(&[1, 2, 3]);
        t.observe(
            &[ObservedCluster {
                id: gid(0),
                members: &m0,
                rep: &r0,
            }],
            &[],
            1.0,
        );
        // Same topic, different K-slot, one member swapped for another.
        let r1 = rep(&[(0, 1.0), (1, 0.5)], 3);
        let m1 = docs(&[1, 2, 9]);
        let events = t.observe(
            &[ObservedCluster {
                id: gid(2),
                members: &m1,
                rep: &r1,
            }],
            &[],
            1.0,
        );
        match &events[0] {
            LifecycleEvent::Continuation {
                window,
                lineage,
                cluster,
                size,
                drift,
                joined,
                left,
            } => {
                assert_eq!((*window, *lineage, *cluster, *size), (1, 0, gid(2), 3));
                assert_eq!((*joined, *left), (1, 1));
                // cos between (1,1) and (1,0.5) ≈ 0.9487 → drift ≈ 0.0513
                assert!(*drift > 0.0 && *drift < 0.1, "drift {drift}");
            }
            other => panic!("expected continuation, got {other:?}"),
        }
        assert_eq!(events.len(), 1, "no birth/death for a slot move");
        assert_eq!(t.lineage_of(gid(2)), Some(0));
    }

    #[test]
    fn split_assigns_new_lineage_and_records_parent_flow() {
        let mut t = LineageTracker::new();
        let r0 = rep(&[(0, 2.0), (7, 2.0)], 4);
        let m0 = docs(&[1, 2, 3, 4]);
        t.observe(
            &[ObservedCluster {
                id: gid(0),
                members: &m0,
                rep: &r0,
            }],
            &[],
            1.0,
        );
        // The cluster splits along its two vocabularies.
        let ra = rep(&[(0, 2.0)], 2);
        let rb = rep(&[(7, 2.0)], 2);
        let ma = docs(&[1, 2]);
        let mb = docs(&[3, 4]);
        let events = t.observe(
            &[
                ObservedCluster {
                    id: gid(0),
                    members: &ma,
                    rep: &ra,
                },
                ObservedCluster {
                    id: gid(1),
                    members: &mb,
                    rep: &rb,
                },
            ],
            &[],
            1.0,
        );
        // One half continues the lineage (greedy best match), the other is
        // a split with the old lineage as parent.
        let continuation = events
            .iter()
            .find(|e| matches!(e, LifecycleEvent::Continuation { .. }))
            .expect("one half continues");
        let split = events
            .iter()
            .find(|e| matches!(e, LifecycleEvent::Split { .. }))
            .expect("other half splits");
        if let LifecycleEvent::Continuation { lineage, .. } = continuation {
            assert_eq!(*lineage, 0);
        }
        if let LifecycleEvent::Split {
            lineage,
            parent,
            from_parent,
            size,
            ..
        } = split
        {
            assert_eq!(*parent, 0);
            assert_eq!(*lineage, 1, "split gets a fresh lineage id");
            assert_eq!(*from_parent, 2);
            assert_eq!(*size, 2);
        }
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, LifecycleEvent::Death { .. })),
            "a split is not a death: {events:?}"
        );
        // The two moved documents (whichever half became the split) are
        // reported individually.
        let moved: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, LifecycleEvent::Moved { .. }))
            .collect();
        assert_eq!(moved.len(), 2);
    }

    #[test]
    fn merge_absorbs_lineage_and_death_cause_is_absorbed() {
        let mut t = LineageTracker::new();
        let ra = rep(&[(0, 2.0)], 2);
        let rb = rep(&[(0, 1.0), (1, 2.0)], 2);
        let ma = docs(&[1, 2]);
        let mb = docs(&[5, 6]);
        t.observe(
            &[
                ObservedCluster {
                    id: gid(0),
                    members: &ma,
                    rep: &ra,
                },
                ObservedCluster {
                    id: gid(1),
                    members: &mb,
                    rep: &rb,
                },
            ],
            &[],
            1.0,
        );
        // Both previous clusters collapse into one.
        let rm = rep(&[(0, 3.0), (1, 2.0)], 4);
        let mm = docs(&[1, 2, 5, 6]);
        let events = t.observe(
            &[ObservedCluster {
                id: gid(0),
                members: &mm,
                rep: &rm,
            }],
            &[],
            1.0,
        );
        let (mut merges, mut deaths) = (0, 0);
        for e in &events {
            match e {
                LifecycleEvent::Merge {
                    absorbed,
                    into,
                    from_absorbed,
                    ..
                } => {
                    merges += 1;
                    assert_eq!(*from_absorbed, 2);
                    // The survivor keeps its lineage; the other is absorbed
                    // into it.
                    assert!(*absorbed == 0 || *absorbed == 1);
                    assert_eq!(*into, 1 - *absorbed);
                }
                LifecycleEvent::Death { cause, .. } => {
                    deaths += 1;
                    assert_eq!(*cause, DeathCause::Absorbed);
                }
                _ => {}
            }
        }
        assert_eq!((merges, deaths), (1, 1));
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, LifecycleEvent::Birth { .. })),
            "a merge is not a birth: {events:?}"
        );
    }

    #[test]
    fn vanished_cluster_dies_expired_but_outliered_members_mean_absorbed() {
        let mut t = LineageTracker::new();
        let ra = rep(&[(0, 2.0)], 2);
        let rb = rep(&[(9, 2.0)], 2);
        let ma = docs(&[1, 2]);
        let mb = docs(&[5, 6]);
        t.observe(
            &[
                ObservedCluster {
                    id: gid(0),
                    members: &ma,
                    rep: &ra,
                },
                ObservedCluster {
                    id: gid(1),
                    members: &mb,
                    rep: &rb,
                },
            ],
            &[],
            1.0,
        );
        // Cluster 0's documents expired entirely; cluster 1's fell to the
        // outlier list.
        let events = t.observe(&[], &docs(&[5, 6]), 0.0);
        let causes: BTreeMap<u64, DeathCause> = events
            .iter()
            .filter_map(|e| match e {
                LifecycleEvent::Death { lineage, cause, .. } => Some((*lineage, *cause)),
                _ => None,
            })
            .collect();
        assert_eq!(causes.get(&0), Some(&DeathCause::Expired));
        assert_eq!(causes.get(&1), Some(&DeathCause::Absorbed));
        let outliered = events
            .iter()
            .filter(|e| matches!(e, LifecycleEvent::Outliered { .. }))
            .count();
        assert_eq!(outliered, 2);
    }

    #[test]
    fn state_roundtrip_preserves_matching_bit_for_bit() {
        let mut t = LineageTracker::new();
        let r0 = rep(&[(0, 1.5), (3, 0.25)], 3);
        let m0 = docs(&[1, 2, 3]);
        t.observe(
            &[ObservedCluster {
                id: gid(0),
                members: &m0,
                rep: &r0,
            }],
            &docs(&[9]),
            1.25,
        );

        let state = t.to_state();
        let json = serde_json::to_string(&state).unwrap();
        let back: LineageState = serde_json::from_str(&json).unwrap();
        let mut restored = LineageTracker::from_state(&back).unwrap();

        let r1 = rep(&[(0, 1.0), (3, 0.5)], 4);
        let m1 = docs(&[1, 2, 3, 9]);
        let next = [ObservedCluster {
            id: gid(1),
            members: &m1,
            rep: &r1,
        }];
        let a = t.observe(&next, &[], 2.0);
        let b = restored.observe(&next, &[], 2.0);
        assert_eq!(a, b, "restored tracker diverged");
        if let LifecycleEvent::Continuation { drift, .. } = &a[0] {
            if let LifecycleEvent::Continuation { drift: d2, .. } = &b[0] {
                assert_eq!(drift.to_bits(), d2.to_bits());
            }
        }
        assert_eq!(t.lineage_of(gid(1)), restored.lineage_of(gid(1)));
    }

    #[test]
    fn event_json_lines_are_single_line_valid_json() {
        let samples = vec![
            LifecycleEvent::Birth {
                window: 0,
                lineage: 3,
                cluster: GlobalClusterId { shard: 1, local: 2 },
                size: 5,
            },
            LifecycleEvent::Death {
                window: 2,
                lineage: 3,
                cause: DeathCause::Expired,
                last_size: 4,
            },
            LifecycleEvent::Continuation {
                window: 1,
                lineage: 3,
                cluster: GlobalClusterId { shard: 0, local: 0 },
                size: 6,
                drift: 0.125,
                joined: 2,
                left: 1,
            },
            LifecycleEvent::Split {
                window: 2,
                lineage: 9,
                parent: 3,
                cluster: GlobalClusterId { shard: 0, local: 1 },
                size: 3,
                from_parent: 3,
            },
            LifecycleEvent::Merge {
                window: 2,
                absorbed: 4,
                into: 3,
                from_absorbed: 2,
            },
            LifecycleEvent::Moved {
                window: 2,
                doc: DocId(17),
                from: 4,
                to: 3,
            },
            LifecycleEvent::Outliered {
                window: 2,
                doc: DocId(9),
                from: 4,
            },
        ];
        for e in samples {
            let line = e.to_json_line();
            assert!(!line.contains('\n'));
            let v: serde_json::Value = serde_json::from_str(&line).unwrap();
            assert!(v.get("kind").is_some(), "{line}");
            assert!(v.get("window").is_some(), "{line}");
        }
        // Exact shape of one line, consumed by check_events/inspect.
        assert_eq!(
            LifecycleEvent::Merge {
                window: 2,
                absorbed: 4,
                into: 3,
                from_absorbed: 2
            }
            .to_json_line(),
            "{\"kind\":\"merge\",\"window\":2,\"absorbed\":4,\"into\":3,\"from_absorbed\":2}"
        );
    }
}
