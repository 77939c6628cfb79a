//! The clustering result types.

use std::collections::BTreeMap;

use nidc_obs::DeepSize;
use nidc_similarity::ClusterRep;
use nidc_textproc::DocId;

/// One cluster: its members and its maintained representative.
#[derive(Debug, Clone)]
pub struct Cluster {
    members: Vec<DocId>,
    rep: ClusterRep,
}

impl Cluster {
    pub(crate) fn new(members: Vec<DocId>, rep: ClusterRep) -> Self {
        debug_assert_eq!(members.len(), rep.size());
        Self { members, rep }
    }

    /// Member document ids, ascending.
    pub fn members(&self) -> &[DocId] {
        &self.members
    }

    /// Number of members `|C_p|`.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The cluster representative (eq. 19–20) with its cached statistics.
    pub fn rep(&self) -> &ClusterRep {
        &self.rep
    }

    /// The intra-cluster similarity `avg_sim(C_p)` (eq. 18/24).
    pub fn avg_sim(&self) -> f64 {
        self.rep.avg_sim()
    }
}

/// A complete clustering: K clusters, the outlier list, and the clustering
/// index `G` (eq. 17).
#[derive(Debug, Clone)]
pub struct Clustering {
    clusters: Vec<Cluster>,
    outliers: Vec<DocId>,
    g: f64,
    iterations: usize,
}

impl Clustering {
    pub(crate) fn new(
        clusters: Vec<Cluster>,
        outliers: Vec<DocId>,
        g: f64,
        iterations: usize,
    ) -> Self {
        Self {
            clusters,
            outliers,
            g,
            iterations,
        }
    }

    /// The clusters, including empty ones (stable K-slot indexing).
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Documents that increased no cluster's intra-cluster similarity in the
    /// final iteration (§4.3 outlier list).
    pub fn outliers(&self) -> &[DocId] {
        &self.outliers
    }

    /// The clustering index `G = Σ_p |C_p|·avg_sim(C_p)` (eq. 17).
    pub fn g(&self) -> f64 {
        self.g
    }

    /// Repetition-process iterations executed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Number of non-empty clusters.
    pub fn non_empty_clusters(&self) -> usize {
        self.clusters.iter().filter(|c| !c.is_empty()).count()
    }

    /// Total documents assigned to clusters (excludes outliers).
    pub fn assigned_docs(&self) -> usize {
        self.clusters.iter().map(Cluster::len).sum()
    }

    /// Member lists per cluster (the shape evaluation code consumes).
    pub fn member_lists(&self) -> Vec<Vec<DocId>> {
        self.clusters.iter().map(|c| c.members.clone()).collect()
    }

    /// The assignment map `DocId → cluster index` (outliers absent).
    pub fn assignment(&self) -> BTreeMap<DocId, usize> {
        let mut map = BTreeMap::new();
        for (p, c) in self.clusters.iter().enumerate() {
            for &d in &c.members {
                map.insert(d, p);
            }
        }
        map
    }
}

/// Heap bytes of a document-id list (its full buffer capacity).
pub(crate) fn doc_ids_bytes(ids: &Vec<DocId>) -> u64 {
    (ids.capacity() * std::mem::size_of::<DocId>()) as u64
}

impl DeepSize for Cluster {
    /// The member list's buffer plus the representative's heap.
    fn deep_size_bytes(&self) -> u64 {
        doc_ids_bytes(&self.members) + self.rep.deep_size_bytes()
    }
}

impl DeepSize for Clustering {
    /// Every cluster (members and representative) plus the outlier list.
    fn deep_size_bytes(&self) -> u64 {
        self.clusters.deep_size_bytes() + doc_ids_bytes(&self.outliers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nidc_textproc::{SparseVector, TermId};

    fn phi(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_entries(pairs.iter().map(|&(i, w)| (TermId(i), w)).collect())
    }

    fn sample() -> Clustering {
        let m0 = [phi(&[(0, 0.5)]), phi(&[(0, 0.4), (1, 0.1)])];
        let rep0 = ClusterRep::from_members(m0.iter());
        let c0 = Cluster::new(vec![DocId(0), DocId(1)], rep0);
        let c1 = Cluster::new(vec![], ClusterRep::new());
        let g = c0.rep().g_term();
        Clustering::new(vec![c0, c1], vec![DocId(9)], g, 3)
    }

    #[test]
    fn accessors() {
        let c = sample();
        assert_eq!(c.clusters().len(), 2);
        assert_eq!(c.non_empty_clusters(), 1);
        assert_eq!(c.assigned_docs(), 2);
        assert_eq!(c.outliers(), &[DocId(9)]);
        assert_eq!(c.iterations(), 3);
        assert!(c.g() > 0.0);
    }

    #[test]
    fn member_lists_and_assignment_agree() {
        let c = sample();
        let lists = c.member_lists();
        assert_eq!(lists[0], vec![DocId(0), DocId(1)]);
        assert!(lists[1].is_empty());
        let assign = c.assignment();
        assert_eq!(assign[&DocId(0)], 0);
        assert_eq!(assign[&DocId(1)], 0);
        assert!(!assign.contains_key(&DocId(9)));
    }

    #[test]
    fn g_matches_cluster_terms() {
        let c = sample();
        let sum: f64 = c.clusters().iter().map(|cl| cl.rep().g_term()).sum();
        assert!((c.g() - sum).abs() < 1e-12);
    }
}
