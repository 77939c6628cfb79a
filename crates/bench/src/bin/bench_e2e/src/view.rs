//! What a window and an overview query return, reduced to what the checks
//! compare.

use nidc_core::MergedClustering;
use nidc_corpus::Corpus;
use nidc_eval::{evaluate, Labeling, MARKING_THRESHOLD};
use nidc_similarity::ClusterRep;
use nidc_textproc::{DocId, Vocabulary};

use crate::stats::Digest;

/// The clustering a reader sees: the stitched view when stitching ran,
/// the merged per-shard view otherwise.
pub struct View {
    lists: Vec<Vec<DocId>>,
    outliers: Vec<DocId>,
    g: f64,
}

impl View {
    /// The view of one merged clustering.
    pub fn of(merged: &MergedClustering) -> Self {
        match merged.stitched() {
            Some(s) => Self {
                lists: s.member_lists(),
                outliers: s.outliers().to_vec(),
                g: s.g(),
            },
            None => Self {
                lists: merged.member_lists(),
                outliers: merged.outliers(),
                g: merged.g(),
            },
        }
    }

    /// Digest of the member lists, the outliers and G.
    pub fn digest(&self) -> u64 {
        let mut h = Digest::default();
        for list in &self.lists {
            h.word(list.len() as u64);
            list.iter().for_each(|d| h.word(d.0));
        }
        h.word(self.outliers.len() as u64);
        self.outliers.iter().for_each(|d| h.word(d.0));
        h.word(self.g.to_bits());
        h.finish()
    }

    /// Checks that every live document appears exactly once in clusters ∪
    /// outliers, and nothing else does.
    pub fn check_coverage(&self, mut live: Vec<DocId>) -> Result<(), String> {
        let mut seen: Vec<DocId> = self.lists.iter().flatten().copied().collect();
        seen.extend_from_slice(&self.outliers);
        seen.sort_unstable();
        if let Some(w) = seen.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("document {} appears twice", w[0]));
        }
        live.sort_unstable();
        if seen != live {
            return Err(format!(
                "{} documents in clusters and outliers, {} live",
                seen.len(),
                live.len()
            ));
        }
        Ok(())
    }

    /// Micro-F1 against the generator's topic labels of the `live`
    /// documents (article ids are dense, so an id indexes the corpus).
    pub fn micro_f1(&self, corpus: &Corpus, live: &[DocId]) -> f64 {
        let labels: Labeling<u32> = live
            .iter()
            .map(|&d| (d, corpus.articles()[d.0 as usize].topic.0))
            .collect();
        evaluate(&self.lists, &labels, MARKING_THRESHOLD).micro_f1
    }
}

/// One line of the overview: a topic's size and G-term, and its keywords.
pub type Headline = (usize, f64, Vec<String>);

/// The overview query — "what are the recent topics?": every cluster of at
/// least two documents in the view, ranked by G-term, each with its five
/// heaviest terms (`nidc stream` prints the first three lines of it).
pub fn overview(merged: &MergedClustering, vocab: &Vocabulary) -> Vec<Headline> {
    let mut topics: Vec<(usize, &ClusterRep)> = match merged.stitched() {
        Some(s) => s.clusters().iter().map(|c| (c.len(), c.rep())).collect(),
        None => merged
            .iter_non_empty()
            .map(|(_, c)| (c.len(), c.rep()))
            .collect(),
    };
    topics.retain(|&(len, _)| len >= 2);
    topics.sort_by(|a, b| b.1.g_term().total_cmp(&a.1.g_term()));
    topics
        .iter()
        .map(|&(len, rep)| {
            let words = rep
                .top_terms(5)
                .iter()
                .filter_map(|&(t, _)| vocab.term(t).map(str::to_owned))
                .collect();
            (len, rep.g_term(), words)
        })
        .collect()
}
