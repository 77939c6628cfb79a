//! A checkpoint's allocation budget, both ways. `ShardedPipeline::save_json`
//! prints straight from the typed state, so it allocates per document and
//! per lineage slot (the `to_state` snapshot) plus the output buffer's
//! growth; `ShardedPipeline::load_json` reads the typed state straight from
//! the text, so it allocates per document and per slot (each one's vectors
//! and their growth) plus the restore. Neither allocates once per number.

use khy2006::obs::alloc;
use khy2006::prelude::*;

/// This thread's allocations (reallocations included) while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let (before, _) = alloc::thread_tallies();
    f();
    let (after, _) = alloc::thread_tallies();
    after - before
}

/// Streams a small corpus through a pipeline on 1 and then 3 shards,
/// re-clustering weekly, and calls `check(shards, pipeline, docs + slots)`
/// after each re-clustering.
fn at_each_checkpoint(mut check: impl FnMut(usize, &ShardedPipeline, u64)) {
    // tallies are per thread, so other tests running alongside cannot
    // disturb them; tracking is only switched on, never off
    alloc::set_tracking(true);
    let corpus = Generator::new(GeneratorConfig {
        scale: 0.1,
        ..GeneratorConfig::default()
    })
    .generate();
    let analyzer = Pipeline::english();
    for shards in [1, 3] {
        let decay = DecayParams::from_spans(7.0, 14.0).unwrap();
        let config = ClusteringConfig {
            k: 8,
            seed: 3,
            ..ClusteringConfig::default()
        };
        let mut pipeline = ShardedPipeline::new(decay, config, shards).unwrap();
        let mut vocab = Vocabulary::new();
        let mut next_day = 7.0;
        let mut checks = 0;
        for a in corpus.articles() {
            if a.day >= next_day {
                pipeline.recluster_incremental().unwrap();
                next_day += 7.0;
                let state = pipeline.to_state();
                let slots = state.lineage.as_ref().map_or(0, |l| l.slots.len());
                check(shards, &pipeline, (pipeline.num_docs() + slots) as u64);
                checks += 1;
            }
            let tf = analyzer.analyze(&a.text, &mut vocab).to_sparse();
            pipeline.ingest(a.doc_id(), Timestamp(a.day), tf).unwrap();
        }
        assert!(checks >= 4, "{shards} shards: only {checks} checkpoints");
    }
}

#[test]
fn save_json_allocates_per_document_not_per_number() {
    at_each_checkpoint(|shards, pipeline, items| {
        let budget = 2 * items + 64;
        let mut buf = Vec::new();
        let saved = allocs_during(|| pipeline.save_json(&mut buf).unwrap());
        assert!(
            saved <= budget,
            "{shards} shards, {items} docs + slots: {saved} allocations (budget {budget})"
        );

        // the budget tells the paths apart: printing through a `Value`
        // tree allocates per number
        let state = pipeline.to_state();
        let via_tree = allocs_during(|| {
            let tree = serde_json::to_value(&state).unwrap();
            drop(serde_json::to_string(&tree).unwrap());
        });
        assert!(via_tree > 4 * budget, "{via_tree} <= 4 * {budget}");
    });
}

#[test]
fn load_json_allocates_per_document_not_per_number() {
    at_each_checkpoint(|shards, pipeline, items| {
        let budget = 16 * items + 256;
        let mut buf = Vec::new();
        pipeline.save_json(&mut buf).unwrap();
        let loaded = allocs_during(|| {
            let restored = ShardedPipeline::load_json(buf.as_slice()).unwrap();
            assert_eq!(restored.num_docs(), pipeline.num_docs());
        });
        assert!(
            loaded <= budget,
            "{shards} shards, {items} docs + slots: {loaded} allocations (budget {budget})"
        );

        // the budget tells the paths apart: parsing the same bytes into a
        // `Value` tree allocates per number
        let via_tree = allocs_during(|| {
            drop(serde_json::from_slice::<serde_json::Value>(&buf).unwrap());
        });
        assert!(via_tree > 4 * budget, "{via_tree} <= 4 * {budget}");
    });
}
