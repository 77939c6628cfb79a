//! Service-restart survival: run the on-line pipeline (three shards) for
//! half the stream, checkpoint it to JSON, "crash", restore from the
//! checkpoint, and finish — then verify the restored run ends in exactly the
//! same clustering state and the same lineage ids a never-interrupted run
//! reaches.
//!
//! Run with: `cargo run --release --example checkpoint_restart`

use khy2006::prelude::*;

const SHARDS: usize = 3;

fn ingest_range(
    pipeline: &mut ShardedPipeline,
    corpus: &Corpus,
    tfs: &[SparseVector],
    days: std::ops::Range<f64>,
) -> Result<(), Box<dyn std::error::Error>> {
    for (a, tf) in corpus.articles().iter().zip(tfs) {
        if days.contains(&a.day) {
            pipeline.ingest(DocId(a.id), Timestamp(a.day), tf.clone())?;
        }
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let corpus = Generator::new(GeneratorConfig {
        scale: 0.1,
        ..GeneratorConfig::default()
    })
    .generate();
    let analyzer = Pipeline::raw();
    let mut vocab = Vocabulary::new();
    let tfs: Vec<SparseVector> = corpus
        .articles()
        .iter()
        .map(|a| analyzer.analyze(&a.text, &mut vocab).to_sparse())
        .collect();

    let decay = DecayParams::from_spans(7.0, 21.0)?;
    let config = ClusteringConfig {
        k: 12,
        seed: 5,
        ..ClusteringConfig::default()
    };

    // --- the interrupted service -----------------------------------------
    let mut service = ShardedPipeline::new(decay, config.clone(), SHARDS)?;
    ingest_range(&mut service, &corpus, &tfs, 0.0..30.0)?;
    service.recluster_incremental()?;
    ingest_range(&mut service, &corpus, &tfs, 30.0..60.0)?;
    service.recluster_incremental()?;

    // checkpoint to disk, then "crash"
    let path = std::env::temp_dir().join(format!("nidc_checkpoint_{}.json", std::process::id()));
    service.save_json(std::fs::File::create(&path)?)?;
    let bytes = std::fs::metadata(&path)?.len();
    println!(
        "checkpointed {} live docs on {SHARDS} shards at {} ({bytes} bytes) to {}",
        service.num_docs(),
        service.now(),
        path.display()
    );
    drop(service);

    // --- restore and finish the stream ------------------------------------
    let mut restored = ShardedPipeline::load_json(std::fs::File::open(&path)?)?;
    std::fs::remove_file(&path).ok();
    println!(
        "restored: {} live docs on {} shards at {}",
        restored.num_docs(),
        restored.num_shards(),
        restored.now()
    );
    ingest_range(&mut restored, &corpus, &tfs, 60.0..90.0)?;
    restored.recluster_incremental()?;

    // --- the reference service that never crashed -------------------------
    let mut reference = ShardedPipeline::new(decay, config, SHARDS)?;
    ingest_range(&mut reference, &corpus, &tfs, 0.0..30.0)?;
    reference.recluster_incremental()?;
    ingest_range(&mut reference, &corpus, &tfs, 30.0..60.0)?;
    reference.recluster_incremental()?;
    ingest_range(&mut reference, &corpus, &tfs, 60.0..90.0)?;
    reference.recluster_incremental()?;

    let after_restart = restored.last_merged().expect("a window ran");
    let uninterrupted = reference.last_merged().expect("a window ran");
    assert_eq!(
        after_restart.member_lists(),
        uninterrupted.member_lists(),
        "restart changed the clustering!"
    );
    assert_eq!(after_restart.outliers(), uninterrupted.outliers());
    assert_eq!(
        restored.lineage().current_lineages(),
        reference.lineage().current_lineages(),
        "restart changed the lineage ids!"
    );
    println!(
        "restart-transparent: {} shard clusters, {} outliers, {} lineages, G = {:.3e} — identical to the uninterrupted run",
        after_restart.non_empty_clusters(),
        after_restart.outliers().len(),
        restored.lineage().current_lineages().len(),
        after_restart.g()
    );
    Ok(())
}
