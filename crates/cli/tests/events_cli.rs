//! The whole `--events` / `nidc inspect` surface in one sequential test.
//!
//! The event sink is process-global, and any other test in the same binary
//! that runs with `--trace`, `--metrics` or `--alloc-stats` resets all
//! observability state (ending the open events session) mid-run. This test
//! therefore has a test binary of its own.

use nidc_cli::commands::run;
use nidc_cli::{CliError, ParsedArgs};

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("nidc_events_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn run_args<const N: usize>(argv: [&str; N]) -> Result<String, CliError> {
    let args = ParsedArgs::parse(argv).unwrap();
    let mut out = Vec::new();
    run(&args, &mut out)?;
    Ok(String::from_utf8(out).unwrap())
}

#[test]
fn events_export_and_inspect() {
    let path = temp_path("corpus.jsonl").to_string_lossy().into_owned();
    run_args(["generate", "--out", &path, "--scale", "0.05", "--seed", "3"]).unwrap();
    let events = temp_path("stream.events.jsonl");
    let events_s = events.to_string_lossy().into_owned();

    // stream writes a header plus lifecycle events
    run_args([
        "stream", "--input", &path, "--every", "30", "--k", "8", "--events", &events_s,
    ])
    .unwrap();
    let text = std::fs::read_to_string(&events).unwrap();
    assert!(
        text.lines()
            .next()
            .unwrap()
            .contains("\"schema\":\"nidc-events\""),
        "{text}"
    );
    assert!(text.contains("\"kind\":\"birth\""), "{text}");

    // inspect renders per-lineage timelines from it
    let rendered = run_args(["inspect", "--events", &events_s]).unwrap();
    assert!(rendered.contains("lineages"), "{rendered}");
    assert!(rendered.contains("#0"), "{rendered}");
    assert!(
        rendered.contains('▁') || rendered.contains('█'),
        "no sparkline: {rendered}"
    );

    // a one-shot `cluster --events` is a single window of births
    let once = temp_path("cluster.events.jsonl");
    let once_s = once.to_string_lossy().into_owned();
    run_args([
        "cluster", "--input", &path, "--k", "8", "--to", "30", "--events", &once_s,
    ])
    .unwrap();
    let text = std::fs::read_to_string(&once).unwrap();
    assert!(text.contains("\"kind\":\"birth\""), "{text}");
    assert!(!text.contains("\"kind\":\"continuation\""), "{text}");

    // inspect refuses a stream without the schema header
    let bad = temp_path("bad.jsonl");
    std::fs::write(&bad, "{\"kind\":\"birth\"}\n").unwrap();
    let bad_s = bad.to_string_lossy().into_owned();
    assert!(matches!(
        run_args(["inspect", "--events", &bad_s]),
        Err(CliError::Other(_))
    ));
    std::fs::remove_dir_all(bad.parent().unwrap()).ok();
}
