//! The `nidc stream` per-window overview on a sharded run, against the real
//! `nidc` binary in a subprocess.

use std::path::{Path, PathBuf};
use std::process::Command;

fn nidc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nidc"))
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nidc_stream_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One overview entry: its size and its majority-topic name.
#[derive(Debug)]
struct Entry {
    docs: usize,
    topic: String,
}

/// The top-3 entries of every `day …` line of a `--shards 3` stream run,
/// with `extra` arguments appended.
fn overview(corpus: &Path, extra: &[&str]) -> Vec<Vec<Entry>> {
    let run = nidc()
        .args(["stream", "--input"])
        .arg(corpus)
        .args(["--every", "30", "--k", "6", "--shards", "3"])
        .args(extra)
        .output()
        .expect("stream runs");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8_lossy(&run.stdout).into_owned();
    let lines: Vec<Vec<Entry>> = stdout
        .lines()
        .filter(|l| l.starts_with("day "))
        .map(|line| {
            let (_, top) = line.split_once("| top: ").expect("a top list");
            let top = top.split(" | stitched: ").next().unwrap();
            top.split(" || ")
                .map(|entry| {
                    let docs = entry.split_whitespace().next().unwrap().parse().unwrap();
                    let (_, label) = entry.split_once('[').expect("a topic label");
                    let (label, _) = label.split_once(']').unwrap();
                    let (topic, _count) = label.rsplit_once(' ').unwrap();
                    Entry {
                        docs,
                        topic: topic.to_owned(),
                    }
                })
                .collect()
        })
        .collect();
    assert!(lines.len() >= 3, "too few windows reported:\n{stdout}");
    lines
}

fn repeats_a_topic(entries: &[Entry]) -> bool {
    entries
        .iter()
        .enumerate()
        .any(|(i, a)| entries[i + 1..].iter().any(|b| b.topic == a.topic))
}

/// With stitching on, the overview ranks the stitched clusters: a topic's
/// cross-shard fragments are reunited into one entry, so no topic takes
/// more than one of the three slots. With `--stitch off` the same run ranks
/// the raw per-shard fragments, and one topic fills several slots.
#[test]
fn sharded_overview_ranks_stitched_clusters() {
    let dir = tmpdir();
    let corpus = dir.join("corpus.jsonl");
    let gen = nidc()
        .args(["generate", "--out"])
        .arg(&corpus)
        .args(["--scale", "0.05", "--seed", "3"])
        .output()
        .expect("generate runs");
    assert!(
        gen.status.success(),
        "{}",
        String::from_utf8_lossy(&gen.stderr)
    );

    let stitched = overview(&corpus, &[]);
    let fragments = overview(&corpus, &["--stitch", "off"]);
    assert_eq!(stitched.len(), fragments.len());

    for (window, entries) in stitched.iter().enumerate() {
        assert!(
            !repeats_a_topic(entries),
            "window {window}: one topic fills several slots: {entries:?}"
        );
    }
    assert!(
        fragments.iter().any(|entries| repeats_a_topic(entries)),
        "the unstitched fragments no longer repeat a topic: {fragments:?}"
    );
    // a stitched cluster is a union of fragments: the largest ranked entry
    // outgrows every fragment of that window
    let largest = |entries: &[Entry]| entries.iter().map(|e| e.docs).max().unwrap_or(0);
    assert!(
        stitched
            .iter()
            .zip(&fragments)
            .any(|(s, f)| largest(s) > largest(f)),
        "no window ranked a reunited cluster"
    );
    std::fs::remove_dir_all(&dir).ok();
}
