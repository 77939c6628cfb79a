//! The lifecycle event stream, pinned byte for byte.
//!
//! Replays `online_simulation` at `NIDC_SCALE=0.25 NIDC_EVERY=2`, unsharded
//! and over 3 shards, and compares each `--events` stream with the digest,
//! line count and per-kind counts in
//! `tests/fixtures/lineage_events_golden.json`. The 3-shard stream holds
//! all seven event kinds; the unsharded one has no split, merge or death.
//! A change to lineage matching shows up here as a fixture diff: update the
//! fixture only when the change in events is meant. Each stream must also
//! pass `check_events` against its own metrics export.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// FNV-1a, 64 bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn event_streams_match_the_golden_fixture() {
    let fixture_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/lineage_events_golden.json");
    let fixture: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(fixture_path).unwrap()).unwrap();
    let dir = std::env::temp_dir().join(format!("nidc_lineage_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    for want in fixture["streams"].as_array().unwrap() {
        let shards = want["shards"].as_u64().unwrap();
        let events = dir.join(format!("events_{shards}.jsonl"));
        let metrics = dir.join(format!("metrics_{shards}.jsonl"));
        let status = Command::new(env!("CARGO_BIN_EXE_online_simulation"))
            .env("NIDC_SCALE", "0.25")
            .env("NIDC_EVERY", "2")
            .env("NIDC_SHARDS", shards.to_string())
            .arg("--events")
            .arg(&events)
            .arg("--metrics")
            .arg(&metrics)
            .stdout(Stdio::null())
            .status()
            .unwrap();
        assert!(status.success(), "online_simulation, {shards} shard(s)");

        let bytes = std::fs::read(&events).unwrap();
        let text = std::str::from_utf8(&bytes).unwrap();
        let mut kinds: BTreeMap<String, u64> = BTreeMap::new();
        for line in text.lines().skip(1) {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            *kinds
                .entry(v["kind"].as_str().unwrap().to_owned())
                .or_default() += 1;
        }
        let want_kinds: BTreeMap<String, u64> = want["kinds"]
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, n)| (k.clone(), n.as_u64().unwrap()))
            .filter(|&(_, n)| n > 0)
            .collect();
        assert_eq!(kinds, want_kinds, "event kinds, {shards} shard(s)");
        assert_eq!(
            text.lines().count() as u64,
            want["lines"].as_u64().unwrap(),
            "lines, {shards} shard(s)"
        );
        assert_eq!(
            format!("{:016x}", fnv1a64(&bytes)),
            want["fnv1a64"].as_str().unwrap(),
            "stream digest, {shards} shard(s)"
        );

        let check = Command::new(env!("CARGO_BIN_EXE_check_events"))
            .arg("--events")
            .arg(&events)
            .arg("--metrics")
            .arg(&metrics)
            .output()
            .unwrap();
        assert!(
            check.status.success(),
            "check_events, {shards} shard(s): {}",
            String::from_utf8_lossy(&check.stderr)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
