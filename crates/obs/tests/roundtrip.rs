//! Snapshot serialisation round-trip through a real JSON parser, and
//! Prometheus exposition validity on registry-produced snapshots.

use nidc_obs::{buckets, HistogramSnapshot, Registry, Snapshot};
use serde_json::Value;

fn sample_registry() -> Registry {
    let r = Registry::new();
    r.counter("rt_docs_total").add(41);
    r.counter("rt_windows_total").add(3);
    r.gauge("rt_heap_bytes").set(2048);
    r.fgauge("rt_cohesion").set(0.8125);
    for v in [0.0002, 0.013, 0.013, 0.7, 120.0] {
        r.histogram("rt_phase_seconds", buckets::LATENCY_SECONDS)
            .observe(v);
    }
    for v in [2.0, 9.0, 400.0] {
        r.histogram("rt_batch_sizes", buckets::SIZES).observe(v);
    }
    r
}

/// Rebuilds a [`Snapshot`] from the exporter's JSON-lines shape.
fn snapshot_from_json(v: &Value) -> Snapshot {
    let counters = v
        .get("counters")
        .and_then(Value::as_object)
        .expect("counters object")
        .iter()
        .map(|(name, val)| (name.clone(), val.as_u64().expect("counter value")))
        .collect();
    let gauges = v
        .get("gauges")
        .and_then(Value::as_object)
        .expect("gauges object")
        .iter()
        .map(|(name, val)| (name.clone(), val.as_u64().expect("gauge value")))
        .collect();
    let fgauges = v
        .get("fgauges")
        .and_then(Value::as_object)
        .expect("fgauges object")
        .iter()
        .map(|(name, val)| (name.clone(), val.as_f64().expect("fgauge value")))
        .collect();
    let histograms = v
        .get("histograms")
        .and_then(Value::as_object)
        .expect("histograms object")
        .iter()
        .map(|(name, h)| {
            let mut bounds = Vec::new();
            let mut counts = Vec::new();
            for bucket in h.get("buckets").and_then(Value::as_array).expect("buckets") {
                let le = bucket.get("le").expect("le");
                match le.as_f64() {
                    Some(b) => bounds.push(b),
                    None => assert_eq!(le.as_str(), Some("+Inf")),
                }
                counts.push(bucket.get("n").and_then(Value::as_u64).expect("n"));
            }
            (
                name.clone(),
                HistogramSnapshot {
                    bounds,
                    counts,
                    count: h.get("count").and_then(Value::as_u64).expect("count"),
                    sum: h.get("sum").and_then(Value::as_f64).expect("sum"),
                },
            )
        })
        .collect();
    Snapshot {
        counters,
        gauges,
        fgauges,
        histograms,
    }
}

#[test]
fn json_roundtrip_is_lossless() {
    let snap = sample_registry().snapshot();
    let parsed: Value = serde_json::from_str(&snap.to_json()).expect("exporter emits valid JSON");
    assert_eq!(snapshot_from_json(&parsed), snap);
}

#[test]
fn json_line_meta_fields_survive_parsing() {
    let snap = sample_registry().snapshot();
    let line = snap.to_json_line(&[("window", 7.0), ("day", 35.5)]);
    let parsed: Value = serde_json::from_str(&line).unwrap();
    assert_eq!(parsed.get("window").and_then(Value::as_u64), Some(7));
    assert_eq!(parsed.get("day").and_then(Value::as_f64), Some(35.5));
    assert_eq!(snapshot_from_json(&parsed), snap);
}

#[test]
fn prometheus_exposition_is_valid_on_real_data() {
    let text = sample_registry().snapshot().to_prometheus();
    let mut series = 0usize;
    for line in text.lines() {
        assert!(!line.is_empty());
        if let Some(comment) = line.strip_prefix("# ") {
            assert!(comment.starts_with("TYPE "), "only TYPE comments: {line}");
            let mut parts = comment.split_whitespace();
            assert_eq!(parts.next(), Some("TYPE"));
            assert!(parts.next().is_some());
            assert!(matches!(
                parts.next(),
                Some("counter") | Some("gauge") | Some("histogram")
            ));
            continue;
        }
        let (series_part, value) = line.rsplit_once(' ').expect("value present");
        let name = series_part.split('{').next().unwrap();
        assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
        if let Some(labels) = series_part.strip_prefix(&format!("{name}{{")) {
            let labels = labels.strip_suffix('}').expect("closing brace");
            let (key, quoted) = labels.split_once('=').expect("label assignment");
            assert_eq!(key, "le");
            assert!(quoted.starts_with('"') && quoted.ends_with('"'));
        }
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "unparseable sample value {value:?}"
        );
        series += 1;
    }
    // 2 counters + 1 gauge + 1 fgauge + 2 histograms × (buckets + sum +
    // count).
    let expected =
        2 + 1 + 1 + (buckets::LATENCY_SECONDS.len() + 1 + 2) + (buckets::SIZES.len() + 1 + 2);
    assert_eq!(series, expected);
}

#[test]
fn histogram_totals_match_buckets_after_roundtrip() {
    let snap = sample_registry().snapshot();
    let parsed: Value = serde_json::from_str(&snap.to_json()).unwrap();
    let rebuilt = snapshot_from_json(&parsed);
    for (name, h) in &rebuilt.histograms {
        assert_eq!(
            h.counts.iter().sum::<u64>(),
            h.count,
            "bucket totals disagree for {name}"
        );
    }
}
