//! Validates `rr_obs::metrics::render_prometheus` against the
//! Prometheus text exposition format (version 0.0.4) with an in-tree
//! checker: header/series line grammar, one `# TYPE` per family with
//! its series contiguous, cumulative (monotone) histogram buckets
//! terminated by `le="+Inf"`, and `_count` consistency. The `metrics`
//! CI job relies on this as the exposition schema check.

use rr_obs::metrics::{self, HIST_BUCKETS};

/// Splits `name{labels} value` into (name, labels, value); labels may
/// be absent. Panics with context on malformed lines.
fn parse_series(line: &str) -> (String, Vec<(String, String)>, f64) {
    let (head, value) = line.rsplit_once(' ').unwrap_or_else(|| {
        panic!("series line has no value: {line:?}");
    });
    let value: f64 = value
        .parse()
        .unwrap_or_else(|e| panic!("bad value in {line:?}: {e}"));
    let (name, labels) = match head.split_once('{') {
        None => (head.to_string(), Vec::new()),
        Some((name, rest)) => {
            let body = rest
                .strip_suffix('}')
                .unwrap_or_else(|| panic!("unterminated label set: {line:?}"));
            let labels = body
                .split(',')
                .map(|pair| {
                    let (k, v) = pair
                        .split_once("=\"")
                        .unwrap_or_else(|| panic!("bad label {pair:?} in {line:?}"));
                    let v = v
                        .strip_suffix('"')
                        .unwrap_or_else(|| panic!("unquoted label {pair:?}"));
                    assert!(
                        k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                        "bad label key {k:?}"
                    );
                    (k.to_string(), v.to_string())
                })
                .collect();
            (name.to_string(), labels)
        }
    };
    assert!(
        name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            && name.chars().next().is_some_and(|c| !c.is_ascii_digit()),
        "bad metric name {name:?}"
    );
    (name, labels, value)
}

#[test]
fn rendered_text_matches_the_exposition_format() {
    // Populate every metric kind, including a labeled histogram family.
    let h = metrics::histogram_with("schema_ns", "schema test histogram", &[("phase", "a")]);
    let h2 = metrics::histogram_with("schema_ns", "schema test histogram", &[("phase", "b")]);
    for v in [0u64, 1, 5, 1023, 1024, 1 << 40] {
        h.record(v);
        h2.record(v * 3);
    }
    metrics::counter("schema_total", "schema test counter").add(7);
    // A counter family with two labels, shaped like `rr_solves_total`.
    for kernels in ["paper", "fast"] {
        let labels = [("outcome", "ok"), ("kernels", kernels)];
        metrics::counter_with("schema_solves_total", "schema test labeled counter", &labels).inc();
    }
    metrics::gauge("schema_depth", "schema test gauge").set(-3);

    let text = metrics::render_prometheus();
    let mut current_family: Option<(String, String)> = None; // (name, type)
    let mut typed_families = Vec::new();
    // Per (family, labels-minus-le): (cumulative buckets, count, saw +Inf).
    let mut hist_state: Vec<(String, Vec<f64>, Option<f64>, bool)> = Vec::new();

    for line in text.lines() {
        assert!(!line.is_empty(), "blank line in exposition");
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let kw = parts.next().unwrap();
            let name = parts.next().expect("header names a metric").to_string();
            match kw {
                "HELP" => {
                    assert!(parts.next().is_some_and(|h| !h.is_empty()), "empty HELP");
                }
                "TYPE" => {
                    let typ = parts.next().expect("TYPE has a value").to_string();
                    assert!(
                        matches!(typ.as_str(), "counter" | "gauge" | "histogram"),
                        "unknown type {typ:?}"
                    );
                    assert!(
                        !typed_families.contains(&name),
                        "family {name} declared twice — series not contiguous"
                    );
                    typed_families.push(name.clone());
                    current_family = Some((name, typ));
                }
                other => panic!("unknown header keyword {other:?}"),
            }
            continue;
        }
        let (name, labels, value) = parse_series(line);
        let (fam, typ) = current_family.as_ref().expect("series before any TYPE");
        match typ.as_str() {
            "counter" | "gauge" => {
                assert_eq!(&name, fam, "series {name} outside its family {fam}");
                if typ == "counter" {
                    assert!(value >= 0.0, "negative counter {line:?}");
                }
            }
            "histogram" => {
                let base = labels
                    .iter()
                    .filter(|(k, _)| k != "le")
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(",");
                let key = format!("{fam}|{base}");
                let idx = hist_state.iter().position(|(k, ..)| k == &key).unwrap_or_else(|| {
                    hist_state.push((key.clone(), Vec::new(), None, false));
                    hist_state.len() - 1
                });
                let st = &mut hist_state[idx];
                if name == format!("{fam}_bucket") {
                    let le = &labels.iter().find(|(k, _)| k == "le").expect("bucket has le").1;
                    if le == "+Inf" {
                        st.3 = true;
                    } else {
                        le.parse::<u64>().unwrap_or_else(|e| panic!("bad le {le:?}: {e}"));
                        assert!(!st.3, "finite bucket after +Inf");
                    }
                    assert!(
                        st.1.last().is_none_or(|&prev| value >= prev),
                        "non-cumulative buckets in {line:?}"
                    );
                    assert!(st.1.len() <= HIST_BUCKETS, "too many buckets");
                    st.1.push(value);
                } else if name == format!("{fam}_count") {
                    st.2 = Some(value);
                } else {
                    assert_eq!(name, format!("{fam}_sum"), "unexpected series {name}");
                }
            }
            _ => unreachable!(),
        }
    }

    assert!(typed_families.iter().any(|f| f == "schema_ns"));
    assert!(typed_families.iter().any(|f| f == "schema_total"));
    assert!(typed_families.iter().any(|f| f == "schema_depth"));
    let labeled: Vec<_> = text
        .lines()
        .filter(|l| l.starts_with("schema_solves_total{"))
        .map(parse_series)
        .collect();
    assert_eq!(labeled.len(), 2, "one series per label set");
    for (_, labels, value) in &labeled {
        let keys: Vec<&str> = labels.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["outcome", "kernels"], "labels render in registration order");
        assert_eq!(*value, 1.0);
    }
    let schema_hists: Vec<_> = hist_state
        .iter()
        .filter(|(k, ..)| k.starts_with("schema_ns|"))
        .collect();
    assert_eq!(schema_hists.len(), 2, "one series per label set");
    for (key, buckets, count, saw_inf) in &hist_state {
        assert!(saw_inf, "{key}: histogram missing le=\"+Inf\"");
        let count = count.unwrap_or_else(|| panic!("{key}: histogram missing _count"));
        assert_eq!(
            buckets.last().copied(),
            Some(count),
            "{key}: +Inf bucket != _count"
        );
    }
}
