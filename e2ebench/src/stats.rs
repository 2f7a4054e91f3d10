//! The benchmark's own arithmetic: order statistics over job latencies
//! and self time from recorded spans.

use std::collections::BTreeMap;

use qdt::telemetry::{TraceEvent, TraceEventKind};

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Jobs that must lie strictly above a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail latency: the nearest-rank `p`-quantile (`0 < p < 1`), lowered
/// where needed so that at least [`TAIL_BEYOND`] values lie beyond it.
/// With 100 or more values and `p = 0.9` this is the plain p90.
///
/// Returns the value and the quantile actually reported.
///
/// # Panics
///
/// Panics with fewer than `TAIL_BEYOND + 1` values or on a NaN.
pub fn tail_quantile(values: &[f64], p: f64) -> (f64, f64) {
    let n = values.len();
    assert!(
        n > TAIL_BEYOND,
        "a tail quantile needs more than {TAIL_BEYOND} values, got {n}"
    );
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
    // Nearest rank (1-based) of the p-quantile, capped at n - TAIL_BEYOND.
    #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n - TAIL_BEYOND);
    #[allow(clippy::cast_precision_loss)]
    (v[rank - 1], rank as f64 / n as f64)
}

/// Self time per span name: each span's duration minus the part covered
/// by its child spans on the same thread, summed over all spans of that
/// name, in seconds.
///
/// # Panics
///
/// Panics on an `End` without a matching `Begin` (spans must nest).
pub fn self_times(events: &[TraceEvent]) -> BTreeMap<String, f64> {
    struct Open {
        name: String,
        start_ns: u64,
        children_ns: u64,
    }
    let mut stacks: BTreeMap<u64, Vec<Open>> = BTreeMap::new();
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for e in events {
        let stack = stacks.entry(e.thread).or_default();
        match e.kind {
            TraceEventKind::Begin => stack.push(Open {
                name: e.name.clone(),
                start_ns: e.ts_ns,
                children_ns: 0,
            }),
            TraceEventKind::End => {
                let open = stack.pop().expect("span end without a begin");
                assert_eq!(open.name, e.name, "spans must nest");
                let dur = e.ts_ns - open.start_ns;
                if let Some(parent) = stack.last_mut() {
                    parent.children_ns += dur;
                }
                #[allow(clippy::cast_precision_loss)]
                let self_s = dur.saturating_sub(open.children_ns) as f64 * 1e-9;
                *out.entry(open.name).or_default() += self_s;
            }
            TraceEventKind::Instant => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TraceEventKind, name: &str, ts_ns: u64) -> TraceEvent {
        TraceEvent {
            kind,
            name: name.to_string(),
            category: String::new(),
            thread: 0,
            ts_ns,
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_is_p90_with_ten_beyond_at_one_hundred_values() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, q) = tail_quantile(&v, 0.9);
        assert_eq!(value, 90.0);
        assert_eq!(q, 0.9);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }

    #[test]
    fn tail_is_lowered_to_keep_ten_beyond() {
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        let (value, q) = tail_quantile(&v, 0.9);
        assert_eq!(value, 40.0);
        assert_eq!(q, 0.8);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }

    #[test]
    fn tail_keeps_p90_for_large_counts() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let (value, q) = tail_quantile(&v, 0.9);
        assert_eq!(value, 900.0);
        assert_eq!(q, 0.9);
    }

    #[test]
    #[should_panic(expected = "needs more than 10 values")]
    fn tail_rejects_too_few_values() {
        tail_quantile(&[1.0; 10], 0.9);
    }

    #[test]
    fn self_time_is_span_minus_children() {
        use TraceEventKind::{Begin, End};
        // job [0, 100] holds parse [10, 30] and run [40, 90]; run holds
        // readout [50, 60]. Self times: job 30, parse 20, run 40, readout 10.
        let events = vec![
            ev(Begin, "job", 0),
            ev(Begin, "parse", 10),
            ev(End, "parse", 30),
            ev(Begin, "run", 40),
            ev(Begin, "readout", 50),
            ev(End, "readout", 60),
            ev(End, "run", 90),
            ev(End, "job", 100),
        ];
        let t = self_times(&events);
        let ns = |name: &str| (t[name] * 1e9).round();
        assert_eq!(ns("job"), 30.0);
        assert_eq!(ns("parse"), 20.0);
        assert_eq!(ns("run"), 40.0);
        assert_eq!(ns("readout"), 10.0);
        let total: f64 = t.values().sum();
        assert!(
            (total * 1e9 - 100.0).abs() < 1e-6,
            "self times sum to the root span"
        );
    }

    #[test]
    fn self_time_sums_repeated_spans_per_name() {
        use TraceEventKind::{Begin, End};
        let events = vec![
            ev(Begin, "job", 0),
            ev(Begin, "parse", 0),
            ev(End, "parse", 5),
            ev(End, "job", 10),
            ev(Begin, "job", 20),
            ev(Begin, "parse", 20),
            ev(End, "parse", 27),
            ev(End, "job", 30),
        ];
        let t = self_times(&events);
        assert_eq!((t["parse"] * 1e9).round(), 12.0);
        assert_eq!((t["job"] * 1e9).round(), 8.0);
    }
}
