//! The result of one run: metrics with their sample sets, output
//! checks, the host fingerprint and the span totals, rendered as a
//! human summary, a results file and the final one-line verdict.

use crate::stats::Summary;
use crate::trace::NameTotals;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Identifies the results-file layout.
pub const SCHEMA: &str = "perfbench.result/1";

/// The end-to-end metrics of `BENCHMARK.json`, by name and unit: every
/// workload reports each of them, and they make up the final line of an
/// untraced run.
pub const END_TO_END: [(&str, &str); 3] = [
    ("throughput_fps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of `BENCHMARK.json`, by name and unit: every
/// workload reports each of them, and they make up the final line of a
/// traced run.
pub const PER_LAYER: [(&str, &str); 12] = [
    ("sig.key_ns", "ns"),
    ("sig.key_batch_ns", "ns"),
    ("sig.batch_ratio", "x"),
    ("sig.keys", "count"),
    ("engine.submit_s", "s"),
    ("engine.finish_s", "s"),
    ("engine.kernel_share", "ratio"),
    ("engine.dedup_share", "ratio"),
    ("engine.cache_hit_rate", "ratio"),
    ("engine.steals_per_kfn", "count"),
    ("engine.parks_per_kfn", "count"),
    ("bench.trace_overhead", "ratio"),
];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// The samples behind the value: one per trial, or one per request
    /// for a latency percentile.
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric whose value is the median of per-trial samples.
    pub fn median(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        let value = crate::stats::median(&samples);
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }

    /// A metric whose value is percentile `p` of per-request samples
    /// (`NaN`, and so a failed run, when the set is too small for it).
    pub fn percentile(name: &'static str, unit: &'static str, p: f64, samples: Vec<f64>) -> Metric {
        let value = Summary::percentile(&samples, p).unwrap_or(f64::NAN);
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }

    /// A metric whose value is the median, over the less-stolen half of
    /// the consecutive windows of `window` per-request samples, of each
    /// window's percentile `p` (`NaN`, and so a failed run, without one
    /// full window). `steal[i]` is the CPU steal share of window `i`.
    pub fn windowed(
        name: &'static str,
        unit: &'static str,
        p: f64,
        samples: &[f64],
        window: usize,
        steal: &[f64],
    ) -> Metric {
        let values = crate::stats::window_percentiles(samples, window, p);
        Metric::median(name, unit, crate::stats::least_stolen_half(&values, steal))
    }

    /// A single measured or counted value.
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: vec![value],
        }
    }
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The compared values.
    pub detail: String,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Host fingerprint, in print order.
    pub host: Vec<(&'static str, String)>,
    /// Reported metrics, in print order: the mode's `BENCHMARK.json`
    /// metrics and the figures only some workloads have (such as
    /// `accuracy` or `recover_s`), which the summary and the results
    /// file carry but the final line does not.
    pub metrics: Vec<Metric>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Operations attempted (requests, engine batches and checks).
    pub attempted: u64,
    /// Operations that failed: non-OK replies, transport errors and
    /// failed checks.
    pub failed: u64,
    /// Span totals per name (traced runs).
    pub layers: BTreeMap<&'static str, NameTotals>,
}

impl Report {
    /// Records one output check; a failed check counts as a failed
    /// operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Failed operations ÷ attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The `BENCHMARK.json` metrics of this run's mode.
    pub fn listed(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Whether every check held, nothing failed, every metric is a
    /// finite number and every listed metric was reported in its unit.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.checks.iter().all(|c| c.ok)
            && self.metrics.iter().all(|m| m.value.is_finite())
            && self.listed().iter().all(|&(name, unit)| {
                self.metrics
                    .iter()
                    .any(|m| m.name == name && m.unit == unit)
            })
    }

    /// The human-readable summary (every line starts with `#`).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# perfbench {} seed={} trace={}",
            self.workload, self.seed, self.trace as u8
        );
        let host: Vec<String> = self.host.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(out, "# host {}", host.join(" "));
        let _ = writeln!(
            out,
            "# {:<28} {:>16} {:<6} {:>14} {:>14} {:>14} {:>7}  top",
            "metric", "value", "unit", "p25", "median", "p75", "n"
        );
        for m in &self.metrics {
            let s = Summary::of(&m.samples);
            let (p25, p50, p75, n) = s.as_ref().map_or((f64::NAN, f64::NAN, f64::NAN, 0), |s| {
                (s.p25, s.p50, s.p75, s.n)
            });
            let top = s
                .and_then(|s| s.top)
                .map_or_else(|| "-".to_string(), |(p, v)| format!("p{p}={v:.6}"));
            let _ = writeln!(
                out,
                "# {:<28} {:>16.6} {:<6} {:>14.6} {:>14.6} {:>14.6} {:>7}  {top}",
                m.name, m.value, m.unit, p25, p50, p75, n
            );
        }
        let _ = writeln!(
            out,
            "# error_rate {:.6} ({} failed of {} attempted)",
            self.error_rate(),
            self.failed,
            self.attempted
        );
        for c in &self.checks {
            let verdict = if c.ok { "ok  " } else { "FAIL" };
            let _ = writeln!(out, "# check {verdict} {}: {}", c.name, c.detail);
        }
        if !self.layers.is_empty() {
            let _ = writeln!(
                out,
                "# {:<28} {:>9} {:>14} {:>14}",
                "span", "count", "total_ms", "self_ms"
            );
            for (name, t) in &self.layers {
                let _ = writeln!(
                    out,
                    "# {:<28} {:>9} {:>14.3} {:>14.3}",
                    name,
                    t.count,
                    t.total as f64 / 1e6,
                    t.self_time as f64 / 1e6
                );
            }
        }
        out
    }

    /// The full results document (host, checks, summaries, spans) as
    /// one JSON object.
    pub fn render_results(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":{},\"workload\":{},\"seed\":{},\"trace\":{},\"host\":{{",
            json_str(SCHEMA),
            json_str(&self.workload),
            self.seed,
            self.trace
        );
        for (i, (k, v)) in self.host.iter().enumerate() {
            let _ = write!(out, "{}{}:{}", comma(i), json_str(k), json_str(v));
        }
        let _ = write!(
            out,
            "}},\"attempted\":{},\"failed\":{},\"error_rate\":{},\"checks\":[",
            self.attempted,
            self.failed,
            json_num(self.error_rate())
        );
        for (i, c) in self.checks.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                comma(i),
                json_str(&c.name),
                c.ok,
                json_str(&c.detail)
            );
        }
        out.push_str("],\"metrics\":{");
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}{}:{{\"value\":{},\"unit\":{}",
                comma(i),
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            );
            if let Some(s) = Summary::of(&m.samples) {
                let _ = write!(
                    out,
                    ",\"n\":{},\"p25\":{},\"median\":{},\"p75\":{}",
                    s.n,
                    json_num(s.p25),
                    json_num(s.p50),
                    json_num(s.p75)
                );
                if let Some((p, v)) = s.top {
                    let _ = write!(
                        out,
                        ",\"top_percentile\":{},\"top_value\":{}",
                        json_num(p),
                        json_num(v)
                    );
                }
            }
            out.push('}');
        }
        out.push_str("},\"spans\":{");
        for (i, (name, t)) in self.layers.iter().enumerate() {
            let _ = write!(
                out,
                "{}{}:{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                comma(i),
                json_str(name),
                t.count,
                t.total,
                t.self_time
            );
        }
        out.push_str("}}");
        out
    }

    /// The final line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` (the `value` and `unit` of each listed metric).
    pub fn render_verdict(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        let listed = self
            .listed()
            .iter()
            .filter_map(|&(name, _)| self.metrics.iter().find(|m| m.name == name));
        for (i, m) in listed.enumerate() {
            let _ = write!(
                out,
                "{}{}:{{\"value\":{},\"unit\":{}}}",
                comma(i),
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            );
        }
        out.push_str("}}");
        out
    }
}

fn comma(i: usize) -> &'static str {
    if i == 0 {
        ""
    } else {
        ","
    }
}

/// A JSON number with every digit Rust's shortest round-trip form
/// gives; non-finite values (which JSON cannot hold) become `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use facepoint_bench::json::{parse, Json};

    fn keys(v: &Json) -> Vec<&str> {
        match v {
            Json::Obj(map) => map.keys().map(String::as_str).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn sample() -> Report {
        let mut r = Report {
            workload: "distinct_n8".into(),
            seed: 7,
            host: vec![("cpu", "Some \"quoted\" CPU".into()), ("nproc", "2".into())],
            metrics: vec![
                Metric::median("throughput_fps", "1/s", vec![3.0, 1.0, 2.0]),
                Metric::single("setup_s", "s", 0.000_123_456_789),
                Metric::single("peak_rss_mb", "MB", 51.5),
                Metric::single("accuracy", "ratio", 1.0),
            ],
            ..Report::default()
        };
        r.attempted = 10;
        r.check("classes == functions", true, "5 == 5");
        r
    }

    #[test]
    fn verdict_has_exactly_the_contract_keys() {
        let r = sample();
        let v = parse(&r.render_verdict()).unwrap();
        assert_eq!(keys(&v), ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(11.0));
        assert_eq!(v.get("failed").and_then(Json::as_f64), Some(0.0));
        let metrics = v.get("metrics").unwrap();
        // The listed metrics only: `accuracy` stays in the summary.
        assert_eq!(keys(metrics), ["peak_rss_mb", "setup_s", "throughput_fps"]);
        let tput = metrics.get("throughput_fps").unwrap();
        assert_eq!(keys(tput), ["unit", "value"]);
        assert_eq!(tput.get("value").and_then(Json::as_f64), Some(2.0));
        assert_eq!(tput.get("unit").and_then(Json::as_str), Some("1/s"));
        // Values keep all their digits.
        let setup = metrics.get("setup_s").and_then(|m| m.get("value"));
        assert_eq!(setup.and_then(Json::as_f64), Some(0.000_123_456_789));
    }

    #[test]
    fn failed_check_or_missing_value_makes_the_run_incorrect() {
        let mut r = sample();
        r.check("census survives restart", false, "3 != 4");
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (12, 1));
        let v = parse(&r.render_verdict()).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(false)));

        let mut r = sample();
        r.metrics.push(Metric::percentile(
            "canon_p99_us",
            "us",
            99.0,
            vec![1.0; 50],
        ));
        assert!(!r.correct(), "p99 of 50 samples is not supported");

        let mut r = sample();
        r.metrics.retain(|m| m.name != "peak_rss_mb");
        assert!(!r.correct(), "a listed metric is missing");
        let mut r = sample();
        r.metrics[2].unit = "MiB";
        assert!(!r.correct(), "a listed metric is in another unit");
        let mut r = sample();
        r.trace = true;
        assert!(!r.correct(), "the traced run lists the per-layer metrics");
    }

    #[test]
    fn listed_metrics_are_those_of_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let manifest = parse(&text).unwrap();
        fn field<'a>(m: &'a Json, f: &str) -> &'a str {
            m.get(f).and_then(Json::as_str).unwrap()
        }
        let listed = |key: &str| -> Vec<(&str, &str)> {
            let metrics = manifest.get(key).and_then(Json::as_arr).unwrap();
            metrics
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        assert_eq!(listed("end_to_end"), END_TO_END);
        assert_eq!(listed("per_layer"), PER_LAYER);
    }

    #[test]
    fn results_document_schema() {
        let mut r = sample();
        r.layers.insert(
            "engine.finish",
            NameTotals {
                count: 1,
                total: 10,
                self_time: 4,
            },
        );
        let v = parse(&r.render_results()).unwrap();
        assert_eq!(
            keys(&v),
            [
                "attempted",
                "checks",
                "error_rate",
                "failed",
                "host",
                "metrics",
                "schema",
                "seed",
                "spans",
                "trace",
                "workload"
            ]
        );
        assert_eq!(v.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(
            v.get("host")
                .and_then(|h| h.get("cpu"))
                .and_then(Json::as_str),
            Some("Some \"quoted\" CPU")
        );
        let tput = v
            .get("metrics")
            .and_then(|m| m.get("throughput_fps"))
            .unwrap();
        assert_eq!(keys(tput), ["median", "n", "p25", "p75", "unit", "value"]);
        let check = &v.get("checks").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(keys(check), ["detail", "name", "ok"]);
        let span = v.get("spans").and_then(|s| s.get("engine.finish")).unwrap();
        assert_eq!(keys(span), ["count", "self_ns", "total_ns"]);
        assert!(r.render_text().lines().all(|l| l.starts_with('#')));
    }
}
