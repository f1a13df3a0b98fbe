//! Metric definitions, result records and the `compare` verdicts.

use serde::Value;
use sts_serve::protocol::obj;

use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics; `BENCHMARK.json` lists the same (a test holds the
/// two together). Every workload reports every one of them.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "solve_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "solves_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.2,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// The per-layer metrics of the traced run: name, unit, better direction.
/// Layer = crate. `run.*` come from the traced window of the workload
/// itself; the rest are probes of one layer on the workload's operator.
pub const PER_LAYER: [(&str, &str, Better); 71] = {
    use Better::{Higher as H, Lower as L};
    [
        ("host.stream_gbps", "GB/s", H),
        ("host.nproc", "count", H),
        ("host.threads", "count", H),
        ("numa.dispatch_us", "us", L),
        ("matrix.validate_us", "us", L),
        ("matrix.spmv_us", "us", L),
        ("matrix.ic0_seq_ms", "ms", L),
        ("core.analysis_s", "s", L),
        ("core.layout_build_ms", "ms", L),
        ("core.packs", "count", L),
        ("core.super_rows", "count", L),
        ("core.largest_pack_share", "share", H),
        ("core.slab_bytes", "bytes", L),
        ("core.sweep_fwd_us", "us", L),
        ("core.sweep_bwd_us", "us", L),
        ("core.sweep_seq_us", "us", L),
        ("core.sweep_split_us", "us", L),
        ("core.sweep_f32_us", "us", L),
        ("core.sweep_csrls_us", "us", L),
        ("core.sweep_batch4_per_rhs_us", "us", L),
        ("core.parallel_ic0_ms", "ms", L),
        ("core.sweep_bytes", "bytes", L),
        ("core.sweep_gbps", "GB/s", H),
        ("core.roofline_ratio", "ratio", H),
        ("trace.gather_share", "share", H),
        ("trace.chain_share", "share", L),
        ("trace.gatewait_share", "share", L),
        ("trace.spans_dropped", "count", L),
        ("krylov.pcg_ms", "ms", L),
        ("krylov.iters", "count", L),
        ("krylov.precond_share", "share", L),
        ("krylov.precond_apply_us", "us", L),
        ("krylov.spmv_us", "us", L),
        ("krylov.vecops_ms", "ms", L),
        ("krylov.rebind_ms", "ms", L),
        ("krylov.ic0_build_ms", "ms", L),
        ("krylov.batch4_ms", "ms", L),
        ("krylov.block4_ms", "ms", L),
        ("krylov.block_steps", "count", L),
        ("krylov.deflations", "count", L),
        ("krylov.recovery_rungs", "count", L),
        ("serve.cold_ms", "ms", L),
        ("serve.submit_values_ms", "ms", L),
        ("serve.roundtrip_ms", "ms", L),
        ("serve.encode_ms", "ms", L),
        ("serve.decode_ms", "ms", L),
        ("serve.handle_ms", "ms", L),
        ("serve.pcg_ms", "ms", L),
        ("serve.service_overhead_ms", "ms", L),
        ("serve.wire_ms", "ms", L),
        ("serve.reply_parse_ms", "ms", L),
        ("serve.request_bytes", "bytes", L),
        ("serve.reply_bytes", "bytes", L),
        ("serve.cache_hit_share", "share", H),
        ("serve.evictions", "count", L),
        ("serve.workspace_reuse_share", "share", H),
        ("run.units", "count", H),
        ("run.solve_ms_p50_untraced", "ms", L),
        ("run.solve_ms_p50_traced", "ms", L),
        ("run.solve_ms_tail_traced", "ms", L),
        ("run.tail_percentile", "count", H),
        ("run.refactor_ms_p50_traced", "ms", L),
        ("run.trace_overhead_share", "share", L),
        ("run.layers_cover_share", "share", H),
        ("run.iters_per_solve", "count", L),
        ("run.spans", "count", H),
        ("run.spans_dropped", "count", L),
        ("run.span_bench_share", "share", L),
        ("run.span_core_share", "share", L),
        ("run.span_krylov_share", "share", L),
        ("run.span_serve_share", "share", L),
    ]
};

/// The `metrics` object of a result line: `{name: {"value": v, "unit": u}}`.
pub fn metrics_value(metrics: &[(&str, f64, &str)]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                let entry = obj(vec![
                    ("value", Value::Float(value)),
                    ("unit", Value::Str(unit.to_string())),
                ]);
                (name.to_string(), entry)
            })
            .collect(),
    )
}

/// The one JSON line a run ends with.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let line = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(attempted)),
        ("failed", Value::UInt(failed)),
        ("metrics", metrics_value(metrics)),
    ]);
    serde_json::to_string(&line).expect("the value model always renders")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread of either side exceeds the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Comparison {
    pub a: f64,
    pub b: f64,
    /// `b / a`: the base is A.
    pub ratio: f64,
    pub verdict: Verdict,
}

/// Compares the runs of one metric on one workload: medians, B relative to
/// A, against the metric's bound.
pub fn compare_metric(def: &EndToEnd, a: &[f64], b: &[f64]) -> Comparison {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worsening = match def.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let spread = |v: &[f64]| if v.len() >= 2 { stats::spread(v) } else { 0.0 };
    let verdict = if spread(a).max(spread(b)) > def.bound {
        Verdict::Unresolved
    } else if worsening > def.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    Comparison {
        a: ma,
        b: mb,
        ratio: mb / ma,
        verdict,
    }
}

/// Reads `values` of `workloads.<workload>.metrics.<metric>` from a suite
/// result file.
pub fn metric_values(file: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    file.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("values")?
        .as_array()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_serde_json() {
        let metrics = [
            ("solve_ms_p50", 6.512_345_678_9, "ms"),
            ("setup_s", 2.75, "s"),
        ];
        let line = result_line(true, 1500, 0, &metrics);
        let v = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(1500));
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0));
        let p50 = v
            .get("metrics")
            .and_then(|m| m.get("solve_ms_p50"))
            .expect("metric present");
        // Every digit survives: the value is rendered shortest-round-trip.
        assert_eq!(
            p50.get("value").and_then(Value::as_f64),
            Some(6.512_345_678_9)
        );
        assert_eq!(p50.get("unit").and_then(Value::as_str), Some("ms"));
        assert_eq!(serde_json::to_string(&v).expect("renders"), line);
        // Exactly the four keys of the contract.
        let Value::Object(entries) = &v else {
            panic!("object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = |m: f64| vec![m * 0.999, m, m * 1.001, m, m];
        let lower = EndToEnd {
            name: "t_ms",
            unit: "ms",
            better: Better::Lower,
            bound: 0.08,
        };
        assert_eq!(
            compare_metric(&lower, &steady(10.0), &steady(10.5)).verdict,
            Verdict::Ok
        );
        assert_eq!(
            compare_metric(&lower, &steady(10.0), &steady(11.0)).verdict,
            Verdict::Worse
        );
        assert_eq!(
            compare_metric(&lower, &steady(10.0), &steady(5.0)).verdict,
            Verdict::Ok
        );
        let higher = EndToEnd {
            name: "rate",
            unit: "1/s",
            better: Better::Higher,
            bound: 0.08,
        };
        assert_eq!(
            compare_metric(&higher, &steady(100.0), &steady(90.0)).verdict,
            Verdict::Worse
        );
        assert_eq!(
            compare_metric(&higher, &steady(100.0), &steady(120.0)).verdict,
            Verdict::Ok
        );
        // Quartiles 8.5 and 11.5 around a median of 10: a spread of 0.3.
        let noisy = vec![8.0, 9.0, 10.0, 11.0, 12.0];
        let c = compare_metric(&lower, &noisy, &steady(20.0));
        assert_eq!(c.verdict, Verdict::Unresolved);
        assert_eq!(c.ratio, 2.0);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(names.iter().all(|n| name_ok(n)));
        let unit_ok = |s: &str| {
            s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.1)));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    /// `BENCHMARK.json` at the repo root is written by hand; this holds it
    /// to what the package emits.
    #[test]
    fn benchmark_json_lists_what_this_package_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = serde_json::from_str(
            &std::fs::read_to_string(path).expect("BENCHMARK.json is readable"),
        )
        .expect("BENCHMARK.json is JSON");
        let Value::Object(entries) = &doc else {
            panic!("object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let direction = |better: Better| match better {
            Better::Lower => "lower".to_string(),
            Better::Higher => "higher".to_string(),
        };
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("array")
                .to_vec()
        };
        let text = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .expect("string")
                .to_string()
        };

        assert_eq!(list("paths"), [Value::Str("benchmark".to_string())]);
        let seconds = doc.get("run_seconds").and_then(Value::as_f64);
        assert_eq!(seconds, Some(crate::suite::DEFAULT_SECONDS));

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);
        assert!(expected
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

        let end_to_end: Vec<(String, String, String, Option<f64>)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect();
        let expected: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    direction(m.better),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(end_to_end, expected);

        let per_layer: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let expected: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string(), direction(m.2)))
            .collect();
        assert_eq!(per_layer, expected);
    }
}
