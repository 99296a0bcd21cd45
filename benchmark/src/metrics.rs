//! The metric tables: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` lists the same names (a test holds the two together);
//! `--aa` reads the bounds from here.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, bound }
}

/// What a consumer, a producer and an operator feel; untraced run only.
/// Wall times spread 2–20 % from run to run on this host whatever the
/// window does (its memory latency wanders, see the README), so they get
/// the widest bound; the ratio and the memory metric, which that noise
/// cancels out of, keep the tight one.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", 0.25),
    e2e("report_p50_ms", "ms", 0.25),
    e2e("report_p90_ms", "ms", 0.25),
    e2e("plain_p50_ms", "ms", 0.25),
    e2e("report_over_plain", "ratio", 0.10),
    e2e("reports_per_s", "1/s", 0.25),
    e2e("ingest_rows_per_s", "1/s", 0.25),
    e2e("peak_rss_mb", "MB", 0.10),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn layer(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit }
}

/// Traced run only; diagnostic, no bounds. `<span>_us` is the median time
/// of one call, `<span>_share` the span's self time over the traced op
/// loop (reports + write batches + session closes).
pub const PER_LAYER: [PerLayer; 46] = [
    layer("sql.parse_us", "us"),
    layer("sql.parse_share", "ratio"),
    layer("expr.bind_us", "us"),
    layer("expr.bind_share", "ratio"),
    layer("expr.dnf_us", "us"),
    layer("expr.dnf_share", "ratio"),
    layer("core.plan_build_us", "us"),
    layer("core.plan_build_share", "ratio"),
    layer("core.register_us", "us"),
    layer("core.register_share", "ratio"),
    layer("plan.lower_us", "us"),
    layer("plan.lower_share", "ratio"),
    layer("exec.user_query_us", "us"),
    layer("exec.user_query_share", "ratio"),
    layer("core.relevance_fold_us", "us"),
    layer("core.relevance_fold_share", "ratio"),
    layer("core.relevance_rescan_us", "us"),
    layer("core.relevance_rescan_share", "ratio"),
    layer("core.stats_us", "us"),
    layer("core.stats_share", "ratio"),
    layer("storage.begin_read_us", "us"),
    layer("storage.begin_read_share", "ratio"),
    layer("storage.temp_materialize_us", "us"),
    layer("storage.temp_materialize_share", "ratio"),
    layer("storage.session_close_us", "us"),
    layer("storage.session_close_share", "ratio"),
    layer("storage.write_batch_us", "us"),
    layer("storage.write_batch_share", "ratio"),
    layer("expr.dnf_conjuncts", "count"),
    layer("core.plan_subqueries", "count"),
    layer("exec.result_rows", "count"),
    layer("exec.ns_per_row", "ns"),
    layer("core.members", "count"),
    layer("core.fold_events", "count"),
    layer("storage.temp_rows", "count"),
    layer("storage.write_us_per_row", "us"),
    layer("storage.commit_us", "us"),
    layer("storage.changelog_events_per_row", "count"),
    layer("core.delta_serve_ratio", "ratio"),
    layer("core.rescan_serves", "1/report"),
    layer("core.registrations", "1/report"),
    layer("core.plan_cache_hit_ratio", "ratio"),
    layer("core.session_drift_ratio", "ratio"),
    layer("core.session_residual_us", "us"),
    layer("trace.coverage", "ratio"),
    layer("trace.overhead_ratio", "ratio"),
];

/// The table's own `&'static str` for a per-layer metric built at run
/// time (`<span>_us`, `<span>_share`). Panics on a name the table lacks:
/// a span without a declared metric is a bug in this program.
pub fn per_layer_name(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not in PER_LAYER"))
        .name
}

/// The unit a metric is printed in. Panics on a name neither table has.
pub fn unit_of(name: &str) -> &'static str {
    let e2e = END_TO_END.iter().map(|m| (m.name, m.unit));
    let layers = PER_LAYER.iter().map(|m| (m.name, m.unit));
    e2e.chain(layers)
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is in no metric table"))
        .1
}

/// True when a run produced exactly its table's metrics, in its order.
pub fn names_match(traced: bool, got: &[(&'static str, f64)]) -> bool {
    let got = got.iter().map(|m| m.0);
    if traced {
        got.eq(PER_LAYER.iter().map(|m| m.name))
    } else {
        got.eq(END_TO_END.iter().map(|m| m.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Kind;

    /// `BENCHMARK.json` and the tables above name the same things. The
    /// file is flat enough that counting `"name"` keys pins it.
    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let has = |name: &str, rest: &str| {
            assert!(
                text.contains(&format!("{{\"name\": \"{name}\", {rest}")),
                "BENCHMARK.json lacks {name} with {rest}"
            );
        };
        for m in &END_TO_END {
            has(m.name, &format!("\"unit\": \"{}\", \"better\": ", m.unit));
            assert!(
                text.contains(&format!("\"bound\": {}}}", m.bound)),
                "{}",
                m.name
            );
        }
        for m in &PER_LAYER {
            has(m.name, &format!("\"unit\": \"{}\", \"better\": ", m.unit));
        }
        for k in Kind::ALL {
            assert!(k.why().len() <= 200 && !k.why().contains('\n'));
            has(k.name(), &format!("\"why\": \"{}\"}}", k.why()));
        }
        let names = text.matches("\"name\": ").count();
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + Kind::ALL.len());
    }
}
