//! `RecencyReport::compute` over a shared, pre-sorted member list is
//! bit-identical to the copying implementation it replaced.
//!
//! [`reference_compute`] is that implementation, kept verbatim: it
//! sorts its `Vec` by source id, collects the timestamps into a
//! temporary `f64` vector, scores them with [`z_scores`] and splits the
//! pairs into two new vectors. The engine's `compute` reads the same
//! `f64`s straight from the pairs, in the same order, and shares its
//! input as `normal` when nothing is exceptional; every field of the
//! two reports must agree exactly, on random timestamp sets and on the
//! edges the z-score split is sensitive to: σ = 0, a single source,
//! points at |z| = 3 exactly, and timestamps at the ends of `i64`.
//!
//! The last test builds the same data twice, once with `Heartbeat`
//! missing its sid index, so that relevant recencies are read by the
//! scan fallback (in slot order, not sid order); both databases must
//! report the same lists.

use proptest::prelude::*;
use trac::core::{
    z_scores, Guarantee, MemberPair, MemberPairs, RecencyReport, ReportConfig, Session,
};
use trac::exec::execute_statement;
use trac::storage::{heartbeat, Database, HEARTBEAT_TABLE};
use trac::types::{SourceId, Timestamp, TsDuration, Value};

/// The fields of a report that `compute` derives.
type Derived = (
    Vec<MemberPair>,
    Vec<MemberPair>,
    Option<MemberPair>,
    Option<MemberPair>,
    Option<TsDuration>,
);

/// The `Vec`-based `compute` this crate shipped before member lists
/// were shared, unchanged but for returning its fields as a tuple.
fn reference_compute(mut sources: Vec<MemberPair>, config: ReportConfig) -> Derived {
    sources.sort_by(|a, b| a.0.cmp(&b.0));
    let (normal, exceptional) = if config.detect_exceptional && sources.len() >= 2 {
        let xs: Vec<f64> = sources.iter().map(|(_, t)| t.micros() as f64).collect();
        let z = z_scores(&xs);
        let mut normal = Vec::with_capacity(sources.len());
        let mut exceptional = Vec::new();
        for (pair, zi) in sources.into_iter().zip(z) {
            if zi.abs() >= config.z_threshold {
                exceptional.push(pair);
            } else {
                normal.push(pair);
            }
        }
        (normal, exceptional)
    } else {
        (sources, Vec::new())
    };
    let least_recent = normal.iter().min_by_key(|(_, t)| *t).cloned();
    let most_recent = normal.iter().max_by_key(|(_, t)| *t).cloned();
    let inconsistency_bound = match (&least_recent, &most_recent) {
        (Some((_, lo)), Some((_, hi))) => Some(*hi - *lo),
        _ => None,
    };
    (
        normal,
        exceptional,
        least_recent,
        most_recent,
        inconsistency_bound,
    )
}

fn derived(r: &RecencyReport) -> Derived {
    (
        r.normal.to_vec(),
        r.exceptional.to_vec(),
        r.least_recent.clone(),
        r.most_recent.clone(),
        r.inconsistency_bound,
    )
}

/// Pairs named `s{i}` in input order (so sorting by id reorders them
/// whenever there are more than ten).
fn pairs(micros: &[i64]) -> Vec<MemberPair> {
    micros
        .iter()
        .enumerate()
        .map(|(i, &m)| (SourceId::new(format!("s{i}")), Timestamp::from_micros(m)))
        .collect()
}

fn configs() -> [ReportConfig; 3] {
    [
        ReportConfig::default(),
        ReportConfig {
            z_threshold: 1.5,
            ..ReportConfig::default()
        },
        ReportConfig {
            detect_exceptional: false,
            ..ReportConfig::default()
        },
    ]
}

/// Computes both ways under every config and demands equal fields;
/// returns the default-config report.
fn check(sources: Vec<MemberPair>) -> RecencyReport {
    let mut first = None;
    for config in configs() {
        let shared = MemberPairs::from(sources.clone());
        let report = RecencyReport::compute(shared.clone(), Guarantee::Minimum, config);
        assert_eq!(
            derived(&report),
            reference_compute(sources.clone(), config),
            "{config:?} over {sources:?}"
        );
        if report.exceptional.is_empty() {
            assert!(report.normal.ptr_eq(&shared), "normal is the input list");
        }
        first.get_or_insert(report);
    }
    first.expect("three configs")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn compute_is_bit_identical_to_the_vec_reference(
        micros in proptest::collection::vec(
            prop_oneof![
                4 => 0..1_000_000_000i64,
                1 => Just(5_000_000_000_000i64),
                1 => any::<i64>(),
                1 => prop_oneof![Just(i64::MIN), Just(i64::MAX)],
            ],
            0..40,
        ),
    ) {
        // Differences of `i64` extremes overflow the bound, in both
        // implementations alike; keep the pair within range.
        prop_assume!(
            micros.iter().max().zip(micros.iter().min())
                .is_none_or(|(hi, lo)| hi.checked_sub(*lo).is_some())
        );
        check(pairs(&micros));
    }
}

#[test]
fn zero_spread_one_source_and_empty_lists_match() {
    // σ = 0: every z-score is 0, nothing is exceptional.
    let r = check(pairs(&[7; 12]));
    assert!(r.exceptional.is_empty());
    assert_eq!(r.inconsistency_bound, Some(TsDuration::ZERO));
    let r = check(pairs(&[42]));
    assert_eq!(r.relevant_count(), 1);
    let r = check(Vec::new());
    assert!(r.least_recent.is_none());
}

#[test]
fn points_at_exactly_three_sigma_are_exceptional_in_both() {
    // Nine sources at 0 and one at ±10: μ = ±1, σ = 3 and the odd one
    // out scores ±3.0 exactly, on the `>=` boundary.
    for far in [10, -10] {
        let mut micros = vec![0; 9];
        micros.push(far);
        let xs: Vec<f64> = micros.iter().map(|&m| m as f64).collect();
        assert_eq!(z_scores(&xs)[9].abs(), 3.0);
        let r = check(pairs(&micros));
        assert_eq!(r.exceptional.len(), 1);
        assert_eq!(r.exceptional[0].0.as_str(), "s9");
    }
}

#[test]
fn extreme_micros_match() {
    check(pairs(&[i64::MAX, i64::MAX - 1, i64::MAX, 0]));
    check(pairs(&[i64::MIN, i64::MIN + 1, -1, i64::MIN]));
    let mut micros = vec![i64::MAX; 11];
    micros.push(1);
    let r = check(pairs(&micros));
    assert_eq!(r.exceptional.len(), 1);
}

/// Twenty sources, written in reverse id order so the heartbeat table's
/// slot order is not sid order, one of them a month stale.
fn grid_db(sid_index: bool) -> Database {
    let db = Database::new();
    if !sid_index {
        db.drop_table(HEARTBEAT_TABLE).unwrap();
        db.create_table(heartbeat::heartbeat_schema()).unwrap();
    }
    execute_statement(
        &db,
        "CREATE TABLE t (s TEXT NOT NULL, v INT) SOURCE COLUMN s",
    )
    .unwrap();
    let t = db.begin_read().table_id("t").unwrap();
    let base = Timestamp::parse("2006-03-15 14:00:00").unwrap();
    db.with_write(|w| {
        for i in (0..20i64).rev() {
            let sid = SourceId::new(format!("m{i:02}"));
            let at = if i == 7 {
                base - TsDuration::from_mins(30 * 24 * 60)
            } else {
                base + TsDuration::from_secs(i * 13 % 60)
            };
            w.ingest(&sid, t, vec![sid.to_value(), Value::Int(i % 5)], at)?;
        }
        Ok(())
    })
    .unwrap();
    db
}

#[test]
fn unindexed_heartbeat_reports_the_same_lists() {
    let indexed = grid_db(true);
    let unindexed = grid_db(false);
    let hb = |db: &Database| {
        let txn = db.begin_read();
        let id = txn.table_id(HEARTBEAT_TABLE).unwrap();
        txn.has_index(id, 0)
    };
    assert!(hb(&indexed) && !hb(&unindexed));
    let first_sid = |db: &Database| {
        let txn = db.begin_read();
        let id = txn.table_id(HEARTBEAT_TABLE).unwrap();
        txn.scan(id).unwrap()[0][0].clone()
    };
    assert_eq!(first_sid(&unindexed), Value::text("m19"), "slot order");
    let with = Session::new(indexed);
    let without = Session::new(unindexed);
    for sql in [
        "SELECT s FROM t WHERE s IN ('m03', 'm07', 'm12', 'm01')",
        "SELECT s FROM t WHERE v > 1",
        "SELECT COUNT(*) FROM t",
    ] {
        // Registration, then a delta serve of the same state.
        for _ in 0..2 {
            let a = with.recency_report(sql).unwrap();
            let b = without.recency_report(sql).unwrap();
            assert_eq!(a.result, b.result, "{sql}");
            assert_eq!(a.report.normal, b.report.normal, "{sql}");
            assert_eq!(a.report.exceptional, b.report.exceptional, "{sql}");
            assert_eq!(a.report.least_recent, b.report.least_recent, "{sql}");
            assert_eq!(a.report.most_recent, b.report.most_recent, "{sql}");
            assert_eq!(a.report.guarantee, b.report.guarantee, "{sql}");
            assert!(a.report.normal.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }
    let all = without.recency_report("SELECT s FROM t").unwrap();
    assert_eq!(all.report.exceptional.len(), 1, "m07 is a month stale");
    assert_eq!(all.report.exceptional[0].0.as_str(), "m07");
}
