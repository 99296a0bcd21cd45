//! Recency / consistency descriptive statistics (Section 4.3).
//!
//! Given the recency timestamps of a query's relevant sources, the report
//! splits off "exceptional" (z-score) sources, then computes over the
//! normal remainder: the least recent source (a consistent snapshot
//! horizon — "all events with timestamps before it must have been
//! reported from all sources"), the most recent source, and their
//! difference, the **bound of inconsistency**.

use crate::relevance::Guarantee;
use crate::zscore::ZScore;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Weak};
use trac_types::{SourceId, Timestamp, TsDuration};

/// A relevant source together with its recency timestamp.
pub type MemberPair = (SourceId, Timestamp);

/// An immutable, sid-sorted list of member pairs behind one reference
/// count. The maintained report state, the [`RecencyReport`] built from
/// it and the session's pending report tables all hold the same list,
/// so handing it on is a pointer copy, never a pair copy.
///
/// Every constructor leaves the pairs sorted by source id (stably: pairs
/// with equal ids keep their input order).
#[derive(Clone, Default, PartialEq, Eq)]
pub struct MemberPairs(Arc<Vec<MemberPair>>);

impl MemberPairs {
    /// True when both lists are the same allocation (not merely equal).
    pub fn ptr_eq(&self, other: &MemberPairs) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// A handle that finds this list again while something else keeps
    /// it alive, without keeping it alive itself.
    pub(crate) fn downgrade(&self) -> WeakMemberPairs {
        WeakMemberPairs(Arc::downgrade(&self.0))
    }

    /// Splits the list into the pairs `taken` rejects and those it
    /// selects, each still in sid order.
    fn partition(&self, taken: impl Fn(&MemberPair) -> bool) -> (MemberPairs, MemberPairs) {
        let (yes, no): (Vec<_>, Vec<_>) = self.0.iter().cloned().partition(taken);
        (MemberPairs(Arc::new(no)), MemberPairs(Arc::new(yes)))
    }
}

/// A non-owning handle to a [`MemberPairs`] list (see
/// [`MemberPairs::downgrade`]).
pub(crate) struct WeakMemberPairs(Weak<Vec<MemberPair>>);

impl WeakMemberPairs {
    /// The list, if some owner still holds it.
    pub(crate) fn upgrade(&self) -> Option<MemberPairs> {
        self.0.upgrade().map(MemberPairs)
    }
}

impl From<Vec<MemberPair>> for MemberPairs {
    /// Sorts stably by source id (a single linear pass when the pairs
    /// already are).
    fn from(mut pairs: Vec<MemberPair>) -> MemberPairs {
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        MemberPairs(Arc::new(pairs))
    }
}

impl From<&BTreeMap<SourceId, Timestamp>> for MemberPairs {
    /// The map's pairs, already in sid order.
    fn from(members: &BTreeMap<SourceId, Timestamp>) -> MemberPairs {
        MemberPairs(Arc::new(
            members.iter().map(|(s, t)| (s.clone(), *t)).collect(),
        ))
    }
}

impl FromIterator<MemberPair> for MemberPairs {
    fn from_iter<I: IntoIterator<Item = MemberPair>>(iter: I) -> MemberPairs {
        MemberPairs::from(iter.into_iter().collect::<Vec<_>>())
    }
}

impl Deref for MemberPairs {
    type Target = [MemberPair];
    fn deref(&self) -> &[MemberPair] {
        self.0.as_slice()
    }
}

impl<'a> IntoIterator for &'a MemberPairs {
    type Item = &'a MemberPair;
    type IntoIter = std::slice::Iter<'a, MemberPair>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl PartialEq<Vec<MemberPair>> for MemberPairs {
    fn eq(&self, other: &Vec<MemberPair>) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<MemberPairs> for Vec<MemberPair> {
    fn eq(&self, other: &MemberPairs) -> bool {
        *self == *other.0
    }
}

impl fmt::Debug for MemberPairs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Tunables for report computation.
#[derive(Debug, Clone, Copy)]
pub struct ReportConfig {
    /// |z| threshold above which a source is exceptional (paper: 3).
    pub z_threshold: f64,
    /// Disable outlier detection entirely (ablation).
    pub detect_exceptional: bool,
}

impl Default for ReportConfig {
    fn default() -> ReportConfig {
        ReportConfig {
            z_threshold: 3.0,
            detect_exceptional: true,
        }
    }
}

/// The recency/consistency report accompanying a query result.
#[derive(Debug, Clone)]
pub struct RecencyReport {
    /// "Normal" relevant sources and their recency timestamps, sorted by
    /// source id (contents of the `sys_temp_a…` table). When no source
    /// is exceptional this is the very list the report was computed
    /// from.
    pub normal: MemberPairs,
    /// Exceptional (outlier) relevant sources (the `sys_temp_e…` table).
    pub exceptional: MemberPairs,
    /// Least recent normal source.
    pub least_recent: Option<(SourceId, Timestamp)>,
    /// Most recent normal source.
    pub most_recent: Option<(SourceId, Timestamp)>,
    /// `most_recent − least_recent`: the bound of inconsistency.
    pub inconsistency_bound: Option<TsDuration>,
    /// Strength of the relevant-source computation that fed this report.
    pub guarantee: Guarantee,
}

impl RecencyReport {
    /// Builds a report from `(source, recency)` pairs. `sources` is
    /// already sid-sorted, so nothing is re-sorted; with no exceptional
    /// source, `normal` shares `sources` itself.
    pub fn compute(
        sources: MemberPairs,
        guarantee: Guarantee,
        config: ReportConfig,
    ) -> RecencyReport {
        let micros = |(_, t): &MemberPair| t.micros() as f64;
        let z = (config.detect_exceptional && sources.len() >= 2)
            .then(|| ZScore::of(sources.iter().map(micros)));
        let exceptional_at = |pair: &MemberPair| {
            z.as_ref()
                .is_some_and(|z| z.score(micros(pair)).abs() >= config.z_threshold)
        };
        let (normal, exceptional) = if sources.iter().any(exceptional_at) {
            sources.partition(exceptional_at)
        } else {
            (sources, MemberPairs::default())
        };
        let least_recent = normal.iter().min_by_key(|(_, t)| *t).cloned();
        let most_recent = normal.iter().max_by_key(|(_, t)| *t).cloned();
        let inconsistency_bound = match (&least_recent, &most_recent) {
            (Some((_, lo)), Some((_, hi))) => Some(*hi - *lo),
            _ => None,
        };
        RecencyReport {
            normal,
            exceptional,
            least_recent,
            most_recent,
            inconsistency_bound,
            guarantee,
        }
    }

    /// Total number of relevant sources covered (normal + exceptional).
    pub fn relevant_count(&self) -> usize {
        self.normal.len() + self.exceptional.len()
    }

    /// Additional descriptive statistics over the *normal* sources'
    /// recency timestamps, relative to a reference instant (usually "the
    /// time the question was asked"). The paper computes min/max/range
    /// and notes "other statistics could be computed as well" — these are
    /// the ones a monitoring dashboard actually wants.
    pub fn staleness_summary(&self, reference: Timestamp) -> Option<StalenessSummary> {
        if self.normal.is_empty() {
            return None;
        }
        let mut stale: Vec<i64> = self
            .normal
            .iter()
            .map(|(_, t)| (reference - *t).micros())
            .collect();
        stale.sort_unstable();
        let n = stale.len();
        let pick = |q: f64| {
            // Nearest-rank percentile.
            let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
            TsDuration::from_micros(stale[idx])
        };
        let mean = TsDuration::from_micros(
            (stale.iter().map(|&x| x as i128).sum::<i128>() / n as i128) as i64,
        );
        Some(StalenessSummary {
            reference,
            mean,
            median: pick(0.5),
            p90: pick(0.9),
            max: TsDuration::from_micros(*stale.last().expect("non-empty")),
            min: TsDuration::from_micros(stale[0]),
            excluded_exceptional: self.exceptional.len(),
        })
    }
}

/// Staleness of the normal relevant sources relative to a reference time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StalenessSummary {
    /// The instant staleness is measured against.
    pub reference: Timestamp,
    /// Mean staleness.
    pub mean: TsDuration,
    /// Median staleness.
    pub median: TsDuration,
    /// 90th-percentile staleness (nearest rank).
    pub p90: TsDuration,
    /// Worst (most stale) normal source.
    pub max: TsDuration,
    /// Best (most recent) normal source.
    pub min: TsDuration,
    /// How many exceptional sources the summary excludes.
    pub excluded_exceptional: usize,
}

impl fmt::Display for StalenessSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "staleness vs {}: min {}, median {}, mean {}, p90 {}, max {}{}",
            self.reference,
            self.min,
            self.median,
            self.mean,
            self.p90,
            self.max,
            if self.excluded_exceptional > 0 {
                format!(" ({} exceptional excluded)", self.excluded_exceptional)
            } else {
                String::new()
            }
        )
    }
}

impl fmt::Display for RecencyReport {
    /// Renders the NOTICE block of the paper's prototype session.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.exceptional.is_empty() {
            writeln!(
                f,
                "NOTICE: {} exceptional relevant data source(s) detected",
                self.exceptional.len()
            )?;
        }
        match (&self.least_recent, &self.most_recent) {
            (Some((ls, lt)), Some((ms, mt))) => {
                writeln!(f, "NOTICE: The least recent data source: {ls}, {lt}")?;
                writeln!(f, "NOTICE: The most recent data source: {ms}, {mt}")?;
                writeln!(
                    f,
                    "NOTICE: Bound of inconsistency: {}",
                    self.inconsistency_bound.unwrap_or(TsDuration::ZERO)
                )?;
            }
            _ => writeln!(f, "NOTICE: No normal relevant data sources")?,
        }
        write!(
            f,
            "NOTICE: {} ''normal'' relevant data source(s); guarantee: {}",
            self.normal.len(),
            self.guarantee
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(n: &str, secs: i64) -> (SourceId, Timestamp) {
        (SourceId::new(n), Timestamp::from_secs(secs))
    }

    /// The paper's Section 5.1 session: m1..m11 reporting within 20
    /// minutes of each other except m2, a month stale.
    fn paper_session_sources() -> Vec<(SourceId, Timestamp)> {
        let base = Timestamp::parse("2006-03-15 14:20:05").unwrap();
        let mut v = vec![
            (SourceId::new("m1"), base),
            (
                SourceId::new("m2"),
                Timestamp::parse("2006-02-12 17:23:00").unwrap(),
            ),
            (
                SourceId::new("m3"),
                Timestamp::parse("2006-03-15 14:40:05").unwrap(),
            ),
        ];
        for i in 4..=11 {
            v.push((
                SourceId::new(format!("m{i}")),
                base + TsDuration::from_mins(i - 3),
            ));
        }
        v
    }

    #[test]
    fn reproduces_paper_session_output() {
        let report = RecencyReport::compute(
            paper_session_sources().into(),
            Guarantee::Minimum,
            ReportConfig::default(),
        );
        // m2 is exceptional; the rest are normal.
        assert_eq!(report.exceptional.len(), 1);
        assert_eq!(report.exceptional[0].0.as_str(), "m2");
        assert_eq!(report.normal.len(), 10);
        let (ls, lt) = report.least_recent.clone().unwrap();
        assert_eq!(ls.as_str(), "m1");
        assert_eq!(lt.to_string(), "2006-03-15 14:20:05");
        let (ms, mt) = report.most_recent.clone().unwrap();
        assert_eq!(ms.as_str(), "m3");
        assert_eq!(mt.to_string(), "2006-03-15 14:40:05");
        // "Bound of inconsistency: 00:20:00"
        assert_eq!(
            report.inconsistency_bound.unwrap(),
            TsDuration::from_mins(20)
        );
        let text = report.to_string();
        assert!(text.contains("The least recent data source: m1"));
        assert!(text.contains("Bound of inconsistency: 00:20:00"));
    }

    #[test]
    fn no_outliers_without_detection() {
        let report = RecencyReport::compute(
            paper_session_sources().into(),
            Guarantee::Minimum,
            ReportConfig {
                detect_exceptional: false,
                ..Default::default()
            },
        );
        assert!(report.exceptional.is_empty());
        assert_eq!(report.normal.len(), 11);
        // With m2 included the bound of inconsistency blows up to ~31 days.
        assert!(report.inconsistency_bound.unwrap() > TsDuration::from_secs(86_400));
    }

    #[test]
    fn empty_and_singleton_reports() {
        let r = RecencyReport::compute(
            MemberPairs::default(),
            Guarantee::Minimum,
            ReportConfig::default(),
        );
        assert_eq!(r.relevant_count(), 0);
        assert!(r.least_recent.is_none());
        assert!(r.inconsistency_bound.is_none());
        assert!(r.to_string().contains("No normal relevant data sources"));

        let r = RecencyReport::compute(
            vec![src("m1", 100)].into(),
            Guarantee::UpperBound,
            ReportConfig::default(),
        );
        assert_eq!(r.normal.len(), 1);
        assert_eq!(r.inconsistency_bound.unwrap(), TsDuration::ZERO);
    }

    #[test]
    fn uniform_sources_have_no_exceptions() {
        let sources: Vec<_> = (0..50)
            .map(|i| src(&format!("s{i:02}"), 1000 + i))
            .collect();
        let r = RecencyReport::compute(sources.into(), Guarantee::Minimum, ReportConfig::default());
        assert!(r.exceptional.is_empty());
        assert_eq!(r.normal.len(), 50);
        assert_eq!(r.inconsistency_bound.unwrap(), TsDuration::from_secs(49));
    }

    #[test]
    fn staleness_summary_statistics() {
        // Sources 10, 20, 30, 40, 100 seconds stale vs reference 200.
        let sources: Vec<_> = [190, 180, 170, 160, 100]
            .iter()
            .enumerate()
            .map(|(i, &t)| src(&format!("s{i}"), t))
            .collect();
        let r = RecencyReport::compute(
            sources.into(),
            Guarantee::Minimum,
            ReportConfig {
                detect_exceptional: false,
                ..Default::default()
            },
        );
        let s = r.staleness_summary(Timestamp::from_secs(200)).unwrap();
        assert_eq!(s.min, TsDuration::from_secs(10));
        assert_eq!(s.max, TsDuration::from_secs(100));
        assert_eq!(s.median, TsDuration::from_secs(30));
        assert_eq!(s.mean, TsDuration::from_secs(40));
        assert_eq!(s.p90, TsDuration::from_secs(100));
        assert_eq!(s.excluded_exceptional, 0);
        let text = s.to_string();
        assert!(text.contains("median 00:00:30"));
        assert!(text.contains("max 00:01:40"));
    }

    #[test]
    fn staleness_summary_empty_and_exclusions() {
        let r = RecencyReport::compute(
            MemberPairs::default(),
            Guarantee::Minimum,
            ReportConfig::default(),
        );
        assert!(r.staleness_summary(Timestamp::from_secs(0)).is_none());
        // With an outlier split off, the summary says so.
        let r = RecencyReport::compute(
            paper_session_sources().into(),
            Guarantee::Minimum,
            ReportConfig::default(),
        );
        let reference = Timestamp::parse("2006-03-15 15:00:00").unwrap();
        let s = r.staleness_summary(reference).unwrap();
        assert_eq!(s.excluded_exceptional, 1);
        assert!(s.max < TsDuration::from_secs(3600), "m2 excluded from max");
    }

    #[test]
    fn normal_list_is_sorted_by_source() {
        let r = RecencyReport::compute(
            vec![src("b", 2), src("a", 1), src("c", 3)].into(),
            Guarantee::Minimum,
            ReportConfig::default(),
        );
        let names: Vec<_> = r.normal.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }
}
