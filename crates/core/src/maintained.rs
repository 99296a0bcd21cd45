//! Delta-maintained recency report state.
//!
//! A prepared recency plan used to pay a full rescan per report: every
//! generated subquery re-executed, every relevant heartbeat re-fetched.
//! This module makes repeated reports **O(changes)**: a
//! [`MaintainedReport`] holds the relevant-source set and its recency
//! aggregates, and each report folds the storage layer's typed change
//! stream ([`trac_storage::ChangeLog`]) into that state instead of
//! rescanning.
//!
//! # What is maintained
//!
//! * the **member map** — the union of the plan's per-subquery
//!   relevant-source sets, each member with its current recency
//!   (folded with `max`, which is exact because heartbeat maintenance
//!   is monotone and events carry the *offered* timestamp), grown per
//!   event under each subquery's [`MaintenanceLicense`];
//! * the **served list** — the [`MemberPairs`] last served, shared
//!   with the reports and pending report tables built from it. A list
//!   is first held weakly: a serve after a member change (or a
//!   registration) keeps only a weak handle, so on a
//!   statement whose members change between reports no list outlives
//!   the reports that use it. The next serve with no member change in
//!   between takes the list back if a report still holds it (rebuilding
//!   it otherwise) and keeps it, handing out that one allocation until
//!   a member is added or advances (each such mutation drops it);
//! * the stream **cursor** and the fold **basis** (see below);
//! * certified **auxiliary aggregates** over the member pairs:
//!   max-recency (maintained directly — heartbeat advances are
//!   monotone), min-recency (a lazy tournament: only re-resolved when
//!   the current minimum's source advances), and the z-score moment
//!   counters count/Σ/Σ² kept in exact integer arithmetic over
//!   timestamp microseconds (`u64`/`i128`), so they are associative
//!   and order-independent where floating-point folds would not be.
//!
//! The *served* report is always produced by
//! [`RecencyReport::compute`](crate::report::RecencyReport::compute)
//! over the member pairs, so the delta path is byte-identical to the
//! rescan path by construction; the maintained aggregates are
//! debug-asserted against it and surfaced to the analyzer's
//! maintenance pass (TRAC028–TRAC030).
//!
//! # Why the fold is equivalent to a rescan
//!
//! Three guards make `fold(state, events) ≡ rescan(snapshot)`:
//!
//! 1. **Visibility.** Events are published at write time, before
//!    commit. The fold skips events of aborted transactions and stops
//!    at the first event whose transaction the serving snapshot cannot
//!    see ([`Snapshot::committed_before`]); a stopped fold serves that
//!    one report through a rescan (later events might already be
//!    visible) while keeping the folded prefix.
//! 2. **Registration (the DBLog rule).** Registering against live
//!    ingest captures the stream's high-water mark **before** the
//!    initial rescan and pins the cursor at the earliest buffered event
//!    the registration snapshot cannot see. Events in between are
//!    re-folded; every fold step is idempotent (set inserts, `max`,
//!    membership-guarded moment updates), so double-applying a change
//!    the rescan already saw is harmless.
//! 3. **Snapshot coverage.** State folded under one snapshot never
//!    serves an older one: the fold basis is remembered as a
//!    [`SnapshotBasis`] and a serving snapshot that does not
//!    [`cover`](Snapshot::covers_basis) it gets a rescan.
//!
//! Nothing is kept per source beyond the members, so registration costs
//! the relevant set, not every heartbeat source. The one fact a
//! non-member's heartbeat event needs — "is this source new?" — travels
//! on the event as `created`: the writer knows it when it upserts.
//! `created == false` means the row was committed before the writer
//! began (or written earlier by the same transaction), so its creating
//! event has a lower `seq` and was either visible to the registration
//! rescan or folded before this one; membership was decided there, and
//! a timestamp advance cannot change a foldable membership. Heartbeat
//! row creation is first-writer-wins, so `created == true` marks a
//! source no fold has seen; were it to reach a known source, re-deciding
//! its membership would still be exact. A recency the state does not
//! hold (a witness insert nominating a non-member, an existence gate
//! opening) is read from `Heartbeat` under the serving snapshot, which
//! is exact because every later event is folded with `max`.
//!
//! Ring-buffer overflow surfaces as the typed
//! [`trac_storage::RescanRequired`] and re-registers the state; raw
//! heartbeat DML and row deletions (non-monotone) set a rescan flag
//! that does the same.

use crate::relevance::RecencyPlan;
use crate::report::{MemberPair, MemberPairs, WeakMemberPairs};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use trac_exec::ExecOptions;
use trac_expr::{eval_predicate, BoundExpr, BoundSelect, Truth};
use trac_plan::MaintenanceLicense;
use trac_storage::{
    heartbeat, ChangeData, ChangeEvent, Database, ReadTxn, Row, Snapshot, SnapshotBasis, TableId,
    TxnStatus, HEARTBEAT_TABLE,
};
use trac_types::{Result, SourceId, Timestamp, TracError, Value};

/// How one report request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// Served by folding the change stream into maintained state.
    Delta,
    /// Served by a full rescan (blocked fold, stale snapshot, rescan
    /// trigger, or ring overflow — the state re-registered if needed).
    Rescan,
}

/// Per-subquery fold logic, prepared once at registration from the
/// subquery's bound query under its [`MaintenanceLicense`].
enum SubFold {
    /// `FROM heartbeat H WHERE P_s'`: membership decided per source id.
    HeartbeatOnly { h_terms: Vec<BoundExpr> },
    /// `FROM H, R WHERE H.sid = R.w ∧ P_o`.
    SidEquality {
        witness_tid: TableId,
        /// Witness-row column positions equated with `H.sid`.
        witness_cols: Vec<usize>,
        h_terms: Vec<BoundExpr>,
        /// `P_o`, remapped to evaluate against a bare witness row.
        other_terms: Vec<BoundExpr>,
    },
    /// `FROM H, R WHERE P_s' ∧ P_o` with no join terms: `R` gates
    /// existence.
    Existence {
        witness_tid: TableId,
        h_terms: Vec<BoundExpr>,
        other_terms: Vec<BoundExpr>,
        /// Whether a qualifying witness row existed last time we knew.
        exists: bool,
    },
    /// No fold license: any relevant event forces a rescan.
    Rescan {
        /// Non-heartbeat tables the subquery references.
        tables: BTreeSet<TableId>,
        /// True when membership reads `H.recency`, so even a plain
        /// timestamp advance can change it.
        recency_sensitive: bool,
    },
}

/// What the maintained state remembers of the member list it last
/// served. A list is kept only once a second serve with no member change
/// in between shows it is reused; until then it lives only as long as
/// the reports and pending tables that hold it.
enum Served {
    /// The members changed since the last serve.
    Stale,
    /// Served once since the last change, and not kept.
    Once(WeakMemberPairs),
    /// Served again with no change in between: kept, and handed out by
    /// every serve until the members change.
    Kept(MemberPairs),
}

/// Delta-maintained state for one prepared recency plan.
pub struct MaintainedReport {
    /// Next change-stream sequence to read.
    cursor: u64,
    /// Fold basis: the most recent snapshot whose visible transactions
    /// are all folded in. Serving snapshots must cover it.
    basis: SnapshotBasis,
    /// Union of the subqueries' relevant-source sets, each member
    /// carrying its current recency (max-folded), sid-sorted so serving
    /// is one linear pass.
    members: BTreeMap<SourceId, Timestamp>,
    /// The member list last served (see [`Served`]). Every mutation of
    /// `members` resets it to [`Served::Stale`].
    served: Served,
    /// Per-subquery fold logic (proven-empty subqueries are absent).
    subs: Vec<SubFold>,
    /// Plan-level: report every source (analysis gave up).
    all_sources: bool,
    /// A non-foldable change arrived; the next serve re-registers.
    needs_rescan: bool,
    // Certified auxiliary aggregates over the member pairs.
    max: Option<(SourceId, Timestamp)>,
    min: Option<(SourceId, Timestamp)>,
    /// The min holder advanced; re-resolve lazily before serving.
    min_stale: bool,
    count: u64,
    sum: i128,
    sumsq: i128,
}

impl MaintainedReport {
    /// Registers maintained state for `plan` under `txn`'s snapshot and
    /// returns it together with the initial member pairs (the rescan
    /// that seeded the state — callers serve these directly).
    pub fn register(
        txn: &ReadTxn,
        db: &Database,
        plan: &RecencyPlan,
        opts: ExecOptions,
    ) -> Result<(MaintainedReport, MemberPairs)> {
        // DBLog low watermark, taken before the rescan: the first event
        // this snapshot cannot see. Writers racing the rescan publish
        // at or past it; re-folding what the rescan already saw is
        // idempotent, so the state cannot miss them. With no complete
        // suffix (a writer this snapshot cannot see has events the ring
        // already compacted), the rescan still serves this report, and
        // the next one registers again.
        let cursor = db.change_log().registration_cursor(&txn.snapshot);
        let sids = plan.execute_with(txn, opts)?;
        let pairs = fetch_recencies(txn, &sids)?;
        let mut subs = Vec::new();
        if !plan.all_sources {
            for sub in &plan.subqueries {
                let Some(q) = &sub.query else { continue };
                if let Some(f) = SubFold::prepare(txn, q)? {
                    subs.push(f);
                }
            }
        }
        let mut state = MaintainedReport {
            cursor: cursor.unwrap_or(0),
            basis: txn.snapshot.coverage_basis(),
            members: BTreeMap::new(),
            served: Served::Stale,
            subs,
            all_sources: plan.all_sources,
            needs_rescan: cursor.is_none(),
            max: None,
            min: None,
            min_stale: false,
            count: 0,
            sum: 0,
            sumsq: 0,
        };
        for (sid, ts) in &pairs {
            state.add_member(sid.clone(), *ts);
        }
        // The rescan's list is the member map's, in the same sid order:
        // served once, and kept if the next serve finds nothing changed.
        state.served = Served::Once(pairs.downgrade());
        Ok((state, pairs))
    }

    /// Brings the state up to `txn`'s snapshot and serves the member
    /// pairs. Folds the stream when every guard passes; otherwise
    /// serves a rescan (re-registering the state when it is invalid,
    /// leaving it untouched when it is merely ahead of or behind this
    /// snapshot).
    pub fn refresh(
        &mut self,
        txn: &ReadTxn,
        db: &Database,
        plan: &RecencyPlan,
        opts: ExecOptions,
    ) -> Result<(MemberPairs, ServeKind)> {
        // Schedule point: the interleaving explorer switches threads
        // between taking the state out of the plan cache and folding,
        // to drive writes into the middle of a fold.
        trac_exec::schedule::yield_point(trac_exec::schedule::Site::DeltaFold);
        if self.needs_rescan {
            return self.reinit(txn, db, plan, opts);
        }
        if !txn.snapshot.covers_basis(&self.basis) {
            // This snapshot predates state already folded in; the state
            // stays valid for newer snapshots, so serve this one by
            // rescan without touching it.
            return Ok((rescan_pairs(txn, plan, opts)?, ServeKind::Rescan));
        }
        // Overflowed past our cursor: the suffix is incomplete.
        let Ok(events) = db.change_log().read_from(self.cursor) else {
            return self.reinit(txn, db, plan, opts);
        };
        let mgr = db.txn_manager();
        let mut stopped = false;
        for ev in events {
            // Visible first: an id this snapshot saw committed can never
            // abort, so only the events it rejects ask the manager.
            if !txn.snapshot.committed_before(ev.txn) {
                if mgr.status(ev.txn) == TxnStatus::Aborted {
                    // Its effects never became real; skip past it.
                    self.cursor = ev.seq + 1;
                    continue;
                }
                // In flight or committed after this snapshot. Stop: the
                // cursor stays here and a later refresh resumes.
                stopped = true;
                break;
            }
            self.fold_event(txn, &ev)?;
            self.cursor = ev.seq + 1;
            if self.needs_rescan {
                return self.reinit(txn, db, plan, opts);
            }
        }
        // Everything folded so far is visible to this snapshot.
        self.basis = txn.snapshot.coverage_basis();
        if stopped {
            // A later buffered event may be visible even though an
            // earlier one is not (publication order is not commit
            // order), so the folded prefix alone cannot serve this
            // snapshot exactly. Rescan this one; keep the state.
            return Ok((rescan_pairs(txn, plan, opts)?, ServeKind::Rescan));
        }
        self.resolve_min();
        let pairs = self.serve_pairs();
        debug_assert!(self.aggregates_consistent(&pairs));
        Ok((pairs, ServeKind::Delta))
    }

    fn reinit(
        &mut self,
        txn: &ReadTxn,
        db: &Database,
        plan: &RecencyPlan,
        opts: ExecOptions,
    ) -> Result<(MemberPairs, ServeKind)> {
        let (state, pairs) = MaintainedReport::register(txn, db, plan, opts)?;
        *self = state;
        Ok((pairs, ServeKind::Rescan))
    }

    /// Applies one committed, visible event. Non-foldable changes set
    /// [`Self::needs_rescan`] instead of erroring.
    fn fold_event(&mut self, txn: &ReadTxn, ev: &ChangeEvent) -> Result<()> {
        match &ev.data {
            ChangeData::HeartbeatUpsert {
                source,
                ts,
                created,
            } => self.fold_heartbeat(txn, source, *ts, *created),
            ChangeData::RowInsert { table, row } => self.fold_insert(txn, *table, row),
            ChangeData::RowDelete { table } => {
                for sub in &self.subs {
                    let hit = match sub {
                        SubFold::HeartbeatOnly { .. } => false,
                        SubFold::SidEquality { witness_tid, .. }
                        | SubFold::Existence { witness_tid, .. } => witness_tid == table,
                        SubFold::Rescan { tables, .. } => tables.contains(table),
                    };
                    if hit {
                        // Deletion can shrink a member set; no monotone
                        // fold covers that.
                        self.needs_rescan = true;
                    }
                }
                Ok(())
            }
            ChangeData::HeartbeatDml => {
                // Raw DML bypasses the monotone upsert: sources may
                // vanish or regress. Everything here is suspect.
                self.needs_rescan = true;
                Ok(())
            }
        }
    }

    fn fold_heartbeat(
        &mut self,
        txn: &ReadTxn,
        sid: &SourceId,
        offered: Timestamp,
        created: bool,
    ) -> Result<()> {
        if let Some(old) = self.members.get(sid).copied() {
            // The stored recency is max(current, offered): fold with max
            // so a stale (no-op) upsert leaves the member exact.
            if offered > old {
                self.flag_recency_sensitive();
                self.advance_member(sid, old, offered);
            }
            return Ok(());
        }
        if !created {
            // A source that existed before its writer began and is not
            // a member cannot become one from a timestamp advance:
            // foldable memberships depend on the sid and on witness
            // rows, never on recency values. The advance may still flip
            // a rescan-licensed subquery that reads H.recency.
            self.flag_recency_sensitive();
            return Ok(());
        }
        if self.all_sources {
            self.add_member(sid.clone(), offered);
            return Ok(());
        }
        // A brand-new source: its id as the heartbeat row stores it, for
        // the predicates and witness probes below.
        let key = sid.to_value();
        let mut joins = false;
        for i in 0..self.subs.len() {
            let member = match &self.subs[i] {
                SubFold::HeartbeatOnly { h_terms } => h_pass(h_terms, &key)?,
                SubFold::SidEquality {
                    witness_tid,
                    witness_cols,
                    h_terms,
                    other_terms,
                } => {
                    // A brand-new source may already have qualifying
                    // witness rows (ingested before its first
                    // heartbeat): probe once, O(index probe).
                    h_pass(h_terms, &key)?
                        && witness_has(txn, *witness_tid, witness_cols, other_terms, &key)?
                }
                SubFold::Existence {
                    h_terms, exists, ..
                } => *exists && h_pass(h_terms, &key)?,
                SubFold::Rescan { .. } => {
                    // Whether the new source is relevant through this
                    // subquery is not locally decidable.
                    self.needs_rescan = true;
                    false
                }
            };
            if member {
                joins = true;
            }
        }
        if joins {
            self.add_member(sid.clone(), offered);
        }
        Ok(())
    }

    /// A heartbeat advance changes no foldable membership, but a
    /// rescan-licensed subquery whose predicate reads `H.recency` can
    /// flip on it.
    fn flag_recency_sensitive(&mut self) {
        if self.subs.iter().any(|sub| {
            matches!(
                sub,
                SubFold::Rescan {
                    recency_sensitive: true,
                    ..
                }
            )
        }) {
            self.needs_rescan = true;
        }
    }

    fn fold_insert(&mut self, txn: &ReadTxn, table: TableId, row: &Row) -> Result<()> {
        // Sources nominated by a witness row; their recencies are read
        // under the serving snapshot below. One with no visible
        // heartbeat row yet is picked up when its creating event folds:
        // that event probes the witness table and finds this row.
        let mut nominated: BTreeSet<SourceId> = BTreeSet::new();
        let mut opened: Vec<(SourceId, Timestamp)> = Vec::new();
        for i in 0..self.subs.len() {
            match &mut self.subs[i] {
                SubFold::HeartbeatOnly { .. } => {}
                SubFold::SidEquality {
                    witness_tid,
                    witness_cols,
                    h_terms,
                    other_terms,
                } => {
                    if *witness_tid != table {
                        continue;
                    }
                    let tuple = std::slice::from_ref(row);
                    let mut pass = true;
                    for t in other_terms.iter() {
                        if eval_predicate(t, tuple)? != Truth::True {
                            pass = false;
                            break;
                        }
                    }
                    if !pass {
                        continue;
                    }
                    // The row nominates a candidate iff its witness
                    // columns agree (they all equal H.sid).
                    let Some(v) = row.get(witness_cols[0]) else {
                        self.needs_rescan = true;
                        continue;
                    };
                    if v.is_null() {
                        continue;
                    }
                    if witness_cols[1..]
                        .iter()
                        .any(|w| row.get(*w).map(|o| v.sql_eq(o)) != Some(Some(true)))
                    {
                        continue;
                    }
                    let Some(sid) = v.as_text() else {
                        // Non-text witness value can never equal a sid.
                        continue;
                    };
                    if !self.members.contains_key(sid) && h_pass(h_terms, v)? {
                        nominated.insert(SourceId::from(sid));
                    }
                }
                SubFold::Existence {
                    witness_tid,
                    h_terms,
                    other_terms,
                    exists,
                } => {
                    if *witness_tid != table || *exists {
                        continue;
                    }
                    let tuple = std::slice::from_ref(row);
                    let mut pass = true;
                    for t in other_terms.iter() {
                        if eval_predicate(t, tuple)? != Truth::True {
                            pass = false;
                            break;
                        }
                    }
                    if !pass {
                        continue;
                    }
                    // The gate opens: every heartbeat source passing
                    // P_s' becomes relevant. O(sources), not O(data),
                    // and only on the event that opens it.
                    *exists = true;
                    for (sid, ts) in heartbeat::all_recencies(txn)? {
                        if h_pass(h_terms, &sid.to_value())? {
                            opened.push((sid, ts));
                        }
                    }
                }
                SubFold::Rescan { tables, .. } => {
                    if tables.contains(&table) {
                        self.needs_rescan = true;
                    }
                }
            }
        }
        let fetched = fetch_recencies(txn, &nominated)?;
        for (sid, ts) in opened.into_iter().chain(fetched.iter().cloned()) {
            self.add_member(sid, ts);
        }
        Ok(())
    }

    /// Adds `sid` to the member set and folds its pair into the
    /// aggregates. Idempotent: a repeated add is a no-op (this is what
    /// makes re-folding the registration window safe).
    fn add_member(&mut self, sid: SourceId, ts: Timestamp) {
        if self.members.contains_key(&sid) {
            return;
        }
        self.members.insert(sid.clone(), ts);
        self.served = Served::Stale;
        let m = i128::from(ts.micros());
        self.count += 1;
        self.sum += m;
        self.sumsq += m * m;
        let beats_max = self
            .max
            .as_ref()
            .is_none_or(|(ms, mt)| (ts, &sid) > (*mt, ms));
        if beats_max {
            self.max = Some((sid.clone(), ts));
        }
        let beats_min = self
            .min
            .as_ref()
            .is_none_or(|(ms, mt)| (ts, &sid) < (*mt, ms));
        if beats_min {
            self.min = Some((sid, ts));
        }
    }

    /// Folds a member's recency advance `old → new` into the
    /// aggregates. Max is maintained directly (advances are monotone,
    /// so the max can only be displaced upward); min goes lazy when its
    /// own holder moves (a non-holder advance can never create a new
    /// minimum).
    fn advance_member(&mut self, sid: &SourceId, old: Timestamp, new: Timestamp) {
        if let Some(mv) = self.members.get_mut(sid) {
            *mv = new;
        }
        self.served = Served::Stale;
        let o = i128::from(old.micros());
        let n = i128::from(new.micros());
        self.sum += n - o;
        self.sumsq += n * n - o * o;
        let beats_max = self
            .max
            .as_ref()
            .is_none_or(|(ms, mt)| (new, sid) > (*mt, ms));
        if beats_max {
            self.max = Some((sid.clone(), new));
        }
        if let Some((ms, _)) = &self.min {
            if ms == sid {
                self.min_stale = true;
            }
        }
    }

    /// Re-resolves the lazy minimum by tournament over the member set
    /// when (and only when) the previous holder advanced.
    fn resolve_min(&mut self) {
        if !self.min_stale {
            return;
        }
        self.min = self
            .members
            .iter()
            .min_by(|a, b| (a.1, a.0).cmp(&(b.1, b.0)))
            .map(|(s, t)| (s.clone(), *t));
        self.min_stale = false;
    }

    /// The member pairs, read straight from maintained state: the kept
    /// list when nothing changed since it was served, else one linear
    /// pass over the member map (already sid-sorted, matching the rescan
    /// path's order). See [`Served`] for when a list is kept.
    fn serve_pairs(&mut self) -> MemberPairs {
        let pairs = match &self.served {
            Served::Kept(pairs) => return pairs.clone(),
            Served::Once(last) => last
                .upgrade()
                .unwrap_or_else(|| MemberPairs::from(&self.members)),
            Served::Stale => {
                let pairs = MemberPairs::from(&self.members);
                self.served = Served::Once(pairs.downgrade());
                return pairs;
            }
        };
        self.served = Served::Kept(pairs.clone());
        pairs
    }

    fn aggregates_consistent(&self, pairs: &[(SourceId, Timestamp)]) -> bool {
        let count = pairs.len() as u64;
        let sum: i128 = pairs.iter().map(|(_, t)| i128::from(t.micros())).sum();
        let sumsq: i128 = pairs
            .iter()
            .map(|(_, t)| {
                let m = i128::from(t.micros());
                m * m
            })
            .sum();
        let max = pairs
            .iter()
            .max_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)))
            .cloned();
        let min = pairs
            .iter()
            .min_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)))
            .cloned();
        self.count == count
            && self.sum == sum
            && self.sumsq == sumsq
            && self.max == max
            && self.min == min
    }

    /// Next change-stream sequence this state will read.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// True when a non-foldable change has invalidated the state.
    pub fn needs_rescan(&self) -> bool {
        self.needs_rescan
    }

    /// The maintained moment counters `(count, Σ micros, Σ micros²)` —
    /// exact integers, certified against the served pairs.
    pub fn moments(&self) -> (u64, i128, i128) {
        (self.count, self.sum, self.sumsq)
    }

    /// The maintained extremes `(min, max)` over the member pairs
    /// (resolving the lazy minimum first).
    pub fn extremes(&mut self) -> (Option<MemberPair>, Option<MemberPair>) {
        self.resolve_min();
        (self.min.clone(), self.max.clone())
    }
}

impl SubFold {
    /// Prepares the fold logic for one generated subquery, re-deriving
    /// the license shape from the bound query (the stored
    /// [`MaintenanceLicense`] is a claim; the fold re-derives the term
    /// split it evaluates from the query itself). Returns
    /// `None` for proven-empty shapes, which no event can affect.
    fn prepare(txn: &ReadTxn, q: &BoundSelect) -> Result<Option<SubFold>> {
        let license = trac_plan::classify_maintenance(q);
        let mut conjuncts = Vec::new();
        if let Some(p) = &q.predicate {
            trac_plan::split_and(p, &mut conjuncts);
        }
        let mut h_terms: Vec<BoundExpr> = Vec::new();
        let mut cross_terms: Vec<&BoundExpr> = Vec::new();
        let mut other_terms: Vec<&BoundExpr> = Vec::new();
        for t in conjuncts {
            let tables = t.tables();
            if tables.is_empty() {
                continue;
            } else if !tables.contains(&0) {
                other_terms.push(t);
            } else if tables.len() == 1 {
                h_terms.push(t.clone());
            } else {
                cross_terms.push(t);
            }
        }
        let remap = |c: trac_expr::ColRef| trac_expr::ColRef {
            table: c.table - 1,
            column: c.column,
        };
        Ok(match license {
            MaintenanceLicense::ProvenEmpty => None,
            MaintenanceLicense::HeartbeatOnly => Some(SubFold::HeartbeatOnly { h_terms }),
            MaintenanceLicense::SidEquality { .. } => {
                let witness_cols: Vec<usize> = cross_terms
                    .iter()
                    .flat_map(|t| t.references())
                    .filter(|c| c.table != 0)
                    .map(|c| c.column)
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                if witness_cols.is_empty() {
                    return Err(TracError::Analysis(
                        "sid-equality license without witness columns".into(),
                    ));
                }
                Some(SubFold::SidEquality {
                    witness_tid: q.tables[1].id,
                    witness_cols,
                    h_terms,
                    other_terms: other_terms.iter().map(|t| t.map_columns(&remap)).collect(),
                })
            }
            MaintenanceLicense::ExistenceProbe { .. } => {
                let other_terms: Vec<BoundExpr> =
                    other_terms.iter().map(|t| t.map_columns(&remap)).collect();
                // Current gate value, under the registration snapshot.
                let exists = txn
                    .scan_find(q.tables[1].id, |row| {
                        let tuple = std::slice::from_ref(row);
                        for t in &other_terms {
                            if eval_predicate(t, tuple)? != Truth::True {
                                return Ok(false);
                            }
                        }
                        Ok(true)
                    })?
                    .is_some();
                Some(SubFold::Existence {
                    witness_tid: q.tables[1].id,
                    h_terms,
                    other_terms,
                    exists,
                })
            }
            MaintenanceLicense::RescanOnly { .. } => {
                let recency_sensitive = q
                    .predicate
                    .as_ref()
                    .is_some_and(|p| p.references().iter().any(|c| c.table == 0 && c.column != 0));
                Some(SubFold::Rescan {
                    tables: q.tables[1..].iter().map(|t| t.id).collect(),
                    recency_sensitive,
                })
            }
        })
    }
}

/// Evaluates `P_s'` for the source whose id value is `sid`. Foldable
/// licenses restrict `P_s'` to `H.sid`
/// ([`trac_plan::classify_maintenance`]), so the synthesized heartbeat
/// row leaves the recency column NULL.
fn h_pass(h_terms: &[BoundExpr], sid: &Value) -> Result<bool> {
    if h_terms.is_empty() {
        return Ok(true);
    }
    let row: Row = Arc::from(vec![sid.clone(), Value::Null].into_boxed_slice());
    let tuple = std::slice::from_ref(&row);
    for t in h_terms {
        if eval_predicate(t, tuple)? != Truth::True {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Does the witness table hold a row (visible to `txn`) whose witness
/// columns all equal the source id value `key` and which passes `P_o`?
/// Prefers the index.
fn witness_has(
    txn: &ReadTxn,
    tid: TableId,
    cols: &[usize],
    other_terms: &[BoundExpr],
    key: &Value,
) -> Result<bool> {
    let rows = match txn.index_probe_in(tid, cols[0], std::slice::from_ref(key))? {
        Some(rows) => rows,
        None => txn
            .scan(tid)?
            .into_iter()
            .filter(|r| r.get(cols[0]).map(|v| v.sql_eq(key)) == Some(Some(true)))
            .collect(),
    };
    'row: for row in rows {
        for c in cols {
            if row.get(*c).map(|v| v.sql_eq(key)) != Some(Some(true)) {
                continue 'row;
            }
        }
        let tuple = std::slice::from_ref(&row);
        for t in other_terms {
            if eval_predicate(t, tuple)? != Truth::True {
                continue 'row;
            }
        }
        return Ok(true);
    }
    Ok(false)
}

/// Full rescan: execute the plan's subqueries and fetch the members'
/// recencies, all under `txn`'s snapshot. The reference the delta path
/// must (and does) agree with byte-for-byte.
pub(crate) fn rescan_pairs(
    txn: &ReadTxn,
    plan: &RecencyPlan,
    opts: ExecOptions,
) -> Result<MemberPairs> {
    let sids = plan.execute_with(txn, opts)?;
    fetch_recencies(txn, &sids)
}

/// Fetches `(source, recency)` for the given sids from `Heartbeat` in
/// the same snapshot, preferring the sid index (whose probe already
/// yields sid order; the scan fallback is sorted by the conversion).
pub(crate) fn fetch_recencies(txn: &ReadTxn, sids: &BTreeSet<SourceId>) -> Result<MemberPairs> {
    if sids.is_empty() {
        return Ok(MemberPairs::default());
    }
    let hb = txn.table_id(HEARTBEAT_TABLE)?;
    let keys: Vec<Value> = sids.iter().map(SourceId::to_value).collect();
    let rows = match txn.index_probe_in(hb, 0, &keys)? {
        Some(rows) => rows,
        None => txn
            .scan(hb)?
            .into_iter()
            .filter(|r| r[0].as_text().is_some_and(|s| sids.contains(s)))
            .collect(),
    };
    rows.into_iter()
        .map(|r| {
            let sid = SourceId::from_value(&r[0])
                .ok_or_else(|| TracError::Storage("heartbeat sid not text".into()))?;
            let ts = r[1]
                .as_timestamp()
                .ok_or_else(|| TracError::Storage("heartbeat recency not timestamp".into()))?;
            Ok((sid, ts))
        })
        .collect()
}

// Unused import guard: `Snapshot` appears in doc links only.
#[allow(unused)]
fn _doc_links(_: &Snapshot) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relevance::RelevanceConfig;
    use crate::testutil::paper_db;
    use trac_expr::bind_select;
    use trac_sql::parse_select;

    fn plan_of(db: &Database, sql: &str) -> RecencyPlan {
        let txn = db.begin_read();
        let stmt = parse_select(sql).unwrap();
        let bound = bind_select(&txn, &stmt).unwrap();
        RecencyPlan::build(&txn, &bound, RelevanceConfig::default()).unwrap()
    }

    fn check_delta(db: &Database, plan: &RecencyPlan, state: &mut MaintainedReport) {
        let txn = db.begin_read();
        let (pairs, kind) = state
            .refresh(&txn, db, plan, ExecOptions::default())
            .unwrap();
        assert_eq!(kind, ServeKind::Delta);
        let expect = rescan_pairs(&txn, plan, ExecOptions::default()).unwrap();
        assert_eq!(pairs, expect);
    }

    #[test]
    fn heartbeat_only_fold_tracks_new_sources_and_advances() {
        let db = paper_db();
        let plan = plan_of(
            &db,
            "SELECT mach_id FROM Activity WHERE mach_id IN ('m1','m2','m9')",
        );
        let txn = db.begin_read();
        let (mut state, pairs) =
            MaintainedReport::register(&txn, &db, &plan, ExecOptions::default()).unwrap();
        assert_eq!(pairs.len(), 2); // m1, m2 registered; m9 has no heartbeat
        drop(txn);
        // m2 advances; m9 appears (member); m7 appears (not in the IN list).
        db.with_write(|w| {
            w.heartbeat(
                &SourceId::new("m2"),
                Timestamp::parse("2006-02-10 00:02:00").unwrap(),
            )?;
            w.heartbeat(
                &SourceId::new("m9"),
                Timestamp::parse("2006-02-10 00:02:01").unwrap(),
            )?;
            w.heartbeat(
                &SourceId::new("m7"),
                Timestamp::parse("2006-02-10 00:02:02").unwrap(),
            )
        })
        .unwrap();
        check_delta(&db, &plan, &mut state);
        let (count, _, _) = state.moments();
        assert_eq!(count, 3, "m1, m2, m9");
        let (min, max) = state.extremes();
        assert_eq!(max.unwrap().0.as_str(), "m9");
        assert_eq!(min.unwrap().0.as_str(), "m1");
    }

    #[test]
    fn sid_equality_fold_adds_members_from_witness_inserts() {
        let db = paper_db();
        // Via-A subquery of the paper's Q2: H.sid = R.neighbor.
        let plan = plan_of(
            &db,
            "SELECT A.mach_id FROM Routing R, Activity A \
             WHERE R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id",
        );
        let txn = db.begin_read();
        let (mut state, _) =
            MaintainedReport::register(&txn, &db, &plan, ExecOptions::default()).unwrap();
        drop(txn);
        // A routing row from m1 pointing at m2 makes m2 relevant via A.
        let routing = db.begin_read().table_id("routing").unwrap();
        db.with_write(|w| {
            let ts = Timestamp::parse("2006-02-10 00:03:00").unwrap();
            w.ingest(
                &SourceId::new("m1"),
                routing,
                vec![Value::text("m1"), Value::text("m2"), Value::Timestamp(ts)],
                ts,
            )
        })
        .unwrap();
        check_delta(&db, &plan, &mut state);
    }

    #[test]
    fn new_heartbeat_probes_witness_rows_ingested_before_it() {
        let db = paper_db();
        let plan = plan_of(
            &db,
            "SELECT A.mach_id FROM Routing R, Activity A \
             WHERE R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id",
        );
        let txn = db.begin_read();
        let (mut state, _) =
            MaintainedReport::register(&txn, &db, &plan, ExecOptions::default()).unwrap();
        drop(txn);
        // Insert a routing row naming a source with no heartbeat yet
        // (plain SQL insert, so no heartbeat leg), then heartbeat it.
        trac_exec::execute_statement(
            &db,
            "INSERT INTO routing VALUES ('m1', 'm8', TIMESTAMP '2006-02-10 00:03:00')",
        )
        .unwrap();
        check_delta(&db, &plan, &mut state);
        db.with_write(|w| {
            w.heartbeat(
                &SourceId::new("m8"),
                Timestamp::parse("2006-02-10 00:03:01").unwrap(),
            )
        })
        .unwrap();
        check_delta(&db, &plan, &mut state);
        assert!(state.serve_pairs().iter().any(|(s, _)| s.as_str() == "m8"));
    }

    #[test]
    fn existence_gate_opens_on_qualifying_insert() {
        let db = paper_db();
        // Via-R subquery shape: existence of an idle activity row gates
        // every filtered source. Start with no idle rows.
        trac_exec::execute_statement(&db, "DELETE FROM activity WHERE value = 'idle'").unwrap();
        let plan = plan_of(
            &db,
            "SELECT A.mach_id FROM Routing R, Activity A \
             WHERE R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id",
        );
        let txn = db.begin_read();
        let (mut state, _) =
            MaintainedReport::register(&txn, &db, &plan, ExecOptions::default()).unwrap();
        drop(txn);
        let activity = db.begin_read().table_id("activity").unwrap();
        db.with_write(|w| {
            let ts = Timestamp::parse("2006-02-10 00:04:00").unwrap();
            w.ingest(
                &SourceId::new("m3"),
                activity,
                vec![Value::text("m3"), Value::text("idle"), Value::Timestamp(ts)],
                ts,
            )
        })
        .unwrap();
        check_delta(&db, &plan, &mut state);
    }

    #[test]
    fn deletes_force_a_rescan_and_reregistration() {
        let db = paper_db();
        let plan = plan_of(
            &db,
            "SELECT A.mach_id FROM Routing R, Activity A \
             WHERE R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id",
        );
        let txn = db.begin_read();
        let (mut state, _) =
            MaintainedReport::register(&txn, &db, &plan, ExecOptions::default()).unwrap();
        drop(txn);
        trac_exec::execute_statement(&db, "DELETE FROM routing WHERE neighbor = 'm3'").unwrap();
        let txn = db.begin_read();
        let (pairs, kind) = state
            .refresh(&txn, &db, &plan, ExecOptions::default())
            .unwrap();
        assert_eq!(kind, ServeKind::Rescan, "delete is not foldable");
        assert_eq!(
            pairs,
            rescan_pairs(&txn, &plan, ExecOptions::default()).unwrap()
        );
        assert!(!state.needs_rescan(), "reinit leaves a clean state");
        drop(txn);
        // And the re-registered state folds again.
        db.with_write(|w| {
            w.heartbeat(
                &SourceId::new("m1"),
                Timestamp::parse("2006-02-10 00:05:00").unwrap(),
            )
        })
        .unwrap();
        check_delta(&db, &plan, &mut state);
    }

    #[test]
    fn ring_overflow_reinitializes_cleanly() {
        let db = paper_db();
        let plan = plan_of(&db, "SELECT mach_id FROM Activity WHERE mach_id = 'm1'");
        let txn = db.begin_read();
        let (mut state, _) =
            MaintainedReport::register(&txn, &db, &plan, ExecOptions::default()).unwrap();
        drop(txn);
        // Push far more events than the default ring holds.
        for i in 0..trac_storage::DEFAULT_CHANGELOG_CAPACITY + 8 {
            db.with_write(|w| {
                w.heartbeat(
                    &SourceId::new("m1"),
                    Timestamp::from_micros(2_000_000_000 + i as i64),
                )
            })
            .unwrap();
        }
        let txn = db.begin_read();
        let (pairs, kind) = state
            .refresh(&txn, &db, &plan, ExecOptions::default())
            .unwrap();
        assert_eq!(kind, ServeKind::Rescan, "cursor fell behind the watermark");
        assert_eq!(
            pairs,
            rescan_pairs(&txn, &plan, ExecOptions::default()).unwrap()
        );
        drop(txn);
        // Healed: subsequent folds serve deltas again.
        db.with_write(|w| w.heartbeat(&SourceId::new("m1"), Timestamp::from_micros(3_000_000_000)))
            .unwrap();
        check_delta(&db, &plan, &mut state);
    }

    #[test]
    fn uncommitted_writers_block_the_fold_but_not_the_report() {
        let db = paper_db();
        let plan = plan_of(&db, "SELECT mach_id FROM Activity");
        let txn = db.begin_read();
        let (mut state, _) =
            MaintainedReport::register(&txn, &db, &plan, ExecOptions::default()).unwrap();
        drop(txn);
        // A writer publishes an event but has not committed.
        let w = db.begin_write();
        w.heartbeat(
            &SourceId::new("m4"),
            Timestamp::parse("2006-02-10 00:06:00").unwrap(),
        )
        .unwrap();
        let txn = db.begin_read();
        let cursor_before = state.cursor();
        let (pairs, kind) = state
            .refresh(&txn, &db, &plan, ExecOptions::default())
            .unwrap();
        assert_eq!(kind, ServeKind::Rescan, "in-flight event blocks the fold");
        assert_eq!(
            pairs,
            rescan_pairs(&txn, &plan, ExecOptions::default()).unwrap()
        );
        assert!(!pairs.iter().any(|(s, _)| s.as_str() == "m4"));
        assert_eq!(state.cursor(), cursor_before, "cursor parks at the event");
        drop(txn);
        w.commit();
        check_delta(&db, &plan, &mut state);
        assert!(state.serve_pairs().iter().any(|(s, _)| s.as_str() == "m4"));
    }

    #[test]
    fn registration_window_covers_writes_racing_the_rescan() {
        // DBLog rule: a write that published before registration's
        // rescan but commits after it must be picked up by the first
        // fold (the cursor is pinned below the high-water mark).
        let db = paper_db();
        let plan = plan_of(&db, "SELECT mach_id FROM Activity");
        let w = db.begin_write();
        w.heartbeat(
            &SourceId::new("m5"),
            Timestamp::parse("2006-02-10 00:07:00").unwrap(),
        )
        .unwrap();
        let txn = db.begin_read();
        let (mut state, pairs) =
            MaintainedReport::register(&txn, &db, &plan, ExecOptions::default()).unwrap();
        assert!(!pairs.iter().any(|(s, _)| s.as_str() == "m5"));
        drop(txn);
        w.commit();
        check_delta(&db, &plan, &mut state);
        assert!(state.serve_pairs().iter().any(|(s, _)| s.as_str() == "m5"));
    }

    #[test]
    fn older_snapshot_is_served_by_rescan_not_stale_state() {
        let db = paper_db();
        let plan = plan_of(&db, "SELECT mach_id FROM Activity");
        let txn = db.begin_read();
        let (mut state, _) =
            MaintainedReport::register(&txn, &db, &plan, ExecOptions::default()).unwrap();
        drop(txn);
        // Take an "old" snapshot while a writer is in flight, then let
        // a newer snapshot fold the committed write first.
        let w = db.begin_write();
        w.heartbeat(
            &SourceId::new("m6"),
            Timestamp::parse("2006-02-10 00:08:00").unwrap(),
        )
        .unwrap();
        let old_txn = db.begin_read();
        w.commit();
        let new_txn = db.begin_read();
        let (new_pairs, kind) = state
            .refresh(&new_txn, &db, &plan, ExecOptions::default())
            .unwrap();
        assert_eq!(kind, ServeKind::Delta);
        assert!(new_pairs.iter().any(|(s, _)| s.as_str() == "m6"));
        // The old snapshot must not see m6 even though the state has it.
        let (old_pairs, kind) = state
            .refresh(&old_txn, &db, &plan, ExecOptions::default())
            .unwrap();
        assert_eq!(kind, ServeKind::Rescan, "stale snapshot cannot use folds");
        assert!(!old_pairs.iter().any(|(s, _)| s.as_str() == "m6"));
    }

    fn beat(db: &Database, sid: &str, at: &str) {
        db.with_write(|w| w.heartbeat(&SourceId::new(sid), Timestamp::parse(at).unwrap()))
            .unwrap();
    }

    /// The served-list rule: a list is kept only once a second serve
    /// with no member change in between reuses it, so a statement whose
    /// members change between reports leaves no list behind.
    #[test]
    fn a_served_list_is_kept_only_once_a_serve_reuses_it() {
        let db = paper_db();
        let plan = plan_of(
            &db,
            "SELECT mach_id FROM Activity WHERE mach_id IN ('m1','m2')",
        );
        let serve = |state: &mut MaintainedReport| {
            let txn = db.begin_read();
            let (pairs, kind) = state
                .refresh(&txn, &db, &plan, ExecOptions::default())
                .unwrap();
            assert_eq!(kind, ServeKind::Delta);
            assert_eq!(
                pairs,
                rescan_pairs(&txn, &plan, ExecOptions::default()).unwrap()
            );
            pairs
        };
        let txn = db.begin_read();
        let (mut state, registered) =
            MaintainedReport::register(&txn, &db, &plan, ExecOptions::default()).unwrap();
        drop(txn);
        // Warm and unchanged: the registration's list, kept from here on.
        let warm = serve(&mut state);
        assert!(warm.ptr_eq(&registered));
        drop(registered);
        let again = serve(&mut state);
        assert!(
            again.ptr_eq(&warm),
            "a warm, unchanged serve shares the list"
        );
        // A member advances: a new list, which the state holds only
        // weakly.
        beat(&db, "m1", "2006-02-10 00:05:00");
        let moved = serve(&mut state);
        assert!(!moved.ptr_eq(&warm));
        let weak = moved.downgrade();
        drop((warm, again, moved));
        assert!(weak.upgrade().is_none(), "no list outlives its reports");
        // Unchanged again, with the last list gone: rebuilt once, then
        // kept.
        let first = serve(&mut state);
        let second = serve(&mut state);
        assert!(second.ptr_eq(&first));
    }

    #[test]
    fn rescan_only_plan_rescans_new_sources_and_folds_known_advances() {
        let db = paper_db();
        beat(&db, "m4", "2006-02-10 00:09:00");
        // Every generated subquery joins heartbeat with two relations:
        // rescan-only, reading H.sid alone.
        let plan = plan_of(
            &db,
            "SELECT A.mach_id FROM Routing R, Activity A, Routing R2 \
             WHERE R.neighbor = A.mach_id AND R2.mach_id = R.mach_id \
             AND R.mach_id IN ('m1', 'm2') AND A.value = 'idle'",
        );
        assert!(plan
            .subqueries
            .iter()
            .filter_map(|s| s.query.as_ref())
            .all(|q| !trac_plan::classify_maintenance(q).delta_foldable()));
        let txn = db.begin_read();
        let (mut state, pairs) =
            MaintainedReport::register(&txn, &db, &plan, ExecOptions::default()).unwrap();
        assert!(
            !pairs.iter().any(|(s, _)| s.as_str() == "m4"),
            "m4 is known, not a member"
        );
        drop(txn);
        // A brand-new source's relevance is not locally decidable.
        beat(&db, "m5", "2006-02-10 00:09:01");
        let txn = db.begin_read();
        let (pairs, kind) = state
            .refresh(&txn, &db, &plan, ExecOptions::default())
            .unwrap();
        assert_eq!(kind, ServeKind::Rescan);
        assert_eq!(
            pairs,
            rescan_pairs(&txn, &plan, ExecOptions::default()).unwrap()
        );
        drop(txn);
        // Advancing a known non-member (and a member) folds.
        beat(&db, "m4", "2006-02-10 00:09:02");
        beat(&db, "m1", "2006-02-10 00:09:03");
        check_delta(&db, &plan, &mut state);
    }

    #[test]
    fn existence_gate_opening_after_registration_admits_current_recencies() {
        let db = paper_db();
        trac_exec::execute_statement(&db, "DELETE FROM activity WHERE value = 'idle'").unwrap();
        // The routing subquery is gated by the existence of an idle m3
        // activity row; m1 and m2 pass its P_s'.
        let plan = plan_of(
            &db,
            "SELECT R.mach_id FROM Routing R, Activity A \
             WHERE R.mach_id IN ('m1', 'm2') AND A.mach_id = 'm3' AND A.value = 'idle'",
        );
        let txn = db.begin_read();
        let (mut state, pairs) =
            MaintainedReport::register(&txn, &db, &plan, ExecOptions::default()).unwrap();
        assert!(
            !pairs.iter().any(|(s, _)| s.as_str() != "m3"),
            "gate closed: {pairs:?}"
        );
        drop(txn);
        // The sources advance while they are not members; the fold
        // holds no recency for them.
        beat(&db, "m1", "2006-02-10 00:10:01");
        beat(&db, "m2", "2006-02-10 00:10:02");
        check_delta(&db, &plan, &mut state);
        let activity = db.begin_read().table_id("activity").unwrap();
        db.with_write(|w| {
            let ts = Timestamp::parse("2006-02-10 00:00:45").unwrap();
            w.insert(
                activity,
                vec![Value::text("m3"), Value::text("idle"), Value::Timestamp(ts)],
            )
        })
        .unwrap();
        check_delta(&db, &plan, &mut state);
        let served = state.serve_pairs();
        for (sid, at) in [("m1", "2006-02-10 00:10:01"), ("m2", "2006-02-10 00:10:02")] {
            assert!(
                served.contains(&(SourceId::new(sid), Timestamp::parse(at).unwrap())),
                "{sid} admitted at its current recency: {served:?}"
            );
        }
    }

    #[test]
    fn witness_insert_waits_for_a_heartbeat_that_commits_later() {
        let db = paper_db();
        // Via-A subquery of the paper's Q2: H.sid = R.neighbor.
        let plan = plan_of(
            &db,
            "SELECT A.mach_id FROM Routing R, Activity A \
             WHERE R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id",
        );
        let txn = db.begin_read();
        let (mut state, _) =
            MaintainedReport::register(&txn, &db, &plan, ExecOptions::default()).unwrap();
        drop(txn);
        // m8's first heartbeat is written by a transaction that began
        // before the witness row naming m8 committed, and commits after
        // the fold has passed that row.
        let w = db.begin_write();
        trac_exec::execute_statement(
            &db,
            "INSERT INTO routing VALUES ('m1', 'm8', TIMESTAMP '2006-02-10 00:03:00')",
        )
        .unwrap();
        w.heartbeat(
            &SourceId::new("m8"),
            Timestamp::parse("2006-02-10 00:11:00").unwrap(),
        )
        .unwrap();
        let txn = db.begin_read();
        let (pairs, kind) = state
            .refresh(&txn, &db, &plan, ExecOptions::default())
            .unwrap();
        assert_eq!(kind, ServeKind::Rescan, "the heartbeat is in flight");
        assert!(!pairs.iter().any(|(s, _)| s.as_str() == "m8"));
        drop(txn);
        w.commit();
        check_delta(&db, &plan, &mut state);
        assert!(state.serve_pairs().iter().any(|(s, _)| s.as_str() == "m8"));
    }

    #[test]
    fn registration_under_a_writer_whose_events_were_compacted_rescans_next() {
        let db = paper_db();
        let plan = plan_of(
            &db,
            "SELECT mach_id FROM Activity WHERE mach_id IN ('m1', 'm2')",
        );
        // An open writer advances member m1, then pushes that event out
        // of the ring with beats for non-member m3.
        let w = db.begin_write();
        w.heartbeat(
            &SourceId::new("m1"),
            Timestamp::parse("2006-02-10 00:12:00").unwrap(),
        )
        .unwrap();
        for i in 0..trac_storage::DEFAULT_CHANGELOG_CAPACITY + 76 {
            w.heartbeat(
                &SourceId::new("m3"),
                Timestamp::from_micros(2_000_000_000 + i as i64),
            )
            .unwrap();
        }
        let txn = db.begin_read();
        let (mut state, pairs) =
            MaintainedReport::register(&txn, &db, &plan, ExecOptions::default()).unwrap();
        assert_eq!(
            pairs,
            rescan_pairs(&txn, &plan, ExecOptions::default()).unwrap()
        );
        assert!(
            state.needs_rescan(),
            "no cursor re-reads the compacted advance"
        );
        drop(txn);
        w.commit();
        let txn = db.begin_read();
        let (pairs, kind) = state
            .refresh(&txn, &db, &plan, ExecOptions::default())
            .unwrap();
        assert_eq!(kind, ServeKind::Rescan);
        assert_eq!(
            pairs,
            rescan_pairs(&txn, &plan, ExecOptions::default()).unwrap()
        );
        assert!(pairs.contains(&(
            SourceId::new("m1"),
            Timestamp::parse("2006-02-10 00:12:00").unwrap()
        )));
        drop(txn);
        // Registered again with no writer in flight: folds resume.
        beat(&db, "m2", "2006-02-10 00:12:01");
        check_delta(&db, &plan, &mut state);
    }

    #[test]
    fn aborted_writers_are_skipped_and_a_late_commit_stops_the_fold() {
        let db = paper_db();
        let plan = plan_of(&db, "SELECT mach_id FROM Activity");
        let ts = |at: &str| Timestamp::parse(at).unwrap();
        // `before` aborts before the registration snapshot; `after`,
        // in flight then, pins the cursor below `before`'s event and
        // aborts after registration.
        let after = db.begin_write();
        after
            .heartbeat(&SourceId::new("m2"), ts("2006-02-10 00:13:00"))
            .unwrap();
        let before = db.begin_write();
        before
            .heartbeat(&SourceId::new("m1"), ts("2006-02-10 00:13:01"))
            .unwrap();
        before.abort();
        let txn = db.begin_read();
        let (mut state, pairs) =
            MaintainedReport::register(&txn, &db, &plan, ExecOptions::default()).unwrap();
        assert_eq!(
            pairs,
            rescan_pairs(&txn, &plan, ExecOptions::default()).unwrap()
        );
        assert!(!state.needs_rescan());
        drop(txn);
        // `late` publishes, a snapshot sees `after` still in flight, and
        // only then does `after` abort: the snapshot rejects its event
        // and the manager says it aborted.
        let late = db.begin_write();
        let late_seq = db.change_log().next_seq();
        late.heartbeat(&SourceId::new("m1"), ts("2006-02-10 00:13:02"))
            .unwrap();
        let txn = db.begin_read();
        after.abort();
        let (pairs, kind) = state
            .refresh(&txn, &db, &plan, ExecOptions::default())
            .unwrap();
        assert_eq!(kind, ServeKind::Rescan, "the late writer stops the fold");
        assert_eq!(
            pairs,
            rescan_pairs(&txn, &plan, ExecOptions::default()).unwrap()
        );
        assert_eq!(state.cursor(), late_seq, "both aborted events skipped");
        drop(txn);
        late.commit();
        check_delta(&db, &plan, &mut state);
        let served = state.serve_pairs();
        assert!(served.contains(&(SourceId::new("m1"), ts("2006-02-10 00:13:02"))));
        assert!(!served.contains(&(SourceId::new("m2"), ts("2006-02-10 00:13:00"))));
    }
}
