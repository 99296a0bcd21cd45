//! Diagnostic infrastructure: severities, stable codes, source spans and
//! caret-rendered output.
//!
//! Every check in the analyzer reports through a [`Diagnostic`] carrying a
//! stable `TRACnnn` code so downstream tooling (CI greps, the negative
//! tests) can match on the code rather than on message text. Spans are
//! byte ranges into the SQL text under analysis, recovered through the
//! `trac-sql` lexer ([`SpanFinder`]).

use std::fmt;
use trac_sql::{Lexer, TokenKind};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: the analyzer proved something worth knowing.
    Note,
    /// Suspicious but sound: recency reporting stays correct.
    Warning,
    /// A soundness violation: the reported guarantee would be wrong.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// A stable diagnostic code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Code {
    /// Stable identifier, `TRAC001`…
    pub id: &'static str,
    /// Default severity for this code.
    pub severity: Severity,
    /// One-line description (the diagnostic-code table in DESIGN.md).
    pub summary: &'static str,
}

/// Partition checker: a basic term falls in no class, several classes, or
/// a different class than Notation 4/6 prescribes.
pub const PARTITION_VIOLATION: Code = Code {
    id: "TRAC001",
    severity: Severity::Error,
    summary: "term class partition of Notation 4/6 violated",
};

/// Guarantee auditor: `Guarantee::Minimum` claimed although the Theorem
/// 3/4 preconditions (`P_m = ∅`, `J_rm = ∅`, `P_r` satisfiable) fail.
pub const UNSOUND_MINIMUM: Code = Code {
    id: "TRAC002",
    severity: Severity::Error,
    summary: "minimum guarantee claimed without Theorem 3/4 preconditions",
};

/// Guarantee auditor: a conjunct whose selection predicates are proven
/// unsatisfiable still contributes a nonempty relevance subquery
/// (Corollaries 2/6 say its relevant set is empty).
pub const UNSAT_NONEMPTY: Code = Code {
    id: "TRAC003",
    severity: Severity::Error,
    summary: "unsatisfiable conjunct contributes a nonempty relevance set",
};

/// Subquery sanitizer: a recency subquery projects something other than
/// the Heartbeat source-id column.
pub const BAD_PROJECTION: Code = Code {
    id: "TRAC004",
    severity: Severity::Error,
    summary: "recency subquery projects a non-Heartbeat-sid column",
};

/// Subquery sanitizer: a recency subquery references a column of the
/// relation under analysis (all its terms must have been rewritten onto
/// `H.sid` or dropped).
pub const LEAKED_RELATION: Code = Code {
    id: "TRAC005",
    severity: Severity::Error,
    summary: "recency subquery references the relation under analysis",
};

/// SAT cross-check: the propagation/enumeration verdict of
/// `conjunct_satisfiable` contradicts brute-force model enumeration.
pub const SAT_MISMATCH: Code = Code {
    id: "TRAC006",
    severity: Severity::Error,
    summary: "SAT verdict contradicts brute-force model enumeration",
};

/// The plan fell back to reporting all sources (inexact DNF).
pub const ALL_SOURCES_FALLBACK: Code = Code {
    id: "TRAC007",
    severity: Severity::Warning,
    summary: "DNF blow-up: plan reports all sources (upper bound)",
};

/// The guarantee degraded to an upper bound (mixed terms or an undecided
/// satisfiability question) — sound, but worth surfacing.
pub const DEGRADED_GUARANTEE: Code = Code {
    id: "TRAC008",
    severity: Severity::Note,
    summary: "guarantee degraded to upper bound (mixed terms or SAT unknown)",
};

/// Translation validator (residue pass): a conjunct of the bound WHERE
/// clause is enforced by no operator dominating all the leaves its
/// columns come from — the plan could emit tuples the query excludes.
pub const RESIDUE_DROPPED: Code = Code {
    id: "TRAC009",
    severity: Severity::Error,
    summary: "WHERE conjunct not enforced by the physical plan",
};

/// Translation validator (residue pass): the plan enforces a predicate
/// that is not a conjunct of the bound WHERE clause (and is not a
/// planner-derived equi-key or index residual) — the plan could drop
/// tuples the query keeps.
pub const RESIDUE_PHANTOM: Code = Code {
    id: "TRAC010",
    severity: Severity::Error,
    summary: "plan enforces a predicate absent from the WHERE clause",
};

/// Translation validator (property pass): a join's key contract is
/// violated — the inner/outer key types do not unify, or the equi-key
/// pair matches no equality conjunct of the bound WHERE clause.
pub const JOIN_KEY_CONTRACT: Code = Code {
    id: "TRAC011",
    severity: Severity::Error,
    summary: "join key contract violated (type mismatch or unjustified key)",
};

/// Translation validator (property pass): an operator's structural
/// contract is violated — slot sets overlap or miss tables, a predicate
/// references columns outside its input's scope, projection widths or
/// grouping columns disagree with the bound query.
pub const OPERATOR_CONTRACT: Code = Code {
    id: "TRAC012",
    severity: Severity::Error,
    summary: "operator contract violated (schema, scope, width, or grouping)",
};

/// Translation validator (property pass): the shaping stack
/// (Project/Aggregate/Distinct/Sort/Limit) is missing, duplicated, or
/// ordered so that it computes a different result than the bound query.
pub const SHAPE_MISMATCH: Code = Code {
    id: "TRAC013",
    severity: Severity::Error,
    summary: "shaping operators disagree with the bound query",
};

/// Refinement checker: the relevance analysis upgraded a Corollary 3/5
/// upper bound to an exact Theorem 3/4 minimum because every mixed term
/// was proved vacuous under the residual column domains, and the checker
/// independently confirmed the proof.
pub const REFINED_MINIMUM: Code = Code {
    id: "TRAC014",
    severity: Severity::Note,
    summary: "upper bound refined to exact minimum (mixed terms vacuous)",
};

/// Refinement checker: a subquery claims a refined minimum but the
/// independent re-derivation could not confirm that every mixed term is
/// vacuous — the claimed guarantee would be unsound.
pub const UNCONFIRMED_REFINEMENT: Code = Code {
    id: "TRAC015",
    severity: Severity::Error,
    summary: "claimed refined minimum not independently confirmable",
};

/// Concurrency certifier (crate audit): an instrumented lock acquisition
/// violates the declared storage/exec lock order, so two threads taking
/// the same pair in opposite orders could deadlock.
pub const LOCK_ORDER: Code = Code {
    id: "TRAC020",
    severity: Severity::Error,
    summary: "lock acquisition violates the declared partial order",
};

/// Fast-path certifier: a fast-path operator (`CountStar`,
/// `IndexMinMax`, `TopNIndex`, or a multi-key IN-list probe) was emitted
/// although re-deriving its side conditions from the bound query and the
/// catalog fails — the storage shortcut could compute a different result
/// than the general pipeline.
pub const FASTPATH_UNSOUND: Code = Code {
    id: "TRAC021",
    severity: Severity::Error,
    summary: "fast-path operator emitted without its re-derivable side conditions",
};

/// Fast-path certifier: every fast-path operator in the plan had its
/// side conditions independently re-derived and confirmed.
pub const FASTPATH_CERTIFIED: Code = Code {
    id: "TRAC022",
    severity: Severity::Note,
    summary: "fast-path side conditions independently re-derived and confirmed",
};

/// Typeflow certifier: an operator consumes a lane outside its
/// certified domain — the plan carries a type, nullability or
/// NaN-freedom claim the abstract interpretation cannot re-derive from
/// the schema and the write-time catalog statistics, so an unboxed
/// kernel could read a value it cannot represent.
pub const TYPE_UNSOUND: Code = Code {
    id: "TRAC023",
    severity: Severity::Error,
    summary: "plan carries a lane certificate the typeflow analysis cannot prove",
};

/// Typeflow certifier: a lane is proven mono-typed and null-free, so
/// the unboxed typed kernel (no null bitmap) is admissible for it.
pub const KERNEL_CERTIFIED: Code = Code {
    id: "TRAC024",
    severity: Severity::Note,
    summary: "mono-typed null-free lane: unboxed kernel admissible",
};

/// Typeflow certifier: a lane is proven mono-typed but may hold NULLs;
/// the unboxed kernel with a null bitmap is admissible for it.
pub const NULLMASK_CERTIFIED: Code = Code {
    id: "TRAC025",
    severity: Severity::Note,
    summary: "mono-typed nullable lane: null-bitmap kernel admissible",
};

/// Typeflow certifier: a float lane is proven NaN-free from the catalog
/// min/max bounds, so SQL comparison and the storage total order
/// coincide on it — total-order kernels (including the `IndexMinMax`
/// fast path) are admissible.
pub const FLOAT_TOTAL_ORDER: Code = Code {
    id: "TRAC026",
    severity: Severity::Note,
    summary: "stats-proven NaN-free float lane: total-order kernels admissible",
};

/// Typeflow certifier (crate audit): a `unwrap()`/`expect(` panic site
/// sits on a query-reachable path of `trac-exec`/`trac-storage` without
/// a reviewed `PANIC-OK:` justification — a malformed plan or a torn
/// invariant would abort the process instead of surfacing a typed
/// `TracError`.
pub const PANIC_PATH: Code = Code {
    id: "TRAC027",
    severity: Severity::Error,
    summary: "unreviewed panic site on a query-reachable path",
};

/// Maintenance certifier (crate audit): the typed change stream does
/// not cover a committed write path — a heartbeat upsert, tuple ingest
/// or SQL DML reached the committed state without publishing a
/// sequenced change event, so a delta-maintained report folding the
/// stream could silently diverge from a rescan.
pub const STREAM_COVERAGE: Code = Code {
    id: "TRAC028",
    severity: Severity::Error,
    summary: "committed write path not covered by the typed change stream",
};

/// Maintenance certifier: a planned recency subquery carries a
/// delta-fold maintenance license the analyzer cannot independently
/// re-derive from the bound query — folding the change stream under
/// that license could serve a report a rescan would not produce.
pub const MAINTENANCE_UNSOUND: Code = Code {
    id: "TRAC029",
    severity: Severity::Error,
    summary: "claimed delta-fold maintenance license not re-derivable",
};

/// Maintenance certifier: a recency subquery is licensed rescan-only —
/// the forced-rescan fallback is recorded so repeated reports for it
/// are served by re-running the subquery, never by folding deltas.
pub const RESCAN_LICENSED: Code = Code {
    id: "TRAC030",
    severity: Severity::Note,
    summary: "rescan-only maintenance license: forced-rescan fallback recorded",
};

/// All live codes, for `--explain` listings and the docs table. Ids are
/// never reused: retired codes (`TRAC016`–`TRAC019`) leave a gap.
pub const ALL_CODES: [Code; 26] = [
    PARTITION_VIOLATION,
    UNSOUND_MINIMUM,
    UNSAT_NONEMPTY,
    BAD_PROJECTION,
    LEAKED_RELATION,
    SAT_MISMATCH,
    ALL_SOURCES_FALLBACK,
    DEGRADED_GUARANTEE,
    RESIDUE_DROPPED,
    RESIDUE_PHANTOM,
    JOIN_KEY_CONTRACT,
    OPERATOR_CONTRACT,
    SHAPE_MISMATCH,
    REFINED_MINIMUM,
    UNCONFIRMED_REFINEMENT,
    LOCK_ORDER,
    FASTPATH_UNSOUND,
    FASTPATH_CERTIFIED,
    TYPE_UNSOUND,
    KERNEL_CERTIFIED,
    NULLMASK_CERTIFIED,
    FLOAT_TOTAL_ORDER,
    PANIC_PATH,
    STREAM_COVERAGE,
    MAINTENANCE_UNSOUND,
    RESCAN_LICENSED,
];

/// A byte range into the SQL text under analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Start byte offset.
    pub offset: usize,
    /// One past the last byte.
    pub end: usize,
}

impl Span {
    /// Length in bytes (at least 1 when rendered).
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.offset)
    }

    /// True for a zero-width span.
    pub fn is_empty(&self) -> bool {
        self.end <= self.offset
    }
}

/// One analyzer finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// Severity (defaults to the code's severity).
    pub severity: Severity,
    /// Human-readable description of this instance.
    pub message: String,
    /// Where in the analyzed SQL text, if locatable.
    pub span: Option<Span>,
    /// The SQL text the span indexes (the user query or a generated
    /// recency subquery).
    pub source: String,
    /// Label of what was analyzed, e.g. `Q1` or `Q1 subquery #0 (via A)`.
    pub context: String,
}

impl Diagnostic {
    /// Builds a diagnostic at the code's default severity.
    pub fn new(code: Code, context: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity,
            message: message.into(),
            span: None,
            source: String::new(),
            context: context.into(),
        }
    }

    /// Attaches the SQL text and a span into it.
    pub fn with_span(mut self, source: impl Into<String>, span: Option<Span>) -> Diagnostic {
        self.source = source.into();
        self.span = span;
        self
    }

    /// True for error-severity findings (these fail the build).
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// Renders the diagnostic in a compiler-like caret format:
    ///
    /// ```text
    /// error[TRAC004]: recency subquery projects `value`
    ///   --> Q1 subquery #0 (via A)
    ///    |
    ///    | SELECT DISTINCT A.value AS sid FROM ...
    ///    |                 ^^^^^^^
    /// ```
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}[{}]: {}\n  --> {}\n",
            self.severity, self.code.id, self.message, self.context
        );
        if self.source.is_empty() {
            return out;
        }
        match self.span {
            Some(span) if !self.source.is_empty() => {
                // Find the line holding the span start.
                let mut line_start = 0usize;
                let mut line_no = 1usize;
                for (i, b) in self.source.bytes().enumerate() {
                    if i >= span.offset {
                        break;
                    }
                    if b == b'\n' {
                        line_start = i + 1;
                        line_no += 1;
                    }
                }
                let line_end = self.source[line_start..]
                    .find('\n')
                    .map_or(self.source.len(), |i| line_start + i);
                let line = &self.source[line_start..line_end];
                // Clamp the effective span to this line: a span that
                // crosses the newline (or starts on the newline byte
                // itself) must not push the caret run past the end of
                // the line it is rendered under.
                let mut col = span.offset.saturating_sub(line_start).min(line.len());
                let span_on_line = span.end.min(line_end).saturating_sub(line_start);
                let mut width = span_on_line.saturating_sub(col).max(1);
                if col >= line.len() && !line.is_empty() {
                    col = line.len() - 1;
                    width = 1;
                }
                let gutter = format!("{line_no}");
                let pad = " ".repeat(gutter.len());
                out.push_str(&format!("   {pad}|\n"));
                out.push_str(&format!("   {gutter}| {line}\n"));
                out.push_str(&format!(
                    "   {pad}| {}{}\n",
                    " ".repeat(col),
                    "^".repeat(width)
                ));
            }
            _ => {
                out.push_str(&format!("   | {}\n", self.source));
            }
        }
        out
    }
}

/// Locates identifiers (and other tokens) in a SQL string through the
/// lexer, for attaching spans to diagnostics about bound artifacts that
/// no longer carry positions themselves.
pub struct SpanFinder {
    tokens: Vec<(TokenKind, Span)>,
}

impl SpanFinder {
    /// Lexes `sql`; unlexable text yields an empty finder (all lookups
    /// return `None`).
    pub fn new(sql: &str) -> SpanFinder {
        let tokens = Lexer::new(sql)
            .tokenize()
            .map(|ts| {
                ts.into_iter()
                    .map(|t| {
                        (
                            t.kind,
                            Span {
                                offset: t.offset,
                                end: t.end,
                            },
                        )
                    })
                    .collect()
            })
            .unwrap_or_default();
        SpanFinder { tokens }
    }

    /// Span of the `n`-th (0-based) occurrence of identifier `name`
    /// (case-insensitive).
    pub fn nth_ident(&self, name: &str, n: usize) -> Option<Span> {
        self.tokens
            .iter()
            .filter(|(k, _)| matches!(k, TokenKind::Ident(s) if s.eq_ignore_ascii_case(name)))
            .nth(n)
            .map(|(_, s)| *s)
    }

    /// Span of the first occurrence of identifier `name`.
    pub fn ident(&self, name: &str) -> Option<Span> {
        self.nth_ident(name, 0)
    }

    /// Span of the first `qualifier.column` reference (three consecutive
    /// tokens: ident, dot, ident), matched case-insensitively.
    pub fn qualified(&self, qualifier: &str, column: &str) -> Option<Span> {
        self.tokens
            .windows(3)
            .find_map(|w| match (&w[0].0, &w[1].0, &w[2].0) {
                (TokenKind::Ident(q), TokenKind::Dot, TokenKind::Ident(c))
                    if q.eq_ignore_ascii_case(qualifier) && c.eq_ignore_ascii_case(column) =>
                {
                    Some(Span {
                        offset: w[0].1.offset,
                        end: w[2].1.end,
                    })
                }
                _ => None,
            })
    }

    /// Span of the first string literal equal to `text`.
    pub fn string_lit(&self, text: &str) -> Option<Span> {
        self.tokens.iter().find_map(|(k, s)| match k {
            TokenKind::StringLit(v) if v == text => Some(*s),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_ordered() {
        // Fixed-width `TRACnnn` ids, so string order is numeric order.
        for pair in ALL_CODES.windows(2) {
            assert!(
                pair[0].id < pair[1].id,
                "code ids must strictly increase: {} then {}",
                pair[0].id,
                pair[1].id
            );
        }
    }

    #[test]
    fn finder_locates_idents_and_qualified_refs() {
        let sql = "SELECT A.value FROM Activity A WHERE A.value = 'idle'";
        let f = SpanFinder::new(sql);
        let s = f.qualified("a", "value").unwrap();
        assert_eq!(&sql[s.offset..s.end], "A.value");
        let s = f.nth_ident("value", 1).unwrap();
        assert_eq!(&sql[s.offset..s.end], "value");
        assert!(f.ident("missing").is_none());
        let s = f.string_lit("idle").unwrap();
        assert_eq!(&sql[s.offset..s.end], "'idle'");
    }

    #[test]
    fn render_carets_under_span() {
        let sql = "SELECT A.value FROM Activity A";
        let f = SpanFinder::new(sql);
        let d = Diagnostic::new(BAD_PROJECTION, "Q1 subquery #0", "projects `A.value`")
            .with_span(sql, f.qualified("A", "value"));
        let r = d.render();
        assert!(r.starts_with("error[TRAC004]"), "{r}");
        assert!(r.contains("^^^^^^^"), "{r}");
        // Caret row aligns under the span column.
        let caret_line = r.lines().last().unwrap();
        let code_line = r.lines().nth(3).unwrap();
        assert_eq!(
            caret_line.find('^').unwrap(),
            code_line.find("A.value").unwrap()
        );
    }

    #[test]
    fn render_clamps_carets_to_line_for_multiline_spans() {
        let sql = "SELECT A.value FROM Activity A\nWHERE A.value = 'idle'";
        // A span crossing the newline (from "Activity" through "WHERE")
        // must stop its caret run at the end of the first line.
        let off = sql.find("Activity").unwrap();
        let end = sql.find("WHERE").unwrap() + "WHERE".len();
        let d = Diagnostic::new(BAD_PROJECTION, "fixture", "crosses a line")
            .with_span(sql, Some(Span { offset: off, end }));
        let r = d.render();
        let code_line = r.lines().nth(3).unwrap();
        let caret_line = r.lines().nth(4).unwrap();
        assert!(code_line.ends_with("Activity A"), "{r}");
        assert!(caret_line.ends_with('^'), "{r}");
        assert!(
            caret_line.len() <= code_line.len(),
            "caret run extends past the end of the line:\n{r}"
        );
        assert_eq!(
            caret_line.find('^').unwrap(),
            code_line.find("Activity").unwrap(),
            "{r}"
        );
        // A span starting exactly on the newline byte stays within the
        // first line instead of pointing one column past its end.
        let nl = sql.find('\n').unwrap();
        let d = Diagnostic::new(BAD_PROJECTION, "fixture", "starts on the newline").with_span(
            sql,
            Some(Span {
                offset: nl,
                end: nl + 6,
            }),
        );
        let r = d.render();
        let code_line = r.lines().nth(3).unwrap();
        let caret_line = r.lines().nth(4).unwrap();
        assert!(
            caret_line.len() <= code_line.len(),
            "caret rendered past the end of the line:\n{r}"
        );
        // Spans on the second line still render against that line.
        let f = SpanFinder::new(sql);
        let d = Diagnostic::new(BAD_PROJECTION, "fixture", "second line")
            .with_span(sql, f.string_lit("idle"));
        let r = d.render();
        assert!(r.contains("2| WHERE A.value = 'idle'"), "{r}");
    }

    #[test]
    fn render_without_span_prints_source() {
        let d =
            Diagnostic::new(UNSOUND_MINIMUM, "Q2", "claimed minimum").with_span("SELECT 1", None);
        assert!(d.render().contains("SELECT 1"));
    }
}
