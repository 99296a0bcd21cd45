//! An interactive TRAC shell, mirroring the paper's psql sessions.
//!
//! ```sh
//! cargo run --bin trac-repl
//! trac=# \demo
//! trac=# \report SELECT mach_id, value FROM Activity WHERE value = 'idle'
//! ```
//!
//! Plain SQL statements run directly; `\report` wraps a SELECT in the
//! recencyReport machinery of Section 5.1. Also scriptable: pipe a file
//! of commands in.

use std::io::{BufRead, IsTerminal, Write};
use trac::core::{Method, Session};
use trac::exec::{execute_statement, StatementResult};
use trac::storage::Database;
use trac::types::TracError;
use trac::workload::load_paper_tables;

const HELP: &str = "\
Commands:
  <sql>;            run a SQL statement (SELECT/INSERT/UPDATE/DELETE/CREATE/DROP)
  EXPLAIN <select>  show the physical operator tree, annotated with the
                    dataflow facts the analyzer certified per operator
  \\report <select>  run a SELECT with Focused recency & consistency reporting
  \\naive <select>   run a SELECT with Naive (all-sources) reporting
  \\plan <select>    show the generated recency queries, their guarantee, and
                    how repeated reports are maintained (delta-fold vs rescan)
  \\tables           list tables
  \\vacuum           reclaim dead row versions
  \\demo             load the paper's Table 1 (Activity) and Table 2 (Routing)
  \\save <file>      write a snapshot of the committed state
  \\load <file>      replace the database with a snapshot
  \\help             this help
  \\quit             exit";

fn main() {
    // Analyzer-backed plan validation: EXPLAIN output gains per-operator
    // fact annotations, and (debug builds) every plan is certified
    // against its bound query before the operators run.
    trac::install_plan_validation();
    let mut db = Database::new();
    let mut session = Session::new(db.clone());
    let interactive = std::io::stdin().is_terminal();
    if interactive {
        println!("TRAC shell — recency & consistency reporting (VLDB 2006 reproduction)");
        println!("Type \\help for commands, \\demo for the paper's sample data.");
    }
    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    loop {
        if interactive {
            print!("trac=# ");
            let _ = std::io::stdout().flush();
        }
        let Some(Ok(line)) = lines.next() else { break };
        let line = line.trim();
        if line.is_empty() || line.starts_with("--") {
            continue;
        }
        if !interactive {
            println!("trac=# {line}");
        }
        match run_line(&mut db, &mut session, line) {
            Ok(true) => break,
            Ok(false) => {}
            Err(e) => println!("ERROR: {e}"),
        }
    }
}

/// Executes one input line; `Ok(true)` means quit.
fn run_line(db: &mut Database, session: &mut Session, line: &str) -> Result<bool, TracError> {
    if let Some(rest) = line.strip_prefix('\\') {
        let (cmd, arg) = match rest.split_once(char::is_whitespace) {
            Some((c, a)) => (c, a.trim()),
            None => (rest.trim(), ""),
        };
        match cmd {
            "q" | "quit" | "exit" => return Ok(true),
            "help" | "h" | "?" => println!("{HELP}"),
            "tables" => {
                session.materialize_report_tables()?;
                for t in db.begin_read().table_names() {
                    println!("  {t}");
                }
            }
            "vacuum" => {
                let stats = db.vacuum()?;
                println!(
                    "vacuumed {} tables: removed {} versions, kept {}",
                    stats.tables, stats.versions_removed, stats.versions_kept
                );
            }
            "save" => {
                if arg.is_empty() {
                    return Err(TracError::Parse("\\save needs a file path".into()));
                }
                trac::save_database(db, arg)?;
                println!("snapshot written to {arg}");
            }
            "load" => {
                if arg.is_empty() {
                    return Err(TracError::Parse("\\load needs a file path".into()));
                }
                *db = trac::load_database(arg)?;
                *session = Session::new(db.clone());
                println!("snapshot loaded from {arg}");
            }
            "demo" => {
                let tables = load_paper_tables()?;
                *db = tables.db;
                *session = Session::new(db.clone());
                println!("loaded Activity (Table 1) and Routing (Table 2); try:");
                println!(
                    "  \\report SELECT mach_id FROM Activity WHERE mach_id IN ('m1','m2') \
                     AND value = 'idle'"
                );
            }
            "report" | "naive" => {
                if arg.is_empty() {
                    return Err(TracError::Parse(format!("\\{cmd} needs a SELECT")));
                }
                let method = if cmd == "naive" {
                    Method::Naive
                } else {
                    Method::Focused
                };
                let out = session.recency_report_with(arg, method)?;
                println!("{}", out.render());
                if method == Method::Focused {
                    for sql in out.generated_sql() {
                        println!("-- recency query: {sql}");
                    }
                }
                let t = out.timings;
                println!(
                    "-- timings: analyze {:?}, user query {:?}, relevance {:?}, stats {:?}",
                    t.analyze, t.user_query, t.relevance_query, t.stats
                );
            }
            "plan" => {
                if arg.is_empty() {
                    return Err(TracError::Parse("\\plan needs a SELECT".into()));
                }
                let plan = session.build_plan(arg)?;
                println!(
                    "guarantee: {}{}",
                    plan.guarantee,
                    if plan.all_sources {
                        " (DNF budget exceeded: all sources)"
                    } else {
                        ""
                    }
                );
                for sub in &plan.subqueries {
                    println!(
                        "  disjunct {} via {} [{:?}{}]: {}",
                        sub.disjunct,
                        sub.via_relation,
                        sub.status,
                        if sub.refined { ", refined" } else { "" },
                        sub.sql()
                    );
                    println!("    {}", sub.maintenance.marker());
                }
            }
            other => {
                return Err(TracError::Parse(format!(
                    "unknown command \\{other}; try \\help"
                )))
            }
        }
        return Ok(false);
    }
    // Plain SQL runs against the database, not the session, so the
    // session's report tables must exist in the catalog first.
    session.materialize_report_tables()?;
    match execute_statement(db, line)? {
        StatementResult::Rows(q) => println!("{q}"),
        StatementResult::Affected(n) => println!("OK, {n} row(s) affected"),
        StatementResult::Done => println!("OK"),
    }
    Ok(false)
}
