//! Drives the `trac-repl` binary end to end over piped stdin: a report's
//! detail tables, which the session materializes only when named, must
//! be queryable from plain SQL and listed by `\tables`.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

#[test]
fn report_tables_are_queryable_from_plain_sql() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_trac-repl"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn trac-repl");
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    writeln!(stdin, "\\demo").unwrap();
    writeln!(
        stdin,
        "\\report SELECT mach_id FROM Activity WHERE value = 'idle'"
    )
    .unwrap();
    stdin.flush().unwrap();

    // Read up to the NOTICE line that names the normal-sources table.
    const MARK: &str = "are in the temporary table: ";
    let mut transcript = String::new();
    let name = loop {
        let mut line = String::new();
        assert!(
            stdout.read_line(&mut line).unwrap() > 0,
            "no NOTICE line naming the normal table:\n{transcript}"
        );
        transcript.push_str(&line);
        if line.contains("''normal''") {
            if let Some((_, name)) = line.split_once(MARK) {
                break name.trim().to_string();
            }
        }
    };
    assert!(name.starts_with("sys_temp_a"), "{name}");

    writeln!(stdin, "SELECT COUNT(*) FROM {name}").unwrap();
    writeln!(stdin, "\\tables").unwrap();
    drop(stdin);
    let mut rest = String::new();
    for line in stdout.lines() {
        rest.push_str(&line.unwrap());
        rest.push('\n');
    }
    assert!(child.wait().unwrap().success());
    assert!(!rest.contains("ERROR"), "{rest}");
    // All three machines are relevant to the unfiltered-by-source query.
    let count = rest
        .lines()
        .skip_while(|l| *l != "-----")
        .nth(1)
        .map(str::trim);
    assert_eq!(count, Some("3"), "{rest}");
    assert!(rest.lines().any(|l| l.trim() == name), "{rest}");
}

/// Pipes `commands` into a fresh `trac-repl` and returns its stdout.
fn run_repl(commands: &[&str]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_trac-repl"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn trac-repl");
    let mut stdin = child.stdin.take().unwrap();
    for c in commands {
        writeln!(stdin, "{c}").unwrap();
    }
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn focused_reports_print_their_recency_queries_and_naive_reports_none() {
    let q1 = "SELECT mach_id FROM Activity WHERE mach_id IN ('m1','m2') AND value = 'idle'";
    let q2 = "SELECT A.mach_id FROM Routing R, Activity A \
              WHERE R.mach_id = 'm1' AND A.value = 'idle' AND R.neighbor = A.mach_id";
    let report1 = format!("\\report {q1}");
    let report2 = format!("\\report {q2}");
    let naive = format!("\\naive {q1}");
    let transcript = run_repl(&["\\demo", &report1, &report2, &naive]);
    assert!(!transcript.contains("ERROR"), "{transcript}");
    // One block per command, each opened by the echoed prompt line.
    let blocks: Vec<&str> = transcript.split("trac=# ").skip(1).collect();
    assert_eq!(blocks.len(), 4, "{transcript}");
    let recency_lines = |block: &str| -> Vec<String> {
        block
            .lines()
            .filter(|l| l.starts_with("-- recency query:"))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(
        recency_lines(blocks[1]),
        [
            "-- recency query: SELECT DISTINCT H.sid AS sid FROM heartbeat H \
          WHERE H.sid IN ('m1', 'm2')"
        ]
    );
    assert_eq!(
        recency_lines(blocks[2]),
        [
            "-- recency query: SELECT DISTINCT H.sid AS sid FROM heartbeat H, activity A \
             WHERE H.sid = 'm1' AND A.value = 'idle'",
            "-- recency query: SELECT DISTINCT H.sid AS sid FROM heartbeat H, routing R \
             WHERE R.neighbor = H.sid AND R.mach_id = 'm1'",
        ]
    );
    assert!(
        blocks[3].contains("guarantee: upper bound"),
        "{}",
        blocks[3]
    );
    assert!(recency_lines(blocks[3]).is_empty(), "{}", blocks[3]);
}
