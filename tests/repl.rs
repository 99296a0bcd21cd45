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
