//! Commands built on the standard policy suite must run at the smallest
//! machine counts: a strategy that does not apply to `m` (a chain of
//! more replicas than machines) is dropped from the suite, never allowed
//! to abort the whole campaign.

use std::process::Command;

const RDS: &str = env!("CARGO_BIN_EXE_rds");

fn run(args: &[&str]) -> String {
    let out = Command::new(RDS).args(args).output().unwrap();
    assert!(
        out.status.success(),
        "rds {} exited {:?}: {}",
        args.join(" "),
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// First-column cells of the result table, header and rule excluded.
fn policy_rows(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter(|l| l.starts_with('|'))
        .map(|l| l.split('|').nth(1).unwrap().trim().to_string())
        .filter(|cell| cell != "policy" && !cell.starts_with('-'))
        .collect()
}

#[test]
fn resilience_runs_at_m_1_2_and_3() {
    for (m, expected) in [
        (
            1,
            vec!["LPT-No Choice", "LS-Group(k=1)", "LPT-No Restriction"],
        ),
        (
            2,
            vec![
                "LPT-No Choice",
                "Chained(k=2)",
                "LS-Group(k=1)",
                "LPT-No Restriction",
            ],
        ),
        (
            3,
            vec![
                "LPT-No Choice",
                "Chained(k=2)",
                "Chained(k=3)",
                "LS-Group(k=1)",
                "LPT-No Restriction",
            ],
        ),
    ] {
        let m = m.to_string();
        let stdout = run(&[
            "resilience",
            "--m",
            &m,
            "--mtbf",
            "20",
            "--stragglers",
            "0.1",
            "--reps",
            "3",
            "--seed",
            "5",
        ]);
        assert_eq!(policy_rows(&stdout), expected, "m = {m}");
    }
}

#[test]
fn sweep_runs_at_m_1_and_2() {
    for m in ["1", "2"] {
        let stdout = run(&["sweep", "--m", m, "--reps", "2"]);
        assert!(!policy_rows(&stdout).is_empty(), "m = {m}: {stdout}");
    }
}
