//! The `replidtn` binary's argument handling: combinations the engine
//! cannot run, and flags a subcommand does not know, are usage errors
//! with a non-zero exit, never panics.

use std::process::Command;

#[test]
fn a_spooled_run_rejects_the_selected_strategy() {
    let dir = std::env::temp_dir().join(format!("replidtn-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let spool = dir.join("t.spool");
    let bin = env!("CARGO_BIN_EXE_replidtn");

    let generated = Command::new(bin)
        .args(["gen-trace", "--days", "2", "--spool"])
        .arg(&spool)
        .output()
        .expect("run gen-trace");
    assert!(
        generated.status.success(),
        "gen-trace failed: {generated:?}"
    );

    let run = Command::new(bin)
        .args(["run", "--policy", "epidemic", "--spool"])
        .arg(&spool)
        .args(["--strategy", "selected", "--k", "1"])
        .output()
        .expect("run the emulation");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.starts_with("error: --strategy selected"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");

    // The strategy that needs no whole-trace statistics still runs.
    let random = Command::new(bin)
        .args(["run", "--policy", "epidemic", "--spool"])
        .arg(&spool)
        .args(["--strategy", "random", "--k", "1"])
        .output()
        .expect("run the emulation");
    assert!(random.status.success(), "{random:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A misspelt or retired flag fails the command and names the flag,
/// instead of running with the flag silently ignored.
#[test]
fn an_unknown_flag_fails_and_is_named() {
    let bin = env!("CARGO_BIN_EXE_replidtn");
    for (args, flag) in [
        (&["run", "--shard", "4"][..], "--shard"),
        (&["run", "--exec-threads", "2"][..], "--exec-threads"),
        (&["run", "--shards", "2"][..], "--shards"),
        (&["run", "--policy", "epidemic", "--bogus"][..], "--bogus"),
        (&["peer", "--poll-backend", "sweep"][..], "--poll-backend"),
    ] {
        let out = Command::new(bin).args(args).output().expect("run replidtn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: stderr: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: unknown flag {flag};")),
            "{args:?}: stderr: {stderr}"
        );
        assert!(
            stderr.contains("replidtn help"),
            "{args:?}: stderr: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
    }
}

/// `fig` regenerates one of the paper's figures at paper scale. Figure 10
/// (five policies under a two-message relay cap) is the cheapest: about
/// 1 s in a debug build on two cores.
#[test]
fn fig_prints_its_table() {
    let bin = env!("CARGO_BIN_EXE_replidtn");
    let fig = Command::new(bin)
        .args(["fig", "--id", "10"])
        .output()
        .expect("run fig");
    let stdout = String::from_utf8_lossy(&fig.stdout);
    assert!(fig.status.success(), "{fig:?}");
    assert!(
        stdout.starts_with("== Figure 10: delay CDF, 2 relay messages per node =="),
        "{stdout}"
    );
    assert!(stdout.contains("== Run summary =="), "{stdout}");
    for policy in ["cimbiosys", "prophet", "spray", "epidemic", "maxprop"] {
        // One row per policy in the CDF table: its label and 12 hourly
        // percentages.
        let row = stdout
            .lines()
            .find(|line| line.split_whitespace().next() == Some(policy))
            .unwrap_or_else(|| panic!("no {policy} row: {stdout}"));
        let cells: Vec<f64> = row
            .split_whitespace()
            .skip(1)
            .map(|cell| cell.parse().expect("a percentage"))
            .collect();
        assert_eq!(cells.len(), 12, "{row}");
        assert!(cells.windows(2).all(|w| w[0] <= w[1]), "a CDF: {row}");
    }

    let unknown = Command::new(bin)
        .args(["fig", "--id", "11"])
        .output()
        .expect("run fig");
    assert_eq!(unknown.status.code(), Some(1), "{unknown:?}");
}
