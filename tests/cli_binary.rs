//! End-to-end tests of the `isgc` binary itself (spawned as a subprocess).

use std::process::Command;

fn isgc(args: &[&str]) -> (bool, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_isgc"))
        .args(args)
        .output()
        .expect("failed to spawn isgc binary");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn no_args_prints_usage_and_succeeds() {
    let (ok, stdout, _) = isgc(&[]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn decode_fig1d_through_the_binary() {
    let (ok, stdout, _) = isgc(&["decode", "cr", "4", "2", "0,2"]);
    assert!(ok);
    assert!(stdout.contains("recovered:         4/4"));
}

#[test]
fn placement_hr_through_the_binary() {
    let (ok, stdout, _) = isgc(&["placement", "hr", "8", "2", "2", "2"]);
    assert!(ok);
    assert!(stdout.contains("HR placement, n = 8, c = 4"));
}

#[test]
fn recommend_through_the_binary() {
    let (ok, stdout, _) = isgc(&["recommend", "12", "3"]);
    assert!(ok);
    assert!(stdout.contains("FR"));
}

#[test]
fn bad_command_fails_with_message() {
    let (ok, _, stderr) = isgc(&["bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn bad_parameters_fail_cleanly() {
    let (ok, _, stderr) = isgc(&["placement", "fr", "4", "3"]);
    assert!(!ok);
    assert!(stderr.contains("FR requires c | n"));
}

/// The `recovered (mean)` and `final loss` lines of a launch's summary.
fn recovery_and_loss(args: &[&str]) -> String {
    let (ok, stdout, stderr) = isgc(args);
    assert!(ok, "{stdout}{stderr}");
    stdout
        .lines()
        .filter(|l| l.starts_with("recovered (mean):") || l.starts_with("final loss:"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The fingerprint each job of a `launch --jobs` run prints, in job order.
fn job_fingerprints(args: &[&str]) -> Vec<String> {
    let (ok, stdout, stderr) = isgc(args);
    assert!(ok, "{stdout}{stderr}");
    stdout
        .lines()
        .filter_map(|l| l.split_once("fingerprint ").map(|(_, fp)| fp.to_string()))
        .collect()
}

#[test]
fn launch_straggles_by_assigned_slot_not_by_registration_order() {
    // Slots 0 and 1 form one FR(8, 2) group: when both straggle, every step
    // loses that group's partitions, whichever processes registered first.
    // Held replies are dropped at Shutdown, so the long delay costs no wall
    // time.
    let cmd = "launch fr 8 2 --w 6 --slow 2 --delay-ms 1000 --steps 10";
    let cmd: Vec<&str> = cmd.split(' ').collect();
    let one_swarm = recovery_and_loss(&[&cmd[..], &["--swarm", "1"]].concat());
    assert!(
        one_swarm.contains("recovered (mean):   75.0%"),
        "{one_swarm}"
    );
    for _ in 0..5 {
        assert_eq!(recovery_and_loss(&cmd), one_swarm);
    }

    let jobs = [&cmd[..], &["--jobs", "2"]].concat();
    let first = job_fingerprints(&jobs);
    assert_eq!(first.len(), 2, "{first:?}");
    for _ in 0..4 {
        assert_eq!(job_fingerprints(&jobs), first);
    }
}
