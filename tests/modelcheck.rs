//! Crash-state model checking sweep (ISSUE 6 tentpole).
//!
//! Runs the seeded explorer: randomized op streams through a real volume
//! killed at trace-event edges, recovered, and differentially checked
//! against the oracle disk model. Quick mode (the default, CI-sized)
//! covers hundreds of distinct (schedule × crash-edge × cache-loss ×
//! fault-profile) states; `LSVD_MC_DEEP=1` scales to thousands,
//! multi-threaded.
//!
//! Environment knobs (shared with `tests/fault_sweep.rs`):
//!
//! - `LSVD_MC_DEEP=1` — deep sweep;
//! - `LSVD_SWEEP_SEED=<n>` — pin the sweep to one base seed;
//! - `LSVD_SWEEP_RUNS=<n>` — sweep base seeds `1..=n`;
//! - `LSVD_MC_REPRO="seed=… profile=… faults=… mode=… cache=… crash=…"`
//!   — skip the sweep and replay exactly one case (paste the coordinate
//!   part of a `MC-REPRO` failure line, or the whole line).

use modelcheck::{explore, run_case, ExploreConfig, McCase};

/// Replays `LSVD_MC_REPRO` if set; returns whether it handled the run.
fn maybe_replay_repro() -> bool {
    let Ok(line) = std::env::var("LSVD_MC_REPRO") else {
        return false;
    };
    let coords = line.strip_prefix("MC-REPRO ").unwrap_or(&line);
    let case = McCase::parse(coords).expect("LSVD_MC_REPRO must hold case coordinates");
    eprintln!("replaying: {case}");
    match run_case(&case) {
        Ok(report) => eprintln!(
            "PASS: {} events, crashed={}, cut={}",
            report.total_events, report.crashed, report.cut
        ),
        Err(f) => panic!("{f}"),
    }
    true
}

#[test]
fn crash_state_sweep() {
    if maybe_replay_repro() {
        return;
    }
    let cfg = ExploreConfig::from_env();
    let report = explore(&cfg);
    eprintln!(
        "model check: {} states explored, {} on a checkpoint taken with PUTs behind it",
        report.states, report.checkpoints_ahead_of_puts
    );
    assert!(
        report.states >= 500,
        "sweep must cover >= 500 distinct states, got {}",
        report.states
    );
    if !report.failures.is_empty() {
        for f in &report.failures {
            eprintln!("{f}");
        }
        panic!(
            "{} of {} crash states violated the recovery contract (reproducer lines above; \
             replay one with LSVD_MC_REPRO)",
            report.failures.len(),
            report.states
        );
    }
}

/// A serial-mode case is a pure function of its coordinates: the same
/// `McCase` must crash at the same edge and recover the same prefix, so
/// every reproducer line replays deterministically.
#[test]
fn serial_reproducer_lines_replay_deterministically() {
    let base = McCase::parse("seed=21 profile=gc-interleaved faults=outage mode=serial").unwrap();
    let profile = run_case(&base).unwrap_or_else(|f| panic!("{f}"));
    assert!(profile.total_events > 0);
    // Crash at a mid-stream edge, both with and without the cache.
    let edge = profile.events[profile.events.len() / 3].0;
    for lose_cache in [false, true] {
        let case = McCase {
            crash_event: Some(edge),
            lose_cache,
            ..base.clone()
        };
        let a = run_case(&case).unwrap_or_else(|f| panic!("{f}"));
        let b = run_case(&case).unwrap_or_else(|f| panic!("{f}"));
        assert!(a.crashed && b.crashed, "the controller must fire");
        assert_eq!(a.crash_edge, b.crash_edge, "same edge both runs");
        assert_eq!(a.cut, b.cut, "same recovered prefix both runs");
        assert_eq!(a.total_events, b.total_events);
    }
}

/// Regression: the cleaner used to advance its victim cursor before the
/// piece was read, so a transient GET failure during this schedule's
/// outage skipped a live piece, and the victim was retired and deleted
/// while still mapped (`mapped object missing` after recovery). Crash at
/// every edge of the schedule, with the cache kept and with it lost.
#[test]
fn gc_read_failure_skips_no_live_piece_at_any_crash_edge() {
    let base = McCase::parse("seed=4 profile=trim-race faults=outage mode=serial").unwrap();
    let profile = run_case(&base).unwrap_or_else(|f| panic!("{f}"));
    let mut failures = Vec::new();
    for &(edge, _) in &profile.events {
        for lose_cache in [false, true] {
            let case = McCase {
                crash_event: Some(edge),
                lose_cache,
                ..base.clone()
            };
            if let Err(f) = run_case(&case) {
                failures.push(f.to_string());
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} crash states failed:\n{}",
        failures.len(),
        2 * profile.events.len(),
        failures.join("\n")
    );
}
