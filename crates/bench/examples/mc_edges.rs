//! Serial crash-edge dump: one line per deep serial model-check schedule
//! (4 seeds × 5 profiles × 3 fault schedules), giving its coordinates and
//! then every crash edge the schedule crosses, as `ordinal:kind`.
//!
//! Serial schedules are deterministic, so the output is byte-stable.
//! `results/mc_edges.txt` pins it, and CI diffs a fresh dump against that
//! file, so a change that moves a crash edge updates the file with it:
//!
//! ```text
//! cargo run --release -p bench --example mc_edges | diff results/mc_edges.txt -
//! ```

use std::fmt::Write as _;

use modelcheck::{run_case, ExploreConfig, Faults, McCase, Profile};

fn main() {
    for seed in ExploreConfig::deep().seeds {
        for profile in Profile::ALL {
            for faults in Faults::ALL {
                let case = McCase {
                    seed,
                    profile,
                    faults,
                    pipelined: false,
                    lose_cache: false,
                    crash_event: None,
                };
                let mut line = case.to_string();
                match run_case(&case) {
                    Ok(report) => {
                        for (ordinal, kind) in report.events {
                            let _ = write!(line, " {ordinal}:{kind}");
                        }
                    }
                    Err(f) => {
                        let _ = write!(line, " FAILED {}", f.reason);
                    }
                }
                println!("{line}");
            }
        }
    }
}
