//! Pins the simulator's output for the benchmark's token-loss scenario
//! to recorded counts, so a change to the event loop that alters any
//! decision (event order, RNG draws, fault timing) fails here rather than
//! only in the benchmark's fingerprint check.

use std::collections::BTreeMap;

use tokq_protocol::arbiter::ArbiterConfig;
use tokq_simnet::{ClosedLoop, FaultPlan, Report, SimConfig, SimTime, Simulation};

/// The paper's parameters on 10 nodes, saturating closed loop, one
/// PRIVILEGE dropped every 100 virtual seconds.
fn token_loss_run(measured_cs: u64) -> Report {
    let plan = (1..=218u32).fold(FaultPlan::none(), |plan, k| {
        plan.drop_token(SimTime::from_secs_f64(f64::from(k) * 100.0), 1)
    });
    Simulation::build(
        SimConfig::paper_defaults(10),
        ArbiterConfig::fault_tolerant(),
        ClosedLoop::saturating(),
    )
    .with_faults(plan)
    .run_until_cs(measured_cs)
}

fn counts(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
    pairs.iter().map(|&(k, v)| (k.to_owned(), v)).collect()
}

/// The benchmark's length: 100 000 measured critical sections.
#[test]
fn token_loss_run_matches_recorded_counts() {
    let r = token_loss_run(100_000);
    assert_eq!(r.cs_total, 100_500);
    assert_eq!(r.messages_total, 328_493);
    assert_eq!(r.sim_end_secs, 21_752.2);
    assert_eq!(
        r.messages_by_kind,
        counts(&[
            ("ENQUIRY", 7_594),
            ("ENQUIRY-REPLY", 8_545),
            ("INVALIDATE", 1_953),
            ("NEW-ARBITER", 92_457),
            ("PRIVILEGE", 101_461),
            ("PROBE", 11_764),
            ("PROBE-ACK", 11_764),
            ("REQUEST", 90_718),
            ("RESUME", 1_292),
            ("WARNING", 945),
        ])
    );
    assert_eq!(
        r.notes,
        counts(&[
            ("became_arbiter", 1_086),
            ("collection_opened", 10_225),
            ("forwarding_closed", 1_085),
            ("forwarding_opened", 1_085),
            ("invalidation_started", 558),
            ("monitor_visit", 2_351),
            ("qlist_sealed", 10_225),
            ("request_retransmitted", 217),
            ("token_found", 341),
            ("token_regenerated", 217),
            ("token_warning", 945),
        ])
    );
}
