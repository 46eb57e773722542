//! Trace records are built only when something consumes them: the
//! in-memory `Trace` of `SimConfig::trace`, or an obs handle whose
//! filter or flight recorder takes the record's target and level. These
//! tests hold both consumers to receiving every record.

use std::collections::BTreeMap;

use tokq_obs::{Event, Level, Obs, Source};
use tokq_protocol::arbiter::{ArbiterConfig, ArbiterNode};
use tokq_simnet::{FaultPlan, Poisson, SimConfig, SimTime, Simulation};

fn config(trace: bool) -> SimConfig {
    let mut cfg = SimConfig::paper_defaults(5).with_seed(11);
    cfg.warmup_cs = 0;
    cfg.trace = trace;
    cfg
}

fn simulation(trace: bool) -> Simulation<ArbiterNode> {
    Simulation::build(
        config(trace),
        ArbiterConfig::fault_tolerant(),
        Poisson::new(2.0),
    )
    .with_faults(FaultPlan::none().drop_token(SimTime::from_secs_f64(5.0), 1))
}

/// FNV-1a over the rendered trace: a compact pin of every record.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn names(events: &[Event]) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for e in events {
        *out.entry(e.name.clone()).or_insert(0) += 1;
    }
    out
}

/// The trace of a short run with a token drop: 2 247 events, every one
/// pinned by the hash of the rendered trace.
#[test]
fn trace_matches_recorded_run() {
    let (r, trace) = simulation(true).run_until_cs_with_trace(200);
    assert_eq!(r.cs_total, 200);
    assert_eq!(trace.events().len(), 2_247);
    assert!(!trace.truncated());
    assert_eq!(fnv1a(&trace.render()), 0x1a7a_dfb1_1a07_4da3);
}

/// The same run's records as obs event names, from the in-memory trace,
/// less the initial arbiter's `became_arbiter`: that note comes from
/// `Simulation::build`, before an obs handle can be attached.
fn traced_names() -> BTreeMap<String, usize> {
    let (_, trace) = simulation(true).run_until_cs_with_trace(200);
    let events: Vec<_> = trace.events().iter().map(|e| e.to_obs_event()).collect();
    let mut names = names(&events);
    *names.get_mut("became_arbiter").expect("an initial arbiter") -= 1;
    names
}

#[test]
fn flight_recorder_gets_every_record_with_trace_off() {
    let obs = Obs::disabled(Source::Sim);
    let recorder = obs.attach_flight_recorder(1 << 16, Level::Trace);
    let r = simulation(false).with_obs(obs).run_until_cs(200);
    assert_eq!(r.cs_total, 200);
    let got = names(&recorder.snapshot());
    assert_eq!(got.get("msg_sent"), Some(&598));
    assert_eq!(got.get("msg_recv"), Some(&595));
    assert_eq!(got.get("token_regenerated"), Some(&1));
    assert_eq!(got, traced_names());
}

#[test]
fn flight_recorder_attached_after_build_gets_records() {
    let sim = simulation(false);
    let recorder = sim.obs().attach_flight_recorder(1 << 16, Level::Trace);
    let _ = sim.run_until_cs(200);
    assert_eq!(names(&recorder.snapshot()), traced_names());
}

#[test]
fn recorder_level_bounds_what_is_built() {
    // A Debug recorder takes notes and CS events but no message records.
    let obs = Obs::disabled(Source::Sim);
    let recorder = obs.attach_flight_recorder(1 << 16, Level::Debug);
    let _ = simulation(false).with_obs(obs).run_until_cs(200);
    let got = names(&recorder.snapshot());
    assert!(!got.contains_key("msg_sent") && !got.contains_key("msg_recv"));
    assert_eq!(got.get("cs_granted"), Some(&200));
    assert_eq!(got.get("token_warning"), Some(&5));
}
