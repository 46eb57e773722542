//! `sim_token_loss`: the discrete-event simulator with the paper's
//! parameters, a saturating closed loop and one PRIVILEGE dropped every
//! 100 virtual seconds, run to a fixed CS count as often as the window
//! allows.

use std::hash::Hasher;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tokq_protocol::arbiter::{ArbiterConfig, ArbiterMsg, ArbiterNode, ArbiterTimer};
use tokq_protocol::{Action, Input, NodeId, Protocol, ProtocolFactory};
use tokq_simnet::{ClosedLoop, FaultPlan, SimConfig, SimTime, Simulation};

use crate::report::{median, Hist, Report};
use crate::wire::{self, KINDS};
use crate::{hostspeed, procfs};

const NODES: usize = 10;
/// Measured (post-warm-up) critical sections per simulation.
const CS_PER_SIM: u64 = 100_000;
const DROP_EVERY_S: f64 = 100.0;
/// Virtual seconds per measured CS that the calibration simulation's drop
/// schedule covers: about four times what the protocol takes today. The
/// measured simulations then get a schedule that just outlasts the
/// calibration run, so it follows the protocol's virtual speed while the
/// simulator scans no more drops than needed on every PRIVILEGE it sends.
const CALIBRATION_VS_PER_CS: f64 = 1.0;
/// Set-ups timed before every simulation, after as many untimed ones that
/// warm caches the previous simulation evicted; `setup_s` is the median of
/// all, scaled to the nominal host speed, so like the other metrics it
/// samples the whole window. The host's speed is read after them, just
/// before the simulation.
const SETUPS_PER_SIM: usize = 20;
/// Simulations at least, whatever the window: one untraced and one traced.
const MIN_SIMS: usize = 2;
/// Message kinds of the §6 recovery protocol.
const RECOVERY_KINDS: [&str; 7] = [
    "WARNING",
    "ENQUIRY",
    "ENQUIRY-REPLY",
    "RESUME",
    "INVALIDATE",
    "PROBE",
    "PROBE-ACK",
];

/// What the timing wrapper records, shared by the nodes of a simulation.
/// One probe serves every simulation of a run, so its buffers are
/// allocated once and memory use does not depend on how many fit.
#[derive(Debug)]
struct Probe {
    time_steps: bool,
    /// Wall time from each RequestCs input to its EnterCs action: 100 ns
    /// buckets up to 2 ms. Each node records into one of these on its own
    /// and hands it back when the simulation drops it, so a CS takes no
    /// lock; `acquire()` merges them.
    acquire: Vec<Hist>,
    /// Duration of each `step` of the current simulation: 1 ns buckets up
    /// to 16 µs.
    steps: Hist,
    step_total_ns: u64,
}

impl Probe {
    fn new() -> Arc<Mutex<Probe>> {
        Arc::new(Mutex::new(Probe {
            time_steps: false,
            acquire: (0..NODES).map(|_| Hist::new(100, 20_000)).collect(),
            steps: Hist::new(1, 1 << 14),
            step_total_ns: 0,
        }))
    }

    /// Clears the records for the next simulation.
    fn reset(&mut self, time_steps: bool) {
        self.time_steps = time_steps;
        self.acquire.iter_mut().for_each(Hist::clear);
        self.steps.clear();
        self.step_total_ns = 0;
    }

    /// Every node's acquire times, merged.
    fn acquire(&self) -> Hist {
        let mut all = self.acquire[0].clone();
        self.acquire[1..].iter().for_each(|h| all.merge(h));
        all
    }
}

/// A [`ProtocolFactory`] wrapping [`ArbiterConfig`] so every node's
/// `step` is timed from outside the protocol.
struct TimedFactory {
    config: ArbiterConfig,
    probe: Arc<Mutex<Probe>>,
}

impl ProtocolFactory for TimedFactory {
    type Node = Timed;

    fn build(&self, id: NodeId, n: usize) -> Timed {
        let mut probe = self.probe.lock().expect("probe lock");
        Timed {
            inner: self.config.build(id, n),
            probe: Arc::clone(&self.probe),
            time_steps: probe.time_steps,
            requested: None,
            acquire: std::mem::take(&mut probe.acquire[id.index()]),
        }
    }
}

struct Timed {
    inner: ArbiterNode,
    probe: Arc<Mutex<Probe>>,
    time_steps: bool,
    requested: Option<Instant>,
    /// This node's share of [`Probe::acquire`], returned on drop.
    acquire: Hist,
}

impl Drop for Timed {
    fn drop(&mut self) {
        let mut probe = self.probe.lock().expect("probe lock");
        probe.acquire[self.inner.id().index()] = std::mem::take(&mut self.acquire);
    }
}

impl Protocol for Timed {
    type Msg = ArbiterMsg;
    type Timer = ArbiterTimer;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn step(
        &mut self,
        input: Input<ArbiterMsg, ArbiterTimer>,
    ) -> Vec<Action<ArbiterMsg, ArbiterTimer>> {
        match input {
            Input::RequestCs => self.requested = Some(Instant::now()),
            Input::Crash => self.requested = None,
            _ => {}
        }
        let actions = if self.time_steps {
            let t = Instant::now();
            let actions = self.inner.step(input);
            let ns = t.elapsed().as_nanos() as u64;
            let mut probe = self.probe.lock().expect("probe lock");
            probe.step_total_ns += ns;
            probe.steps.record(ns);
            actions
        } else {
            self.inner.step(input)
        };
        if let Some(t) = self.requested {
            if actions.iter().any(|a| matches!(a, Action::EnterCs)) {
                self.acquire.record(t.elapsed().as_nanos() as u64);
                self.requested = None;
            }
        }
        actions
    }

    fn holds_token(&self) -> bool {
        self.inner.holds_token()
    }

    fn algorithm(&self) -> &'static str {
        self.inner.algorithm()
    }

    fn fingerprint(&self, h: &mut dyn Hasher) {
        self.inner.fingerprint(h);
    }
}

fn fault_plan(drops: u32) -> FaultPlan {
    (1..=drops).fold(FaultPlan::none(), |plan, k| {
        plan.drop_token(SimTime::from_secs_f64(f64::from(k) * DROP_EVERY_S), 1)
    })
}

/// A built simulation with `drops` scheduled token drops, and the seconds
/// its set-up took.
fn setup(seed: u64, drops: u32, probe: &Arc<Mutex<Probe>>) -> (Simulation<Timed>, f64) {
    let t = Instant::now();
    let factory = TimedFactory {
        config: ArbiterConfig::fault_tolerant(),
        probe: Arc::clone(probe),
    };
    let sim = Simulation::build(
        SimConfig::paper_defaults(NODES).with_seed(seed),
        factory,
        ClosedLoop::saturating(),
    )
    .with_faults(fault_plan(drops));
    (sim, t.elapsed().as_secs_f64())
}

/// The outcome of one simulation. Only summaries are kept, so memory use
/// does not grow with the number of simulations a window holds.
struct Sim {
    traced: bool,
    /// Token drops scheduled.
    scheduled: u32,
    run_s: f64,
    cpu_ms: f64,
    /// The host's [`hostspeed::slowdown`] over the simulation: the mean of
    /// the readings just before and just after it.
    slowdown: f64,
    report: tokq_simnet::Report,
    acquire_p50_ms: f64,
    acquire_p99_ms: f64,
    acquire_samples: u64,
    step_p50_ns: f64,
    step_total_ns: u64,
}

impl Sim {
    fn cs(&self) -> u64 {
        self.report.cs_total
    }

    /// Token drops due by the end of the simulation: one per 100 virtual
    /// seconds elapsed. Each fires on the next PRIVILEGE sent, which the
    /// recovery check below bounds.
    fn drops(&self) -> u64 {
        ((self.report.sim_end_secs / DROP_EVERY_S).floor() as u64).min(u64::from(self.scheduled))
    }

    /// What must repeat exactly between simulations of one seed.
    fn fingerprint(&self) -> String {
        let r = &self.report;
        format!(
            "{} {} {} {:?} {:?}",
            r.cs_total, r.messages_total, r.sim_end_secs, r.messages_by_kind, r.notes
        )
    }
}

fn simulate(seed: u64, drops: u32, traced: bool, probe: &Arc<Mutex<Probe>>) -> Result<Sim, String> {
    probe.lock().expect("probe lock").reset(traced);
    let (sim, _) = setup(seed, drops, probe);
    let cpu = procfs::process_cpu_ms();
    let t = Instant::now();
    // The simulator checks mutual exclusion online and panics on a breach.
    let report = sim.run_until_cs(CS_PER_SIM);
    let run_s = t.elapsed().as_secs_f64();
    let cpu_ms = procfs::process_cpu_ms() - cpu;
    let probe = probe.lock().expect("probe lock");
    if report.cs_measured < CS_PER_SIM {
        return Err(format!(
            "simulation stopped at {} of {CS_PER_SIM} critical sections",
            report.cs_measured
        ));
    }
    let last_drop_vs = f64::from(drops) * DROP_EVERY_S;
    if report.sim_end_secs >= last_drop_vs {
        return Err(format!(
            "simulation ran to {} virtual s, past its last scheduled token drop at {last_drop_vs}",
            report.sim_end_secs
        ));
    }
    let acquire = probe.acquire();
    let sim = Sim {
        traced,
        scheduled: drops,
        run_s,
        cpu_ms,
        slowdown: 1.0,
        report,
        acquire_p50_ms: acquire.quantile_ns(0.50) / 1e6,
        acquire_p99_ms: acquire.quantile_ns(0.99) / 1e6,
        acquire_samples: acquire.total(),
        step_p50_ns: if traced {
            probe.steps.quantile_ns(0.50)
        } else {
            0.0
        },
        step_total_ns: probe.step_total_ns,
    };
    let regenerated = sim.report.note_count("token_regenerated");
    // The newest drop may still be inside its recovery timeouts.
    if regenerated + 1 < sim.drops() || regenerated > sim.drops() {
        return Err(format!(
            "{regenerated} tokens regenerated for {} dropped",
            sim.drops()
        ));
    }
    Ok(sim)
}

/// Runs simulations until `seconds` have passed and fills `report`. With
/// `trace`, simulations alternate between untraced and step-timed. An
/// untimed calibration simulation first fixes how many drops the others
/// schedule.
pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) -> Result<(), String> {
    let probe = Probe::new();
    let long = (CS_PER_SIM as f64 * CALIBRATION_VS_PER_CS / DROP_EVERY_S) as u32;
    let calibration = simulate(seed, long, false, &probe)?;
    // Drops after the end never fire, so the shorter schedule changes
    // nothing the simulation does; the fingerprint check below holds it to
    // that.
    let drops = calibration.drops() as u32 + 1;
    // Set-up seconds, each with the index of the speed reading after it.
    let mut setups: Vec<(f64, usize)> = Vec::new();
    let mut slowdowns = Vec::new();
    let start = Instant::now();
    let mut sims: Vec<Sim> = Vec::new();
    while sims.len() < MIN_SIMS || start.elapsed().as_secs_f64() < seconds {
        for i in 0..2 * SETUPS_PER_SIM {
            let (sim, secs) = setup(seed, drops, &probe);
            drop(sim);
            if i >= SETUPS_PER_SIM {
                setups.push((secs, slowdowns.len()));
            }
        }
        slowdowns.push(hostspeed::slowdown());
        let traced = trace && sims.len() % 2 == 1;
        sims.push(simulate(seed, drops, traced, &probe)?);
    }
    slowdowns.push(hostspeed::slowdown());
    for (i, sim) in sims.iter_mut().enumerate() {
        sim.slowdown = (slowdowns[i] + slowdowns[i + 1]) / 2.0;
    }
    let first = calibration.fingerprint();
    if let Some(other) = sims.iter().find(|s| s.fingerprint() != first) {
        return Err(format!(
            "simulations of one seed differ: [{first}] vs [{}]",
            other.fingerprint()
        ));
    }

    let untraced: Vec<&Sim> = sims.iter().filter(|s| !s.traced).collect();
    // Whole-window rates: all CS over all simulation wall time, as
    // measured or scaled to the nominal host speed.
    let rate = |sims: &[&Sim]| -> f64 {
        let cs: u64 = sims.iter().map(|s| s.cs()).sum();
        cs as f64 / sims.iter().map(|s| s.run_s).sum::<f64>()
    };
    let scaled_rate = |sims: &[&Sim]| -> f64 {
        let cs: u64 = sims.iter().map(|s| s.cs()).sum();
        cs as f64 / sims.iter().map(|s| s.run_s / s.slowdown).sum::<f64>()
    };
    let base = &sims[0];
    let r = &base.report;
    report.attempted = sims.iter().map(Sim::cs).sum();
    report.failed = 0;
    report.info("simulations", sims.len());
    report.info("sim.cs_total", r.cs_total);
    report.info("sim.end_vs", r.sim_end_secs);
    report.info("sim.drops", base.drops());
    report.info("sim.drops_scheduled", drops);
    report.info("sim.regenerated", r.note_count("token_regenerated"));
    report.info("setup_samples", setups.len());

    if trace {
        let traced: Vec<&Sim> = sims.iter().filter(|s| s.traced).collect();
        let untraced_rate = scaled_rate(&untraced);
        let traced_rate = scaled_rate(&traced);
        report.metric("trace.cs_per_s", "1/s", traced_rate);
        report.metric("trace.untraced_cs_per_s", "1/s", untraced_rate);
        report.metric(
            "trace.overhead_pct",
            "%",
            (1.0 - traced_rate / untraced_rate) * 100.0,
        );

        // Layers this workload does not run: no threads, sockets or cluster.
        report.metric("node.cpu_ms_per_kcs", "ms/kcs", 0.0);
        report.metric("node.rerequests", "count", 0.0);
        report.metric("tcp.read_cpu_ms_per_kcs", "ms/kcs", 0.0);
        report.metric("tcp.write_cpu_ms_per_kcs", "ms/kcs", 0.0);
        report.metric("tcp.threads", "count", 0.0);
        report.metric("tcp.connects", "count", 0.0);
        report.metric("tcp.frames_per_flush_p50", "count", 0.0);
        report.metric("tcp.send_enqueue_ns_p50", "ns", 0.0);
        report.metric("tcp.frames_abandoned", "count", 0.0);
        report.metric("cluster.release_us_p50", "us", 0.0);
        report.metric("cluster.lock_errors", "count", 0.0);

        for kind in KINDS {
            report.metric(
                format!("protocol.msgs_per_cs.{kind}"),
                "msgs",
                r.kind_count(kind) as f64 / r.cs_total as f64,
            );
        }
        wire::measure(report, NODES, NODES - 1, &r.messages_by_kind, r.cs_total)?;

        let step_p50: Vec<f64> = traced.iter().map(|s| s.step_p50_ns).collect();
        let step_s: f64 = traced.iter().map(|s| s.step_total_ns as f64 / 1e9).sum();
        let share = step_s / traced.iter().map(|s| s.run_s).sum::<f64>();
        report.metric("protocol.step_ns_p50", "ns", median(&step_p50));
        report.metric("protocol.step_share", "ratio", share);
        report.metric("simnet.self_share", "ratio", 1.0 - share);

        let drops = base.drops() as f64;
        let recovery_msgs: u64 = RECOVERY_KINDS.iter().map(|k| r.kind_count(k)).sum();
        report.metric(
            "recovery.regenerated",
            "count",
            r.note_count("token_regenerated") as f64,
        );
        report.metric(
            "recovery.warnings_per_drop",
            "msgs",
            r.kind_count("WARNING") as f64 / drops,
        );
        report.metric(
            "recovery.msgs_per_drop",
            "msgs",
            recovery_msgs as f64 / drops,
        );
        report.metric("recovery.max_delay_vs", "vs", r.grant_latency.max());
    } else {
        // Every timing scaled to the nominal host speed: rates and CPU
        // over the whole window; percentiles per simulation, and their
        // median over the simulations.
        let cs: u64 = untraced.iter().map(|s| s.cs()).sum();
        let cpu_ms: f64 = untraced.iter().map(|s| s.cpu_ms / s.slowdown).sum();
        let p50: Vec<f64> = untraced
            .iter()
            .map(|s| s.acquire_p50_ms / s.slowdown)
            .collect();
        let p99: Vec<f64> = untraced
            .iter()
            .map(|s| s.acquire_p99_ms / s.slowdown)
            .collect();
        let setups: Vec<f64> = setups
            .iter()
            .map(|&(secs, i)| secs / slowdowns[i])
            .collect();
        report.metric("setup_s", "s", median(&setups));
        report.metric("cs_per_s", "1/s", scaled_rate(&untraced));
        report.metric("acquire_p50_ms", "ms", median(&p50));
        report.metric("acquire_p99_ms", "ms", median(&p99));
        report.metric("msgs_per_cs", "msgs", r.messages_per_cs());
        report.metric("cpu_ms_per_kcs", "ms/kcs", cpu_ms / (cs as f64 / 1000.0));
        report.metric("peak_rss_mb", "MiB", procfs::peak_rss_mb());
        let samples: u64 = untraced.iter().map(|s| s.acquire_samples).sum();
        report.info("acquire_ms.samples", samples);
        report.info("acquire_ms.samples_per_simulation", base.acquire_samples);
        report.info("cs_per_s.unscaled", rate(&untraced));
        let rates: Vec<f64> = untraced.iter().map(|s| s.cs() as f64 / s.run_s).collect();
        report.info("simulation_cs_per_s", compact(&rates));
        let slow: Vec<f64> = untraced.iter().map(|s| s.slowdown).collect();
        report.info("simulation_slowdown", compact(&slow));
    }
    Ok(())
}

/// `Debug` output without spaces, for one `I` line.
fn compact(v: &impl std::fmt::Debug) -> String {
    format!("{v:?}").replace(' ', "")
}
