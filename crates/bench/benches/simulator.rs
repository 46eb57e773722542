//! Macrobenchmark: discrete-event simulator throughput (critical sections
//! simulated per wall-clock second) across algorithms and loads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tokq_bench::{Algo, RunSettings};
use tokq_protocol::arbiter::ArbiterConfig;
use tokq_simnet::{FaultPlan, SimTime, Simulation};
use tokq_workload::Workload;

fn bench_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10);
    let s = RunSettings {
        cs_per_point: 2_000,
        seed: 1,
        n: 10,
    };
    for (name, algo) in [
        ("arbiter", Algo::Arbiter(ArbiterConfig::basic())),
        ("ricart_agrawala", Algo::RicartAgrawala),
        ("suzuki_kasami", Algo::SuzukiKasami),
        ("raymond", Algo::Raymond),
    ] {
        g.bench_with_input(
            BenchmarkId::new("saturated_2k_cs", name),
            &algo,
            |b, algo| {
                b.iter(|| {
                    let mut sim = s.sim(0);
                    sim.warmup_cs = 100;
                    std::hint::black_box(algo.run(sim, Workload::saturating(), s.cs_per_point))
                });
            },
        );
    }
    g.bench_function("arbiter_poisson_2k_cs", |b| {
        b.iter(|| {
            let mut sim = s.sim(1);
            sim.warmup_cs = 100;
            std::hint::black_box(Algo::Arbiter(ArbiterConfig::basic()).run(
                sim,
                Workload::poisson(1.0),
                s.cs_per_point,
            ))
        });
    });
    // The fault path: recovery-capable arbiter, saturating load, a
    // 200-directive plan dropping one PRIVILEGE every 20 virtual seconds
    // (about 20 fire in 2k CS). The simulator consults the plan on every
    // token send, so this case shows the plan's per-message cost.
    g.bench_function("arbiter_token_loss", |b| {
        b.iter(|| {
            let mut sim = s.sim(2);
            sim.warmup_cs = 100;
            let plan = (1..=200u32).fold(FaultPlan::none(), |plan, k| {
                plan.drop_token(SimTime::from_secs_f64(f64::from(k) * 20.0), 1)
            });
            let report =
                Simulation::build(sim, ArbiterConfig::fault_tolerant(), Workload::saturating())
                    .with_faults(plan)
                    .run_until_cs(s.cs_per_point);
            assert!(report.note_count("token_regenerated") > 0);
            std::hint::black_box(report)
        });
    });
    g.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
