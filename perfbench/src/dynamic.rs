//! The three workloads on the dynamic engine: untraced measurement
//! through `DynamicEngine` and `LambdaSweep`, and the traced replay that
//! makes the engine's constructor and per-slot calls from this file.

use crate::checks::{self, Packets};
use crate::layers::{self, span, Layers, Phases, SCALED};
use crate::report::{alternate, fastest, median, Report};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayfade_core::{mix_seed, mix_seed2, RayleighModel};
use rayfade_dynamic::{
    AnalyticResolver, ArrivalProcess, ArrivalSample, DynamicConfig, DynamicEngine, LambdaSweep,
    MonteCarloResolver, ObservedSlot, OnlinePolicy, PolicyKind, QueueAloha, QueueBank,
    QueueMaxWeight, RayleighMaxWeight, RegretPolicy, SlotModelKind, SlotResolver, StabilityReport,
    SuccessModelKind,
};
use rayfade_geometry::PaperTopology;
use rayfade_sched::SelectionStats;
use rayfade_sinr::{GainMatrix, NonFadingModel, PowerAssignment, SinrParams, SuccessModel};
use rayfade_telemetry::trace::Tracer;
use std::time::Instant;

/// `slot_throughput`'s seed, used by `aloha_10k` and `regret_1k`.
pub const THROUGHPUT_SEED: u64 = 0x5107;
/// `stability_exp`'s seed: the one `results/stability.csv` was made with.
pub const STABILITY_SEED: u64 = 0xd1_4a;
/// Replications the traced `regret_1k` run replays (and runs untraced).
pub const REGRET_TRACE_REPS: u64 = 10;

/// `slot_throughput`'s deployment at `links` links: one link per 10⁶
/// area units, lengths 20–40, α = 4, β = 2.5, ν = 4e-7, Bernoulli
/// λ = 0.05, Rayleigh fading resolved analytically.
fn at_density(links: usize, policy: PolicyKind, seed: u64) -> DynamicConfig {
    DynamicConfig {
        links,
        networks: 1,
        slots: 2_000,
        arrival: ArrivalProcess::Bernoulli { rate: 0.05 },
        policy,
        model: SuccessModelKind::Rayleigh,
        slot_model: SlotModelKind::Analytic,
        topology: PaperTopology {
            links,
            side: (links as f64 * 1e6).sqrt(),
            min_length: 20.0,
            max_length: 40.0,
        },
        params: SinrParams::new(4.0, 2.5, 4e-7),
        sample_every: 500,
        seed,
    }
}

/// Queue-gated ALOHA at 10⁴ links, above the sparse crossover.
pub fn aloha_10k(seed: u64) -> DynamicConfig {
    at_density(10_000, PolicyKind::Aloha, seed)
}

/// Per-link regret learning at 10³ links, below the sparse crossover.
pub fn regret_1k(seed: u64) -> DynamicConfig {
    at_density(1_000, PolicyKind::Regret, seed)
}

/// The committed full `stability_exp` sweep: 20 links in a 150-wide
/// square, 4 networks, 20 000 slots, 10 λ values up to 0.20, three
/// policies × two models on the Monte Carlo resolver.
pub fn stability_sweep(seed: u64) -> LambdaSweep {
    let (links, slots) = (20, 20_000);
    let base = DynamicConfig {
        links,
        networks: 4,
        slots,
        arrival: ArrivalProcess::Bernoulli { rate: 0.0 },
        policy: PolicyKind::MaxWeight,
        model: SuccessModelKind::NonFading,
        slot_model: SlotModelKind::MonteCarlo,
        topology: PaperTopology {
            links,
            side: 150.0,
            ..PaperTopology::figure1()
        },
        params: SinrParams::figure1(),
        sample_every: slots / 100,
        seed,
    };
    LambdaSweep::linear(base, 0.20, 10)
}

/// Untraced `setup_s` (median over one-slot runs) and replication-slots
/// per second (over the fastest whole replication, its own setup
/// included), alternated over at least `setup_runs` setups and `seconds` of
/// replications.
pub fn measure_engine(cfg: &DynamicConfig, setup_runs: usize, seconds: f64, report: &mut Report) {
    let one_slot = DynamicConfig {
        slots: 1,
        ..cfg.clone()
    };
    let setup_engine = DynamicEngine::new(one_slot.clone());
    let engine = DynamicEngine::new(cfg.clone());
    let (mut setup_net, mut net) = (0, 0);
    let (setups, replications, ()) = alternate(
        setup_runs,
        seconds,
        report,
        |report| {
            report.op(checks::outcome(
                &one_slot,
                &setup_engine.run_network(setup_net),
            ));
            setup_net += 1;
        },
        |(), report| {
            report.op(checks::outcome(cfg, &engine.run_network(net)));
            net += 1;
        },
    );
    report.metric("setup_s", median(&setups), "s");
    report.metric(
        "throughput_per_s",
        cfg.slots as f64 / fastest(&replications),
        "1/s",
    );
}

/// Untraced `setup_s` (median over sweeps truncated to one slot) and
/// replication-slots per second (over the fastest whole sweep), alternated
/// over at least `setup_runs` setups and `seconds` of sweeps. With
/// `exact`, cells are also checked against the committed CSV.
pub fn measure_sweep(
    sweep: &LambdaSweep,
    setup_runs: usize,
    seconds: f64,
    exact: bool,
    report: &mut Report,
) {
    let one_slot = LambdaSweep {
        base: DynamicConfig {
            slots: 1,
            ..sweep.base.clone()
        },
        lambdas: sweep.lambdas.clone(),
    };
    let (setups, sweeps, ()) = alternate(
        setup_runs,
        seconds,
        report,
        |report| check_sweep(&one_slot, &one_slot.run(), false, report),
        |(), report| check_sweep(sweep, &sweep.run(), exact, report),
    );
    report.metric("setup_s", median(&setups), "s");
    let slots =
        cell_configs(sweep).len() as f64 * sweep.base.networks as f64 * sweep.base.slots as f64;
    report.metric("throughput_per_s", slots / fastest(&sweeps), "1/s");
}

fn check_sweep(sweep: &LambdaSweep, cells: &StabilityReport, exact: bool, report: &mut Report) {
    let committed = if exact {
        checks::committed_rows().map_err(|e| report.fail(e)).ok()
    } else {
        None
    };
    checks::sweep(&cell_configs(sweep), cells, committed.as_deref(), |r| {
        report.op(r)
    });
}

/// Traced `replications` of `cfg`: runs them untraced through the engine
/// (the reference for the replay check, and a warm-up), replays them,
/// then runs them untraced again for the wall time the trace overhead is
/// measured against. With `scaling`, also replays the configuration at
/// 10² and 10³ links at the same density and records each layer's slope.
pub fn trace_engine(
    cfg: &DynamicConfig,
    replications: u64,
    scaling: bool,
    layers: &mut Layers,
    report: &mut Report,
) {
    let engine = DynamicEngine::new(cfg.clone());
    let run = || -> Vec<_> {
        (0..replications)
            .map(|net| engine.run_network(net))
            .collect()
    };
    let outcomes = run();
    for out in &outcomes {
        report.op(checks::outcome(cfg, out));
    }
    let replays: Vec<Replayed> = layers.traced(|layers| {
        (0..replications)
            .map(|net| replay(cfg, net, &layers.tracer))
            .collect()
    });
    let start = Instant::now();
    let again = run();
    layers.untraced_ns = start.elapsed().as_nanos() as u64;
    report.op(checks::repeats(&outcomes, &again));
    let trials = cfg.slots as f64 * cfg.links as f64;
    for (net, (out, r)) in outcomes.iter().zip(&replays).enumerate() {
        tally(layers, cfg, r);
        let p = Packets::of(cfg, out);
        report.op(checks::replay_agrees(
            &format!("replication {net}"),
            cfg.arrival.rate(),
            trials,
            (p.arrived as f64, p.departed as f64),
            (r.arrived as f64, r.departed as f64),
        ));
    }
    layers.units = replications as f64;
    layers.gain_bytes = (cfg.links * cfg.links * 8) as f64;
    if scaling {
        scale(cfg, layers);
    }
}

/// Replays the configuration at 10² and 10³ links (whole replications,
/// several at the smallest size), takes the traced run itself as the
/// point at `cfg.links`, and records each [`SCALED`] layer's slope.
fn scale(cfg: &DynamicConfig, layers: &mut Layers) {
    let mut sizes = Vec::new();
    let mut points = Vec::new();
    for (links, replications) in [(100, 5), (1_000, 2)] {
        let small = at_density(links, cfg.policy, cfg.seed);
        let tracer = Tracer::new();
        let mut phases = Phases::default();
        for net in 0..replications {
            phases.add(&replay(&small, net, &tracer).phases);
        }
        sizes.push(links as f64);
        points.push(layers::scaling_point(
            &tracer.snapshot(),
            &phases,
            replications as f64,
        ));
    }
    sizes.push(cfg.links as f64);
    points.push(layers::scaling_point(
        &layers.tracer.snapshot(),
        &layers.all,
        layers.units,
    ));
    for (k, name) in SCALED.into_iter().enumerate() {
        let values: Vec<f64> = points.iter().map(|p| p[k]).collect();
        layers
            .slopes
            .push((name, layers::log_log_slope(&sizes, &values)));
    }
}

/// A traced sweep: runs it untraced through `LambdaSweep::run` (checked
/// like the untraced measurement), replays every replication of every
/// cell, checks each cell's replayed packet counts against the engine's,
/// and runs the sweep untraced again for the trace overhead.
pub fn trace_sweep(sweep: &LambdaSweep, exact: bool, layers: &mut Layers, report: &mut Report) {
    let reference = sweep.run();
    check_sweep(sweep, &reference, exact, report);

    let base = &sweep.base;
    let configs = cell_configs(sweep);
    let replays: Vec<Vec<Replayed>> = layers.traced(|layers| {
        configs
            .iter()
            .map(|cfg| {
                (0..base.networks as u64)
                    .map(|net| replay(cfg, net, &layers.tracer))
                    .collect()
            })
            .collect()
    });
    let trials = (base.networks as u64 * base.slots * base.links as u64) as f64;
    for ((cfg, cell), reps) in configs.iter().zip(&reference.cells).zip(&replays) {
        for r in reps {
            tally(layers, cfg, r);
        }
        let arrived: u64 = reps.iter().map(|r| r.arrived).sum();
        let departed: u64 = reps.iter().map(|r| r.departed).sum();
        report.op(checks::replay_agrees(
            &format!(
                "{}/{}/λ={}",
                cfg.policy.label(),
                cfg.model.label(),
                cell.lambda
            ),
            cell.lambda,
            trials,
            (
                (cell.offered * trials).round(),
                (cell.throughput * trials).round(),
            ),
            (arrived as f64, departed as f64),
        ));
    }
    let start = Instant::now();
    let again = sweep.run();
    layers.untraced_ns = start.elapsed().as_nanos() as u64;
    report.op(checks::repeats(&reference.cells, &again.cells));
    layers.units = 1.0;
    layers.gain_bytes = (base.links * base.links * 8) as f64;
}

/// The cell configurations `LambdaSweep::run` builds, in its order.
fn cell_configs(sweep: &LambdaSweep) -> Vec<DynamicConfig> {
    let mut configs = Vec::new();
    for policy in PolicyKind::all() {
        for model in SuccessModelKind::all() {
            for &lambda in &sweep.lambdas {
                configs.push(DynamicConfig {
                    policy,
                    model,
                    arrival: sweep.base.arrival.with_rate(lambda),
                    slot_model: match model {
                        SuccessModelKind::NonFading => SlotModelKind::MonteCarlo,
                        SuccessModelKind::Rayleigh => sweep.base.slot_model,
                    },
                    ..sweep.base.clone()
                });
            }
        }
    }
    configs
}

/// Adds one replayed replication to the workload's totals and to the
/// totals of the layers its configuration selects.
fn tally(layers: &mut Layers, cfg: &DynamicConfig, r: &Replayed) {
    layers.all.add(&r.phases);
    match cfg.policy {
        PolicyKind::Regret => layers.regret.add(&r.phases),
        PolicyKind::MaxWeight => layers.max_weight.add(&r.phases),
        PolicyKind::Aloha | PolicyKind::RayleighMaxWeight => {}
    }
    match (cfg.model, cfg.slot_model) {
        (SuccessModelKind::NonFading, _) => layers.nonfading.add(&r.phases),
        (SuccessModelKind::Rayleigh, SlotModelKind::MonteCarlo) => layers.fading.add(&r.phases),
        (SuccessModelKind::Rayleigh, SlotModelKind::Analytic) => {}
    }
    if let Some(stats) = &r.selection {
        layers.selection.merge(stats);
    }
}

/// Stream tags of the engine's seed derivation, mirrored so a replay
/// runs the engine's network, traffic and randomness.
mod stream {
    pub const TOPOLOGY: u64 = 1;
    pub const ARRIVALS: u64 = 2;
    pub const POLICY: u64 = 3;
    pub const FADING: u64 = 4;
}

/// FNV-1a of a policy label: the engine's policy-stream tag.
fn label_tag(label: &str) -> u64 {
    label.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1_0000_01b3)
    })
}

/// What one replayed replication did.
struct Replayed {
    phases: Phases,
    arrived: u64,
    departed: u64,
    selection: Option<SelectionStats>,
}

/// Replays replication `net` of `cfg` through the constructors and
/// per-slot calls `DynamicEngine` makes: a span around each setup call,
/// and per slot one timestamp between consecutive calls. Time between
/// the calls (the transmit-mask scan and the loop itself) is left out of
/// every phase and shows up as the residual.
fn replay(cfg: &DynamicConfig, net: u64, tracer: &Tracer) -> Replayed {
    let n = cfg.links;
    let topology = PaperTopology {
        links: n,
        ..cfg.topology
    };
    let network = span(tracer, "geometry.generate", || {
        topology.generate(mix_seed2(cfg.seed, stream::TOPOLOGY, net))
    });
    let gain = span(tracer, "sinr.gain_build", || {
        GainMatrix::from_geometry(
            &network,
            &PowerAssignment::figure1_uniform(),
            cfg.params.alpha,
        )
    });
    let arrival_root = mix_seed2(
        mix_seed(cfg.seed, stream::ARRIVALS),
        net,
        cfg.arrival.rate().to_bits(),
    );
    let mut arrival_rngs: Vec<StdRng> = (0..n as u64)
        .map(|link| StdRng::seed_from_u64(mix_seed(arrival_root, link)))
        .collect();
    let mut samplers: Vec<ArrivalSample> = (0..n).map(|_| cfg.arrival.sampler()).collect();
    let mut policy_rng = StdRng::seed_from_u64(mix_seed2(
        mix_seed(cfg.seed, stream::POLICY),
        net,
        label_tag(cfg.policy.label()),
    ));
    let mut policy = span(
        tracer,
        "dynamic.policy_build",
        || -> Box<dyn OnlinePolicy> {
            match cfg.policy {
                PolicyKind::MaxWeight => Box::new(QueueMaxWeight::new(gain.clone(), cfg.params)),
                PolicyKind::Aloha => Box::new(QueueAloha::default_inverse(n)),
                PolicyKind::Regret => Box::new(RegretPolicy::new(n)),
                PolicyKind::RayleighMaxWeight => {
                    Box::new(RayleighMaxWeight::new(gain.clone(), cfg.params))
                }
            }
        },
    );
    let fading_seed = mix_seed2(cfg.seed, stream::FADING, net);
    let mut resolver: Box<dyn SlotResolver> = match cfg.slot_model {
        SlotModelKind::Analytic => span(tracer, "core.evaluator_build", || {
            Box::new(AnalyticResolver::new(&gain, &cfg.params, fading_seed))
        }),
        SlotModelKind::MonteCarlo => span(tracer, "sinr.model_build", || {
            let model: Box<dyn SuccessModel> = match cfg.model {
                SuccessModelKind::NonFading => {
                    Box::new(NonFadingModel::new(gain.clone(), cfg.params))
                }
                SuccessModelKind::Rayleigh => {
                    Box::new(RayleighModel::new(gain.clone(), cfg.params, fading_seed))
                }
            };
            Box::new(MonteCarloResolver::new(model, cfg.params.beta))
        }),
    };
    let counterfactuals = policy.observes_counterfactuals();

    let mut bank = QueueBank::new(n);
    let mut active = vec![false; n];
    let mut would_succeed = vec![false; n];
    let mut successes = vec![false; n];
    let mut ph = Phases {
        slots: cfg.slots,
        draws: cfg.slots * n as u64,
        ..Phases::default()
    };
    let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
    for slot in 0..cfg.slots {
        let t0 = Instant::now();
        for (i, (sampler, rng)) in samplers.iter_mut().zip(&mut arrival_rngs).enumerate() {
            let count = sampler.draw(rng);
            if count > 0 {
                ph.hits += 1;
                bank.queue_mut(i).enqueue(count, slot);
            }
        }
        let t1 = Instant::now();
        let backlogs = bank.backlogs();
        let t2 = Instant::now();
        let mask = policy.choose(&backlogs, &mut policy_rng);
        let t3 = Instant::now();
        for i in 0..n {
            let on = mask[i] && backlogs[i] > 0;
            ph.flips += u64::from(on != active[i]);
            ph.transmitters += u64::from(on);
            active[i] = on;
        }
        let t4 = Instant::now();
        if counterfactuals {
            resolver.resolve(&active, &mut would_succeed);
        } else {
            resolver.resolve_active_only(&active, &mut would_succeed);
        }
        let t5 = Instant::now();
        for i in 0..n {
            successes[i] = active[i] && would_succeed[i];
            if successes[i] {
                bank.queue_mut(i).dequeue(slot);
                ph.successes += 1;
            }
        }
        let t6 = Instant::now();
        policy.observe(&ObservedSlot {
            active: &active,
            would_succeed: &would_succeed,
            successes: &successes,
        });
        let t7 = Instant::now();
        ph.arrivals_ns += ns(t0, t1);
        ph.backlogs_ns += ns(t1, t2);
        ph.policy_ns += ns(t2, t3);
        ph.resolve_ns += ns(t4, t5);
        ph.departures_ns += ns(t5, t6);
        ph.observe_ns += ns(t6, t7);
    }
    Replayed {
        phases: ph,
        arrived: bank.total_arrivals(),
        departed: bank.total_departures(),
        selection: policy.selection_stats(),
    }
}
