//! The two in-process tuning workloads: `gptj-decode-sim` (one GPT-J 6B
//! decode block tuned on the simulator) and `search-spaces-analytic` (the
//! paper operators and the extension workloads searched on the analytic
//! model, each winner re-timed on the simulator).
//!
//! A round builds its sessions, tunes every task through an empty schedule
//! cache (every search is a miss), resolves every task again from the cache
//! (hits), re-times and checks each tuned schedule.  Rounds repeat until the
//! run's time is up; every round does exactly the same operations.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use atim_autotune::{
    featurize, resolve_generator, verify_trace, CacheEntry, CostModel, CostModelKind,
    ScheduleCache, SpaceGenerator, Trace, TuningOptions, RESIDENT_GENERATOR_IDS,
};
use atim_baselines::prim::prim_default;
use atim_core::{AnalyticBackend, Backend, CompileOptions, CompiledModule, Session, SimBackend};
use atim_sim::{ExecutionReport, UpmemConfig};
use atim_tir::compute::ComputeDef;
use atim_workloads::data::{generate_inputs, max_abs_diff, results_match};
use atim_workloads::gptj::{self, GptJModel};
use atim_workloads::{Workload, WorkloadKind};

use crate::layers::{self, Measure, TracedBackend, TracedGenerator};
use crate::util::{geomean, median, put, secs, timed, Checks, Metrics};

/// Search seed of every task whose seed does not follow `--seed`.
pub const FIXED_SEED: u64 = 42;

/// Session builds per round; `setup_s` is their median.
const SETUP_REPEATS: usize = 1000;

/// Cache lookups of each task right after its search; `hit_p50_us` is the
/// mean over tasks of their median lookup.
const HITS_PER_TASK: usize = 100;

/// Which tuning workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `gptj-decode-sim`.
    GptjDecodeSim,
    /// `search-spaces-analytic`.
    SearchSpacesAnalytic,
}

/// One search of the workload.
#[derive(Debug, Clone)]
pub struct Task {
    /// Task label (`qkv_gen`, `mha`, `va`, …).
    pub name: String,
    /// The workload (kind and shape).
    pub workload: Workload,
    /// The computation.
    pub def: ComputeDef,
    /// Resident space-generator id.
    pub space: &'static str,
    /// Search options (budget and seed).
    pub options: TuningOptions,
    /// Whether the tuned schedule is executed and compared against
    /// `ComputeDef::reference` (tasks too large to execute within a run
    /// are checked for verification, compilation and a bit-exact re-time
    /// instead).
    pub execute: bool,
    /// Whether this check is the known-faulty `tiled` configuration, whose
    /// failure the run counts but does not treat as incorrect.
    pub known_fault: bool,
}

fn options(trials: usize, population: usize, measure_per_round: usize, seed: u64) -> TuningOptions {
    TuningOptions {
        trials,
        population,
        measure_per_round,
        seed,
        ..TuningOptions::default()
    }
}

/// The workload's tasks.  Every search runs at [`FIXED_SEED`] except one
/// cheap, quickly converging search in the `upmem` space whose seed is the
/// run's `--seed` (`red` of 64Ki elements on the simulator, `red` 4MB on
/// the analytic model): it moves the tuned latencies a little from seed to
/// seed, and it is far below the median search time, so it does not move
/// `miss_p50_ms`.  The same operations are timed in every run.
pub fn tasks(kind: Kind, seed: u64) -> Vec<Task> {
    let mut out = Vec::new();
    let mut push = |name: String, workload: Workload, space, options, execute, known_fault| {
        out.push(Task {
            name,
            def: workload.compute_def(),
            workload,
            space,
            options,
            execute,
            known_fault,
        });
    };
    match kind {
        Kind::GptjDecodeSim => {
            let model = GptJModel::B6;
            let layers = gptj::fc_layers(model);
            let mut block: Vec<(String, Workload, bool)> = layers
                .iter()
                .map(|l| (l.name.to_string(), gptj::fc_workload(l), false))
                .collect();
            block.push(("mha".into(), gptj::mha_workload(model, 4, 256), true));
            block.push((
                "attn".into(),
                gptj::attention_block_workload(model, 1, 256),
                false,
            ));
            block.push((
                "qgemv".into(),
                gptj::quantized_fc_workload(&layers[0]),
                false,
            ));
            for space in RESIDENT_GENERATOR_IDS {
                for (name, workload, execute) in &block {
                    let options = options(48, 64, 16, FIXED_SEED);
                    push(
                        name.clone(),
                        workload.clone(),
                        space,
                        options,
                        *execute,
                        false,
                    );
                }
            }
            let probe = Workload::new(WorkloadKind::Red, vec![65_536]);
            push(
                "seeded-red".into(),
                probe,
                "upmem",
                options(32, 32, 8, seed),
                true,
                false,
            );
        }
        Kind::SearchSpacesAnalytic => {
            // The seven paper operators at their 4MB presets, the extension
            // workloads (bgemm and attn at shapes small enough to execute)
            // and the GPT-J MHA MMTV.
            let shapes: [(WorkloadKind, &[i64]); 11] = [
                (WorkloadKind::Va, &[1_048_576]),
                (WorkloadKind::Red, &[1_048_576]),
                (WorkloadKind::Mtv, &[1024, 1024]),
                (WorkloadKind::Ttv, &[32, 64, 512]),
                (WorkloadKind::Mmtv, &[32, 64, 512]),
                (WorkloadKind::Geva, &[1_048_576]),
                (WorkloadKind::Gemv, &[1024, 1024]),
                (WorkloadKind::Bgemm, &[4, 64, 64, 64]),
                (WorkloadKind::Attn, &[8, 128, 32]),
                (WorkloadKind::Qgemv, &[2048, 2048]),
                (WorkloadKind::Mmtv, &[64, 256, 256]),
            ];
            for space in RESIDENT_GENERATOR_IDS {
                for (kind, shape) in shapes {
                    let workload = Workload::new(kind, shape.to_vec());
                    let seeded = kind == WorkloadKind::Red && space == "upmem";
                    let task_seed = if seeded { seed } else { FIXED_SEED };
                    let options = options(300, 192, 16, task_seed);
                    push(workload.label(), workload, space, options, true, false);
                }
            }
            // The known `tiled` fault: this search picks a trace that
            // passes `verify_trace` but computes wrong outputs.
            let mha = gptj::mha_workload(GptJModel::B6, 4, 256);
            push(
                "mha-fault".into(),
                mha,
                "tiled",
                options(48, 96, 12, 42),
                true,
                true,
            );
        }
    }
    out
}

/// The sessions of one round: one per space, one of its own for the
/// known-fault search (whose key the `tiled` session's cache already
/// holds), and the simulator session that re-times the winners.
struct Sessions {
    tuning: BTreeMap<&'static str, Session>,
    fault: Session,
    sim: Session,
}

impl Sessions {
    fn of(&self, task: &Task) -> &Session {
        if task.known_fault {
            &self.fault
        } else {
            &self.tuning[task.space]
        }
    }
}

fn generator(space: &str, traced: bool) -> Arc<dyn SpaceGenerator> {
    let inner = resolve_generator(space).expect("resident generator");
    if traced {
        Arc::new(TracedGenerator::new(inner))
    } else {
        inner
    }
}

fn backend(inner: Arc<dyn Backend>, traced: bool, mode: Measure) -> Arc<dyn Backend> {
    if traced {
        Arc::new(TracedBackend::new(inner, mode))
    } else {
        inner
    }
}

/// Builds a session explicitly: backend, space generator, ridge cost
/// model and an empty in-memory schedule cache.
fn session(backend: Arc<dyn Backend>, generator: Arc<dyn SpaceGenerator>) -> Session {
    Session::builder()
        .backend_arc(backend)
        .space_generator_arc(generator)
        .cost_model(CostModelKind::Ridge)
        .schedule_cache_shared(Arc::new(Mutex::new(ScheduleCache::new())))
        .build()
}

fn sim_backend() -> Arc<dyn Backend> {
    Arc::new(SimBackend::with_threads(
        UpmemConfig::default(),
        CompileOptions::default(),
        1,
    ))
}

fn build_sessions(kind: Kind, traced: bool) -> Sessions {
    let sim = session(
        backend(sim_backend(), traced, Measure::Split),
        generator("upmem", false),
    );
    let tuning_session = |space: &str| {
        let (inner, mode): (Arc<dyn Backend>, Measure) = match kind {
            Kind::GptjDecodeSim => (sim_backend(), Measure::Split),
            Kind::SearchSpacesAnalytic => (
                Arc::new(AnalyticBackend::new(UpmemConfig::default())),
                Measure::Delegate,
            ),
        };
        session(backend(inner, traced, mode), generator(space, traced))
    };
    let tuning = RESIDENT_GENERATOR_IDS
        .iter()
        .map(|&space| (space, tuning_session(space)))
        .collect();
    let fault = tuning_session("tiled");
    Sessions { tuning, fault, sim }
}

/// What one search produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The tuned trace.
    pub trace: Trace,
    /// The latency the search reported, in seconds.
    pub latency_s: f64,
    /// The schedule re-timed on the default simulator.
    pub report: ExecutionReport,
}

/// Everything one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Per-task outcome (`None` when the search found nothing).
    pub outcomes: Vec<Option<Outcome>>,
    /// Median session-build time.
    pub setup_s: f64,
    /// Wall-clock of every search.
    pub tune_s: f64,
    /// Per-search wall-clock (the cache misses).
    pub miss_s: Vec<f64>,
    /// Per-task median wall-clock of a cache hit.
    pub hit_s: Vec<f64>,
    /// Program counters summed over the searches.
    pub measured: usize,
    /// Failed measurements summed over the searches.
    pub failed: usize,
    /// Verifier rejections summed over the searches.
    pub rejected: usize,
    /// Traced only: the distinct candidates of each search.
    pub candidates: Vec<Vec<Trace>>,
    /// Traced only: the measured `(trace, latency)` history of each search.
    pub histories: Vec<Vec<(Trace, f64)>>,
    /// Wall-clock of the functional executions inside the checks.
    pub exec_s: f64,
    /// Peak RSS of the process when the round's searches and hits are
    /// done, before the output checks (which execute schedules
    /// functionally, two at a time) add their own memory.
    pub peak_rss_mb: f64,
}

/// Runs one round of the workload, recording its checks.
pub fn round(kind: Kind, tasks: &[Task], seed: u64, traced: bool, checks: &mut Checks) -> Round {
    let mut round = Round::default();
    let mut builds = Vec::with_capacity(SETUP_REPEATS);
    let mut sessions = None;
    for _ in 0..SETUP_REPEATS {
        let (built, s) = timed(|| build_sessions(kind, traced));
        builds.push(s);
        sessions = Some(built);
    }
    round.setup_s = median(&builds);
    let sessions = sessions.expect("at least one session build");

    // Misses: every search runs through the (empty) cache.
    let mut tuned = Vec::with_capacity(tasks.len());
    for task in tasks {
        let session = sessions.of(task);
        layers::take_candidates();
        let (result, s) = timed(|| session.tune_cached(&task.def, &task.options));
        round.tune_s += s;
        round.miss_s.push(s);
        let module = result.expect("valid tuning options");
        round.measured += module.measured();
        round.failed += module.failed();
        round.rejected += module.rejected();
        if traced {
            round
                .candidates
                .push(layers::distinct(layers::take_candidates()));
            round.histories.push(
                module
                    .history()
                    .iter()
                    .map(|r| (r.trace.clone(), r.latency_s))
                    .collect(),
            );
        }
        let best = module.result().best.clone();
        checks.check(best.is_some(), || {
            format!("{} [{}]: search found no schedule", task.name, task.space)
        });
        round.hit_s.push(hits(session, task, &best, checks));
        tuned.push(best);
    }

    round.peak_rss_mb = crate::util::peak_rss_mb();

    // Re-time on the default simulator and check every winner, then
    // execute the ones small enough (two at a time: the checks are not
    // timed, and the machine has two cores).
    let mut pending = Vec::new();
    for (i, (task, best)) in tasks.iter().zip(tuned.iter().cloned()).enumerate() {
        let Some((trace, latency_s)) = best else {
            round.outcomes.push(None);
            continue;
        };
        let (outcome, module) = check_schedule(kind, &sessions, task, trace, latency_s, checks);
        if let Some(module) = module.filter(|_| task.execute) {
            pending.push((i, module));
        }
        round.outcomes.push(outcome);
    }
    let next = AtomicUsize::new(0);
    let mut runs: Vec<(usize, Option<Vec<f32>>, f64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while let Some((i, module)) = pending.get(next.fetch_add(1, Ordering::Relaxed))
                    {
                        let inputs = generate_inputs(&tasks[*i].def, seed);
                        let (run, s) = timed(|| sessions.sim.execute(module, &inputs));
                        done.push((*i, run.ok().and_then(|r| r.output), s));
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("execution thread"))
            .collect()
    });
    runs.sort_by_key(|(i, _, _)| *i);
    for (i, output, s) in runs {
        round.exec_s += s;
        check_output(&tasks[i], output, seed, checks);
    }
    round
}

/// Resolves a just-tuned task from its session's cache [`HITS_PER_TASK`]
/// times, checking each hit against the search's schedule bit for bit, and
/// returns the median lookup time.  Each task's hits run right after its
/// search, so the hits sample the whole tuning phase.
fn hits(session: &Session, task: &Task, best: &Option<(Trace, f64)>, checks: &mut Checks) -> f64 {
    let mut times = Vec::with_capacity(HITS_PER_TASK);
    let mut same = true;
    for _ in 0..HITS_PER_TASK {
        let (hit, s) = timed(|| layers::span("cache.lookup", || session.cached(&task.def)));
        times.push(s);
        same &= match (&hit, best) {
            (Some(hit), Some((trace, latency))) => {
                hit.best_trace() == trace && hit.best_latency_s().to_bits() == latency.to_bits()
            }
            _ => false,
        };
    }
    checks.check(same, || {
        format!(
            "{} [{}]: cache hit differs from the search",
            task.name, task.space
        )
    });
    median(&times)
}

/// Checks one tuned schedule and re-times it on the default simulator,
/// returning the compiled module for execution.
fn check_schedule(
    kind: Kind,
    sessions: &Sessions,
    task: &Task,
    trace: Trace,
    latency_s: f64,
    checks: &mut Checks,
) -> (Option<Outcome>, Option<CompiledModule>) {
    let label = format!("{} [{}]", task.name, task.space);
    let hw = UpmemConfig::default();
    let verified = verify_trace(&trace, &task.def, &hw).is_ok();
    let module = sessions.sim.compile(&trace, &task.def);
    checks.check(verified && module.is_ok(), || {
        format!("{label}: tuned trace does not verify and compile")
    });
    let Ok(module) = module else {
        return (None, None);
    };
    let report = sessions.sim.time(&module).ok();
    if kind == Kind::GptjDecodeSim {
        // The search measured on this very simulator: a fresh timing must
        // reproduce its latency exactly.
        let same = report
            .as_ref()
            .is_some_and(|r| r.total_s().to_bits() == latency_s.to_bits());
        checks.check(same, || {
            format!("{label}: re-timed latency differs from the search's")
        });
    }
    let outcome = report.map(|report| Outcome {
        trace,
        latency_s,
        report,
    });
    (outcome, Some(module))
}

/// Checks an executed schedule's output against `ComputeDef::reference`.
fn check_output(task: &Task, output: Option<Vec<f32>>, seed: u64, checks: &mut Checks) {
    let label = format!("{} [{}]", task.name, task.space);
    let inputs = generate_inputs(&task.def, seed);
    let expect = task.def.reference(&inputs);
    let ok = output
        .as_ref()
        .is_some_and(|out| results_match(out, &expect, reduce_len(&task.def)));
    if task.known_fault {
        // Counted as failed until the `tiled` space is mended; the run
        // stays correct because the failure is the known one.
        checks.check_known(ok, || {
            format!(
                "{label}: known tiled fault, {} of {} outputs wrong (max abs diff {})",
                output.as_ref().map_or(0, |o| wrong(o, &expect, &task.def)),
                expect.len(),
                output
                    .as_ref()
                    .map_or(f32::NAN, |o| max_abs_diff(o, &expect)),
            )
        });
    } else {
        checks.check(ok, || {
            format!("{label}: output differs from ComputeDef::reference")
        });
    }
}

fn reduce_len(def: &ComputeDef) -> usize {
    def.reduce_axes()
        .iter()
        .map(|&a| def.axes[a].extent.max(1) as usize)
        .product()
}

fn wrong(out: &[f32], expect: &[f32], def: &ComputeDef) -> usize {
    let len = reduce_len(def);
    out.iter()
        .zip(expect)
        .filter(|(a, b)| !results_match(&[**a], &[**b], len))
        .count()
}

/// Runs the workload for `seconds` (whole rounds, at least one) and
/// returns its metrics.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool, checks: &mut Checks) -> Metrics {
    let tasks = tasks(kind, seed);
    let start = Instant::now();
    let mut rounds = Vec::new();
    if traced {
        // One untraced round for reference, then one traced round.
        let plain = round(kind, &tasks, seed, false, checks);
        layers::reset();
        let traced_round = round(kind, &tasks, seed, true, checks);
        let same = plain.outcomes.len() == traced_round.outcomes.len()
            && plain
                .outcomes
                .iter()
                .zip(&traced_round.outcomes)
                .all(|(a, b)| match (a, b) {
                    (Some(a), Some(b)) => {
                        a.trace == b.trace && a.latency_s.to_bits() == b.latency_s.to_bits()
                    }
                    (None, None) => true,
                    _ => false,
                });
        checks.check(same, || {
            "traced round tuned different schedules than the untraced one".into()
        });
        println!(
            "trace overhead: tune_s {:.4} s traced vs {:.4} s untraced ({:+.4} s)",
            traced_round.tune_s,
            plain.tune_s,
            traced_round.tune_s - plain.tune_s
        );
        print_table(&tasks, &traced_round);
        let mut metrics = per_layer(&tasks, &traced_round, plain.tune_s);
        put(
            &mut metrics,
            "trace.overhead_s",
            traced_round.tune_s - plain.tune_s,
            "s",
        );
        return metrics;
    }
    loop {
        rounds.push(round(kind, &tasks, seed, false, checks));
        if secs(start) >= seconds {
            break;
        }
    }
    end_to_end(&rounds)
}

/// Prints each task's search time and tuned latency against the PrIM
/// default schedule on the same simulator (the paper's framing).
fn print_table(tasks: &[Task], round: &Round) {
    let sim = session(sim_backend(), generator("upmem", false));
    let hw = UpmemConfig::default();
    println!("task space search_ms tuned_ms prim_ms prim/tuned");
    for ((task, outcome), search_s) in tasks.iter().zip(&round.outcomes).zip(&round.miss_s) {
        let prim_ms = sim
            .compile_config(&prim_default(&task.workload, &hw), &task.def)
            .and_then(|m| sim.time(&m))
            .map(|r| r.total_s() * 1e3)
            .ok();
        let tuned_ms = outcome.as_ref().map(|o| o.report.total_s() * 1e3);
        let ratio = match (prim_ms, tuned_ms) {
            (Some(p), Some(t)) => format!("{:.2}", p / t),
            _ => "-".into(),
        };
        let show = |v: Option<f64>| v.map_or("-".into(), |v| format!("{v:.4}"));
        println!(
            "{} {} {:.1} {} {} {ratio}",
            task.name,
            task.space,
            search_s * 1e3,
            show(tuned_ms),
            show(prim_ms)
        );
    }
}

fn tuned_ms(round: &Round) -> Vec<f64> {
    round
        .outcomes
        .iter()
        .flatten()
        .map(|o| o.report.total_s() * 1e3)
        .collect()
}

fn end_to_end(rounds: &[Round]) -> Metrics {
    let per = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let mut m = Metrics::new();
    put(&mut m, "setup_s", per(&|r| r.setup_s), "s");
    put(&mut m, "tune_s", per(&|r| r.tune_s), "s");
    put(
        &mut m,
        "tuned_ms_geomean",
        per(&|r| geomean(&tuned_ms(r))),
        "ms",
    );
    put(
        &mut m,
        "miss_p50_ms",
        per(&|r| median(&r.miss_s) * 1e3),
        "ms",
    );
    put(
        &mut m,
        "hit_p50_us",
        per(&|r| r.hit_s.iter().sum::<f64>() / r.hit_s.len() as f64 * 1e6),
        "us",
    );
    // The first round's reading: later rounds start above the checks' peak.
    put(&mut m, "peak_rss_mb", rounds[0].peak_rss_mb, "MB");
    m
}

/// The per-layer metrics of a traced round; `untraced_tune_s` is the
/// untraced round's `tune_s`, so `autotune.search_s` carries no tracing
/// cost.
fn per_layer(tasks: &[Task], round: &Round, untraced_tune_s: f64) -> Metrics {
    let hw = UpmemConfig::default();
    let mut m = crate::zero_layers();

    // Verification and ranking, timed directly on every distinct candidate
    // of every search.
    let (mut verified, mut distinct) = (0usize, 0usize);
    for ((task, candidates), history) in tasks.iter().zip(&round.candidates).zip(&round.histories) {
        // A ridge model trained on the search's own measurements, as the
        // search's final round ranks with.
        let mut model = CostModel::new();
        let samples: Vec<_> = history
            .iter()
            .map(|(trace, latency)| (featurize(trace, &task.def, &hw), *latency))
            .collect();
        model.train(&samples);
        for cand in candidates {
            distinct += 1;
            if layers::span("autotune.verify", || verify_trace(cand, &task.def, &hw)).is_ok() {
                verified += 1;
            }
            layers::span("autotune.rank", || {
                model.predict(&featurize(cand, &task.def, &hw))
            });
        }
    }
    let generated: usize = layers::spans("autotune.sample").len();
    let measure_s = layers::total("core.measure");
    put(
        &mut m,
        "autotune.search_s",
        untraced_tune_s - measure_s,
        "s",
    );
    put(
        &mut m,
        "autotune.sample_s",
        layers::total("autotune.sample"),
        "s",
    );
    put(
        &mut m,
        "autotune.verify_us",
        layers::mean("autotune.verify") * 1e6,
        "us",
    );
    put(
        &mut m,
        "autotune.rank_us",
        layers::mean("autotune.rank") * 1e6,
        "us",
    );
    put(&mut m, "autotune.candidates", generated as f64, "count");
    put(&mut m, "autotune.rejected", round.rejected as f64, "count");
    put(
        &mut m,
        "autotune.verify_yield",
        verified as f64 / distinct.max(1) as f64,
        "ratio",
    );
    for space in RESIDENT_GENERATOR_IDS {
        let ms: Vec<f64> = tasks
            .iter()
            .zip(&round.outcomes)
            .filter(|(t, _)| t.space == space && !t.known_fault)
            .filter_map(|(_, o)| o.as_ref().map(|o| o.report.total_s() * 1e3))
            .collect();
        put(
            &mut m,
            &format!("autotune.tuned_ms.{space}"),
            geomean(&ms),
            "ms",
        );
    }
    put(&mut m, "core.measure_s", measure_s, "s");
    put(
        &mut m,
        "core.compile_us",
        layers::mean("core.compile") * 1e6,
        "us",
    );
    put(&mut m, "sim.time_ms", layers::mean("sim.time") * 1e3, "ms");
    put(&mut m, "core.measured", round.measured as f64, "count");
    put(&mut m, "core.failed", round.failed as f64, "count");
    let reports: Vec<&ExecutionReport> =
        round.outcomes.iter().flatten().map(|o| &o.report).collect();
    let mean_ms = |f: &dyn Fn(&ExecutionReport) -> f64| {
        reports.iter().map(|r| f(r)).sum::<f64>() / reports.len().max(1) as f64 * 1e3
    };
    put(&mut m, "sim.h2d_ms", mean_ms(&|r| r.h2d_s), "ms");
    put(&mut m, "sim.kernel_ms", mean_ms(&|r| r.kernel_s), "ms");
    put(&mut m, "sim.d2h_ms", mean_ms(&|r| r.d2h_s), "ms");
    put(&mut m, "sim.reduce_ms", mean_ms(&|r| r.reduce_s), "ms");
    put(&mut m, "sim.exec_s", round.exec_s, "s");
    put(
        &mut m,
        "cache.lookup_us",
        layers::mean("cache.lookup") * 1e6,
        "us",
    );
    // Recording each winner into a fresh cache, as the session does after
    // every search.
    let mut cache = ScheduleCache::new();
    for (task, outcome) in tasks.iter().zip(&round.outcomes) {
        if let Some(o) = outcome {
            let entry = CacheEntry {
                key: atim_autotune::CacheKey::for_machine(&task.def, &hw, task.space),
                trace: o.trace.clone(),
                latency_s: o.latency_s,
                seed: task.options.seed,
            };
            let _ = layers::span("cache.record", || cache.record(entry));
        }
    }
    put(
        &mut m,
        "cache.record_ms",
        layers::mean("cache.record") * 1e3,
        "ms",
    );
    m
}
