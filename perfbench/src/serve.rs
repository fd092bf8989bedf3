//! The `serve-fleet-cache` workload: `atim_serve::serve` inside this
//! process on `127.0.0.1:0`, its session measuring on a 2-worker simulator
//! fleet, its schedule cache a shipped file of [`cachegen::ENTRIES`]
//! entries for other keys.  One closed-loop client sends three phases:
//!
//! 1. distinct small tune requests — each misses, runs a search on the
//!    fleet and appends to the cache;
//! 2. one request sent at once from two client threads — one search plus
//!    one join;
//! 3. repeat requests answered from the cache, for a fixed time.
//!
//! A run starts the server [`STARTS`] times or more, each time on a fresh
//! copy of the shipped cache, so every start repeats the same misses, join
//! and hits; the metrics are medians over all starts, which spreads the
//! samples over the whole run instead of one stretch of it.

use std::collections::HashSet;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use atim_autotune::{resolve_generator, CacheEntry, CostModelKind, JsonCodec, ScheduleCache};
use atim_core::{
    Backend, BackendSpec, CompileOptions, FleetBackend, FleetOptions, Session, SimBackend,
};
use atim_serve::{serve, Client, Response, ServeOptions, StatsReply, TuneReply, TuneRequest};
use atim_sim::UpmemConfig;
use atim_tir::compute::ComputeDef;
use atim_wire::{read_frame, write_frame};
use atim_workloads::{Workload, WorkloadKind};

use crate::cachegen;
use crate::layers::{self, Measure, TracedBackend};
use crate::util::{geomean, median, put, quantile, secs, timed, Checks, Metrics};

/// Fleet size (the machine has two cores).
const WORKERS: usize = 2;

/// Starts per run, at least; more follow while the run's time lasts.
const STARTS: usize = 5;

/// How long each start sends hits.
const HIT_SECONDS: f64 = 2.0;

/// Hits each start sends at least, however slow they are.
const MIN_HITS: usize = 1_000;

/// Search seed of every request whose seed does not follow `--seed`.
const FIXED_SEED: u64 = 42;

/// The phase-1 requests: distinct shapes, each a cache miss.  The first is
/// a short, quickly converging search whose seed is the run's `--seed`; it stays far below the
/// median miss, so the seed moves the tuned latencies but not
/// `miss_p50_ms`.  Every other search runs at [`FIXED_SEED`].
fn requests(seed: u64) -> Vec<TuneRequest> {
    let shapes: [(WorkloadKind, &[i64]); 11] = [
        (WorkloadKind::Mtv, &[1024, 1024]),
        (WorkloadKind::Mtv, &[2048, 1024]),
        (WorkloadKind::Mtv, &[1024, 2048]),
        (WorkloadKind::Gemv, &[1024, 1024]),
        (WorkloadKind::Gemv, &[2048, 2048]),
        (WorkloadKind::Va, &[1_048_576]),
        (WorkloadKind::Red, &[1_048_576]),
        (WorkloadKind::Geva, &[1_048_576]),
        (WorkloadKind::Ttv, &[32, 64, 512]),
        (WorkloadKind::Mmtv, &[32, 64, 512]),
        (WorkloadKind::Qgemv, &[2048, 2048]),
    ];
    let seeded = TuneRequest {
        trials: 32,
        population: 32,
        measure_per_round: 8,
        seed,
        ..TuneRequest::new(WorkloadKind::Red.name(), vec![65_536])
    };
    std::iter::once(seeded)
        .chain(shapes.iter().map(|(kind, shape)| TuneRequest {
            trials: 128,
            population: 32,
            measure_per_round: 8,
            seed: FIXED_SEED,
            ..TuneRequest::new(kind.name(), shape.to_vec())
        }))
        .collect()
}

/// The phase-2 request two clients send at once.
fn pair_request() -> TuneRequest {
    TuneRequest {
        trials: 48,
        population: 32,
        measure_per_round: 8,
        seed: FIXED_SEED,
        ..TuneRequest::new(WorkloadKind::Mtv.name(), vec![1536, 1536])
    }
}

/// Every `(kind, shape)` the workload requests: the shipped cache holds
/// none of them.
pub fn requested_keys(seed: u64) -> HashSet<(WorkloadKind, Vec<i64>)> {
    requests(seed)
        .iter()
        .chain(std::iter::once(&pair_request()))
        .map(|r| {
            (
                WorkloadKind::parse(&r.workload).expect("known workload"),
                r.shape.clone(),
            )
        })
        .collect()
}

fn def_of(request: &TuneRequest) -> ComputeDef {
    let kind = WorkloadKind::parse(&request.workload).expect("known workload");
    Workload::new(kind, request.shape.clone()).compute_def()
}

fn hw() -> UpmemConfig {
    UpmemConfig::default()
}

/// A running server with the handles set-up produced.
struct Server {
    handle: atim_serve::ServerHandle,
    backend: Arc<dyn Backend>,
    session: Session,
    client: Client,
}

impl Server {
    /// Stops the server and the fleet, waiting for every worker process.
    fn stop(self) {
        let Server {
            handle,
            backend,
            session,
            client: _,
        } = self;
        handle.shutdown();
        drop(session);
        // Connection threads may still hold the server state for a moment;
        // the fleet is dropped (its workers killed and reaped) once the last
        // reference is gone.
        let deadline = Instant::now() + Duration::from_secs(10);
        while Arc::strong_count(&backend) > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(backend);
    }
}

/// The set-up timings of one start.
struct Setup {
    total_s: f64,
    open_s: f64,
    spawn_s: f64,
}

/// Set-up: open the shipped cache, spawn the fleet, build the session and
/// start the server.
fn start(cache_path: &Path, traced: bool) -> (Server, Setup) {
    let begin = Instant::now();
    let (cache, open_s) = timed(|| ScheduleCache::open(cache_path).expect("shipped cache opens"));
    let exe = std::env::current_exe().expect("current executable");
    let options = FleetOptions {
        command: Some((exe, vec!["--worker".into(), "{addr}".into()])),
        space_generator: Some("upmem".into()),
        ..FleetOptions::default()
    };
    let (fleet, spawn_s) = timed(|| {
        FleetBackend::spawn(BackendSpec::sim(hw()), WORKERS, options).expect("fleet spawns")
    });
    let fleet: Arc<dyn Backend> = Arc::new(fleet);
    let backend: Arc<dyn Backend> = if traced {
        Arc::new(TracedBackend::new(fleet, Measure::Delegate))
    } else {
        fleet
    };
    let session = Session::builder()
        .backend_arc(Arc::clone(&backend))
        .space_generator_arc(resolve_generator("upmem").expect("resident generator"))
        .cost_model(CostModelKind::Ridge)
        .schedule_cache_shared(Arc::new(Mutex::new(cache)))
        .build();
    let handle =
        serve(session.clone(), "127.0.0.1:0", ServeOptions::default()).expect("server binds");
    let client = Client::new(handle.addr()).with_timeout(Duration::from_secs(120));
    let total_s = secs(begin);
    (
        Server {
            handle,
            backend,
            session,
            client,
        },
        Setup {
            total_s,
            open_s,
            spawn_s,
        },
    )
}

/// Everything one round measured.
struct Round {
    setup: Setup,
    tune_s: f64,
    miss_s: Vec<f64>,
    hit_s: Vec<f64>,
    hits_wall_s: f64,
    replies: Vec<TuneReply>,
    tuned_ms: Vec<f64>,
    stats: Option<StatsReply>,
    fleet: atim_core::FleetStats,
    /// Traced only: direct timings of the layers under the hit path.
    lookup_s: Vec<f64>,
    record_s: Vec<f64>,
    frame_s: Vec<f64>,
    dispatch_overhead_s: f64,
    measure_jobs_s: f64,
}

fn same_reply(a: &TuneReply, b: &TuneReply) -> bool {
    a.trace == b.trace && a.latency_s.to_bits() == b.latency_s.to_bits()
}

/// Runs one round: a start on a fresh copy of the shipped cache, the
/// three phases, the checks.
fn round(dir: &Path, seed: u64, traced: bool, checks: &mut Checks) -> Round {
    let requests = requests(seed);
    let pair = pair_request();
    let live = dir.join("live.jsonl");
    std::fs::copy(dir.join("shipped.jsonl"), &live).expect("shipped cache copied");
    let (server, setup) = start(&live, traced);
    layers::take_jobs();

    // Phase 1: distinct misses.
    let mut replies = Vec::new();
    let mut miss_s = Vec::new();
    for request in &requests {
        let (reply, s) = timed(|| server.client.tune(request));
        miss_s.push(s);
        let ok = reply
            .as_ref()
            .is_ok_and(|r| !r.cache_hit && !r.deduped && r.measured > 0);
        checks.check(ok, || {
            format!("miss {} {:?}: {reply:?}", request.workload, request.shape)
        });
        replies.push(reply.ok());
    }
    let mut tune_s: f64 = miss_s.iter().sum();

    // Phase 2: one request from two clients at once — one search, one join.
    let barrier = Arc::new(Barrier::new(2));
    let (pair_replies, pair_s) = timed(|| {
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..2)
                .map(|_| {
                    let barrier = Arc::clone(&barrier);
                    let client = server.client.clone();
                    let pair = pair.clone();
                    scope.spawn(move || {
                        barrier.wait();
                        client.tune(&pair)
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("client thread"))
                .collect::<Vec<_>>()
        })
    });
    tune_s += pair_s;
    let pair_ok = match (&pair_replies[0], &pair_replies[1]) {
        (Ok(a), Ok(b)) => {
            same_reply(a, b) && (a.deduped != b.deduped) && !a.cache_hit && !b.cache_hit
        }
        _ => false,
    };
    checks.check(pair_ok, || {
        format!("concurrent pair did not run as one search and one join: {pair_replies:?}")
    });
    let mut all_requests = requests.clone();
    all_requests.push(pair.clone());
    replies.push(pair_replies.into_iter().next().and_then(Result::ok));

    // Fleet ≡ in-process: each miss's latency is the in-process measurement
    // of its trace, bit for bit.
    let local = SimBackend::with_threads(hw(), CompileOptions::default(), 1);
    let mut tuned_ms = Vec::new();
    for (request, reply) in all_requests.iter().zip(&replies) {
        let def = def_of(request);
        let local_s = reply.as_ref().and_then(|r| local.measure(&r.trace, &def));
        let same =
            matches!((reply, local_s), (Some(r), Some(l)) if r.latency_s.to_bits() == l.to_bits());
        checks.check(same, || {
            format!(
                "fleet latency of {} {:?} differs from in-process",
                request.workload, request.shape
            )
        });
        if let Some(l) = local_s {
            tuned_ms.push(l * 1e3);
        }
    }

    // Phase 3: hits, cycling over every tuned key.
    let mut hit_s = Vec::new();
    let hits_start = Instant::now();
    let mut i = 0usize;
    while hit_s.len() < MIN_HITS || secs(hits_start) < HIT_SECONDS {
        let k = i % all_requests.len();
        i += 1;
        let (reply, s) = timed(|| server.client.tune(&all_requests[k]));
        hit_s.push(s);
        let ok = match (&reply, &replies[k]) {
            (Ok(hit), Some(miss)) => hit.cache_hit && same_reply(hit, miss),
            _ => false,
        };
        checks.check(ok, || {
            format!(
                "hit {} {:?} differs from its miss",
                all_requests[k].workload, all_requests[k].shape
            )
        });
    }
    let hits_wall_s = secs(hits_start);

    let stats = server.client.stats().ok();
    let stats_ok = stats.as_ref().is_some_and(|s| {
        s.tunes_run == all_requests.len() && s.dedup_joins == 1 && s.cache_hits == hit_s.len()
    });
    checks.check(stats_ok, || format!("server counters: {stats:?}"));
    let fleet = server.backend.fleet_stats().unwrap_or_default();

    let mut round = Round {
        setup,
        tune_s,
        miss_s,
        hit_s,
        hits_wall_s,
        replies: replies.into_iter().flatten().collect(),
        tuned_ms,
        stats,
        fleet,
        lookup_s: Vec::new(),
        record_s: Vec::new(),
        frame_s: Vec::new(),
        dispatch_overhead_s: 0.0,
        measure_jobs_s: 0.0,
    };
    if traced {
        direct_layers(&mut round, &server, &all_requests, dir);
    }
    server.stop();
    round
}

/// Times the layers under the hit and miss paths directly, on the inputs
/// the round used.
fn direct_layers(round: &mut Round, server: &Server, requests: &[TuneRequest], dir: &Path) {
    // `Session::cached`, per hit.
    for _ in 0..50 {
        for request in requests {
            let def = def_of(request);
            let (_, s) = timed(|| server.session.cached(&def));
            round.lookup_s.push(s);
        }
    }
    // `ScheduleCache::record`, per miss, into a copy of the live cache.
    let copy = dir.join("record.jsonl");
    std::fs::copy(dir.join("live.jsonl"), &copy).expect("live cache copied");
    let mut cache = ScheduleCache::open(&copy).expect("cache copy opens");
    for (request, reply) in requests.iter().zip(&round.replies) {
        let entry = CacheEntry {
            key: server.session.cache_key(&def_of(request)),
            trace: reply.trace.clone(),
            latency_s: reply.latency_s,
            seed: request.seed,
        };
        let (_, s) = timed(|| cache.record(entry));
        round.record_s.push(s);
    }
    // One hit reply frame through a memory buffer.
    if let Some(reply) = round.replies.first() {
        let frame = Response::Result(TuneReply {
            cache_hit: true,
            ..reply.clone()
        })
        .to_json();
        for _ in 0..2_000 {
            let (_, s) = timed(|| {
                let mut buf = Vec::new();
                write_frame(&mut buf, &frame).expect("frame encodes");
                read_frame(&mut Cursor::new(buf)).expect("frame decodes")
            });
            round.frame_s.push(s);
        }
    }
    // The fleet's dispatch overhead: its `measure_jobs` time minus an
    // in-process measurement of the same jobs.
    round.measure_jobs_s = layers::total("core.measure");
    let local = SimBackend::with_threads(hw(), CompileOptions::default(), 1);
    let jobs = layers::take_jobs();
    let (_, local_s) = timed(|| {
        for (job, def) in &jobs {
            local.measure_jobs(
                std::slice::from_ref(job),
                def,
                &atim_autotune::Cancellation::none(),
            );
        }
    });
    round.dispatch_overhead_s = round.measure_jobs_s - local_s;
}

/// A per-run scratch directory inside the checkout.
fn run_dir() -> PathBuf {
    let dir = PathBuf::from(".perfbench").join(format!("serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("run directory");
    dir
}

/// Writes the run's shipped cache: entries for keys the workload never
/// requests (not timed).
fn write_shipped(dir: &Path, seed: u64) {
    let generator = resolve_generator("upmem").expect("resident generator");
    let machine = SimBackend::with_threads(hw(), CompileOptions::default(), 1).fingerprint();
    cachegen::write(
        &dir.join("shipped.jsonl"),
        seed,
        cachegen::ENTRIES,
        &machine,
        generator.as_ref(),
        &requested_keys(seed),
    )
    .expect("shipped cache written");
}

/// Whether two rounds tuned the same schedules with the same latency bits.
fn same_round(a: &Round, b: &Round) -> bool {
    a.replies.len() == b.replies.len()
        && a.replies
            .iter()
            .zip(&b.replies)
            .all(|(x, y)| same_reply(x, y))
}

/// Runs the workload for `seconds` and returns its metrics.
pub fn run(seed: u64, seconds: f64, traced: bool, checks: &mut Checks) -> Metrics {
    // Server, client and fleet workers share one CPU: every hand-off
    // between them then stays on that CPU, so the figures follow the speed
    // of the program, not how the shared host co-schedules this machine's
    // CPUs (on two CPUs the median hit and miss moved by a quarter or more
    // between runs of the same code).
    crate::util::pin_to_one_cpu().expect("pin the run to one CPU");
    let dir = run_dir();
    write_shipped(&dir, seed);
    let start = Instant::now();
    let metrics = if traced {
        let plain = round(&dir, seed, false, checks);
        layers::reset();
        let traced_round = round(&dir, seed, true, checks);
        checks.check(same_round(&plain, &traced_round), || {
            "traced round tuned different schedules than the untraced one".into()
        });
        println!(
            "trace overhead: tune_s {:.4} s traced vs {:.4} s untraced ({:+.4} s)",
            traced_round.tune_s,
            plain.tune_s,
            traced_round.tune_s - plain.tune_s
        );
        let mut metrics = per_layer(&traced_round);
        put(
            &mut metrics,
            "trace.overhead_s",
            traced_round.tune_s - plain.tune_s,
            "s",
        );
        metrics
    } else {
        let mut rounds: Vec<Round> = Vec::new();
        while rounds.len() < STARTS || secs(start) < seconds {
            let next = round(&dir, seed, false, checks);
            // A restarted server on the same cache file searches again and
            // must find the same schedules.
            if let Some(first) = rounds.first() {
                checks.check(same_round(first, &next), || {
                    "a restarted server tuned different schedules".into()
                });
            }
            rounds.push(next);
        }
        end_to_end(&rounds)
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench");
    metrics
}

/// The end-to-end metrics: medians over every start of the run.
fn end_to_end(rounds: &[Round]) -> Metrics {
    let all = |f: fn(&Round) -> &Vec<f64>| rounds.iter().flat_map(f).copied().collect::<Vec<_>>();
    let per_round = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
    let mut m = Metrics::new();
    put(&mut m, "setup_s", median(&per_round(|r| r.setup.total_s)), "s");
    put(&mut m, "tune_s", median(&per_round(|r| r.tune_s)), "s");
    put(&mut m, "tuned_ms_geomean", geomean(&rounds[0].tuned_ms), "ms");
    put(&mut m, "miss_p50_ms", median(&all(|r| &r.miss_s)) * 1e3, "ms");
    put(&mut m, "hit_p50_us", median(&all(|r| &r.hit_s)) * 1e6, "us");
    put(&mut m, "peak_rss_mb", crate::util::peak_rss_mb(), "MB");
    m
}

fn per_layer(round: &Round) -> Metrics {
    let mut m = crate::zero_layers();
    let hit_p50_us = median(&round.hit_s) * 1e6;
    let lookup_us = median(&round.lookup_s) * 1e6;
    let frame_us = median(&round.frame_s) * 1e6;
    put(
        &mut m,
        "autotune.tuned_ms.upmem",
        geomean(&round.tuned_ms),
        "ms",
    );
    put(&mut m, "core.measure_s", round.measure_jobs_s, "s");
    let measured: usize = round.replies.iter().map(|r| r.measured).sum();
    put(&mut m, "core.measured", measured as f64, "count");
    put(&mut m, "cache.open_s", round.setup.open_s, "s");
    put(&mut m, "cache.lookup_us", lookup_us, "us");
    put(
        &mut m,
        "cache.record_ms",
        median(&round.record_s) * 1e3,
        "ms",
    );
    put(&mut m, "wire.frame_us", frame_us, "us");
    put(
        &mut m,
        "serve.hit_overhead_us",
        hit_p50_us - lookup_us - frame_us,
        "us",
    );
    put(
        &mut m,
        "serve.hit_p99_us",
        quantile(&round.hit_s, 0.99) * 1e6,
        "us",
    );
    put(
        &mut m,
        "serve.hits_per_s",
        round.hit_s.len() as f64 / round.hits_wall_s,
        "1/s",
    );
    if let Some(stats) = &round.stats {
        put(&mut m, "serve.tunes_run", stats.tunes_run as f64, "count");
        put(
            &mut m,
            "serve.dedup_joins",
            stats.dedup_joins as f64,
            "count",
        );
        put(&mut m, "serve.cache_hits", stats.cache_hits as f64, "count");
    }
    put(&mut m, "fleet.spawn_s", round.setup.spawn_s, "s");
    put(&mut m, "fleet.measure_jobs_s", round.measure_jobs_s, "s");
    put(
        &mut m,
        "fleet.dispatch_overhead_s",
        round.dispatch_overhead_s,
        "s",
    );
    put(
        &mut m,
        "fleet.requeued",
        round.fleet.jobs_requeued as f64,
        "count",
    );
    put(
        &mut m,
        "fleet.reconnects",
        round.fleet.reconnects as f64,
        "count",
    );
    m
}
