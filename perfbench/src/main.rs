//! `atim-perfbench` — the ATiM-RS benchmark.
//!
//! ```text
//! atim-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! atim-perfbench --make-cache PATH --seed N
//! ```
//!
//! Three workloads drive the program's public API from the outside:
//! `gptj-decode-sim`, `search-spaces-analytic` and `serve-fleet-cache` (see
//! `README.md`).  A run repeats whole rounds of its workload for `S`
//! seconds, checks every output, and prints one JSON line last: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.

mod cachegen;
mod layers;
mod serve;
mod tuning;
mod util;

use std::process::ExitCode;

use util::{put, result_line, Checks, Metrics};

/// The program's environment knobs.  Each changes what is measured (the
/// fleet workers inherit them too), so a run refuses to start while any is
/// set.
const KNOBS: [&str; 11] = [
    "ATIM_SCHEDULE_CACHE",
    "ATIM_SPACE_GENERATOR",
    "ATIM_COST_MODEL",
    "ATIM_MEASURE_THREADS",
    "ATIM_SIM_FASTPATH",
    "ATIM_FLEET_WORKERS",
    "ATIM_FLEET_FAULTS",
    "ATIM_FLEET_JOB_TIMEOUT_MS",
    "ATIM_FLEET_HEARTBEAT_MS",
    "ATIM_WORKER_DELAY_MS",
    "ATIM_TUNE_LOG",
];

/// Every per-layer metric with its unit.  A traced run reports all of
/// them; a layer a workload does not exercise reads 0.
const LAYERS: [(&str, &str); 36] = [
    ("autotune.search_s", "s"),
    ("autotune.sample_s", "s"),
    ("autotune.verify_us", "us"),
    ("autotune.rank_us", "us"),
    ("autotune.candidates", "count"),
    ("autotune.rejected", "count"),
    ("autotune.verify_yield", "ratio"),
    ("autotune.tuned_ms.upmem", "ms"),
    ("autotune.tuned_ms.tiled", "ms"),
    ("autotune.tuned_ms.hw-native", "ms"),
    ("core.measure_s", "s"),
    ("core.compile_us", "us"),
    ("sim.time_ms", "ms"),
    ("core.measured", "count"),
    ("core.failed", "count"),
    ("sim.h2d_ms", "ms"),
    ("sim.kernel_ms", "ms"),
    ("sim.d2h_ms", "ms"),
    ("sim.reduce_ms", "ms"),
    ("sim.exec_s", "s"),
    ("cache.open_s", "s"),
    ("cache.lookup_us", "us"),
    ("cache.record_ms", "ms"),
    ("wire.frame_us", "us"),
    ("serve.hit_overhead_us", "us"),
    ("serve.hit_p99_us", "us"),
    ("serve.hits_per_s", "1/s"),
    ("serve.tunes_run", "count"),
    ("serve.dedup_joins", "count"),
    ("serve.cache_hits", "count"),
    ("fleet.spawn_s", "s"),
    ("fleet.measure_jobs_s", "s"),
    ("fleet.dispatch_overhead_s", "s"),
    ("fleet.requeued", "count"),
    ("fleet.reconnects", "count"),
    ("trace.overhead_s", "s"),
];

/// Every per-layer metric at 0, to be overwritten by the ones a workload
/// measures.
pub fn zero_layers() -> Metrics {
    let mut m = Metrics::new();
    for (name, unit) in LAYERS {
        put(&mut m, name, 0.0, unit);
    }
    m
}

const WORKLOADS: [&str; 3] = [
    "gptj-decode-sim",
    "search-spaces-analytic",
    "serve-fleet-cache",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: atim-perfbench --workload {{{}}} --seed N --seconds S --trace 0|1\n       \
         atim-perfbench --make-cache PATH --seed N",
        WORKLOADS.join("|")
    )
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value {value:?} for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}\n{}", usage())),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}\n{}", args.workload, usage()));
    }
    Ok(args)
}

fn refuse_knobs() -> Result<(), String> {
    let set: Vec<&str> = KNOBS
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run: {} set in the environment; each changes what the program \
             measures (fleet workers inherit it too). Unset it and run again.",
            set.join(", ")
        ))
    }
}

fn make_cache(argv: &[String]) -> Result<(), String> {
    let (path, seed) = match argv {
        [path, flag, seed] if flag == "--seed" => (path, seed.parse::<u64>().map_err(|_| usage())?),
        _ => return Err(usage()),
    };
    let generator = atim_autotune::resolve_generator("upmem").ok_or("no upmem generator")?;
    let machine = atim_core::Backend::fingerprint(&atim_core::SimBackend::with_threads(
        atim_sim::UpmemConfig::default(),
        atim_core::CompileOptions::default(),
        1,
    ));
    cachegen::write(
        std::path::Path::new(path),
        seed,
        cachegen::ENTRIES,
        &machine,
        generator.as_ref(),
        &serve::requested_keys(seed),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(message) = refuse_knobs() {
        eprintln!("atim-perfbench: {message}");
        return ExitCode::from(2);
    }
    let outcome = match argv.first().map(String::as_str) {
        Some("--worker") => match argv.get(1) {
            Some(addr) => atim_core::fleet::worker_connect(addr),
            None => Err(usage()),
        },
        Some("--make-cache") => make_cache(&argv[1..]),
        _ => run(&argv),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("atim-perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = parse(argv)?;
    let mut checks = Checks::default();
    let metrics = match args.workload.as_str() {
        "gptj-decode-sim" => tuning::run(
            tuning::Kind::GptjDecodeSim,
            args.seed,
            args.seconds,
            args.trace,
            &mut checks,
        ),
        "search-spaces-analytic" => tuning::run(
            tuning::Kind::SearchSpacesAnalytic,
            args.seed,
            args.seconds,
            args.trace,
            &mut checks,
        ),
        _ => serve::run(args.seed, args.seconds, args.trace, &mut checks),
    };
    println!(
        "{}",
        result_line(checks.failed == checks.known, &checks, &metrics)
    );
    Ok(())
}
