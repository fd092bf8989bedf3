//! The shipped schedule cache of `serve-fleet-cache`, made anew from a
//! seed: deterministic entries for keys the workload never requests.
//!
//! Every run writes it before its set-up (the write is not timed), and
//! `--make-cache PATH --seed N` writes the same file on its own.

use std::collections::HashSet;
use std::path::Path;

use atim_autotune::{CacheEntry, CacheKey, ScheduleCache, SpaceGenerator};
use atim_sim::UpmemConfig;
use atim_workloads::{Workload, WorkloadKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Entries in the shipped cache.  Opening it is most of the serve set-up
/// (about 0.2 s on a 2-core machine), large enough that its time holds
/// steady from run to run.
pub const ENTRIES: usize = 20_000;

/// Writes `entries` deterministic cache entries to `path` for the given
/// machine fingerprint and generator, none of whose keys is in `avoid`.
///
/// # Errors
/// Propagates the cache write failure.
pub fn write(
    path: &Path,
    seed: u64,
    entries: usize,
    machine: &str,
    generator: &dyn SpaceGenerator,
    avoid: &HashSet<(WorkloadKind, Vec<i64>)>,
) -> Result<(), String> {
    let hw = UpmemConfig::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_CAC4E);
    let mut cache = ScheduleCache::new();
    while cache.len() < entries {
        let kind = WorkloadKind::ALL[rng.gen_range(0..WorkloadKind::ALL.len())];
        let shape = random_shape(&mut rng, kind);
        if avoid.contains(&(kind, shape.clone())) {
            continue;
        }
        let Some(def) = Workload::new(kind, shape).try_compute_def() else {
            continue;
        };
        let with_rfactor = generator.supports_rfactor(&def) && rng.gen_bool(0.5);
        let trace = generator.sample(&mut rng, &def, &hw, with_rfactor);
        let latency_s = rng.gen_range(1e-5..1e-1);
        cache.insert(CacheEntry {
            key: CacheKey::new(&def, machine, generator.name()),
            trace,
            latency_s,
            seed,
        });
    }
    cache
        .save(path)
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn random_shape(rng: &mut StdRng, kind: WorkloadKind) -> Vec<i64> {
    let mut dim = |lo: i64, hi: i64| 16 * rng.gen_range(lo..hi);
    match kind.rank() {
        1 => vec![1024 * rng.gen_range(1..4096i64)],
        2 => vec![dim(1, 512), dim(1, 512)],
        3 => vec![dim(1, 32), dim(1, 64), dim(1, 64)],
        _ => vec![dim(1, 8), dim(1, 32), dim(1, 32), dim(1, 32)],
    }
}
