//! The traced mode's instrumentation, built from the outside of the
//! program: a [`Backend`] and a [`SpaceGenerator`] that delegate to the real
//! ones and time every call, plus an in-memory span store.
//!
//! Spans stay in memory (one duration list per layer name) and are read
//! out once, at the end of a run.  The wrappers never touch the RNG or the
//! results they pass through, so a traced search takes exactly the steps of
//! an untraced one — the traced run checks that bit for bit.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use atim_autotune::{
    Cancellation, MeasureJob, MeasureOutcome, MeasureReport, SpaceGenerator, Trace,
};
use atim_core::{Backend, CompileOptions, CompiledModule, ExecutedRun};
use atim_sim::{ExecutionReport, UpmemConfig};
use atim_tir::compute::ComputeDef;
use atim_tir::error::Result as TirResult;
use rand::rngs::StdRng;

/// Per-layer span durations (seconds), keyed by layer name.
static SPANS: Mutex<Option<HashMap<&'static str, Vec<f64>>>> = Mutex::new(None);

/// Every candidate a traced generator handed to the search since the last
/// [`take_candidates`].
static CANDIDATES: Mutex<Vec<Trace>> = Mutex::new(Vec::new());

/// Every measurement job a traced backend received since the last
/// [`take_jobs`], with its workload.
static JOBS: Mutex<Vec<(MeasureJob, ComputeDef)>> = Mutex::new(Vec::new());

/// Records one span of `seconds` under `layer`.
pub fn record(layer: &'static str, seconds: f64) {
    SPANS
        .lock()
        .unwrap()
        .get_or_insert_with(HashMap::new)
        .entry(layer)
        .or_default()
        .push(seconds);
}

/// Runs `f` as one span of `layer`.
pub fn span<T>(layer: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = f();
    record(layer, start.elapsed().as_secs_f64());
    value
}

/// The recorded spans of one layer (empty when it never ran).
pub fn spans(layer: &str) -> Vec<f64> {
    SPANS
        .lock()
        .unwrap()
        .as_ref()
        .and_then(|m| m.get(layer).cloned())
        .unwrap_or_default()
}

/// Total seconds spent in one layer.
pub fn total(layer: &str) -> f64 {
    spans(layer).iter().sum()
}

/// Mean seconds per call of one layer (0 when it never ran).
pub fn mean(layer: &str) -> f64 {
    let s = spans(layer);
    if s.is_empty() {
        0.0
    } else {
        s.iter().sum::<f64>() / s.len() as f64
    }
}

/// Forgets every span (the traced round starts from an empty store).
pub fn reset() {
    *SPANS.lock().unwrap() = None;
    CANDIDATES.lock().unwrap().clear();
    JOBS.lock().unwrap().clear();
}

/// Takes the candidates generated since the last call.
pub fn take_candidates() -> Vec<Trace> {
    std::mem::take(&mut *CANDIDATES.lock().unwrap())
}

/// Takes the measurement jobs received since the last call.
pub fn take_jobs() -> Vec<(MeasureJob, ComputeDef)> {
    std::mem::take(&mut *JOBS.lock().unwrap())
}

/// How a [`TracedBackend`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    /// Measure each candidate through this wrapper's own `compile` and
    /// `time`, one at a time — the same steps as a one-thread
    /// [`atim_core::SimBackend`], with both layers timed.
    Split,
    /// Hand whole job batches to the inner backend (the analytic model's
    /// closed form, or the fleet's dispatch).
    Delegate,
}

/// A [`Backend`] that delegates to a real one and times its layers:
/// `core.measure` (every `measure_jobs` call), `core.compile` and
/// `sim.time`.
pub struct TracedBackend {
    inner: Arc<dyn Backend>,
    mode: Measure,
}

impl TracedBackend {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Backend>, mode: Measure) -> Self {
        TracedBackend { inner, mode }
    }
}

impl Backend for TracedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn hardware(&self) -> &UpmemConfig {
        self.inner.hardware()
    }

    fn fingerprint(&self) -> String {
        self.inner.fingerprint()
    }

    fn compile_options(&self) -> CompileOptions {
        self.inner.compile_options()
    }

    fn compile(&self, trace: &Trace, def: &ComputeDef) -> TirResult<CompiledModule> {
        span("core.compile", || self.inner.compile(trace, def))
    }

    fn time(&self, module: &CompiledModule) -> TirResult<ExecutionReport> {
        span("sim.time", || self.inner.time(module))
    }

    fn execute(&self, module: &CompiledModule, inputs: &[Vec<f32>]) -> TirResult<ExecutedRun> {
        self.inner.execute(module, inputs)
    }

    fn measure(&self, trace: &Trace, def: &ComputeDef) -> Option<f64> {
        match self.mode {
            Measure::Split => {
                let module = self.compile(trace, def).ok()?;
                self.time(&module).ok().map(|r| r.total_s())
            }
            Measure::Delegate => self.inner.measure(trace, def),
        }
    }

    fn measure_batch_cancellable(
        &self,
        traces: &[Trace],
        def: &ComputeDef,
        cancel: &Cancellation,
    ) -> Vec<MeasureOutcome> {
        if self.mode == Measure::Delegate {
            return self.inner.measure_batch_cancellable(traces, def, cancel);
        }
        // Duplicates within a batch are measured once, as the simulator
        // backend does.
        let mut seen: HashMap<&Trace, MeasureOutcome> = HashMap::new();
        traces
            .iter()
            .map(|trace| {
                if let Some(&outcome) = seen.get(trace) {
                    return outcome;
                }
                let outcome = if cancel.cancelled() {
                    MeasureOutcome::Skipped
                } else {
                    MeasureOutcome::from_result(self.measure(trace, def))
                };
                seen.insert(trace, outcome);
                outcome
            })
            .collect()
    }

    fn measure_jobs(
        &self,
        jobs: &[MeasureJob],
        def: &ComputeDef,
        cancel: &Cancellation,
    ) -> Vec<MeasureReport> {
        JOBS.lock()
            .unwrap()
            .extend(jobs.iter().map(|j| (j.clone(), def.clone())));
        span("core.measure", || match self.mode {
            Measure::Split => {
                let traces: Vec<Trace> = jobs.iter().map(|j| j.trace.clone()).collect();
                self.measure_batch_cancellable(&traces, def, cancel)
                    .into_iter()
                    .zip(jobs)
                    .map(|(outcome, job)| MeasureReport::new(job.id, outcome))
                    .collect()
            }
            Measure::Delegate => self.inner.measure_jobs(jobs, def, cancel),
        })
    }

    fn fleet_stats(&self) -> Option<atim_core::FleetStats> {
        self.inner.fleet_stats()
    }
}

/// A [`SpaceGenerator`] that delegates to a real one under the same name
/// and times `sample`, `mutate`, `crossover` and `materialize` (all under
/// `autotune.sample`), keeping every candidate it hands out.
pub struct TracedGenerator {
    inner: Arc<dyn SpaceGenerator>,
}

impl TracedGenerator {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn SpaceGenerator>) -> Self {
        TracedGenerator { inner }
    }

    fn candidate(trace: Trace) -> Trace {
        CANDIDATES.lock().unwrap().push(trace.clone());
        trace
    }
}

impl SpaceGenerator for TracedGenerator {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn sketches(&self, def: &ComputeDef, hw: &UpmemConfig) -> Vec<Trace> {
        self.inner.sketches(def, hw)
    }

    fn sample(
        &self,
        rng: &mut StdRng,
        def: &ComputeDef,
        hw: &UpmemConfig,
        with_rfactor: bool,
    ) -> Trace {
        Self::candidate(span("autotune.sample", || {
            self.inner.sample(rng, def, hw, with_rfactor)
        }))
    }

    fn mutate(&self, rng: &mut StdRng, def: &ComputeDef, hw: &UpmemConfig, base: &Trace) -> Trace {
        Self::candidate(span("autotune.sample", || {
            self.inner.mutate(rng, def, hw, base)
        }))
    }

    fn materialize(&self, trace: &Trace, def: &ComputeDef, hw: &UpmemConfig) -> TirResult<Trace> {
        span("autotune.sample", || self.inner.materialize(trace, def, hw))
    }

    fn supports_rfactor(&self, def: &ComputeDef) -> bool {
        self.inner.supports_rfactor(def)
    }

    fn crossover(
        &self,
        rng: &mut StdRng,
        def: &ComputeDef,
        hw: &UpmemConfig,
        a: &Trace,
        b: &Trace,
    ) -> Trace {
        Self::candidate(span("autotune.sample", || {
            self.inner.crossover(rng, def, hw, a, b)
        }))
    }
}

/// The distinct traces of a candidate list, in first-occurrence order.
pub fn distinct(candidates: Vec<Trace>) -> Vec<Trace> {
    let mut seen = HashSet::new();
    candidates
        .into_iter()
        .filter(|t| seen.insert(t.clone()))
        .collect()
}
