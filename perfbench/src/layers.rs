//! The traced run: per-layer times, measured from outside each layer.
//!
//! For every cell (or point, or served job) of a workload, each layer's
//! public entry point is called once on the same inputs, on one thread,
//! so the isolated times never overlap. Every call sits in a span of the
//! benchmark's own [`Tracer`]; the span tree is written out at the end
//! as one `alloc-locality.trace` v1 file (`trace-tool chrome` renders
//! it). Nothing inside the program is instrumented.
//!
//! `core.run_s` is the layers run together, through `Experiment`;
//! `core.unattributed_s` is what remains of it after subtracting the
//! isolated times of the layers that run does: time no layer owns.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use alloc_locality::{AllocChoice, Experiment, JobSpec, RunReport, RunResult};
use allocators::{Allocator, Bsd, FirstFit, GnuGxx, Predictive, QuickFit};
use cache_sim::{CacheConfig, SweepCache};
use obs::{Recorder as _, TraceReport, Tracer};
use sim_mem::{
    AccessSink as _, Address, CacheLookup, HeapImage, InstrCounter, MemCtx, NullSink, Phase,
    RefRun, StreamCache,
};
use vm_sim::StackSim;
use workloads::{AppEvent, Program, Scale};

use crate::digest::{digest_bytes, result_digest, Expected};
use crate::inputs::{self, Cell};
use crate::metrics::{Metric, Outcome, PER_LAYER};
use crate::offline::{self, front_digest, Hook};
use crate::serve_open::{self, ServeLayers};
use crate::stats;

/// Layer totals over one traced pass.
#[derive(Debug, Default)]
struct Acc {
    synth_s: f64,
    events: u64,
    script_s: f64,
    ops: u64,
    drive_s: f64,
    run_s: f64,
    /// Sum of the isolated layer times the workload's runs consist of.
    attributed_s: f64,
    refs: u64,
    runs: u64,
    store_s: f64,
    stored_bytes: u64,
    stored_runs: u64,
    load_s: f64,
    loaded_refs: u64,
    sweep_s: f64,
    swept_refs: u64,
    sweep_fast: u64,
    pager_s: f64,
    paged_refs: u64,
    pager_fast: u64,
    distinct_pages: u64,
    point_s: Vec<f64>,
    pareto_s: f64,
    report_s: f64,
}

/// One traced pass: the tracer, the totals and the checks.
struct Pass<'a> {
    tracer: Tracer,
    acc: Acc,
    out: &'a mut Outcome,
    expected: Expected,
}

/// A malloc/free-only script: the workload's allocation calls with ids
/// resolved to dense slots, so replaying it needs no map.
enum Op {
    Malloc { slot: usize, size: u32, site: u32 },
    Free { slot: usize },
}

fn script_of(events: &[AppEvent]) -> (Vec<Op>, usize) {
    let mut slots: HashMap<u64, usize> = HashMap::new();
    let mut free: Vec<usize> = Vec::new();
    let mut next = 0;
    let mut ops = Vec::new();
    for event in events {
        match *event {
            AppEvent::Malloc { id, size, site } => {
                let slot = free.pop().unwrap_or_else(|| {
                    next += 1;
                    next - 1
                });
                slots.insert(id, slot);
                ops.push(Op::Malloc { slot, size, site });
            }
            AppEvent::Free { id } => {
                if let Some(slot) = slots.remove(&id) {
                    free.push(slot);
                    ops.push(Op::Free { slot });
                }
            }
            _ => {}
        }
    }
    (ops, next)
}

/// Builds the allocator a paper or tuned choice names, over `ctx`.
fn build(choice: &AllocChoice, ctx: &mut MemCtx<'_>) -> Result<Box<dyn Allocator>, String> {
    let built: Result<Box<dyn Allocator>, _> = match choice {
        AllocChoice::Paper(kind) => kind.build(ctx),
        AllocChoice::FirstFitTuned(c) => FirstFit::with_config(ctx, *c).map(|a| Box::new(a) as _),
        AllocChoice::GnuGxxTuned(c) => GnuGxx::with_config(ctx, *c).map(|a| Box::new(a) as _),
        AllocChoice::QuickFitTuned(c) => QuickFit::with_config(ctx, *c).map(|a| Box::new(a) as _),
        AllocChoice::BsdTuned(c) => Bsd::with_config(ctx, *c).map(|a| Box::new(a) as _),
        AllocChoice::PredictiveTuned(c) => {
            Predictive::with_config(ctx, *c).map(|a| Box::new(a) as _)
        }
        AllocChoice::Predictive => Predictive::new(ctx).map(|a| Box::new(a) as _),
        other => return Err(format!("no allocator script for {}", other.label())),
    };
    built.map_err(|e| format!("building {}: {e}", choice.label()))
}

impl Pass<'_> {
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.tracer.span_enter(name);
        let t = Instant::now();
        let value = f();
        let elapsed = t.elapsed().as_secs_f64();
        self.tracer.span_exit();
        (value, elapsed)
    }

    /// `workloads`: synthesizes a program's events.
    fn synth(&mut self, program: Program, scale: f64) -> Arc<Vec<AppEvent>> {
        let (events, s) = self
            .span("workloads.synth", || program.spec().events(Scale(scale)).collect::<Vec<_>>());
        self.acc.synth_s += s;
        self.acc.events += events.len() as u64;
        Arc::new(events)
    }

    /// `allocators`: every malloc and free of `events` through the
    /// chosen allocator, over a batching context into a `NullSink`.
    fn script(&mut self, events: &[AppEvent], choice: &AllocChoice) {
        let (ops, slots) = script_of(events);
        let (done, s) = self.span("allocators.script", || -> Result<(), String> {
            let mut heap = HeapImage::new();
            let mut sink = NullSink;
            let mut instrs = InstrCounter::new();
            let mut ctx = MemCtx::batched(&mut heap, &mut sink, &mut instrs);
            ctx.set_phase(Phase::Malloc);
            let mut allocator = build(choice, &mut ctx)?;
            let mut addrs = vec![Address::NULL; slots];
            for op in &ops {
                match *op {
                    Op::Malloc { slot, size, site } => {
                        ctx.set_phase(Phase::Malloc);
                        addrs[slot] =
                            allocator.malloc_at(size, site, &mut ctx).map_err(|e| e.to_string())?;
                    }
                    Op::Free { slot } => {
                        ctx.set_phase(Phase::Free);
                        allocator.free(addrs[slot], &mut ctx).map_err(|e| e.to_string())?;
                    }
                }
            }
            ctx.flush();
            std::hint::black_box(allocator.stats());
            Ok(())
        });
        self.acc.script_s += s;
        self.acc.ops += ops.len() as u64;
        self.out.attempted += 1;
        if let Err(e) = done {
            self.out.fail(format!("allocator script: {e}"));
        }
    }

    /// `core` capture alone (`capture_runs`): the workload through the
    /// allocator into a run collector, no sinks.
    fn drive(&mut self, exp: &Experiment) -> Option<Vec<RefRun>> {
        let (runs, s) = self.span("core.drive", || exp.capture_runs());
        self.acc.drive_s += s;
        self.out.attempted += 1;
        match runs {
            Ok(runs) => {
                self.acc.refs += runs.iter().map(|r| u64::from(r.count)).sum::<u64>();
                self.acc.runs += runs.len() as u64;
                Some(runs)
            }
            Err(e) => {
                self.out.fail(format!("capture_runs: {e}"));
                None
            }
        }
    }

    /// `cache-sim`: one single-pass sweep over a captured stream.
    fn sweep(&mut self, configs: &[CacheConfig], runs: &[RefRun]) -> f64 {
        let Some(mut sweep) = SweepCache::try_new(configs.iter().copied()) else { return 0.0 };
        let ((), s) = self.span("cache-sim.sweep", || {
            sweep.record_runs(runs);
            std::hint::black_box(sweep.results());
        });
        self.acc.sweep_s += s;
        self.acc.swept_refs += runs.iter().map(|r| u64::from(r.count)).sum::<u64>();
        self.acc.sweep_fast += sweep.fastpath_refs();
        s
    }

    /// `vm-sim`: the LRU stack pager over a captured stream.
    fn pager(&mut self, runs: &[RefRun]) -> f64 {
        let mut pager = StackSim::paper();
        let ((), s) = self.span("vm-sim.pager", || {
            pager.record_runs(runs);
            std::hint::black_box(pager.curve());
        });
        self.acc.pager_s += s;
        self.acc.paged_refs += runs.iter().map(|r| u64::from(r.count)).sum::<u64>();
        self.acc.pager_fast += pager.fastpath_refs();
        self.acc.distinct_pages += pager.distinct_pages();
        s
    }

    /// `sim-mem` stream codec, write side.
    fn store(&mut self, cache: &StreamCache, key: u64, sidecar: &[u8], runs: &[RefRun]) -> f64 {
        let (stored, s) = self.span("sim-mem.stream.store", || cache.store(key, sidecar, runs));
        self.acc.store_s += s;
        self.out.attempted += 1;
        match stored {
            Ok(()) => {
                self.acc.stored_bytes +=
                    std::fs::metadata(cache.path_for(key)).map_or(0, |m| m.len());
                self.acc.stored_runs += runs.len() as u64;
            }
            Err(e) => self.out.fail(format!("stream store: {e}")),
        }
        s
    }

    /// `sim-mem` stream codec, read side. The process-wide decode memo
    /// must not answer: callers order their loads so it never holds the
    /// key being loaded.
    fn load(
        &mut self,
        cache: &StreamCache,
        key: u64,
    ) -> (Option<Arc<sim_mem::DecodedStream>>, f64) {
        let (lookup, s) = self.span("sim-mem.stream.load", || cache.load(key));
        self.acc.load_s += s;
        self.out.attempted += 1;
        match lookup {
            CacheLookup::Hit { stream, memoized: false } => {
                self.acc.loaded_refs += stream.runs.iter().map(|r| u64::from(r.count)).sum::<u64>();
                (Some(stream), s)
            }
            CacheLookup::Hit { memoized: true, .. } => {
                self.out.fail("stream load answered from the decode memo, not the file");
                (None, s)
            }
            other => {
                self.out.fail(format!("stream load: {other:?}"));
                (None, s)
            }
        }
    }

    /// The layers together: one `Experiment::run`, checked.
    fn run(&mut self, exp: &Experiment, key: &str) -> Option<RunResult> {
        let (result, s) = self.span("core.run", || exp.run());
        self.acc.run_s += s;
        self.checked(result.map_err(|e| e.to_string()), key)
    }

    /// As [`Pass::run`], instrumented the way the sweep executor and
    /// the daemon run a job.
    fn run_report(&mut self, exp: &Experiment, key: &str) -> Option<RunReport> {
        let (result, s) = self.span("core.run", || exp.run_instrumented());
        self.acc.run_s += s;
        self.acc.point_s.push(s);
        let (result, metrics) = match result {
            Ok(pair) => pair,
            Err(e) => {
                self.out.attempted += 1;
                self.out.fail(format!("{key}: {e}"));
                return None;
            }
        };
        self.checked(Ok(result), key).map(|r| RunReport::new(r, metrics))
    }

    fn checked(&mut self, result: Result<RunResult, String>, key: &str) -> Option<RunResult> {
        self.out.attempted += 1;
        match result {
            Ok(r) => {
                self.out.check(self.expected.check(key, result_digest(&r)));
                Some(r)
            }
            Err(e) => {
                self.out.fail(format!("{key}: {e}"));
                None
            }
        }
    }
}

/// The `matrix-cold` cells, layer by layer.
fn matrix_pass(pass: &mut Pass, seed: u64, work: &Path) -> Result<(), String> {
    let mine = StreamCache::new(work.join("codec"));
    let engine_dir = work.join("engine");
    let _ = std::fs::remove_dir_all(&engine_dir);
    let opts = inputs::matrix_options(Some(&engine_dir));
    for cell in inputs::matrix_cells(seed, 0) {
        pass.tracer.span_enter("bench.cell");
        let exp = cell.experiment(&inputs::matrix_options(None));
        let events = pass.synth(cell.program, inputs::MATRIX_SCALE);
        pass.script(&events, &AllocChoice::Paper(cell.kind));
        if let Some(runs) = pass.drive(&exp) {
            let swept = pass.sweep(&opts.cache_configs, &runs);
            let paged = pass.pager(&runs);
            if let Some(result) = pass.run(&cell.experiment(&opts), &cell.key("matrix")) {
                let sidecar = serde_json::to_string(&result).expect("run results serialize");
                let key = digest_bytes(cell.key("codec").as_bytes());
                let stored = pass.store(&mine, key, sidecar.as_bytes(), &runs);
                let (decoded, _) = pass.load(&mine, key);
                if decoded.is_some_and(|d| {
                    sim_mem::stream::expand_runs(&d.runs) != sim_mem::stream::expand_runs(&runs)
                }) {
                    pass.out.check(Err(format!(
                        "{}: decoded stream differs from the stored one",
                        cell.key("codec")
                    )));
                }
                pass.acc.attributed_s += swept + paged + stored;
            }
        }
        pass.tracer.span_exit();
    }
    pass.acc.attributed_s += pass.acc.drive_s;
    std::fs::remove_dir_all(&engine_dir).map_err(|e| e.to_string())?;
    std::fs::remove_dir_all(mine.dir()).map_err(|e| e.to_string())?;
    Ok(())
}

/// The `resweep-warm` cells: populate one cell at a time (learning each
/// cell's stream file), then load + sweep every cell, then run every
/// cell warm. The phases keep the decode memo from ever holding the key
/// being loaded.
fn resweep_pass(pass: &mut Pass, seed: u64, work: &Path) -> Result<(), String> {
    let dir = work.join("streams");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = StreamCache::new(&dir);
    let populate = inputs::matrix_options(Some(&dir));
    let warm = inputs::resweep_options(Some(&dir));
    let cells = inputs::matrix_cells(seed, 0);
    let mut keys: Vec<(Cell, u64)> = Vec::new();
    for cell in &cells {
        let before = stream_keys(&dir);
        cell.experiment(&populate)
            .run()
            .map_err(|e| format!("populating {}: {e}", cell.key("matrix")))?;
        let new: Vec<u64> = stream_keys(&dir).into_iter().filter(|k| !before.contains(k)).collect();
        match new[..] {
            [key] => keys.push((*cell, key)),
            _ => {
                return Err(format!(
                    "populating {} stored {} streams",
                    cell.key("matrix"),
                    new.len()
                ))
            }
        }
    }
    for (_, key) in &keys {
        pass.tracer.span_enter("bench.cell");
        let (decoded, loaded) = pass.load(&cache, *key);
        if let Some(decoded) = decoded {
            pass.acc.refs += decoded.runs.iter().map(|r| u64::from(r.count)).sum::<u64>();
            pass.acc.runs += decoded.runs.len() as u64;
            let swept = pass.sweep(&warm.cache_configs, &decoded.runs);
            pass.acc.attributed_s += loaded + swept;
        }
        pass.tracer.span_exit();
    }
    for (cell, _) in &keys {
        pass.run(&cell.experiment(&warm), &cell.key("resweep"));
    }
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())
}

fn stream_keys(dir: &Path) -> Vec<u64> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            u64::from_str_radix(name.strip_suffix(".alsc")?, 16).ok()
        })
        .collect()
}

/// The `explore-sweep` points: one synthesis, then per point the
/// allocator script, the capture, the sweep and the instrumented run;
/// then the Pareto front and the report.
fn explore_pass(pass: &mut Pass, seed: u64) -> Result<(), String> {
    let spec = inputs::sweep_spec(seed, 0);
    let points = spec.points();
    let program = Program::FIVE
        .into_iter()
        .find(|p| p.label() == spec.program)
        .ok_or("unknown sweep program")?;
    let events = pass.synth(program, inputs::SWEEP_SCALE);
    let mut reports = Vec::with_capacity(points.len());
    for point in &points {
        pass.tracer.span_enter("bench.point");
        let choice = point.to_choice().map_err(|e| e.to_string())?;
        let opts = point.to_options().map_err(|e| e.to_string())?;
        let exp =
            Experiment::with_shared_events(program.label(), Arc::clone(&events), choice.clone())
                .options(opts.clone());
        pass.script(&events, &choice);
        if let Some(runs) = pass.drive(&exp) {
            let swept = pass.sweep(&opts.cache_configs, &runs);
            pass.acc.attributed_s += swept;
        }
        if let Some(report) = pass.run_report(&exp, &format!("explore/{}", point.job_id())) {
            reports.push(report);
        }
        pass.tracer.span_exit();
    }
    pass.acc.attributed_s += pass.acc.drive_s;
    if reports.len() != points.len() {
        return Ok(());
    }
    let objectives: Vec<explore::Objectives> = reports
        .iter()
        .map(|r| explore::Objectives::of(&r.result).ok_or("a point simulated no caches"))
        .collect::<Result<_, _>>()?;
    let (front, s) = pass.span("explore.pareto", || explore::pareto_front(&objectives));
    pass.acc.pareto_s = s;
    let ids: Vec<String> = front.iter().map(|&i| points[i].job_id()).collect();
    pass.out.attempted += 1;
    pass.out.check(pass.expected.check("explore/front", front_digest(&ids)));
    let (assembled, s) = pass.span("explore.report", || {
        explore::SweepReport::assemble(&spec, reports).map(|report| report.to_jsonl())
    });
    pass.acc.report_s = s;
    std::hint::black_box(assembled.map_err(|e| format!("assembling the sweep report: {e}"))?);
    Ok(())
}

/// The jobs a `serve-open` daemon executed, layer by layer in this
/// process.
fn serve_pass(pass: &mut Pass, executed: &[usize]) -> Result<(), String> {
    let pool = inputs::serve_pool();
    for &index in executed {
        let spec: &JobSpec = &pool[index];
        pass.tracer.span_enter("bench.job");
        let program = Program::FIVE
            .into_iter()
            .find(|p| p.label() == spec.program)
            .ok_or("unknown pool program")?;
        let choice = spec.to_choice().map_err(|e| e.to_string())?;
        let opts = spec.to_options().map_err(|e| e.to_string())?;
        let exp = spec.to_experiment().map_err(|e| e.to_string())?;
        let events = pass.synth(program, spec.scale);
        pass.script(&events, &choice);
        if let Some(runs) = pass.drive(&exp) {
            let swept = pass.sweep(&opts.cache_configs, &runs);
            pass.acc.attributed_s += swept;
        }
        pass.run_report(&exp, &format!("serve/{}", spec.job_id()));
        pass.tracer.span_exit();
    }
    pass.acc.attributed_s += pass.acc.drive_s;
    pass.acc.point_s.clear();
    Ok(())
}

/// Records one span per batch and a zero-length mark per finished job,
/// on every second batch after a warm-up: the batches in between are
/// the untraced comparison.
struct Alternating {
    tracer: Mutex<Tracer>,
    batch: std::sync::atomic::AtomicUsize,
}

impl Alternating {
    /// Batch 1 warms up; of the rest, odd batches are traced.
    fn on(&self) -> bool {
        let batch = self.batch.load(std::sync::atomic::Ordering::SeqCst);
        batch >= 3 && batch % 2 == 1
    }
}

impl Hook for Alternating {
    fn batch_start(&self) {
        self.batch.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        if self.on() {
            self.tracer.lock().expect("tracer lock").span_enter("bench.batch");
        }
    }
    fn job_done(&self) {
        if self.on() {
            let mut tracer = self.tracer.lock().expect("tracer lock");
            tracer.span_enter("bench.job_done");
            tracer.span_exit();
        }
    }
    fn batch_end(&self) {
        if self.on() {
            self.tracer.lock().expect("tracer lock").span_exit();
        }
    }
}

/// Offline batches of a traced run: a warm-up, then untraced and traced
/// batches alternately, two of each.
const TRACED_BATCHES: usize = 5;

/// The traced run of one workload: untraced and traced batches
/// alternately, then the layer pass. Returns the outcome (whose checks
/// and failures cover everything run) and the per-layer metrics.
///
/// # Errors
///
/// Describes set-up or I/O failures that stop the run.
pub fn traced(
    workload: &str,
    seed: u64,
    seconds: f64,
    work: &Path,
    serve_bin: &Path,
) -> Result<(Outcome, BTreeMap<String, Metric>), String> {
    let hook = Alternating { tracer: Mutex::new(Tracer::new()), batch: Default::default() };
    let mut traces: Vec<TraceReport> = Vec::new();
    let (mut out, walls, served) = match workload {
        "serve-open" => {
            let (out, layers) = serve_open::serve_open(
                seed,
                seconds,
                serve_open::ROUNDS + 1,
                work,
                serve_bin,
                true,
            )?;
            let mean = |w: &[f64]| w.iter().sum::<f64>() / w.len().max(1) as f64;
            let walls = (mean(&layers.untraced_walls), mean(&layers.traced_walls));
            (out, walls, Some(layers))
        }
        _ => {
            let out = match workload {
                "matrix-cold" => offline::matrix_cold(seed, 0.0, TRACED_BATCHES, work, &hook)?,
                "resweep-warm" => offline::resweep_warm(seed, 0.0, TRACED_BATCHES, work, &hook)?,
                "explore-sweep" => offline::explore_sweep(seed, 0.0, TRACED_BATCHES, work, &hook)?,
                other => return Err(format!("unknown workload {other:?}")),
            };
            // Wall 0 is the warm-up; odd walls are untraced, even traced.
            let pick = |first: usize| {
                let walls: Vec<f64> = out.walls.iter().skip(first).step_by(2).copied().collect();
                walls.iter().sum::<f64>() / walls.len().max(1) as f64
            };
            let walls = (pick(1), pick(2));
            (out, walls, None)
        }
    };
    let (_, batches) = hook
        .tracer
        .into_inner()
        .expect("tracer lock")
        .finish(format!("perfbench/{workload}/batches"));
    if !batches.spans.is_empty() {
        traces.push(batches);
    }

    let mut pass = Pass {
        tracer: Tracer::new(),
        acc: Acc::default(),
        out: &mut out,
        expected: Expected::committed(),
    };
    pass.tracer.span_enter("bench.layers");
    match (workload, &served) {
        ("matrix-cold", _) => matrix_pass(&mut pass, seed, work)?,
        ("resweep-warm", _) => resweep_pass(&mut pass, seed, work)?,
        ("explore-sweep", _) => explore_pass(&mut pass, seed)?,
        (_, Some(layers)) => serve_pass(&mut pass, &layers.executed)?,
        _ => unreachable!("workload matched above"),
    }
    pass.tracer.span_exit();
    let Pass { tracer, acc, .. } = pass;
    traces.push(tracer.finish(format!("perfbench/{workload}/layers")).1);
    if let Some(layers) = &served {
        traces.extend(layers.traces.iter().cloned());
    }
    write_trace(&traces, &work.join(format!("{workload}-seed{seed}.trace.jsonl")))?;
    Ok((out, per_layer(&acc, served.as_ref(), walls)))
}

fn write_trace(traces: &[TraceReport], path: &Path) -> Result<(), String> {
    let mut text = String::new();
    for trace in traces {
        trace.validate().map_err(|e| format!("trace {}: {e}", trace.trace_id))?;
        text.push_str(&trace.to_json_line());
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("# trace: {}", path.display());
    Ok(())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer(
    a: &Acc,
    served: Option<&ServeLayers>,
    (untraced, traced): (f64, f64),
) -> BTreeMap<String, Metric> {
    let ms = 1e3;
    let s = served.map(|l| {
        let p50 = |v: &[f64]| stats::median(v).unwrap_or(0.0) * ms;
        let p90 = |v: &[f64]| stats::tail(v, 90.0).map_or(0.0, |t| t.value) * ms;
        [
            p50(&l.submit_rtts),
            p90(&l.submit_rtts),
            p50(&l.poll_rtts),
            p50(&l.queue_waits),
            p90(&l.queue_waits),
            p50(&l.executes),
            p90(&l.executes),
            ratio(l.hits as f64, l.offered as f64),
            l.refused as f64,
            p90(&l.lags),
        ]
    });
    let s = s.unwrap_or_default();
    let unattributed = if a.run_s > 0.0 { a.run_s - a.attributed_s } else { 0.0 };
    // One value per `PER_LAYER` entry, in its order (the length is checked
    // at compile time).
    let values: [f64; PER_LAYER.len()] = [
        a.synth_s,
        a.events as f64,
        a.script_s,
        a.ops as f64,
        ratio(a.script_s * 1e9, a.ops as f64),
        a.drive_s,
        a.run_s,
        unattributed,
        ratio(unattributed, a.run_s),
        a.refs as f64,
        a.runs as f64,
        ratio(a.refs as f64, a.runs as f64),
        a.store_s,
        ratio(a.stored_bytes as f64, a.stored_runs as f64),
        a.load_s,
        ratio(a.loaded_refs as f64 / 1e6, a.load_s),
        a.sweep_s,
        ratio(a.swept_refs as f64 / 1e6, a.sweep_s),
        ratio(a.sweep_fast as f64, a.swept_refs as f64),
        a.pager_s,
        ratio(a.pager_fast as f64, a.paged_refs as f64),
        a.distinct_pages as f64,
        a.point_s.iter().fold(0.0, |sum, s| sum + s),
        stats::median(&a.point_s).unwrap_or(0.0) * ms,
        a.pareto_s,
        a.report_s,
        s[0],
        s[1],
        s[2],
        s[3],
        s[4],
        s[5],
        s[6],
        s[7],
        s[8],
        s[9],
        untraced,
        traced,
        ratio(traced - untraced, untraced),
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(m, value)| (m.name.to_string(), Metric { value, unit: m.unit }))
        .collect()
}
