//! `serve-open`: a fresh daemon per round under open-loop Poisson load.
//!
//! The daemon starts on a free port with its default caches; its set-up
//! time runs until `/healthz` answers. Arrivals are due on a fixed
//! schedule ([`crate::inputs::arrivals`]) whatever the daemon does, and
//! each job is timed from when it was *due* to the first response that
//! shows it done, so a stall delays every later job's measured latency.
//! A job that fails or misses its deadline still gives a latency sample,
//! at least the deadline, so a slower daemon can only raise the tail.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use alloc_locality::JobSpec;
use obs::{Recorder as _, TraceReport, Tracer};
use serve::client::Client;
use serve::{MetricsResponse, StatusResponse, SubmitResponse};

use crate::digest::{digest_bytes, result_section, Expected};
use crate::inputs::{self, Arrival};
use crate::metrics::Outcome;
use crate::rss;

/// A job not seen done within this long after it was due missed its
/// deadline and counts as failed. `perfbench capacity` measured the
/// daemon running the whole pool cold, back to back, in 0.46-0.72 s on
/// a 2-vCPU host. Each entry runs once a round, so no arrival order
/// makes a job wait longer than that; at about twice that, a job misses
/// only if the daemon's throughput has about halved.
pub const SERVE_LIMIT_S: f64 = 1.5;

/// How long before a deadline a generator thread stops sleeping and
/// spins.
const SPIN: Duration = Duration::from_micros(200);

/// How often an outstanding job is polled.
const POLL_EVERY: Duration = Duration::from_millis(2);

/// Rounds of one run, each against a fresh daemon. Eight rounds of a
/// 20 s run each last 2.5 s, so one run averages over eight arrival
/// orders.
pub const ROUNDS: u64 = 8;

/// Daemon starts timed for the set-up median besides one per round.
const EXTRA_STARTS: usize = 2;

/// The daemon's workers: all cores but one, which is left to the load
/// generator and the daemon's HTTP thread, so that a cache hit's latency
/// measures the daemon rather than its contention with running jobs.
pub fn serve_workers() -> usize {
    alloc_locality::default_threads().saturating_sub(1).max(1)
}

/// A running `serve` process, stopped and reaped on drop.
pub struct Daemon {
    child: Child,
    /// Held open so the daemon's exit message never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
    client: Client,
}

impl Daemon {
    /// Starts `bin` on a free loopback port and waits until `/healthz`
    /// answers; returns the daemon and how long that took, seconds.
    ///
    /// # Errors
    ///
    /// Describes a daemon that failed to start or never became healthy.
    pub fn start(bin: &Path, workers: usize) -> Result<(Daemon, f64), String> {
        let t = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout.read_line(&mut line).ok().and_then(|_| {
            line.split("http://").nth(1)?.split_whitespace().next()?.parse::<SocketAddr>().ok()
        });
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("daemon announced no address: {line:?}"));
        };
        let client = Client::new(addr).timeout(Duration::from_secs(10));
        let mut daemon = Daemon { child, _stdout: stdout, client };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match daemon.client.request("GET", "/healthz", None) {
                Ok(response) if response.status == 200 => {
                    return Ok((daemon, t.elapsed().as_secs_f64()))
                }
                _ if Instant::now() > deadline || !daemon.alive() => {
                    return Err("daemon never answered /healthz".into())
                }
                _ => std::thread::sleep(Duration::from_micros(200)),
            }
        }
    }

    /// A client for the daemon.
    pub fn client(&self) -> &Client {
        &self.client
    }

    /// True while the process has not exited.
    pub fn alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    /// The daemon's peak resident memory so far, MB.
    ///
    /// # Errors
    ///
    /// As [`rss::peak_rss_kib`].
    pub fn peak_rss_mb(&self) -> std::io::Result<f64> {
        Ok(rss::kib_to_mb(rss::peak_rss_kib(self.child.id())?))
    }

    /// Asks the daemon to drain and exit, and waits for it.
    ///
    /// # Errors
    ///
    /// Describes a daemon that refused or did not exit in time (it is
    /// then killed).
    pub fn shutdown(mut self) -> Result<(), String> {
        self.client.shutdown().map_err(|e| format!("POST /shutdown: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
        Err("daemon did not exit within 30 s of /shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.alive() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// What a submission answered.
#[derive(Debug, Clone, PartialEq)]
pub enum Submitted {
    /// Already done (a result-cache hit).
    Done(String),
    /// Accepted; poll this id.
    Pending(String),
    /// Refused with 429 or another 4xx/5xx status.
    Refused(String),
    /// Transport failure or a failed job.
    Failed(String),
}

/// What a poll answered.
#[derive(Debug, Clone, PartialEq)]
pub enum Polled {
    Done,
    Pending,
    Failed(String),
}

/// The service under load; a fake stands in for it in tests.
pub trait Target: Sync {
    /// Submits pool entry `spec`.
    fn submit(&self, spec: usize) -> Submitted;
    /// Polls job `id`.
    fn poll(&self, id: &str) -> Polled;
}

/// How one arrival went. Times are seconds from the run's start.
#[derive(Debug, Clone, Default)]
pub struct JobRecord {
    /// When the request was due.
    pub due: f64,
    /// When it was actually sent (its lag is `sent - due`).
    pub sent: f64,
    /// Round trip of the submission.
    pub submit_rtt: f64,
    /// When a response first showed it done; `None` if it never did.
    pub done: Option<f64>,
    /// When it was given up: refused, failed, or found past its
    /// deadline.
    pub gave_up: Option<f64>,
    /// The job id the daemon assigned.
    pub id: Option<String>,
    /// Why it failed, if it did.
    pub error: Option<String>,
    /// True when it was refused (429 or 4xx/5xx) rather than failed.
    pub refused: bool,
}

impl JobRecord {
    /// Due-to-done latency, seconds, for a job that finished.
    pub fn latency(&self) -> Option<f64> {
        self.done.map(|d| d - self.due)
    }

    /// The latency sample of a job that failed: from due to when it was
    /// given up (or done, for a wrong result), and at least `limit`. A
    /// failed job never reads as faster than one that made its deadline.
    pub fn failed_latency(&self, limit: f64) -> f64 {
        self.gave_up.or(self.done).map_or(limit, |t| t - self.due).max(limit)
    }
}

/// Everything one open-loop run observed.
#[derive(Debug, Default)]
pub struct LoadRun {
    /// One record per arrival, in arrival order.
    pub jobs: Vec<JobRecord>,
    /// Round trip of every poll, seconds.
    pub poll_rtts: Vec<f64>,
    /// From the start to the last job's completion, seconds.
    pub makespan: f64,
    /// One span tree per generator thread, when traced.
    pub traces: Vec<TraceReport>,
}

/// What one generator thread hands back: its records (with arrival
/// indices), its poll round trips and its span tree.
type ThreadPart = (Vec<(usize, JobRecord)>, Vec<f64>, Option<TraceReport>);

struct Pending {
    index: usize,
    id: String,
    next_poll: f64,
}

/// Drives `arrivals` against `target` from `threads` generator threads
/// (arrival i goes to thread i mod threads). A thread sends each of its
/// requests as soon as it is due, then polls its outstanding jobs every
/// [`POLL_EVERY`] until each is done, failed or `limit` past due.
pub fn run_open_loop(
    arrivals: &[Arrival],
    threads: usize,
    limit: f64,
    traced: bool,
    target: &dyn Target,
) -> LoadRun {
    let threads = threads.max(1);
    let start = Instant::now();
    let now = || start.elapsed().as_secs_f64();
    let mut jobs: Vec<JobRecord> = arrivals
        .iter()
        .map(|a| JobRecord { due: a.due.as_secs_f64(), ..JobRecord::default() })
        .collect();
    let mut run = LoadRun::default();
    let parts: Vec<ThreadPart> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mine: Vec<(usize, Arrival)> = arrivals
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|(i, _)| i % threads == t)
                    .collect();
                s.spawn(move || {
                    let mut tracer = traced.then(Tracer::new);
                    let mut span = |name: &'static str, enter: bool| {
                        if let Some(tr) = tracer.as_mut() {
                            if enter {
                                tr.span_enter(name);
                            } else {
                                tr.span_exit();
                            }
                        }
                    };
                    let mut records: Vec<(usize, JobRecord)> = Vec::with_capacity(mine.len());
                    let mut polls = Vec::new();
                    let mut outstanding: Vec<Pending> = Vec::new();
                    let mut next = 0;
                    loop {
                        while next < mine.len() && mine[next].1.due.as_secs_f64() <= now() {
                            let (index, arrival) = mine[next];
                            next += 1;
                            let mut rec = JobRecord {
                                due: arrival.due.as_secs_f64(),
                                sent: now(),
                                ..JobRecord::default()
                            };
                            span("loadgen.submit", true);
                            let answer = target.submit(arrival.spec);
                            span("loadgen.submit", false);
                            let at = now();
                            rec.submit_rtt = at - rec.sent;
                            match answer {
                                Submitted::Done(id) => {
                                    rec.id = Some(id);
                                    rec.done = Some(at);
                                }
                                Submitted::Pending(id) => {
                                    rec.id = Some(id.clone());
                                    outstanding.push(Pending {
                                        index: records.len(),
                                        id,
                                        next_poll: at,
                                    });
                                }
                                Submitted::Refused(why) => {
                                    rec.refused = true;
                                    rec.error = Some(why);
                                    rec.gave_up = Some(at);
                                }
                                Submitted::Failed(why) => {
                                    rec.error = Some(why);
                                    rec.gave_up = Some(at);
                                }
                            }
                            records.push((index, rec));
                        }
                        let t = now();
                        outstanding.retain_mut(|p| {
                            let rec = &mut records[p.index].1;
                            if t - rec.due > limit {
                                rec.error = Some(format!("missed the {limit} s deadline"));
                                rec.gave_up = Some(t);
                                return false;
                            }
                            if t < p.next_poll {
                                return true;
                            }
                            span("loadgen.poll", true);
                            let answer = target.poll(&p.id);
                            span("loadgen.poll", false);
                            let at = now();
                            polls.push(at - t);
                            p.next_poll = at + POLL_EVERY.as_secs_f64();
                            match answer {
                                Polled::Done => {
                                    rec.done = Some(at);
                                    false
                                }
                                Polled::Pending => true,
                                Polled::Failed(why) => {
                                    rec.error = Some(why);
                                    rec.gave_up = Some(at);
                                    false
                                }
                            }
                        });
                        if next == mine.len() && outstanding.is_empty() {
                            break;
                        }
                        let wake = outstanding
                            .iter()
                            .map(|p| p.next_poll)
                            .chain(mine.get(next).map(|(_, a)| a.due.as_secs_f64()))
                            .fold(f64::INFINITY, f64::min);
                        // Sleep until shortly before the next deadline and
                        // spin the rest: a sleep alone overshoots by the
                        // timer slack, which would read as generator lag.
                        let idle = wake - now() - SPIN.as_secs_f64();
                        if idle > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(idle));
                        }
                        while now() < wake {
                            std::hint::spin_loop();
                        }
                    }
                    let trace = tracer.map(|tr| tr.finish(format!("loadgen/thread-{t}")).1);
                    (records, polls, trace)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("generator thread panicked")).collect()
    });
    for (records, polls, trace) in parts {
        for (index, rec) in records {
            jobs[index] = rec;
        }
        run.poll_rtts.extend(polls);
        run.traces.extend(trace);
    }
    run.makespan = jobs.iter().map(|j| j.done.unwrap_or(j.sent + j.submit_rtt)).fold(0.0, f64::max);
    run.jobs = jobs;
    run
}

/// The daemon as a [`Target`]: pool entries pre-serialized once.
struct Http<'a> {
    client: &'a Client,
    bodies: Vec<String>,
}

impl<'a> Http<'a> {
    fn new(client: &'a Client, pool: &[JobSpec]) -> Http<'a> {
        let bodies =
            pool.iter().map(|s| serde_json::to_string(s).expect("job specs serialize")).collect();
        Http { client, bodies }
    }
}

impl Target for Http<'_> {
    fn submit(&self, spec: usize) -> Submitted {
        let response = match self.client.request("POST", "/jobs", Some(&self.bodies[spec])) {
            Ok(response) => response,
            Err(e) => return Submitted::Failed(format!("POST /jobs: {e}")),
        };
        if response.status != 200 && response.status != 202 {
            return Submitted::Refused(format!(
                "POST /jobs answered {}: {}",
                response.status, response.body
            ));
        }
        match response.json::<SubmitResponse>() {
            Ok(r) if r.status == "done" => Submitted::Done(r.id),
            Ok(r) if r.status == "failed" => Submitted::Failed(format!("job {} failed", r.id)),
            Ok(r) => Submitted::Pending(r.id),
            Err(e) => Submitted::Failed(e.to_string()),
        }
    }

    fn poll(&self, id: &str) -> Polled {
        match self.client.request("GET", &format!("/jobs/{id}"), None) {
            Ok(r) if r.status == 200 => match r.json::<StatusResponse>() {
                Ok(s) if s.status == "done" => Polled::Done,
                Ok(s) if s.status == "failed" => {
                    Polled::Failed(format!("job {id} failed: {:?}", s.error))
                }
                Ok(_) => Polled::Pending,
                Err(e) => Polled::Failed(e.to_string()),
            },
            Ok(r) => Polled::Failed(format!("GET /jobs/{id} answered {}", r.status)),
            Err(e) => Polled::Failed(format!("GET /jobs/{id}: {e}")),
        }
    }
}

/// `perfbench capacity`: what the daemon can serve of the `serve-open`
/// pool, the measurement [`inputs::SERVE_RATE`] and [`SERVE_LIMIT_S`]
/// are set from. Each of `rounds` fresh daemons is handed every pool
/// entry at once (its queue holds them all) and runs them cold, back to
/// back: a closed loop at saturation.
///
/// # Errors
///
/// Describes a daemon that could not be started or stopped, or a job
/// that failed.
pub fn capacity(bin: &Path, rounds: usize, seconds: f64) -> Result<String, String> {
    let workers = serve_workers();
    let pool = inputs::serve_pool();
    let all_at_once: Vec<Arrival> =
        (0..pool.len()).map(|spec| Arrival { due: Duration::ZERO, spec }).collect();
    let window = seconds / ROUNDS as f64;
    let mut text = format!(
        "# {} cold jobs per round, offered over {window:.2} s windows: {:.2} cold jobs/s\n",
        pool.len(),
        pool.len() as f64 / window
    );
    for round in 0..rounds {
        let (daemon, _) = Daemon::start(bin, workers)?;
        let run = run_open_loop(&all_at_once, 1, 600.0, false, &Http::new(daemon.client(), &pool));
        let mut executes = Vec::new();
        for job in &run.jobs {
            let id = match (&job.error, &job.id) {
                (None, Some(id)) => id,
                _ => return Err(format!("capacity job failed: {:?}", job.error)),
            };
            let status: StatusResponse = daemon
                .client()
                .request("GET", &format!("/jobs/{id}"), None)
                .and_then(|r| r.json())
                .map_err(|e| format!("GET /jobs/{id}: {e}"))?;
            executes.push(status.execute_ns.unwrap_or(0) as f64 / 1e9);
        }
        daemon.shutdown()?;
        let jobs_per_s = pool.len() as f64 / run.makespan;
        let busy = executes.iter().sum::<f64>() / workers as f64;
        text.push_str(&format!(
            "round {round}: {} jobs in {:.3} s closed-loop = {jobs_per_s:.2} jobs/s on {workers} \
             workers; execute p50 {:.1} ms, sum/workers {busy:.3} s; utilisation at the \
             offered load {:.2}\n",
            pool.len(),
            run.makespan,
            crate::stats::median(&executes).unwrap_or(0.0) * 1e3,
            pool.len() as f64 / window / jobs_per_s,
        ));
    }
    Ok(text)
}

/// Daemon-side figures of one served run, for the traced report.
#[derive(Debug, Default)]
pub struct ServeLayers {
    pub submit_rtts: Vec<f64>,
    pub poll_rtts: Vec<f64>,
    pub queue_waits: Vec<f64>,
    pub executes: Vec<f64>,
    pub lags: Vec<f64>,
    /// Submissions the result cache answered, and all submissions.
    pub hits: u64,
    pub offered: u64,
    pub refused: u64,
    /// Round makespans with and without request spans.
    pub untraced_walls: Vec<f64>,
    pub traced_walls: Vec<f64>,
    /// Distinct pool entries the daemon executed.
    pub executed: Vec<usize>,
    pub traces: Vec<TraceReport>,
}

/// One `serve-open` run: [`ROUNDS`] rounds, each against a fresh
/// daemon and each offering the whole mix over `seconds / ROUNDS`. The
/// end-to-end figures pool the rounds' jobs (latencies, goodput) or take
/// the median over rounds (wall time, peak memory). When `trace_odd` is
/// set, odd rounds record a span per request and `rounds` should
/// include untraced rounds to compare with.
///
/// # Errors
///
/// Describes a daemon that could not be started, scraped or stopped, or
/// a served file that could not be written.
pub fn serve_open(
    seed: u64,
    seconds: f64,
    rounds: u64,
    work: &Path,
    bin: &Path,
    trace_odd: bool,
) -> Result<(Outcome, ServeLayers), String> {
    let workers = serve_workers();
    let mut out = Outcome { limit: SERVE_LIMIT_S, ..Outcome::default() };
    for _ in 0..EXTRA_STARTS {
        let (daemon, ready) = Daemon::start(bin, workers)?;
        out.setup.push(ready);
        daemon.shutdown()?;
    }
    let mut layers = ServeLayers::default();
    let mut peaks = Vec::new();
    let window = Duration::from_secs_f64(seconds / ROUNDS as f64);
    for round in 0..rounds {
        let (daemon, ready) = Daemon::start(bin, workers)?;
        out.setup.push(ready);
        let traced = trace_odd && round % 2 == 1;
        peaks.push(serve_round(seed, round, window, daemon, traced, work, &mut out, &mut layers)?);
    }
    out.peak_rss_mb = crate::stats::median(&peaks).unwrap_or(0.0);
    layers.executed.sort_unstable();
    layers.executed.dedup();
    Ok((out, layers))
}

/// One round against `daemon`; returns the daemon's peak memory, MB (0
/// when it exited early and the round failed).
#[allow(clippy::too_many_arguments)]
fn serve_round(
    seed: u64,
    round: u64,
    window: Duration,
    mut daemon: Daemon,
    traced: bool,
    work: &Path,
    out: &mut Outcome,
    layers: &mut ServeLayers,
) -> Result<f64, String> {
    let expected = Expected::committed();
    let pool = inputs::serve_pool();
    let arrivals =
        inputs::arrivals(seed, round, inputs::SERVE_RATE, window, pool.len(), inputs::SERVE_ZIPF);
    let target = Http::new(daemon.client(), &pool);
    let run = run_open_loop(&arrivals, 1, SERVE_LIMIT_S, traced, &target);
    out.attempted += run.jobs.len() as u64;
    if !daemon.alive() {
        // Outstanding jobs can never finish, and the finished ones can no
        // longer be fetched and checked: the whole round failed.
        let mut jobs = run.jobs;
        for job in &mut jobs {
            job.error = Some(match job.done {
                Some(_) => "the daemon exited before the job's report was checked".into(),
                None => "the daemon exited before the job finished".into(),
            });
        }
        tally(&jobs, |_| true, SERVE_LIMIT_S, out);
        return Ok(0.0);
    }
    out.walls.push(run.makespan);

    let client = daemon.client().clone();
    let metrics: Option<MetricsResponse> = client
        .request("GET", "/metrics", None)
        .ok()
        .filter(|r| r.status == 200)
        .and_then(|r| r.json().ok());
    let peak = daemon.peak_rss_mb().map_err(|e| format!("daemon peak RSS: {e}"))?;

    // Fetch and check each distinct job's report once; record its
    // daemon-side queue wait and execution time.
    let mut served = String::new();
    let mut verdicts: HashMap<String, bool> = HashMap::new();
    for (job, arrival) in run.jobs.iter().zip(&arrivals) {
        let Some(id) = job.id.as_ref().filter(|_| job.done.is_some()) else { continue };
        if verdicts.contains_key(id) {
            continue;
        }
        let key = format!("serve/{}", pool[arrival.spec].job_id());
        let line = client.fetch_report(id).map_err(|e| e.to_string());
        let verdict = line.and_then(|line| {
            let section = result_section(&line).ok_or("served line has no result section")?;
            let digest = digest_bytes(section.as_bytes());
            served.push_str(line.trim_end());
            served.push('\n');
            if *id != pool[arrival.spec].job_id() {
                return Err(format!("{key}: daemon answered with job id {id}"));
            }
            expected.check(&key, digest)
        });
        if let Err(why) = &verdict {
            eprintln!("# WRONG RESULT: {why}");
            out.mismatches.push(why.clone());
        }
        verdicts.insert(id.clone(), verdict.is_ok());
        if let Ok(Ok(status)) =
            client.request("GET", &format!("/jobs/{id}"), None).map(|r| r.json::<StatusResponse>())
        {
            if let (Some(wait), Some(exec)) = (status.queue_wait_ns, status.execute_ns) {
                layers.queue_waits.push(wait as f64 / 1e9);
                layers.executes.push(exec as f64 / 1e9);
                layers.executed.push(arrival.spec);
            }
        }
    }
    let served_path = work.join("served.jsonl");
    std::fs::write(&served_path, &served)
        .map_err(|e| format!("writing {}: {e}", served_path.display()))?;
    out.disk_mb = served.len() as f64 / 1e6;
    daemon.shutdown()?;

    tally(
        &run.jobs,
        |job| job.id.as_ref().is_none_or(|id| verdicts.get(id).copied().unwrap_or(true)),
        SERVE_LIMIT_S,
        out,
    );
    for job in &run.jobs {
        layers.submit_rtts.push(job.submit_rtt);
        layers.lags.push(job.sent - job.due);
    }
    let refused = run.jobs.iter().filter(|j| j.refused).count() as u64;
    let (hits, rejected) =
        metrics.map_or((0, 0), |m| (m.cache_hits, m.rejected_backpressure + m.rejected_invalid));
    layers.hits += hits;
    layers.offered += run.jobs.len() as u64;
    layers.refused += refused.max(rejected);
    layers.poll_rtts.extend(run.poll_rtts);
    layers.traces.extend(run.traces);
    if traced {
        layers.traced_walls.push(run.makespan);
    } else {
        layers.untraced_walls.push(run.makespan);
    }
    Ok(peak)
}

/// Adds one latency sample per arrival to `out`. A job that finished
/// with a `right` result gives its due-to-done latency. Any other job
/// counts as failed and gives [`JobRecord::failed_latency`], so the
/// percentiles cover every arrival and a daemon that slows down until
/// jobs miss their deadline raises the tail rather than dropping it.
fn tally(jobs: &[JobRecord], right: impl Fn(&JobRecord) -> bool, limit: f64, out: &mut Outcome) {
    for job in jobs {
        match (&job.error, job.latency()) {
            // A wrong result was reported when it was checked.
            _ if !right(job) => out.failed += 1,
            (None, Some(latency)) => {
                out.latencies.push(latency);
                continue;
            }
            (Some(why), _) => out.fail(why),
            (None, None) => out.fail("never finished"),
        }
        out.given_up.push(job.failed_latency(limit));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers instantly, except that submitting entry 0 stalls.
    struct Stalling(Duration);

    impl Target for Stalling {
        fn submit(&self, spec: usize) -> Submitted {
            if spec == 0 {
                std::thread::sleep(self.0);
            }
            Submitted::Done(format!("job-{spec}"))
        }
        fn poll(&self, _id: &str) -> Polled {
            Polled::Done
        }
    }

    fn at(ms: u64, spec: usize) -> Arrival {
        Arrival { due: Duration::from_millis(ms), spec }
    }

    #[test]
    fn a_stall_raises_the_latency_of_later_requests() {
        let stall = Duration::from_millis(150);
        let arrivals = [at(0, 0), at(10, 1), at(20, 1)];
        let run = run_open_loop(&arrivals, 1, 10.0, false, &Stalling(stall));
        let latency: Vec<f64> = run.jobs.iter().map(|j| j.latency().expect("all finish")).collect();
        assert!(latency[0] >= 0.150);
        // Due at 10 ms and 20 ms but sent only after the stall ended:
        // their latency counts the wait from when they were due.
        assert!(latency[1] >= 0.140, "latency {latency:?}");
        assert!(latency[2] >= 0.130, "latency {latency:?}");
        assert!(run.jobs[1].sent - run.jobs[1].due >= 0.140);
        assert!(run.makespan >= 0.150);
    }

    /// Accepts everything; a job is done on its second poll, except
    /// entries from `.1` on, which never finish.
    struct Slow(std::sync::Mutex<std::collections::HashMap<String, u32>>, usize);

    impl Target for Slow {
        fn submit(&self, spec: usize) -> Submitted {
            Submitted::Pending(format!("job-{spec}"))
        }
        fn poll(&self, id: &str) -> Polled {
            let mut polls = self.0.lock().expect("poll counts");
            let n = polls.entry(id.to_string()).or_insert(0);
            *n += 1;
            let spec: usize = id.trim_start_matches("job-").parse().expect("a job-N id");
            if *n >= 2 && spec < self.1 {
                Polled::Done
            } else {
                Polled::Pending
            }
        }
    }

    #[test]
    fn polled_jobs_finish_and_late_ones_miss_the_deadline() {
        let arrivals = [at(0, 0), at(1, 1), at(2, 2)];
        let run = run_open_loop(&arrivals, 2, 0.05, true, &Slow(Default::default(), 2));
        assert!(run.jobs[0].latency().is_some() && run.jobs[1].latency().is_some());
        assert!(run.jobs[2].latency().is_none());
        assert!(run.jobs[2].error.as_deref().is_some_and(|e| e.contains("deadline")));
        assert!(run.jobs[2].gave_up.is_some_and(|t| t - run.jobs[2].due > 0.05));
        assert!(run.poll_rtts.len() >= 4);
        assert_eq!(run.traces.len(), 2);
    }

    #[test]
    fn missed_jobs_raise_the_tail_instead_of_leaving_the_sample() {
        let limit = 0.05;
        let arrivals: Vec<Arrival> = (0..30).map(|i| at(i, i as usize)).collect();
        let tail_when_stuck_from = |stuck: usize| {
            let run = run_open_loop(&arrivals, 2, limit, false, &Slow(Default::default(), stuck));
            let mut out = Outcome { limit, ..Outcome::default() };
            tally(&run.jobs, |_| true, limit, &mut out);
            assert_eq!(out.failed, 30 - stuck as u64);
            assert_eq!(out.latencies.len() + out.given_up.len(), 30);
            out.end_to_end()["job_p90_ms"].value
        };
        // Every job finishes within a few polls: the tail is milliseconds.
        let healthy = tail_when_stuck_from(30);
        assert!(healthy < limit * 1e3, "healthy tail {healthy} ms");
        // Eleven of the 30 jobs never finish. Dropping them would leave
        // a fast sample; counting them puts the tail past the deadline.
        let stuck = tail_when_stuck_from(19);
        assert!(stuck > limit * 1e3, "stuck tail {stuck} ms");
    }
}
