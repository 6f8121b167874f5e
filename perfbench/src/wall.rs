//! The wall-clock workloads: a one-replica `ReplicaPool` driven from
//! outside through `PoolClient`, in a closed loop (`dense-closed`) or on an
//! open-loop arrival schedule (`sysmt2-open`). Every response is compared
//! with its input's reference, and every latency is the benchmark's own
//! sample.

use std::collections::VecDeque;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use nbsmt_serve::queue::{Cancelled, ResponseHandle};
use nbsmt_serve::{
    AdaptivePolicy, PoolClient, PoolConfig, PoolSnapshot, ReplicaPool, RequestResult, RoutePolicy,
    SchedulerConfig, ServeError, Session, SmtConfig, SubmitError, TraceRecorder, TrafficModel,
};

use crate::fixture::{exec_config, RequestPool};
use crate::host::{self, CpuTicks};
use crate::report::{Better, Report};
use crate::stats::{median, slow_cost, slow_rate, sorted_quantile};

/// Inputs in each wall-clock workload's request pool.
pub const POOL_INPUTS: usize = 256;
/// Requests the closed loop keeps outstanding: two full batches.
const OUTSTANDING: usize = 16;
/// Fixed offered rate of the open loop, never derived from a capacity
/// measured per run. It keeps the 2T replica about 40% busy: at 1,500 rps
/// (about 55% busy) the median latency doubled whenever the host stole a
/// quarter of the VM's time, at 1,000 rps it rose by half.
const OPEN_RATE_RPS: u64 = 1_000;
/// Queue bound of the open loop. The default 64 sheds whenever the host
/// stalls the replica for more than 64 ms, which hypervisor steal does on a
/// 2-vCPU VM; 256 rides out a quarter of a second.
const OPEN_QUEUE: usize = 256;
/// How much more steal than the calmest window a window may have to count
/// towards the open loop's p50 (see [`calmest`]).
const CALM_MARGIN: f64 = 0.03;
/// Length of one measurement window.
const WINDOW: Duration = Duration::from_millis(500);
/// Load run and discarded before the measured windows start.
pub const WARMUP: Duration = Duration::from_secs(2);
/// Upper bound on the closed loop's rate, used only to size the sample
/// buffers, which are made resident before the measured phase (see
/// [`resident`]). The closed loop has run at up to 16,000 rps on an idle
/// host; a run past this bound reallocates, and `peak_rss_mb` steps up.
const MAX_CLOSED_RPS: usize = 40_000;
/// The name the pool gives its only replica worker thread.
const WORKER_THREAD: &str = "nbsmt-pool-0";

/// A wall-clock workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wall {
    DenseClosed,
    Sysmt2Open,
}

impl Wall {
    pub fn name(self) -> &'static str {
        match self {
            Wall::DenseClosed => "dense-closed",
            Wall::Sysmt2Open => "sysmt2-open",
        }
    }

    pub fn smt(self) -> SmtConfig {
        match self {
            Wall::DenseClosed => SmtConfig::Dense,
            Wall::Sysmt2Open => SmtConfig::sysmt_2t(),
        }
    }

    fn scheduler(self) -> SchedulerConfig {
        match self {
            Wall::DenseClosed => SchedulerConfig::default(),
            Wall::Sysmt2Open => SchedulerConfig {
                queue_capacity: OPEN_QUEUE,
                ..SchedulerConfig::default()
            },
        }
    }

    /// The most requests one measured second can plausibly complete.
    fn max_per_second(self) -> usize {
        match self {
            Wall::DenseClosed => MAX_CLOSED_RPS,
            Wall::Sysmt2Open => 2 * OPEN_RATE_RPS as usize,
        }
    }

    fn is_open(self) -> bool {
        self == Wall::Sysmt2Open
    }
}

/// How long a phase loads the pool, and whether it traces.
pub struct Phase {
    pub warmup: Duration,
    /// Length of the measured phase, in windows of [`WINDOW`].
    pub windows: usize,
    pub recorder: Option<Arc<TraceRecorder>>,
}

/// Counters read at one window boundary.
#[derive(Debug, Clone, Copy)]
struct Mark {
    at: Instant,
    completions: u64,
    cpu_ns: u64,
    worker_cpu_ns: u64,
    ticks: CpuTicks,
    /// Latency samples recorded before the mark.
    samples: usize,
}

/// Window boundaries of the measured phase, closed by the thread that
/// observes completions.
struct Marks {
    marks: Vec<Mark>,
    next: Instant,
    windows: usize,
    completions: u64,
    worker: Option<String>,
}

impl Marks {
    fn new(measure_start: Instant, windows: usize, worker: Option<String>) -> Marks {
        Marks {
            marks: Vec::with_capacity(windows + 1),
            next: measure_start,
            windows,
            completions: 0,
            worker,
        }
    }

    /// Closes the current window if `now` has passed its end; `samples` is
    /// the number of latency samples recorded so far.
    fn tick(&mut self, now: Instant, samples: usize) {
        if self.marks.len() <= self.windows && now >= self.next {
            self.marks.push(Mark {
                at: now,
                completions: self.completions,
                cpu_ns: host::process_cpu_ns(),
                worker_cpu_ns: self.worker.as_deref().map_or(0, host::named_thread_cpu_ns),
                ticks: CpuTicks::now(),
                samples,
            });
            self.next += WINDOW;
        }
    }

    /// Counts one completion observed at `now`, before its latency sample
    /// is recorded.
    fn complete(&mut self, now: Instant, samples: usize) {
        self.tick(now, samples);
        self.completions += 1;
    }
}

/// One measured window.
#[derive(Debug, Clone, Copy)]
struct Window {
    /// The time the window's completion rate is over [s] (see
    /// [`PhaseOutcome::windows`]).
    span_s: f64,
    completions: u64,
    cpu_ns: u64,
    /// Exact median latency of the requests completed in the window [ms].
    p50_ms: f64,
    /// Share of the VM's CPU time the hypervisor stole in the window.
    steal: f64,
}

/// Start and end instants of one phase's schedule.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    origin: Instant,
    measure_start: Instant,
    end: Instant,
}

/// Per-request accounting of the measured phase.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    served: u64,
    shed: u64,
    wrong: u64,
    /// Wrong outputs or errors during the warm-up.
    warmup_wrong: u64,
    /// Latency of each served request in completion order [ms]; sorted
    /// once the phase ends (see [`PhaseOutcome::new`]).
    latency_ms: Vec<f32>,
    submit_us: Vec<f32>,
    late_ms: Vec<f32>,
    loadgen_cpu_ns: u64,
}

/// An empty buffer with room for `capacity` samples, each written once so
/// that its pages are resident before the measured phase. Filling it then
/// changes neither the process's memory nor `peak_rss_mb` with the number
/// of requests a run completes.
fn resident(capacity: usize) -> Vec<f32> {
    let mut samples = vec![f32::NAN; capacity];
    samples.clear();
    samples
}

impl Tally {
    fn new(workload: Wall, samples: usize) -> Tally {
        Tally {
            latency_ms: resident(samples),
            submit_us: resident(samples),
            late_ms: resident(if workload.is_open() { samples } else { 0 }),
            ..Tally::default()
        }
    }

    fn response(
        &mut self,
        requests: &RequestPool,
        index: usize,
        measured: bool,
        result: Result<RequestResult, Cancelled>,
        latency: Duration,
    ) {
        let ok = matches!(&result, Ok(Ok(inference)) if requests.matches(index, inference));
        match (measured, ok) {
            (true, true) => {
                self.served += 1;
                self.latency_ms.push((latency.as_secs_f64() * 1e3) as f32);
            }
            (true, false) => self.wrong += 1,
            (false, true) => {}
            (false, false) => self.warmup_wrong += 1,
        }
    }
}

/// Everything one phase measured.
pub struct PhaseOutcome {
    workload: Wall,
    tally: Tally,
    marks: Vec<Mark>,
    /// Exact median latency of the requests completed in each window [ms].
    window_p50_ms: Vec<f64>,
    pub snapshot: PoolSnapshot,
}

impl PhaseOutcome {
    /// Takes each window's median latency, then sorts every sample buffer
    /// in place for the quantile queries; nothing is copied, so the
    /// analysis adds no memory that grows with the run's requests.
    fn new(workload: Wall, mut tally: Tally, marks: Vec<Mark>, snapshot: PoolSnapshot) -> Self {
        let window_p50_ms = marks
            .windows(2)
            .map(|w| {
                let window = &mut tally.latency_ms[w[0].samples..w[1].samples];
                window.sort_by(f32::total_cmp);
                sorted_quantile(window, 0.5)
            })
            .collect();
        for samples in [
            &mut tally.latency_ms,
            &mut tally.submit_us,
            &mut tally.late_ms,
        ] {
            samples.sort_by(f32::total_cmp);
        }
        PhaseOutcome {
            workload,
            tally,
            marks,
            window_p50_ms,
            snapshot,
        }
    }

    /// The measured windows. The open loop's arrivals set its rate, so its
    /// span is the window's wall time. The closed loop's replica is never
    /// idle, so time the hypervisor stole from the VM is time in which it
    /// could not serve: its span is the window's wall time less the
    /// CPU-seconds stolen in it, which on this workload fall on the
    /// replica's CPU. Steal on a 2-vCPU VM varies from a few to over thirty
    /// percent of that CPU between runs, and moves the closed loop's
    /// completions per wall second with it; the program's own speed does
    /// not change.
    fn windows(&self) -> Vec<Window> {
        self.marks
            .windows(2)
            .zip(&self.window_p50_ms)
            .map(|(w, &p50_ms)| {
                let wall_s = (w[1].at - w[0].at).as_secs_f64();
                let span_s = if self.workload.is_open() {
                    wall_s
                } else {
                    wall_s - w[1].ticks.stolen_s_since(&w[0].ticks, wall_s)
                };
                Window {
                    span_s,
                    completions: w[1].completions - w[0].completions,
                    cpu_ns: w[1].cpu_ns - w[0].cpu_ns,
                    p50_ms,
                    steal: w[1].ticks.steal_frac_since(&w[0].ticks),
                }
            })
            .filter(|w| w.span_s > WINDOW.as_secs_f64() / 4.0 && w.completions > 0)
            .collect()
    }

    fn first_last(&self) -> (Mark, Mark) {
        let first = *self.marks.first().expect("the measured phase has marks");
        let last = *self.marks.last().expect("the measured phase has marks");
        (first, last)
    }

    /// Start and end of the measured phase.
    pub fn measured_span(&self) -> (Instant, Instant) {
        let (first, last) = self.first_last();
        (first.at, last.at)
    }

    /// Completions observed in the measured phase.
    fn completions(&self) -> u64 {
        let (first, last) = self.first_last();
        last.completions - first.completions
    }

    /// Process CPU per completion over the whole measured phase [µs].
    pub fn cpu_us_per_req(&self) -> f64 {
        let (first, last) = self.first_last();
        (last.cpu_ns - first.cpu_ns) as f64 / 1e3 / self.completions().max(1) as f64
    }

    fn steal_frac(&self) -> f64 {
        let (first, last) = self.first_last();
        last.ticks.steal_frac_since(&first.ticks)
    }

    pub fn attempted(&self) -> u64 {
        self.tally.attempted
    }

    /// Requests that were shed, failed, or answered wrongly.
    pub fn failed(&self) -> u64 {
        self.tally.shed + self.tally.wrong
    }

    /// True when every response, warm-up included, matched its reference.
    pub fn all_correct(&self) -> bool {
        self.tally.wrong == 0 && self.tally.warmup_wrong == 0
    }

    /// Exact latency quantile over every measured request [ms].
    pub fn latency_ms(&self, q: f64) -> f64 {
        sorted_quantile(&self.tally.latency_ms, q)
    }

    pub fn latency_samples(&self) -> usize {
        self.tally.latency_ms.len()
    }

    /// Adds this workload's end-to-end metrics to `report`, each taken over
    /// the windows' completion rates, CPU per request and exact median
    /// latencies. Every window of the closed loop measures the host's speed
    /// at that moment, so its figures are the slow end of the windows (see
    /// [`crate::stats::SLOW_END`]). The open loop's windows vary with the
    /// arrivals each one happens to hold, so its figures are medians: CPU
    /// per request over every window, p50 over the calm ones (see
    /// [`calmest`]), because a stolen stretch stalls the replica while
    /// requests keep arriving. Its throughput is the arrivals' rate: the
    /// completions over the whole measured phase per wall second.
    pub fn end_to_end(&self, report: &mut Report) {
        let windows = self.windows();
        let mut cpu: Vec<f64> = windows
            .iter()
            .map(|w| w.cpu_ns as f64 / 1e3 / w.completions as f64)
            .collect();
        let (throughput, p50_ms, cpu_us) = if self.workload.is_open() {
            let (from, to) = self.measured_span();
            let mut calm_p50: Vec<f64> = calmest(windows).iter().map(|w| w.p50_ms).collect();
            (
                self.completions() as f64 / (to - from).as_secs_f64(),
                median(&mut calm_p50),
                median(&mut cpu),
            )
        } else {
            let mut rates: Vec<f64> = windows
                .iter()
                .map(|w| w.completions as f64 / w.span_s)
                .collect();
            let mut p50: Vec<f64> = windows.iter().map(|w| w.p50_ms).collect();
            (
                slow_rate(&mut rates),
                slow_cost(&mut p50),
                slow_cost(&mut cpu),
            )
        };
        report.metric("throughput_rps", throughput, "1/s", Better::Higher);
        report.metric("p50_ms", p50_ms, "ms", Better::Lower);
        report.metric("cpu_us_per_req", cpu_us, "us", Better::Lower);
        report.metric(
            "served_frac",
            self.tally.served as f64 / self.tally.attempted.max(1) as f64,
            "fraction",
            Better::Higher,
        );
        report.note("host.steal_frac", self.steal_frac(), "fraction");
        report.note("latency_p99_ms", self.latency_ms(0.99), "ms");
        report.note("latency_samples", self.latency_samples() as f64, "count");
        if !self.tally.late_ms.is_empty() {
            report.note("loadgen.late_ms_p99", self.late_ms_p99(), "ms");
        }
        report.attempted += self.attempted();
        report.failed += self.failed();
        if !self.all_correct() {
            report.fail_check("a served response differs from its reference");
        }
    }

    /// Median wall time of one `PoolClient::submit` call [µs].
    pub fn submit_us_p50(&self) -> f64 {
        sorted_quantile(&self.tally.submit_us, 0.5)
    }

    /// 99th percentile of how late the open-loop generator sent [ms].
    pub fn late_ms_p99(&self) -> f64 {
        sorted_quantile(&self.tally.late_ms, 0.99)
    }

    /// CPU of the load-generator threads per completion [µs].
    pub fn loadgen_cpu_us_per_req(&self) -> f64 {
        self.tally.loadgen_cpu_ns as f64 / 1e3 / self.completions().max(1) as f64
    }

    /// CPU of the replica worker thread per completion [µs].
    pub fn worker_cpu_us_per_req(&self) -> f64 {
        let (first, last) = self.first_last();
        (last.worker_cpu_ns - first.worker_cpu_ns) as f64 / 1e3 / self.completions().max(1) as f64
    }
}

/// Windows in `seconds` of measurement.
pub fn windows_in(seconds: u64) -> usize {
    (Duration::from_secs(seconds).as_nanos() / WINDOW.as_nanos()) as usize
}

/// Keeps the windows that lost at most [`CALM_MARGIN`] more of the VM's
/// time to hypervisor steal than the calmest one, and at least the calmest
/// tenth. Without steal every window is kept.
fn calmest(mut windows: Vec<Window>) -> Vec<Window> {
    windows.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let ceiling = windows.first().map_or(0.0, |w| w.steal + CALM_MARGIN);
    let calm = windows.iter().filter(|w| w.steal <= ceiling).count();
    windows.truncate(calm.max(windows.len().div_ceil(10)));
    windows
}

/// Runs one phase of `workload` on a fresh pool over `session`.
pub fn run_phase(
    workload: Wall,
    session: Arc<Session>,
    requests: &RequestPool,
    seed: u64,
    phase: &Phase,
) -> Result<PhaseOutcome, ServeError> {
    let config = PoolConfig {
        replicas: 1,
        route: RoutePolicy::RoundRobin,
        scheduler: workload.scheduler(),
        adaptive: AdaptivePolicy::pinned(),
    };
    let mut pool = ReplicaPool::start_paused(vec![session], config, exec_config(), false)?;
    if let Some(recorder) = &phase.recorder {
        pool.set_recorder(Arc::clone(recorder));
    }
    pool.resume();
    let worker = find_worker();
    let client = pool.client();
    let origin = Instant::now();
    let measure_start = origin + phase.warmup;
    let schedule = Schedule {
        origin,
        measure_start,
        end: measure_start + WINDOW * phase.windows as u32,
    };
    let mut marks = Marks::new(measure_start, phase.windows, worker);
    let seconds = (WINDOW * phase.windows as u32).as_secs_f64().ceil() as usize;
    let mut tally = Tally::new(workload, seconds * workload.max_per_second());
    match workload {
        Wall::DenseClosed => closed_loop(&client, requests, &schedule, &mut marks, &mut tally),
        Wall::Sysmt2Open => open_loop(&client, requests, seed, &schedule, &mut marks, &mut tally),
    }
    let snapshot = pool.shutdown();
    if marks.marks.len() < 2 {
        return Err(ServeError::BadRequest(
            "the measured phase closed no window".into(),
        ));
    }
    Ok(PhaseOutcome::new(workload, tally, marks.marks, snapshot))
}

/// The worker names itself as it starts, so wait briefly for it.
fn find_worker() -> Option<String> {
    for _ in 0..200 {
        if let Some(path) = host::find_thread(WORKER_THREAD) {
            return Some(path);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    None
}

struct InFlight {
    handle: ResponseHandle<RequestResult>,
    start: Instant,
    index: usize,
    measured: bool,
}

/// One client thread keeps [`OUTSTANDING`] requests in flight with zero
/// think time; each latency runs from just before `submit`.
fn closed_loop(
    client: &PoolClient,
    requests: &RequestPool,
    schedule: &Schedule,
    marks: &mut Marks,
    tally: &mut Tally,
) {
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(OUTSTANDING);
    let mut key = 0u64;
    let mut cpu_start = None;
    let mut cpu_end = None;
    loop {
        while inflight.len() < OUTSTANDING {
            let start = Instant::now();
            if start >= schedule.end {
                cpu_end.get_or_insert_with(host::thread_cpu_ns);
                break;
            }
            let measured = start >= schedule.measure_start;
            if measured {
                cpu_start.get_or_insert_with(host::thread_cpu_ns);
            }
            let index = requests.index(key);
            let result = client.submit(key, requests.inputs[index].clone());
            key += 1;
            if measured {
                tally.attempted += 1;
                tally
                    .submit_us
                    .push((start.elapsed().as_secs_f64() * 1e6) as f32);
            }
            match result {
                Ok(handle) => inflight.push_back(InFlight {
                    handle,
                    start,
                    index,
                    measured,
                }),
                Err(_) if measured => tally.shed += 1,
                Err(_) => {}
            }
        }
        let Some(request) = inflight.pop_front() else {
            break;
        };
        let result = request.handle.wait();
        let done = Instant::now();
        marks.complete(done, tally.latency_ms.len());
        tally.response(
            requests,
            request.index,
            request.measured,
            result,
            done - request.start,
        );
    }
    marks.tick(Instant::now(), tally.latency_ms.len());
    if let (Some(start), Some(end)) = (cpu_start, cpu_end) {
        tally.loadgen_cpu_ns = end - start;
    }
}

/// A submission handed from the generator to the collector.
struct Sent {
    due: Instant,
    sent: Instant,
    submit_us: f32,
    index: usize,
    measured: bool,
    result: Result<ResponseHandle<RequestResult>, SubmitError>,
}

/// Seeded Poisson arrivals at [`OPEN_RATE_RPS`]: one thread sends each
/// request at its due time, this thread collects the responses. Each
/// latency runs from the due time, so a stall also delays the requests
/// queued behind it.
fn open_loop(
    client: &PoolClient,
    requests: &RequestPool,
    seed: u64,
    schedule: &Schedule,
    marks: &mut Marks,
    tally: &mut Tally,
) {
    let (tx, rx) = mpsc::channel::<Sent>();
    let (release, released) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let generator = std::thread::Builder::new()
            .name("perfbench-gen".into())
            .spawn_scoped(scope, move || {
                generate(client, requests, seed, schedule, tx, released)
            })
            .expect("spawning the generator thread succeeds");
        let mut cpu_start = None;
        for sent in rx {
            if sent.measured {
                cpu_start.get_or_insert_with(host::thread_cpu_ns);
                tally.attempted += 1;
                tally.submit_us.push(sent.submit_us);
                tally
                    .late_ms
                    .push(((sent.sent - sent.due).as_secs_f64() * 1e3) as f32);
            }
            match sent.result {
                Ok(handle) => {
                    let result = handle.wait();
                    let done = Instant::now();
                    marks.complete(done, tally.latency_ms.len());
                    tally.response(requests, sent.index, sent.measured, result, done - sent.due);
                }
                Err(_) if sent.measured => tally.shed += 1,
                Err(_) => {}
            }
        }
        // The generator stays alive until the last window is closed, so its
        // CPU time is still in the process total the window reads.
        marks.tick(Instant::now(), tally.latency_ms.len());
        let collector_cpu = cpu_start.map_or(0, |start| host::thread_cpu_ns() - start);
        // A send error means the generator already exited, which only a
        // panic there can cause, and `join` reports that.
        let _ = release.send(());
        let generator_cpu = generator
            .join()
            .expect("the generator thread exits cleanly");
        tally.loadgen_cpu_ns = collector_cpu + generator_cpu;
    });
}

/// Sends every arrival due before the end of the schedule, then waits to
/// be released; returns the thread's CPU time over the measured phase [ns].
fn generate(
    client: &PoolClient,
    requests: &RequestPool,
    seed: u64,
    schedule: &Schedule,
    tx: mpsc::Sender<Sent>,
    released: mpsc::Receiver<()>,
) -> u64 {
    let arrivals = TrafficModel::Poisson {
        rate_mrps: OPEN_RATE_RPS * 1000,
    }
    .generate(seed, u64::MAX);
    let mut cpu_start = None;
    for arrival in arrivals {
        let due = schedule.origin + Duration::from_nanos(arrival.time_ns);
        if due >= schedule.end {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let measured = due >= schedule.measure_start;
        if measured {
            cpu_start.get_or_insert_with(host::thread_cpu_ns);
        }
        let index = requests.index(arrival.key);
        let input = requests.inputs[index].clone();
        let sent = Instant::now();
        let result = client.submit(arrival.key, input);
        let submit_us = (sent.elapsed().as_secs_f64() * 1e6) as f32;
        let message = Sent {
            due,
            sent,
            submit_us,
            index,
            measured,
            result,
        };
        if tx.send(message).is_err() {
            break;
        }
    }
    let cpu = cpu_start.map_or(0, |start| host::thread_cpu_ns() - start);
    drop(tx);
    let _ = released.recv();
    cpu
}
