//! The live workloads: `hot_read` and `zipf_refresh`, driven through a
//! real proxy and origin running in this process.

use std::hint::black_box;
use std::io;
use std::net::TcpStream;
use std::time::{Duration as StdDuration, Instant};

use bytes::Bytes;
use mutcon_core::mutual::temporal::MtPolicy;
use mutcon_core::time::{Duration, Timestamp};
use mutcon_http::message::Response;
use mutcon_http::parse::{parse_request, parse_response};
use mutcon_http::types::StatusCode;
use mutcon_live::cache::{CacheEntry, L1Cache, L1Lookup, ShardedCache};
use mutcon_live::client::{HttpClient, PersistentClient, X_LAST_MODIFIED_MS};
use mutcon_live::origin::LiveOrigin;
use mutcon_live::proxy::{GroupRule, LiveProxy, ProxyConfig, RefreshRule};
use mutcon_sim::rng::SimRng;
use mutcon_traces::generator::{DiurnalProfile, NewsTraceBuilder, ZipfCatalogBuilder};
use mutcon_traces::json::Json;
use mutcon_traces::{UpdateEvent, UpdateTrace};

use crate::check::{self, Read};
use crate::load::{self, Schedule};
use crate::spans::Tracer;
use crate::stats::{median, percentile, ratio, sorted};
use crate::{replay, sys};
use crate::{Args, Outcome};

/// Thread-name prefixes of the proxy's own threads as the kernel keeps
/// them (15 bytes): the reactors and the refresh plane (scheduler plus
/// the poll workers it spawns, which inherit its name).
const PROXY_REACTORS: &str = "mutcon-live-pro";
const PROXY_REFRESH: &str = "mutcon-live-ref";

/// Reads of two group members at most this far apart form an Mt pair.
const MT_PAIR_WINDOW_MS: u64 = 10;

/// Replies may trail the window by this much before they count as lost.
const GRACE: StdDuration = StdDuration::from_secs(5);

/// Length of the slices the timings are taken over.
const SLICE: StdDuration = StdDuration::from_secs(1);

/// Fewest set-ups per run; `setup_s` is their median.
const MIN_SETUPS: usize = 5;

/// The window runs in segments of this many seconds of schedule, with
/// one more set-up timed between each two. Set-up times are then sampled
/// across the whole run, as the window's slices are, instead of in one
/// burst at its start.
const SEGMENT_S: u64 = 3;

/// Warm-up requests written at once.
const WARMUP_BATCH: usize = 32;

/// A window whose generator wrote 1% of its requests later than this
/// (µs), by its own fault, is invalid.
const MAX_LATE_P99_US: f64 = 1000.0;

/// Requests of the traced segments that get request spans and layer
/// replays.
const TRACED_REQUESTS: usize = 50_000;

/// Direct conditional GETs to the origin in the traced run.
const ORIGIN_PROBES: usize = 200;

/// LIMD/Mt polls the traced `core` replay is capped at.
const CORE_REPLAY_POLLS: u64 = 200_000;

/// One live workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Open-loop arrival rate, requests per second.
    pub rate: f64,
    /// Objects the origin hosts.
    pub objects: usize,
    /// Zipf(s = 1) popularity over the catalog; uniform otherwise.
    pub zipf: bool,
    /// The proxy's L2 bound in objects (`None` = unbounded default).
    pub cache_objects: Option<usize>,
    /// Hottest ranks carrying a `RefreshRule`.
    pub ruled: usize,
    /// Δ of every rule, ms (also the fidelity check's Δ).
    pub delta_ms: u64,
    /// One `GroupRule` over all ruled paths: (δ ms, policy).
    pub group: Option<(u64, MtPolicy)>,
    /// Mean update interval of a ruled object, seconds.
    pub ruled_update_s: f64,
    /// Mean update interval of an unruled object, seconds (0 = static).
    pub tail_update_s: f64,
    /// Closed-loop requests that warm the caches before the window.
    pub warmup: usize,
}

/// Per-request hit-path work with nothing else running: 64 objects,
/// no rules, no origin updates; the reactors stay far below half busy.
pub const HOT_READ: Spec = Spec {
    rate: 20000.0,
    objects: 64,
    zipf: false,
    cache_objects: None,
    ruled: 0,
    delta_ms: 0,
    group: None,
    ruled_update_s: 0.0,
    tail_update_s: 0.0,
    warmup: 2000,
};

/// Reads beside refresh polls and misses: a Zipf catalog 8× the L2,
/// the hottest ranks ruled and grouped, the origin updating them.
pub const ZIPF_REFRESH: Spec = Spec {
    rate: 5000.0,
    objects: 2048,
    zipf: true,
    cache_objects: Some(256),
    ruled: 16,
    delta_ms: 50,
    group: Some((100, MtPolicy::HEURISTIC)),
    ruled_update_s: 1.0,
    tail_update_s: 30.0,
    warmup: 4000,
};

/// Everything a running set-up holds.
struct Env {
    // Field order is drop order: the client closes before the proxy,
    // the proxy stops before its origin.
    conn: TcpStream,
    proxy: LiveProxy,
    origin: LiveOrigin,
    /// Taken just before the origin started: trace time 0 as an Instant.
    trace_zero: Instant,
    traces: Vec<UpdateTrace>,
    paths: Vec<String>,
    requests: Vec<Vec<u8>>,
}

fn seeded(seed: u64, stream: u64) -> SimRng {
    SimRng::seed_from_u64(seed).fork(stream)
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Update traces for every object, long enough to outlast the run.
fn make_traces(
    spec: &Spec,
    paths: &[String],
    seed: u64,
    span_s: u64,
) -> io::Result<Vec<UpdateTrace>> {
    let window = Duration::from_secs(span_s);
    let mut rng = seeded(seed, 0x7ace);
    paths
        .iter()
        .enumerate()
        .map(|(rank, path)| {
            let mean_s = if rank < spec.ruled {
                spec.ruled_update_s
            } else {
                spec.tail_update_s
            };
            let object_seed = rng.uniform_u64(0, u64::MAX);
            if mean_s <= 0.0 {
                return UpdateTrace::new(
                    path.clone(),
                    Timestamp::ZERO,
                    Timestamp::ZERO + window,
                    vec![UpdateEvent::temporal(Timestamp::ZERO)],
                )
                .map_err(|e| invalid(e.to_string()));
            }
            let updates = (span_s as f64 / mean_s).round() as usize;
            NewsTraceBuilder::new(path.clone(), window, updates)
                .profile(DiurnalProfile::flat())
                .seed(object_seed)
                .build()
                .map_err(|e| invalid(e.to_string()))
        })
        .collect()
}

/// The expected reply to `path`, checked against the origin's traces:
/// status 200, a stamp that is one of the object's update instants, and
/// the body the origin renders for that version.
fn verify(env_epoch_ms: u64, trace: &UpdateTrace, path: &str, response: &Response) -> Option<u64> {
    if response.status() != StatusCode::OK {
        return None;
    }
    let stamp: u64 = response.headers().get(X_LAST_MODIFIED_MS)?.parse().ok()?;
    let version = check::version_at_stamp(trace, stamp.checked_sub(env_epoch_ms)?)?;
    let expected = format!("object={path} version={version}\n");
    (response.body().as_ref() == expected.as_bytes()).then_some(stamp)
}

fn setup(spec: &Spec, args: &Args, tracer: &mut Option<Tracer>) -> io::Result<Env> {
    let generate = Instant::now();
    let paths: Vec<String> = if spec.zipf {
        ZipfCatalogBuilder::new(spec.objects)
            .seed(args.seed)
            .build()
            .map_err(|e| invalid(e.to_string()))?
            .paths()
            .to_vec()
    } else {
        (0..spec.objects).map(|i| format!("/hot/{i:02}")).collect()
    };
    // Traces cover set-up, the window and its grace with room to spare;
    // past its end the origin keeps serving the last version.
    let traces = make_traces(spec, &paths, args.seed, args.seconds + 60)?;
    let generated = Instant::now();
    if let Some(t) = tracer.as_mut() {
        t.record(0, 0, "traces.generate", generate, generated);
    }

    let mut builder = LiveOrigin::builder();
    for (path, trace) in paths.iter().zip(&traces) {
        builder = builder.object(path.clone(), trace.clone());
    }
    let trace_zero = Instant::now();
    let origin = builder.start()?;
    let proxy = LiveProxy::start(ProxyConfig {
        cache_objects: spec.cache_objects,
        ..ProxyConfig::new(origin.local_addr())
    })?;

    let rules: Vec<RefreshRule> = paths[..spec.ruled]
        .iter()
        .map(|p| RefreshRule::new(p.clone(), Duration::from_millis(spec.delta_ms)))
        .collect();
    let group = spec.group.map(|(delta_ms, policy)| GroupRule {
        delta: Duration::from_millis(delta_ms),
        policy,
    });
    let install = Instant::now();
    if !rules.is_empty() {
        proxy.runtime().install(rules, group).map_err(invalid)?;
    }
    let installed = Instant::now();
    if let Some(t) = tracer.as_mut() {
        t.record(0, 0, "refresh.install", install, installed);
    }

    let host = format!("Host: {}\r\n", proxy.local_addr());
    let requests: Vec<Vec<u8>> = paths
        .iter()
        .map(|p| format!("GET {p} HTTP/1.1\r\n{host}\r\n").into_bytes())
        .collect();
    let mut conn = TcpStream::connect(proxy.local_addr())?;
    conn.set_nodelay(true)?;

    // Warm-up: pipelined batches over a key stream of the workload's own
    // law, so the caches hold what the window will ask for.
    let epoch = origin.epoch_unix_ms();
    let mut rng = seeded(args.seed, 0x3a4a);
    let catalog_keys = key_sampler(spec, args.seed);
    let keys: Vec<usize> = (0..spec.warmup)
        .map(|_| catalog_keys(&mut rng) as usize)
        .collect();
    for batch in keys.chunks(WARMUP_BATCH) {
        let batch_requests: Vec<&[u8]> = batch.iter().map(|&k| requests[k].as_slice()).collect();
        let responses = load::fetch_all(&mut conn, &batch_requests)?;
        for (&key, response) in batch.iter().zip(&responses) {
            if verify(epoch, &traces[key], &paths[key], response).is_none() {
                return Err(invalid(format!(
                    "warm-up reply for {} is wrong",
                    paths[key]
                )));
            }
        }
    }

    Ok(Env {
        conn,
        proxy,
        origin,
        trace_zero,
        traces,
        paths,
        requests,
    })
}

/// The workload's key law: Zipf ranks from the seeded catalog, or uniform.
fn key_sampler(spec: &Spec, seed: u64) -> Box<dyn Fn(&mut SimRng) -> u32> {
    let objects = spec.objects;
    if spec.zipf {
        let catalog = ZipfCatalogBuilder::new(objects)
            .seed(seed)
            .build()
            .expect("catalog parameters are valid");
        Box::new(move |rng| catalog.sample(rng) as u32)
    } else {
        Box::new(move |rng| rng.uniform_u64(0, objects as u64) as u32)
    }
}

/// Counters read before and after a window.
#[derive(Debug, Clone, Default)]
struct Counters {
    reactor_cpu_ns: u64,
    refresh_cpu_ns: u64,
    hits: u64,
    misses: u64,
    polls: u64,
    triggered: u64,
    refreshes: u64,
    runtime_polls: u64,
    refresh_errors: u64,
    triggered_coalesced: u64,
    writev: u64,
    write_calls: u64,
    epoll_ctl: u64,
    buf_allocs: u64,
    body_copies: u64,
    write_stalls: u64,
    l1_hits: u64,
    l1_rejects: u64,
    l1_stale_serves: u64,
    pool_reuses: u64,
    pool_opened: u64,
    pool_coalesced: u64,
    pool_retries: u64,
    origin_requests: u64,
    evictions: u64,
    version_bumps: u64,
    touch_skips: u64,
}

fn admin_counter(doc: &Json, section: &str, key: &str) -> u64 {
    doc.get(section)
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// The cache's own tallies, exposed only through the admin plane:
/// (evictions, version bumps, touch skips).
fn admin_counters(env: &Env) -> io::Result<(u64, u64, u64)> {
    let admin = HttpClient::new().get(env.proxy.local_addr(), "/admin/stats", None)?;
    if admin.status() != StatusCode::OK {
        return Err(invalid(format!("/admin/stats answered {}", admin.status())));
    }
    let doc = mutcon_traces::json::parse(std::str::from_utf8(admin.body()).unwrap_or(""))
        .map_err(|e| invalid(e.to_string()))?;
    Ok((
        admin_counter(&doc, "cache", "evictions"),
        admin_counter(&doc, "cache", "version_bumps"),
        admin_counter(&doc, "cache", "touch_skips"),
    ))
}

/// A snapshot of every counter. The admin request is made outside the
/// window (first when `before`, last otherwise), so its own serve never
/// lands in the deltas.
fn counters(env: &Env, before: bool) -> io::Result<Counters> {
    let admin = if before {
        Some(admin_counters(env)?)
    } else {
        None
    };
    let stats = env.proxy.stats();
    let engine = env.proxy.engine_metrics();
    let refresh = env.proxy.runtime().refresh_metrics();
    let mut c = Counters {
        reactor_cpu_ns: sys::threads_cpu_ns(&[PROXY_REACTORS]),
        refresh_cpu_ns: sys::threads_cpu_ns(&[PROXY_REFRESH]),
        hits: stats.hits,
        misses: stats.misses,
        polls: stats.polls,
        triggered: stats.triggered,
        refreshes: stats.refreshes,
        runtime_polls: refresh.polls(),
        refresh_errors: refresh.errors(),
        triggered_coalesced: refresh.triggered_coalesced(),
        writev: engine.writev_calls(),
        write_calls: engine.write_calls(),
        epoll_ctl: engine.epoll_ctl_calls(),
        buf_allocs: engine.buf_allocs(),
        body_copies: engine.body_copies(),
        write_stalls: engine.write_stalls(),
        l1_hits: engine.l1_hits(),
        l1_rejects: engine.l1_stale_rejects(),
        l1_stale_serves: engine.l1_stale_serves(),
        pool_reuses: engine.pool_reuses(),
        pool_opened: engine.pool_opened(),
        pool_coalesced: engine.pool_coalesced(),
        pool_retries: engine.pool_retries(),
        origin_requests: env.origin.request_count(),
        ..Counters::default()
    };
    let (evictions, version_bumps, touch_skips) = match admin {
        Some(admin) => admin,
        None => admin_counters(env)?,
    };
    c.evictions = evictions;
    c.version_bumps = version_bumps;
    c.touch_skips = touch_skips;
    Ok(c)
}

/// One segment's judged results.
#[derive(Debug)]
struct Window {
    /// When the segment opened.
    start: Instant,
    /// Index of its first request in the whole schedule.
    base: usize,
    /// Whether its sender and receiver recorded spans.
    traced: bool,
    schedule: Schedule,
    /// Per request: reply read instant (ns after `start`), if any.
    recv_ns: Vec<Option<u64>>,
    /// Per request: how late the sender wrote it, ns.
    late_ns: Vec<u64>,
    /// Per request: the part of that lateness that was the sender's own.
    own_late_ns: Vec<u64>,
    /// Traced only: per request, when its write returned (ns after `start`).
    written_ns: Vec<u64>,
    /// Traced only: per reply, the receiver's parse (ns after `start`).
    parse_ns: Vec<(u64, u64)>,
    ok: u64,
    gen_cpu_ns: u64,
    wall_s: f64,
    reads: Vec<Read>,
    /// Proxy CPU ns read at the segment start and after every slice.
    cpu_samples: Vec<u64>,
}

impl Window {
    /// Per slice of due time: (p50, p90) latency, ms.
    fn slice_latencies(&self) -> Vec<(f64, f64)> {
        let mut slices: Vec<Vec<f64>> = Vec::new();
        for (recv, due) in self.recv_ns.iter().zip(&self.schedule.due_ns) {
            let Some(recv) = recv else { continue };
            let k = (due / SLICE.as_nanos() as u64) as usize;
            if slices.len() <= k {
                slices.resize(k + 1, Vec::new());
            }
            slices[k].push(recv.saturating_sub(*due) as f64 / 1e6);
        }
        slices
            .into_iter()
            .filter(|s| !s.is_empty())
            .map(|s| {
                let s = sorted(s);
                let at = |q| percentile(&s, q).map_or(0.0, |p| p.value);
                (at(0.5), at(0.9))
            })
            .collect()
    }

    /// Per slice of receive time: proxy CPU µs per reply received.
    fn slice_cpu_us(&self) -> Vec<f64> {
        let mut replies = vec![0u64; self.cpu_samples.len().saturating_sub(1)];
        for recv in self.recv_ns.iter().flatten() {
            if let Some(n) = replies.get_mut((recv / SLICE.as_nanos() as u64) as usize) {
                *n += 1;
            }
        }
        self.cpu_samples
            .windows(2)
            .zip(&replies)
            .filter(|(_, &n)| n > 0)
            .map(|(cpu, &n)| (cpu[1] - cpu[0]) as f64 / 1e3 / n as f64)
            .collect()
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.recv_ns
            .iter()
            .zip(&self.schedule.due_ns)
            .filter_map(|(recv, due)| recv.map(|r| r.saturating_sub(*due) as f64 / 1e6))
            .collect()
    }
}

/// Runs one segment. `last_stamp` holds, per path, the newest stamp the
/// connection has served so far.
fn run_window(
    env: &Env,
    schedule: Schedule,
    base: usize,
    traced: bool,
    last_stamp: &mut [u64],
) -> io::Result<Window> {
    let epoch = env.origin.epoch_unix_ms();
    let verify_reply = |key: u32, response: &Response| {
        let key = key as usize;
        verify(epoch, &env.traces[key], &env.paths[key], response)
    };
    let seconds = schedule.due_ns.last().map_or(0, |&d| d) as f64 / 1e9;
    let start = Instant::now() + StdDuration::from_millis(2);
    let deadline = start + StdDuration::from_secs_f64(seconds) + GRACE;
    let drive = load::drive(
        &env.conn,
        &env.requests,
        &schedule,
        start,
        deadline,
        traced,
        &verify_reply,
        SLICE,
        &|| sys::threads_cpu_ns(&[PROXY_REACTORS, PROXY_REFRESH]),
    )?;
    let wall_s = seconds.max(1e-3);

    // Trace time of the segment start: origin trace 0 is `trace_zero`.
    let offset_ns = (start - env.trace_zero).as_nanos() as u64;
    let mut ok = 0;
    let mut reads = Vec::with_capacity(schedule.len());
    for (i, reply) in drive.replies.iter().enumerate() {
        let Some(stamp) = reply.and_then(|r| r.stamp_ms) else {
            continue;
        };
        let key = schedule.keys[i] as usize;
        // Stamps never go backwards per path on one connection.
        if stamp < last_stamp[key] {
            continue;
        }
        last_stamp[key] = stamp;
        ok += 1;
        let recv_ns = reply.expect("stamped replies arrived").recv_ns;
        reads.push(Read {
            key: key as u32,
            recv_ms: (offset_ns + recv_ns) / 1_000_000,
            version: check::version_at_stamp(&env.traces[key], stamp - epoch)
                .expect("verified stamps are update instants"),
        });
    }
    Ok(Window {
        start,
        base,
        traced,
        recv_ns: drive.replies.iter().map(|r| r.map(|r| r.recv_ns)).collect(),
        late_ns: drive.late_ns,
        own_late_ns: drive.own_late_ns,
        written_ns: drive.written_ns,
        parse_ns: drive.parse_ns,
        schedule,
        ok,
        gen_cpu_ns: drive.gen_cpu_ns,
        wall_s,
        reads,
        cpu_samples: drive.samples,
    })
}

/// The schedule cut into segments of [`SEGMENT_S`] seconds of due time,
/// each re-based to its own start, with the index of its first request.
fn segments(schedule: &Schedule, seconds: u64) -> Vec<(usize, Schedule)> {
    let segment_ns = SEGMENT_S * 1_000_000_000;
    let mut out = Vec::new();
    let mut from = 0;
    for k in 0..seconds.div_ceil(SEGMENT_S) {
        let (lo, hi) = (k * segment_ns, (k + 1) * segment_ns);
        let to = schedule.due_ns.partition_point(|&d| d < hi);
        out.push((
            from,
            Schedule {
                due_ns: schedule.due_ns[from..to].iter().map(|d| d - lo).collect(),
                keys: schedule.keys[from..to].to_vec(),
            },
        ));
        from = to;
    }
    out
}

/// One measured window: every segment, each set-up timed between two of
/// them, and the counters around it all.
struct Attempt {
    before: Counters,
    windows: Vec<Window>,
    after: Counters,
    setup_s: Vec<f64>,
    steal: f64,
}

impl Attempt {
    fn delta(&self, f: fn(&Counters) -> u64) -> u64 {
        f(&self.after).saturating_sub(f(&self.before))
    }

    fn attempted(&self) -> u64 {
        self.windows.iter().map(|w| w.schedule.len() as u64).sum()
    }

    /// Wrong, missing or out-of-order replies, plus every stale serve and
    /// body copy the counters saw: outputs that must stay zero.
    fn failed(&self) -> u64 {
        let ok: u64 = self.windows.iter().map(|w| w.ok).sum();
        let zero_counters = self.delta(|c| c.l1_stale_serves) + self.delta(|c| c.body_copies);
        (self.attempted() - ok + zero_counters).min(self.attempted())
    }

    /// Generator lateness, µs, sorted: all of it, and the sender's own.
    fn lateness_us(&self) -> (Vec<f64>, Vec<f64>) {
        let us = |f: fn(&Window) -> &Vec<u64>| {
            sorted(
                self.windows
                    .iter()
                    .flat_map(|w| f(w).iter().map(|&ns| ns as f64 / 1e3))
                    .collect(),
            )
        };
        (us(|w| &w.late_ns), us(|w| &w.own_late_ns))
    }

    /// A window measured the host, not the proxy, when the sender itself
    /// ran late or the hypervisor withheld the CPUs.
    fn valid(&self) -> bool {
        let own_p99 = percentile(&self.lateness_us().1, 0.99).map_or(0.0, |p| p.value);
        own_p99 < MAX_LATE_P99_US && self.steal < sys::MAX_STEAL_SHARE
    }
}

/// Measures one window: every segment in turn, with one more set-up
/// timed (and torn down) between each two.
fn measure(
    spec: &Spec,
    env: &Env,
    segments: &[(usize, Schedule)],
    args: &Args,
    tracer: &mut Option<Tracer>,
) -> io::Result<Attempt> {
    let steal0 = sys::steal_ticks();
    let before = counters(env, true)?;
    let mut last_stamp = vec![0u64; env.paths.len()];
    let mut windows = Vec::with_capacity(segments.len());
    let mut setup_s = Vec::with_capacity(segments.len());
    for (k, (base, schedule)) in segments.iter().enumerate() {
        if k > 0 {
            let begin = Instant::now();
            let extra = setup(spec, args, tracer)?;
            setup_s.push(begin.elapsed().as_secs_f64());
            drop(extra);
        }
        // Traced runs alternate untraced and traced segments, so both
        // share the host's drift.
        let traced = args.trace && (k % 2 == 1 || segments.len() == 1);
        windows.push(run_window(
            env,
            schedule.clone(),
            *base,
            traced,
            &mut last_stamp,
        )?);
    }
    let after = counters(env, false)?;
    Ok(Attempt {
        before,
        windows,
        after,
        setup_s,
        steal: sys::steal_share(steal0, sys::steal_ticks()),
    })
}

/// Runs one live workload and returns its metrics.
pub fn run(spec: &Spec, args: &Args) -> io::Result<Outcome> {
    let mut tracer = args.trace.then(|| Tracer::new(args.process_start));
    let mut rng = seeded(args.seed, 0x10ad);
    let sample_key = key_sampler(spec, args.seed);
    let schedule = Schedule::poisson(&mut rng, spec.rate, args.seconds as f64, |r| sample_key(r));
    let segments = segments(&schedule, args.seconds);

    // The first set-up counts from process start; the previous set-up is
    // torn down before the next one is timed.
    let setups_before = MIN_SETUPS.saturating_sub(segments.len() - 1).max(1);
    let mut setup_s = Vec::with_capacity(setups_before + segments.len());
    let mut env = None;
    for i in 0..setups_before {
        drop(env.take());
        let begin = if i == 0 {
            args.process_start
        } else {
            Instant::now()
        };
        env = Some(setup(spec, args, &mut tracer)?);
        setup_s.push(begin.elapsed().as_secs_f64());
    }
    let env = env.expect("at least one set-up ran");

    // A window in which the generator fell behind or the hypervisor
    // withheld the CPUs is measured once more with the same inputs, and
    // the record says so. Only its timings are dropped: the failures of
    // every window count.
    let mut attempted = 0;
    let mut failed = 0;
    let mut attempts = 0;
    let attempt = loop {
        attempts += 1;
        let spans_before = tracer.as_ref().map_or(0, Tracer::len);
        let attempt = measure(spec, &env, &segments, args, &mut tracer)?;
        attempted += attempt.attempted();
        failed += attempt.failed();
        if attempt.valid() || attempts == sys::MAX_ATTEMPTS {
            break attempt;
        }
        let (_, own) = attempt.lateness_us();
        eprintln!(
            "window {attempts} invalid (sender's own p99 lateness {:.0} us, host steal {:.1}%); measuring again",
            percentile(&own, 0.99).map_or(0.0, |p| p.value),
            attempt.steal * 100.0
        );
        if let Some(t) = tracer.as_mut() {
            t.truncate(spans_before);
        }
    };
    setup_s.extend(&attempt.setup_s);
    let windows = &attempt.windows;

    let mut out = Outcome {
        attempted,
        failed,
        valid: attempt.valid(),
        ..Outcome::default()
    };
    let wall_s: f64 = windows.iter().map(|w| w.wall_s).sum();
    let delta = |f: fn(&Counters) -> u64| attempt.delta(f);

    let reads: Vec<Read> = windows
        .iter()
        .flat_map(|w| w.reads.iter().copied())
        .collect();
    let (fresh, checked, consistent, pairs) = if spec.ruled == 0 {
        // Nothing is ruled and nothing updates: every read is held to
        // Δ = δ = 0, so any older version would be a wrong serve.
        let (f, c) = check::fidelity(&reads, &env.traces, |_| true, 0);
        let (m, p) = check::mt_fidelity(&reads, &env.traces, |_| true, 0, MT_PAIR_WINDOW_MS);
        (f, c, m, p)
    } else {
        let ruled = spec.ruled as u32;
        let (f, c) = check::fidelity(&reads, &env.traces, |k| k < ruled, spec.delta_ms);
        let mt_delta = spec.group.map_or(0, |(d, _)| d);
        let (m, p) = check::mt_fidelity(
            &reads,
            &env.traces,
            |k| k < ruled,
            mt_delta,
            MT_PAIR_WINDOW_MS,
        );
        (f, c, m, p)
    };

    // Timings are medians over one-second slices, so a host stall that
    // lasts a few seconds moves a few slices, not the run's figure.
    let slices: Vec<(f64, f64)> = windows.iter().flat_map(Window::slice_latencies).collect();
    let slice_p50: Vec<f64> = slices.iter().map(|s| s.0).collect();
    let slice_p90: Vec<f64> = slices.iter().map(|s| s.1).collect();
    let slice_cpu: Vec<f64> = windows.iter().flat_map(Window::slice_cpu_us).collect();
    out.e2e("latency_p50_ms", median(&slice_p50));
    out.e2e("latency_p90_ms", median(&slice_p90));
    out.e2e("cpu_us_per_req", median(&slice_cpu));
    let lat = sorted(windows.iter().flat_map(Window::latencies_ms).collect());
    let per_req = |v: u64| ratio(v as f64, lat.len() as f64);
    out.e2e(
        "ok_ratio",
        ratio((attempted - failed) as f64, attempted as f64),
    );
    out.e2e("fidelity", ratio(fresh as f64, checked as f64));
    out.e2e("mt_fidelity", ratio(consistent as f64, pairs as f64));
    out.setup_times(&setup_s);

    let hits = delta(|c| c.hits);
    let lookups = hits + delta(|c| c.misses);
    let l1_hits = delta(|c| c.l1_hits);
    let l1_rejects = delta(|c| c.l1_rejects);
    let polls = delta(|c| c.polls);
    let runtime_polls = delta(|c| c.runtime_polls);
    out.layer(
        "server.cpu_us_per_req",
        per_req(delta(|c| c.reactor_cpu_ns)) / 1e3,
    );
    out.layer("server.writev_per_req", per_req(delta(|c| c.writev)));
    out.layer(
        "server.write_calls_per_req",
        per_req(delta(|c| c.write_calls)),
    );
    out.layer("server.epoll_ctl_per_req", per_req(delta(|c| c.epoll_ctl)));
    out.layer(
        "server.buf_allocs_per_req",
        per_req(delta(|c| c.buf_allocs)),
    );
    out.layer("server.body_copies", delta(|c| c.body_copies) as f64);
    out.layer("server.write_stalls", delta(|c| c.write_stalls) as f64);
    out.layer("cache.hit_ratio", ratio(hits as f64, lookups as f64));
    out.layer("cache.l1_hit_ratio", ratio(l1_hits as f64, lookups as f64));
    out.layer(
        "cache.l1_stale_reject_ratio",
        ratio(l1_rejects as f64, (l1_hits + l1_rejects) as f64),
    );
    out.layer("cache.l1_stale_serves", delta(|c| c.l1_stale_serves) as f64);
    out.layer(
        "cache.evictions_per_s",
        delta(|c| c.evictions) as f64 / wall_s,
    );
    out.layer(
        "cache.version_bumps_per_s",
        delta(|c| c.version_bumps) as f64 / wall_s,
    );
    out.layer(
        "cache.touch_skip_ratio",
        ratio(
            delta(|c| c.touch_skips) as f64,
            lookups.saturating_sub(l1_hits) as f64,
        ),
    );
    let reuses = delta(|c| c.pool_reuses);
    out.layer(
        "upstream.pool_reuse_ratio",
        ratio(reuses as f64, (reuses + delta(|c| c.pool_opened)) as f64),
    );
    out.layer(
        "upstream.coalesced_ratio",
        ratio(
            delta(|c| c.pool_coalesced) as f64,
            delta(|c| c.misses) as f64,
        ),
    );
    out.layer("upstream.retries", delta(|c| c.pool_retries) as f64);
    out.layer("origin_rps", delta(|c| c.origin_requests) as f64 / wall_s);
    out.layer("refresh.polls_per_s", runtime_polls as f64 / wall_s);
    // `refreshes` counts every store, miss fills included; the rest are
    // polls that brought back a newer copy.
    let useful = delta(|c| c.refreshes).saturating_sub(delta(|c| c.misses));
    out.layer(
        "refresh.useful_poll_ratio",
        ratio(useful as f64, polls as f64),
    );
    out.layer(
        "refresh.triggered_ratio",
        ratio(delta(|c| c.triggered) as f64, polls as f64),
    );
    out.layer(
        "refresh.triggered_coalesced",
        delta(|c| c.triggered_coalesced) as f64,
    );
    out.layer("refresh.errors", delta(|c| c.refresh_errors) as f64);
    let drift = env.proxy.runtime().refresh_metrics().drift();
    out.layer("refresh.drift_p50_ms", drift.p50_ms);
    out.layer("refresh.drift_p99_ms", drift.p99_ms);
    out.layer(
        "refresh.cpu_us_per_poll",
        ratio(delta(|c| c.refresh_cpu_ns) as f64, runtime_polls as f64) / 1e3,
    );

    let (late_us, own_late_us) = attempt.lateness_us();
    let at = |v: &[f64], q| percentile(v, q).map_or(0.0, |p| p.value);
    let gen_cpu: u64 = windows.iter().map(|w| w.gen_cpu_ns).sum();
    out.layer("gen.late_p50_us", at(&late_us, 0.5));
    out.layer("gen.late_p99_us", at(&late_us, 0.99));
    out.layer("gen.own_late_p99_us", at(&own_late_us, 0.99));
    out.layer(
        "gen.cpu_share",
        gen_cpu as f64 / 1e9 / (wall_s * sys::nproc() as f64),
    );
    out.latency_tail(&lat);

    if let Some(tracer) = tracer.as_mut() {
        let slice_p50 = |traced: bool| {
            let p50: Vec<f64> = windows
                .iter()
                .filter(|w| w.traced == traced)
                .flat_map(Window::slice_latencies)
                .map(|s| s.0)
                .collect();
            median(&p50)
        };
        let (plain, traced) = (slice_p50(false), slice_p50(true));
        if plain > 0.0 && traced > 0.0 {
            out.layer("trace.overhead_pct", (traced - plain) / plain * 100.0);
        }
        let traced: Vec<&Window> = windows.iter().filter(|w| w.traced).collect();
        trace_requests(tracer, &traced);
        let (rtt_ms, raw) = origin_probe(&env, spec)?;
        out.layer("origin.rtt_ms_p50", rtt_ms);
        replay_layers(spec, &env, tracer, &traced, &raw);
        for (metric, span) in [
            ("http.parse_request_ns", "http.parse_request"),
            ("http.parse_response_ns", "http.parse_response"),
            ("cache.l1_lookup_ns", "cache.l1_lookup"),
            ("cache.l2_get_ns", "cache.l2_get"),
            ("cache.insert_ns", "cache.insert"),
            ("core.limd_update_ns", "core.limd_update"),
            ("core.mt_on_poll_ns", "core.mt_on_poll"),
        ] {
            out.layer(metric, median(&tracer.self_ns(span)));
        }
        out.layer(
            "refresh.install_ms",
            median(&tracer.self_ns("refresh.install")) / 1e6,
        );
        out.layer(
            "traces.generate_ms",
            median(&tracer.self_ns("traces.generate")) / 1e6,
        );
    }

    out.record.extend([
        ("rate_per_s", format!("{}", spec.rate)),
        ("objects", spec.objects.to_string()),
        (
            "zipf_exponent",
            if spec.zipf { "1.0" } else { "null" }.to_owned(),
        ),
        (
            "l2_cache_objects",
            spec.cache_objects
                .map_or("null".to_owned(), |c| c.to_string()),
        ),
        ("l1_objects", mutcon_live::server::l1_objects().to_string()),
        ("ruled", spec.ruled.to_string()),
        ("delta_ms", spec.delta_ms.to_string()),
        (
            "group",
            spec.group.map_or("null".to_owned(), |(d, p)| {
                format!("\"delta_ms={d} policy={p}\"")
            }),
        ),
        ("reactors", env.proxy.reactor_count().to_string()),
        (
            "refresh_workers",
            env.proxy.runtime().refresh_metrics().workers().to_string(),
        ),
        (
            "backends",
            json_strings(&env.proxy.engine_metrics().reactor_backends()),
        ),
        (
            "reactor_connections",
            format!("{:?}", env.proxy.engine_metrics().reactor_connections()),
        ),
        ("attempts", attempts.to_string()),
        ("window_steal_share", format!("{:.4}", attempt.steal)),
        ("segment_s", SEGMENT_S.to_string()),
        ("client_connections", "1".to_owned()),
        ("generator_threads", "2".to_owned()),
    ]);
    out.tracer = tracer;
    Ok(out)
}

fn json_strings(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", quoted.join(","))
}

/// Request spans of the traced segments, from the instants the sender
/// and the receiver recorded while they ran: `request` (due → reply
/// parsed) with children `gen.send` (due → its write returned),
/// `proxy.reply` (write returned → reply read) and `http.parse_response`
/// (the receiver's parse of the reply).
fn trace_requests(tracer: &mut Tracer, windows: &[&Window]) {
    let mut left = TRACED_REQUESTS;
    for w in windows {
        let at = |ns: u64| w.start + StdDuration::from_nanos(ns);
        for (i, &(parse_start, parse_end)) in w.parse_ns.iter().enumerate().take(left) {
            let Some(recv) = w.recv_ns[i] else { continue };
            let due = w.schedule.due_ns[i];
            let written = w.written_ns[i];
            let req = (w.base + i) as u64;
            let root = tracer.record(0, req, "request", at(due), at(parse_end));
            tracer.record(root, req, "gen.send", at(due), at(written));
            tracer.record(root, req, "proxy.reply", at(written), at(recv.max(written)));
            tracer.record(
                root,
                req,
                "http.parse_response",
                at(parse_start),
                at(parse_end),
            );
        }
        left = left.saturating_sub(w.parse_ns.len());
    }
}

/// Conditional GETs straight to the origin, like the refresh plane's
/// polls, over one `PersistentClient`: the median round trip in ms and
/// the responses' bytes.
fn origin_probe(env: &Env, spec: &Spec) -> io::Result<(f64, Vec<Vec<u8>>)> {
    let mut client = PersistentClient::new(env.origin.local_addr(), StdDuration::from_secs(2));
    let targets = spec.ruled.max(1).min(env.paths.len());
    let mut validators: Vec<Option<Timestamp>> = vec![None; targets];
    let mut rtts = Vec::with_capacity(ORIGIN_PROBES);
    let mut raw = Vec::with_capacity(ORIGIN_PROBES);
    for i in 0..ORIGIN_PROBES {
        let key = i % targets;
        let begin = Instant::now();
        let response = client.get(&env.paths[key], validators[key])?;
        rtts.push(begin.elapsed().as_secs_f64() * 1e3);
        if let Some(stamp) = response
            .headers()
            .get(X_LAST_MODIFIED_MS)
            .and_then(|v| v.parse().ok())
        {
            validators[key] = Some(Timestamp::from_millis(stamp));
        }
        raw.push(response.to_bytes());
    }
    Ok((median(&rtts), raw))
}

/// Replays the traced segments' own inputs through the layer functions,
/// one span per call: the exact request bytes through `parse_request`,
/// the key stream through an L1 and an L2 of the proxy's sizes (misses
/// filled with the origin's version at the request's due instant), the
/// ruled objects' updates inside the segments as refresh writes, the
/// origin's conditional responses through `parse_response`, and LIMD
/// with the Mt coordinator over the ruled traces.
fn replay_layers(
    spec: &Spec,
    env: &Env,
    tracer: &mut Tracer,
    windows: &[&Window],
    raw: &[Vec<u8>],
) {
    let epoch = env.origin.epoch_unix_ms();
    let entry = |key: usize, version: usize| {
        let path = &env.paths[key];
        let stamp = env.traces[key].times()[version];
        CacheEntry::new(
            Bytes::from(format!("object={path} version={version}\n")),
            Timestamp::from_millis(epoch + stamp.as_millis()),
            None,
            Some(version.to_string()),
        )
    };
    let cache = ShardedCache::new(spec.cache_objects);
    let mut l1 = L1Cache::new(mutcon_live::server::l1_objects().max(1));
    let mut left = TRACED_REQUESTS;
    let mut write_req = 1u64 << 40;
    for window in windows {
        let start_ms = (window.start - env.trace_zero).as_millis() as u64;
        let end_ms = start_ms + (window.wall_s * 1000.0) as u64;

        // Refresh writes: every update of a ruled object inside the segment.
        let mut writes: Vec<(u64, usize, usize)> = Vec::new();
        for (key, trace) in env.traces.iter().enumerate().take(spec.ruled) {
            for (version, at) in trace.times().iter().enumerate() {
                if (start_ms..end_ms).contains(&at.as_millis()) {
                    writes.push((at.as_millis(), key, version));
                }
            }
        }
        writes.sort_unstable();
        let mut next_write = 0;
        for (i, (&due_ns, &key)) in window
            .schedule
            .due_ns
            .iter()
            .zip(&window.schedule.keys)
            .enumerate()
            .take(left)
        {
            let due_ms = start_ms + due_ns / 1_000_000;
            while let Some(&(at, wkey, version)) = writes.get(next_write) {
                if at > due_ms {
                    break;
                }
                let fresh = entry(wkey, version);
                tracer.time(0, write_req, "cache.insert", || {
                    cache.insert_if_newer(&env.paths[wkey], fresh)
                });
                write_req += 1;
                next_write += 1;
            }
            let key = key as usize;
            let path = env.paths[key].as_str();
            let req = (window.base + i) as u64;
            let root = tracer.open(0, req, "replay");
            let parsed = tracer.time(root, req, "http.parse_request", || {
                parse_request(black_box(&env.requests[key]))
            });
            debug_assert!(matches!(parsed, Ok(Some(_))));
            let generation = cache.generation();
            let lookup = tracer.time(root, req, "cache.l1_lookup", || l1.lookup(path, generation));
            if !matches!(lookup, L1Lookup::Hit(_)) {
                let found = tracer.time(root, req, "cache.l2_get", || cache.get_versioned(path));
                let versioned = match found {
                    Some(versioned) => versioned,
                    None => {
                        let version = env.traces[key]
                            .version_index_at(Timestamp::from_millis(due_ms))
                            .unwrap_or(0);
                        let fill = entry(key, version);
                        tracer.time(root, req, "cache.insert", || {
                            cache.insert_if_newer(path, fill)
                        });
                        cache.get_versioned(path).expect("just inserted")
                    }
                };
                l1.insert(path, versioned);
            }
            tracer.close(root);
        }
        left = left.saturating_sub(window.schedule.len());
    }

    for (i, bytes) in raw.iter().enumerate() {
        let parsed = tracer.time(0, (2u64 << 40) + i as u64, "http.parse_response", || {
            parse_response(black_box(bytes))
        });
        debug_assert!(matches!(parsed, Ok(Some(_))));
    }

    if spec.ruled > 0 {
        let ruled: Vec<&UpdateTrace> = env.traces[..spec.ruled].iter().collect();
        let group = spec
            .group
            .map(|(d, policy)| (Duration::from_millis(d), policy));
        let until = ruled
            .iter()
            .map(|t| t.end())
            .min()
            .unwrap_or(Timestamp::ZERO);
        replay::core(
            tracer,
            &ruled,
            Duration::from_millis(spec.delta_ms),
            group,
            until,
            CORE_REPLAY_POLLS,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog(seed: u64) -> Vec<String> {
        ZipfCatalogBuilder::new(64)
            .seed(seed)
            .build()
            .unwrap()
            .paths()
            .to_vec()
    }

    #[test]
    fn same_seed_same_traces_and_keys_different_seed_different() {
        let spec = Spec {
            objects: 64,
            cache_objects: Some(16),
            ruled: 4,
            ..ZIPF_REFRESH
        };
        let traces = |seed| make_traces(&spec, &catalog(seed), seed, 30).unwrap();
        assert_eq!(traces(5), traces(5));
        assert_ne!(traces(5), traces(6));
        assert!(traces(5)[0].update_count() > 10, "ruled objects update");

        let keys = |seed| {
            let sample = key_sampler(&spec, seed);
            let mut rng = seeded(seed, 0x10ad);
            Schedule::poisson(&mut rng, 1000.0, 1.0, |r| sample(r))
        };
        assert_eq!(keys(5), keys(5));
        assert_ne!(keys(5).keys, keys(6).keys);
    }
}
