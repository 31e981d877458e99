//! The `paper_grid` workload: the simulator re-runs the paper's Figure
//! 3, 5 and 7 sweeps over traces seeded from `--seed`.

use std::io;
use std::time::Instant;

use mutcon_bench::{
    fig3_deltas, fig5_deltas, fig7_deltas, fixed_delta, paper_fig3_config, paper_fig7_config,
    FIG3_TRACE, FIG5_PAIR, VALUE_PAIR,
};
use mutcon_core::mutual::temporal::MtPolicy;
use mutcon_core::time::Duration;
use mutcon_proxy::experiment::{
    individual_temporal_sweep, mutual_temporal_sweep, mutual_value_sweep, Fig3Row, Fig5Row, Fig7Row,
};
use mutcon_sim::parallel::{default_threads, THREADS_ENV};
use mutcon_sim::rng::SimRng;
use mutcon_traces::UpdateTrace;

use crate::spans::Tracer;
use crate::stats::{median, percentile, ratio, sorted};
use crate::{replay, sys, Args, Outcome};

/// Fewest set-ups per run; `setup_s` is their median. One is timed
/// after every pass, so set-up times are sampled across the whole run as
/// the passes are, instead of in one burst at its start.
const MIN_SETUPS: usize = 5;

/// A pass repeats the three sweeps until at least this long has passed.
const PASS_SECONDS: f64 = 1.0;

/// LIMD/Mt polls the traced `core` replay is capped at.
const CORE_REPLAY_POLLS: u64 = 200_000;

struct Traces {
    fig3: UpdateTrace,
    pair: (UpdateTrace, UpdateTrace),
    value: (UpdateTrace, UpdateTrace),
}

/// One pass's outputs — the values a one-thread run must reproduce.
#[derive(Debug, Clone, PartialEq)]
struct GridOutput {
    fig3: Vec<Fig3Row>,
    fig5: Vec<Fig5Row>,
    fig7: Vec<Fig7Row>,
}

#[derive(Debug, Clone, Copy)]
enum Sweep {
    Fig3,
    Fig5,
    Fig7,
}

impl Sweep {
    const ALL: [Sweep; 3] = [Sweep::Fig3, Sweep::Fig5, Sweep::Fig7];

    fn span(self) -> &'static str {
        match self {
            Sweep::Fig3 => "grid.fig3",
            Sweep::Fig5 => "grid.fig5",
            Sweep::Fig7 => "grid.fig7",
        }
    }

    fn metric(self) -> &'static str {
        match self {
            Sweep::Fig3 => "grid.fig3_ms",
            Sweep::Fig5 => "grid.fig5_ms",
            Sweep::Fig7 => "grid.fig7_ms",
        }
    }
}

/// Trace realizations a pass cycles through: the work of one
/// realization varies with its seed, and a pass over several averages
/// that out of the timings.
const REALIZATIONS: usize = 4;

fn generate(seed: u64) -> Vec<Traces> {
    let mut rng = SimRng::seed_from_u64(seed).fork(0x9a1d);
    let mut next = || rng.uniform_u64(1, u64::MAX);
    (0..REALIZATIONS)
        .map(|_| Traces {
            fig3: FIG3_TRACE.generate_with_seed(next()),
            pair: (
                FIG5_PAIR.0.generate_with_seed(next()),
                FIG5_PAIR.1.generate_with_seed(next()),
            ),
            value: (
                VALUE_PAIR.0.generate_with_seed(next()),
                VALUE_PAIR.1.generate_with_seed(next()),
            ),
        })
        .collect()
}

/// Runs one sweep into `out`; returns the polls it simulated.
fn sweep(which: Sweep, traces: &Traces, out: &mut GridOutput) -> u64 {
    match which {
        Sweep::Fig3 => {
            out.fig3 =
                individual_temporal_sweep(&traces.fig3, &fig3_deltas(), &paper_fig3_config());
            out.fig3
                .iter()
                .map(|r| r.baseline_polls + r.limd_polls)
                .sum()
        }
        Sweep::Fig5 => {
            out.fig5 = mutual_temporal_sweep(
                &traces.pair.0,
                &traces.pair.1,
                fixed_delta(),
                &fig5_deltas(),
                &paper_fig3_config(),
            );
            out.fig5
                .iter()
                .map(|r| r.baseline.polls + r.triggered.polls + r.heuristic.polls)
                .sum()
        }
        Sweep::Fig7 => {
            out.fig7 = mutual_value_sweep(
                &traces.value.0,
                &traces.value.1,
                &fig7_deltas(),
                &paper_fig7_config(),
            );
            out.fig7
                .iter()
                .map(|r| r.adaptive_polls + r.partitioned_polls)
                .sum()
        }
    }
}

fn empty() -> GridOutput {
    GridOutput {
        fig3: Vec::new(),
        fig5: Vec::new(),
        fig7: Vec::new(),
    }
}

/// The one-thread reference: every sweep of every realization with the
/// parallel engine pinned to its serial path, and the polls of one cycle
/// over them.
fn reference(sets: &[Traces]) -> (Vec<GridOutput>, u64) {
    // Set-up runs on the main thread alone, so no other thread reads the
    // environment while it changes.
    let saved = std::env::var_os(THREADS_ENV);
    std::env::set_var(THREADS_ENV, "1");
    let mut polls = 0;
    let outputs = sets
        .iter()
        .map(|traces| {
            let mut out = empty();
            polls += Sweep::ALL
                .iter()
                .map(|&s| sweep(s, traces, &mut out))
                .sum::<u64>();
            out
        })
        .collect();
    match saved {
        Some(v) => std::env::set_var(THREADS_ENV, v),
        None => std::env::remove_var(THREADS_ENV),
    }
    (outputs, polls)
}

/// One set-up: the seeded traces, the one-thread reference over them and
/// the polls of one cycle.
fn set_up(seed: u64, tracer: Option<&mut Tracer>) -> (Vec<Traces>, Vec<GridOutput>, u64) {
    let begin = Instant::now();
    let sets = generate(seed);
    let end = Instant::now();
    if let Some(t) = tracer {
        t.record(0, 0, "traces.generate", begin, end);
    }
    let (expected, polls) = reference(&sets);
    (sets, expected, polls)
}

/// Sweep-call timings and checks of the window.
#[derive(Debug, Default)]
struct Calls {
    latencies_ms: Vec<f64>,
    /// Sweep calls, plus the set-ups repeated between passes.
    attempted: u64,
    ok: u64,
    polls: u64,
    /// Summed over passes only: wall seconds, process CPU ns and the main
    /// thread's CPU ns.
    wall_s: f64,
    cpu_ns: u64,
    main_cpu_ns: u64,
    /// Per pass: polls per second, p50 and p90 sweep-call time (ms), CPU
    /// µs per call, and whether its calls were traced.
    pass_rates: Vec<f64>,
    pass_p50: Vec<f64>,
    pass_p90: Vec<f64>,
    pass_cpu_us: Vec<f64>,
    pass_traced: Vec<bool>,
    /// Seconds of each set-up timed after a pass.
    setup_s: Vec<f64>,
}

/// Runs passes for `seconds`, each followed by a timed set-up whose
/// outputs must equal `expected` and `grid_polls`. With a tracer, every
/// second pass records one span per sweep call, so traced and untraced
/// passes interleave and share the host's drift.
fn run_passes(
    args: &Args,
    sets: &[Traces],
    expected: &[GridOutput],
    grid_polls: u64,
    mut tracer: Option<&mut Tracer>,
) -> Calls {
    let mut calls = Calls::default();
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < args.seconds as f64 {
        let traced = tracer.is_some() && calls.pass_p50.len() % 2 == 1;
        let pass = Instant::now();
        let pass_cpu = sys::process_cpu_ns();
        let pass_main_cpu = sys::thread_cpu_ns();
        let first_call = calls.latencies_ms.len();
        let mut pass_polls = 0;
        while pass.elapsed().as_secs_f64() < PASS_SECONDS {
            for (traces, expected) in sets.iter().zip(expected) {
                let mut out = empty();
                for which in Sweep::ALL {
                    let begin = Instant::now();
                    let polls = sweep(which, traces, &mut out);
                    let end = Instant::now();
                    if let Some(t) = tracer.as_deref_mut().filter(|_| traced) {
                        t.record(0, calls.attempted, which.span(), begin, end);
                    }
                    calls.latencies_ms.push((end - begin).as_secs_f64() * 1e3);
                    calls.attempted += 1;
                    let same = match which {
                        Sweep::Fig3 => out.fig3 == expected.fig3,
                        Sweep::Fig5 => out.fig5 == expected.fig5,
                        Sweep::Fig7 => out.fig7 == expected.fig7,
                    };
                    calls.ok += u64::from(same);
                    pass_polls += polls;
                }
            }
        }
        let pass_s = pass.elapsed().as_secs_f64();
        let cpu_ns = sys::process_cpu_ns().saturating_sub(pass_cpu);
        calls.wall_s += pass_s;
        calls.cpu_ns += cpu_ns;
        calls.main_cpu_ns += sys::thread_cpu_ns().saturating_sub(pass_main_cpu);
        calls.pass_rates.push(pass_polls as f64 / pass_s);
        calls.polls += pass_polls;
        let pass_calls = sorted(calls.latencies_ms[first_call..].to_vec());
        let at = |q| percentile(&pass_calls, q).map_or(0.0, |p| p.value);
        calls.pass_p50.push(at(0.5));
        calls.pass_p90.push(at(0.9));
        calls
            .pass_cpu_us
            .push(cpu_ns as f64 / 1e3 / pass_calls.len() as f64);
        calls.pass_traced.push(traced);

        let begin = Instant::now();
        let (_, again, again_polls) = set_up(args.seed, tracer.as_deref_mut());
        calls.setup_s.push(begin.elapsed().as_secs_f64());
        calls.attempted += 1;
        calls.ok += u64::from(again == expected && again_polls == grid_polls);
    }
    calls
}

/// Runs `paper_grid` and returns its metrics.
pub fn run(args: &Args) -> io::Result<Outcome> {
    let mut tracer = args.trace.then(|| Tracer::new(args.process_start));
    // The first set-up counts from process start.
    let setups_before = MIN_SETUPS.saturating_sub(args.seconds as usize).max(1);
    let mut setup_s = Vec::with_capacity(setups_before + args.seconds as usize);
    let mut prepared = None;
    for i in 0..setups_before {
        let begin = if i == 0 {
            args.process_start
        } else {
            Instant::now()
        };
        prepared = Some(set_up(args.seed, tracer.as_mut()));
        setup_s.push(begin.elapsed().as_secs_f64());
    }
    let (sets, expected, grid_polls) = prepared.expect("at least one set-up ran");

    let threads = default_threads();
    // A window during which the hypervisor withheld the CPUs measured the
    // host, not the simulator: it is measured once more, and the record
    // says so. Only its timings are dropped: the failures of every window
    // count.
    let mut attempted = 0;
    let mut failed = 0;
    let mut attempts = 0;
    let (calls, steal) = loop {
        attempts += 1;
        let spans_before = tracer.as_ref().map_or(0, Tracer::len);
        let steal0 = sys::steal_ticks();
        let calls = run_passes(args, &sets, &expected, grid_polls, tracer.as_mut());
        let steal = sys::steal_share(steal0, sys::steal_ticks());
        attempted += calls.attempted;
        failed += calls.attempted - calls.ok;
        if steal < sys::MAX_STEAL_SHARE || attempts == sys::MAX_ATTEMPTS {
            break (calls, steal);
        }
        eprintln!(
            "window {attempts} invalid (host steal {:.1}%); measuring again",
            steal * 100.0
        );
        if let Some(t) = tracer.as_mut() {
            t.truncate(spans_before);
        }
    };
    setup_s.extend(&calls.setup_s);

    let mut out = Outcome {
        valid: steal < sys::MAX_STEAL_SHARE,
        attempted,
        failed,
        ..Outcome::default()
    };
    let fig3_fidelity: Vec<f64> = expected
        .iter()
        .flat_map(|e| e.fig3.iter().map(|r| r.limd_fidelity_time))
        .collect();
    let mt: Vec<f64> = expected
        .iter()
        .flat_map(|e| e.fig5.iter())
        .flat_map(|r| [r.triggered.fidelity, r.heuristic.fidelity])
        .collect();
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);

    // Timings are medians over passes, so a host stall that lasts a few
    // seconds moves a few passes, not the run's figure.
    out.e2e("latency_p50_ms", median(&calls.pass_p50));
    out.e2e("latency_p90_ms", median(&calls.pass_p90));
    out.e2e("cpu_us_per_req", median(&calls.pass_cpu_us));
    out.e2e(
        "ok_ratio",
        ratio((attempted - failed) as f64, attempted as f64),
    );
    out.e2e("fidelity", mean(&fig3_fidelity));
    out.e2e("mt_fidelity", mean(&mt));
    out.setup_times(&setup_s);

    out.layer("grid.polls", grid_polls as f64);
    out.layer("sim_polls_per_s", median(&calls.pass_rates));
    out.layer(
        "sim.cpu_ns_per_poll",
        ratio(calls.cpu_ns as f64, calls.polls as f64),
    );
    let worker_cpu_ns = calls.cpu_ns.saturating_sub(calls.main_cpu_ns) as f64;
    out.layer(
        "sim.worker_busy_share",
        worker_cpu_ns / (threads as f64 * calls.wall_s * 1e9),
    );
    out.latency_tail(&sorted(calls.latencies_ms.clone()));

    if let Some(t) = tracer.as_mut() {
        out.layer(
            "traces.generate_ms",
            median(&t.self_ns("traces.generate")) / 1e6,
        );
        let p50_of = |traced: bool| {
            let passes: Vec<f64> = calls
                .pass_p50
                .iter()
                .zip(&calls.pass_traced)
                .filter(|(_, &t)| t == traced)
                .map(|(p, _)| *p)
                .collect();
            median(&passes)
        };
        let (plain, traced) = (p50_of(false), p50_of(true));
        out.layer("trace.overhead_pct", ratio(traced - plain, plain) * 100.0);
        for which in Sweep::ALL {
            out.layer(which.metric(), median(&t.self_ns(which.span())) / 1e6);
        }
        replay::core(
            t,
            &[&sets[0].pair.0, &sets[0].pair.1],
            fixed_delta(),
            Some((Duration::from_mins(5), MtPolicy::TriggeredPolls)),
            sets[0].pair.0.end().min(sets[0].pair.1.end()),
            CORE_REPLAY_POLLS,
        );
        out.layer(
            "core.limd_update_ns",
            median(&t.self_ns("core.limd_update")),
        );
        out.layer("core.mt_on_poll_ns", median(&t.self_ns("core.mt_on_poll")));
    }

    out.record.extend([
        ("threads", threads.to_string()),
        ("attempts", attempts.to_string()),
        ("window_steal_share", format!("{steal:.4}")),
        ("pass_seconds", PASS_SECONDS.to_string()),
        ("fig3_trace", format!("\"{}\"", FIG3_TRACE.name())),
        (
            "fig5_pair",
            format!("[\"{}\",\"{}\"]", FIG5_PAIR.0.name(), FIG5_PAIR.1.name()),
        ),
        (
            "value_pair",
            format!("[\"{}\",\"{}\"]", VALUE_PAIR.0.name(), VALUE_PAIR.1.name()),
        ),
    ]);
    out.tracer = tracer;
    Ok(out)
}
