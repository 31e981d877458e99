//! `e2ebench` — one workload, one seed, one result line.
//!
//! ```text
//! e2ebench --workload <hot_read|zipf_refresh|paper_grid> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a run record (host and configuration facts) and then, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exits 1 when any
//! output was wrong, 2 on bad arguments.

mod check;
mod grid;
mod live;
mod load;
mod replay;
mod spans;
mod stats;
mod sys;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use spans::Tracer;
use stats::percentile;

/// End-to-end metrics: (name, unit). Every workload reports each one.
const END_TO_END: &[(&str, &str)] = &[
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_us_per_req", "us"),
    ("ok_ratio", "ratio"),
    ("fidelity", "ratio"),
    ("mt_fidelity", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: (name, unit). A layer a workload does not
/// exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("server.cpu_us_per_req", "us"),
    ("server.writev_per_req", "count"),
    ("server.write_calls_per_req", "count"),
    ("server.epoll_ctl_per_req", "count"),
    ("server.buf_allocs_per_req", "count"),
    ("server.body_copies", "count"),
    ("server.write_stalls", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.l1_hit_ratio", "ratio"),
    ("cache.l1_stale_reject_ratio", "ratio"),
    ("cache.l1_stale_serves", "count"),
    ("cache.evictions_per_s", "1/s"),
    ("cache.version_bumps_per_s", "1/s"),
    ("cache.touch_skip_ratio", "ratio"),
    ("cache.l2_get_ns", "ns"),
    ("cache.l1_lookup_ns", "ns"),
    ("cache.insert_ns", "ns"),
    ("http.parse_request_ns", "ns"),
    ("http.parse_response_ns", "ns"),
    ("upstream.pool_reuse_ratio", "ratio"),
    ("upstream.coalesced_ratio", "ratio"),
    ("upstream.retries", "count"),
    ("origin.rtt_ms_p50", "ms"),
    ("origin_rps", "1/s"),
    ("refresh.polls_per_s", "1/s"),
    ("refresh.useful_poll_ratio", "ratio"),
    ("refresh.triggered_ratio", "ratio"),
    ("refresh.triggered_coalesced", "count"),
    ("refresh.errors", "count"),
    ("refresh.drift_p50_ms", "ms"),
    ("refresh.drift_p99_ms", "ms"),
    ("refresh.cpu_us_per_poll", "us"),
    ("refresh.install_ms", "ms"),
    ("core.limd_update_ns", "ns"),
    ("core.mt_on_poll_ns", "ns"),
    ("grid.fig3_ms", "ms"),
    ("grid.fig5_ms", "ms"),
    ("grid.fig7_ms", "ms"),
    ("grid.polls", "count"),
    ("sim_polls_per_s", "1/s"),
    ("sim.cpu_ns_per_poll", "ns"),
    ("sim.worker_busy_share", "ratio"),
    ("traces.generate_ms", "ms"),
    ("gen.late_p50_us", "us"),
    ("gen.late_p99_us", "us"),
    ("gen.own_late_p99_us", "us"),
    ("gen.cpu_share", "ratio"),
    ("gen.valid", "bool"),
    ("latency.samples", "count"),
    ("latency.p99_ms", "ms"),
    ("latency.p99_beyond", "count"),
    ("latency.p999_ms", "ms"),
    ("latency.p999_beyond", "count"),
    ("trace.overhead_pct", "%"),
];

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// When the process started (set-up time counts from here).
    pub process_start: Instant,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests (or sweep calls) attempted.
    pub attempted: u64,
    /// Attempts whose output was wrong, missing or late.
    pub failed: u64,
    e2e: Vec<(&'static str, f64)>,
    layer: Vec<(&'static str, f64)>,
    /// Configuration facts, as (key, JSON value).
    pub record: Vec<(&'static str, String)>,
    /// False when the generator itself ran late.
    pub valid: bool,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.push((name, value));
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layer.push((name, value));
    }

    /// Sets `setup_s` to the median of the run's set-up times and lists
    /// each of them in the record.
    pub fn setup_times(&mut self, setup_s: &[f64]) {
        self.e2e("setup_s", stats::median(setup_s));
        let each: Vec<String> = setup_s.iter().map(|s| format!("{s:.5}")).collect();
        self.record
            .push(("setup_s_each", format!("[{}]", each.join(","))));
    }

    /// The ungated latency tail with the counts behind it.
    pub fn latency_tail(&mut self, sorted_ms: &[f64]) {
        self.layer("latency.samples", sorted_ms.len() as f64);
        for (q, value, beyond) in [
            (0.99, "latency.p99_ms", "latency.p99_beyond"),
            (0.999, "latency.p999_ms", "latency.p999_beyond"),
        ] {
            if let Some(p) = percentile(sorted_ms, q) {
                if !p.resolved() {
                    eprintln!(
                        "{value}: only {} of {} samples lie beyond it; read it as unresolved",
                        p.beyond, p.samples
                    );
                }
                self.layer(value, p.value);
                self.layer(beyond, p.beyond as f64);
            }
        }
    }
}

const USAGE: &str =
    "usage: e2ebench --workload <hot_read|zipf_refresh|paper_grid> --seed <n> --seconds <1..600> --trace <0|1>";

fn parse_args(process_start: Instant) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed".to_owned())?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|_| "bad --seconds".to_owned())?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1..600".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
        process_start,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args(process_start) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let steal0 = sys::steal_ticks();
    let result = match args.workload.as_str() {
        "hot_read" => live::run(&live::HOT_READ, &args),
        "zipf_refresh" => live::run(&live::ZIPF_REFRESH, &args),
        "paper_grid" => grid::run(&args),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    outcome.e2e("peak_rss_mb", sys::peak_rss_mb());
    let steal1 = sys::steal_ticks();
    let steal_share = sys::steal_share(steal0, steal1);
    outcome.layer("gen.valid", f64::from(u8::from(outcome.valid)));
    if !outcome.valid {
        eprintln!("run invalid: the generator ran late or the host withheld the CPUs");
    }

    let spans_file = outcome.tracer.as_ref().map(|tracer| {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        if let Err(e) = tracer.write_tsv(&path) {
            eprintln!("writing {}: {e}", path.display());
        }
        path
    });

    let mut record = format!(
        "{{\"record\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"valid\":{},\"nproc\":{},\"kernel\":\"{}\",\"host_steal_share\":{:.4}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        outcome.valid,
        sys::nproc(),
        sys::kernel(),
        steal_share
    );
    for (key, value) in &outcome.record {
        let _ = write!(record, ",\"{key}\":{value}");
    }
    if let Some(path) = &spans_file {
        let _ = write!(record, ",\"spans_file\":\"{}\"", path.display());
    }
    record.push_str("}}");
    println!("{record}");

    let (table, values) = if args.trace {
        (PER_LAYER, &outcome.layer)
    } else {
        (END_TO_END, &outcome.e2e)
    };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = values
                .iter()
                .rev()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutcon_traces::json::Json;

    /// The metric tables here and the names in `BENCHMARK.json` agree.
    #[test]
    fn benchmark_json_lists_the_metrics_printed() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = mutcon_traces::json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_owned(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_owned(),
                    )
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(END_TO_END));
        assert_eq!(names("per_layer"), table(PER_LAYER));
    }
}
