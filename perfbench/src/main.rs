//! Round-latency benchmark for LightSecAgg secure aggregation.
//!
//! ```text
//! perfbench --workload <stable_cohort|sampled_cohort|async_wide> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`) it prints the end-to-end metrics; traced
//! (`--trace 1`) the per-layer ones. Every line is `name value unit`;
//! the last line is one JSON object with the verdict and the metrics.
//! See `README.md` beside this crate for the workloads and metrics.

mod probes;
mod run;
mod stats;
mod trace;
mod workload;

use lsa_field::{Field, Fp32, Fp61};
use lsa_protocol::wire::EnvelopeKind;
use run::{Harness, RoundRecord};
use std::process::ExitCode;
use workload::{Sampler, Workload};

/// Independent set-ups in an untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Measured rounds an untraced run makes at least: enough for ten
/// samples beyond p90, in whole blocks.
const MIN_ROUNDS: usize = 104;

/// Share of `--seconds` the traced run's untraced pass measures for;
/// the traced pass then replays the same number of rounds.
const TRACED_SPLIT: f64 = 0.45;

/// Least measured rounds of each pass of a traced run.
const MIN_TRACED_ROUNDS: usize = 16;

/// Environment knobs that change what a workload measures.
const FORBIDDEN_KNOBS: [&str; 3] = ["LSA_RATCHET", "LSA_PAD_TOPOLOGY", "LSA_COMMIT_WINDOW"];

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                );
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Refuse knob settings that silently change what a workload measures.
fn check_environment() -> Result<(), String> {
    for knob in FORBIDDEN_KNOBS {
        if let Ok(v) = std::env::var(knob) {
            return Err(format!(
                "{knob}={v:?} is set; it changes what the workloads measure — unset it"
            ));
        }
    }
    if let Ok(v) = std::env::var("LSA_THREADS") {
        match v.trim().parse::<usize>() {
            Ok(n) if n > nproc() => {
                return Err(format!(
                    "LSA_THREADS={n} exceeds the {} available cores",
                    nproc()
                ))
            }
            _ => {}
        }
    }
    Ok(())
}

/// The commit of the checkout, if it is a git work tree.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).map_or_else(
            |_| format!("unknown ({reference})"),
            |s| s.trim().to_string(),
        ),
        None => head,
    }
}

fn print_provenance(args: &Args) {
    let knob = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# nproc={} LSA_THREADS={} (workers {}) LSA_SIMD={} (backend {})",
        nproc(),
        knob("LSA_THREADS"),
        lsa_field::par::num_threads(),
        knob("LSA_SIMD"),
        lsa_field::simd::backend().name()
    );
    println!(
        "# ratchet={} pad_topology={} commit_window={} commit={}",
        lsa_protocol::ratchet_enabled(),
        lsa_protocol::pad_topology().name(),
        lsa_protocol::commit_window(),
        commit()
    );
}

/// Seconds the hypervisor took the machine's cores away from it so far
/// (the `steal` column of `/proc/stat`, in 1/100 s ticks), or `None`
/// where the kernel does not report it. A shared host's steal is the
/// main source of run-to-run spread, so every run prints it.
fn host_steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks / 100.0)
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// One printed metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The result of one invocation.
struct Outcome {
    attempted: usize,
    failed: usize,
    /// Why the run is not correct beyond failed rounds (self-check or
    /// equivalence failures).
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

impl Outcome {
    /// A run whose set-up failed: one failed attempt, no metrics.
    fn set_up_failed(why: String) -> Self {
        Outcome {
            attempted: 1,
            failed: 1,
            problems: vec![why],
            metrics: Vec::new(),
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print_outcome(outcome: &Outcome) -> bool {
    for p in &outcome.problems {
        println!("# FAILED: {p}");
    }
    println!(
        "failed_round_frac {} ratio ({} of {} rounds failed)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for m in &outcome.metrics {
        println!("{} {} {}", m.name, json_number(m.value), m.unit);
    }
    let correct = outcome.failed == 0 && outcome.problems.is_empty();
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    correct
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// An untraced run: set up [`SETUP_REPS`] times, measure the last set-up
/// for `--seconds`, report the end-to-end metrics.
fn untraced<F: Field, H: Harness<F>>(
    args: &Args,
    build: &dyn Fn() -> Result<H, lsa_protocol::ProtocolError>,
) -> Outcome {
    let shape = args.workload.shape();
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        match run::set_up::<F, H>(build, Sampler::new(args.workload, args.seed)) {
            Ok((h, sampler, seconds)) => {
                setups.push(seconds);
                kept = Some((h, sampler));
            }
            Err(e) => return Outcome::set_up_failed(e),
        }
    }
    let (mut h, mut sampler) = kept.expect("at least one set-up");
    let records = run::measure(&mut h, &mut sampler, MIN_ROUNDS, Some(args.seconds));

    let ok: Vec<&RoundRecord> = records.iter().filter(|r| r.ok()).collect();
    let round_ms: Vec<f64> = ok.iter().map(|r| r.round_ms()).collect();
    let online_ms: Vec<f64> = ok.iter().map(|r| r.online_ms()).collect();
    let per_client =
        |bytes: fn(&RoundRecord) -> u64| mean(ok.iter().map(|r| bytes(r) as f64 / r.cohort as f64));
    let p = |xs: &[f64], q: f64| stats::percentile(xs, q).unwrap_or(f64::NAN);
    let tail = stats::tail_count(round_ms.len(), 0.9);
    println!(
        "# {} measured rounds ({} ok, {tail} beyond p90)",
        records.len(),
        ok.len()
    );
    let mut problems = run::self_check(args.workload, &shape, &records);
    if tail < stats::MIN_TAIL {
        problems.push(format!("only {tail} samples beyond p90"));
    }
    let metrics = vec![
        metric("round_ms_p50", p(&round_ms, 0.5), "ms"),
        metric("round_ms_p90", p(&round_ms, 0.9), "ms"),
        metric("online_ms_p50", p(&online_ms, 0.5), "ms"),
        metric(
            "rounds_per_s",
            ok.len() as f64 / (round_ms.iter().sum::<f64>() / 1e3),
            "1/s",
        ),
        metric(
            "offline_bytes_per_client",
            per_client(|r| r.offline_bytes),
            "B",
        ),
        metric(
            "online_bytes_per_client",
            per_client(|r| r.online_bytes),
            "B",
        ),
        metric("setup_s", stats::median(&setups).expect("set-ups ran"), "s"),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
    ];
    Outcome {
        attempted: records.len(),
        failed: records.len() - ok.len(),
        problems,
        metrics,
    }
}

/// A traced run: kernel probes, then an untraced pass and a traced pass
/// over the same rounds; report the per-layer metrics.
fn traced<F: Field, P: Harness<F>, T: Harness<F>>(
    args: &Args,
    plain: &dyn Fn() -> Result<P, lsa_protocol::ProtocolError>,
    traced: &dyn Fn() -> Result<T, lsa_protocol::ProtocolError>,
) -> Outcome {
    let shape = args.workload.shape();
    let kernels = probes::probe::<F>(shape.domain_config(), args.seed);

    let (mut h, mut sampler, _) =
        match run::set_up::<F, P>(plain, Sampler::new(args.workload, args.seed)) {
            Ok(x) => x,
            Err(e) => return Outcome::set_up_failed(e),
        };
    let base = run::measure(
        &mut h,
        &mut sampler,
        MIN_TRACED_ROUNDS,
        Some(args.seconds * TRACED_SPLIT),
    );
    drop(h);
    let (mut h, mut sampler, _) =
        match run::set_up::<F, T>(traced, Sampler::new(args.workload, args.seed)) {
            Ok(x) => x,
            Err(e) => return Outcome::set_up_failed(e),
        };
    let records = run::measure(&mut h, &mut sampler, base.len(), None);
    println!("# {} rounds per pass", records.len());

    let mut problems = run::self_check(args.workload, &shape, &base);
    problems.extend(run::self_check(args.workload, &shape, &records));
    problems.extend(run::first_divergence(&base, &records));
    let failed = base.iter().chain(&records).filter(|r| !r.ok()).count();

    let rounds = records.len() as f64;
    let layers: Vec<&run::Layers> = records.iter().filter_map(|r| r.layers.as_ref()).collect();
    let ms = |ns: u64| ns as f64 / 1e6;
    let per_round = |f: &dyn Fn(&RoundRecord, &run::Layers) -> f64| {
        mean(records.iter().zip(&layers).map(|(r, l)| f(r, l)))
    };
    let grouped = args.workload.grouped();
    // Root wall time not spent inside any leaf call.
    let self_ns = |r: &RoundRecord, l: &run::Layers| -> f64 {
        if !grouped {
            return 0.0;
        }
        let inside = l.leaf_sum(|t| t.open_ns + t.submit_ns) + l.finish_cover_ns();
        (r.open_ns + r.submit_ns + r.finish_ns) as f64 - inside as f64
    };
    // Busy time across threads: the root's serial time plus every
    // leaf's finish, however they overlapped.
    let busy_ns = |r: &RoundRecord, l: &run::Layers| -> f64 {
        let wall = (r.open_ns + r.submit_ns + r.finish_ns) as f64;
        if grouped {
            wall - l.finish_cover_ns() as f64 + l.leaf_sum(|t| t.finish_ns) as f64
        } else {
            wall
        }
    };
    let total_wire = {
        let mut w = trace::WireStats::default();
        for l in &layers {
            w.absorb(&l.wire);
        }
        w
    };
    let domains = shape.topology().map_or(1, |t| t.num_groups());
    let (hits, fallbacks) = run::ratchet_totals(&records);
    let root_finish: u64 = records.iter().map(|r| r.finish_ns).sum();
    let leaf_finish: u64 = layers.iter().map(|l| l.leaf_sum(|t| t.finish_ns)).sum();

    let mut metrics = vec![
        metric("federation.open_ms", per_round(&|r, _| ms(r.open_ns)), "ms"),
        metric(
            "federation.submit_ms",
            per_round(&|r, _| ms(r.submit_ns)),
            "ms",
        ),
        metric(
            "federation.finish_ms",
            per_round(&|r, _| ms(r.finish_ns)),
            "ms",
        ),
        metric(
            "topology.leaf_open_ms",
            per_round(&|_, l| ms(l.leaf_sum(|t| t.open_ns))),
            "ms",
        ),
        metric(
            "topology.leaf_finish_ms",
            per_round(&|_, l| ms(l.leaf_sum(|t| t.finish_ns))),
            "ms",
        ),
        metric(
            "topology.slowest_leaf_finish_ms",
            per_round(&|_, l| ms(l.leaves.iter().map(|t| t.finish_ns).max().unwrap_or(0))),
            "ms",
        ),
        metric(
            "topology.self_ms",
            per_round(&|r, l| self_ns(r, l) / 1e6),
            "ms",
        ),
        metric(
            "topology.finish_parallelism",
            if grouped {
                leaf_finish as f64 / root_finish.max(1) as f64
            } else {
                0.0
            },
            "ratio",
        ),
        metric(
            "ratchet.hit_frac",
            hits as f64 / (domains as f64 * rounds),
            "ratio",
        ),
        metric("ratchet.fallbacks", fallbacks as f64 / rounds, "count"),
        metric("wire.encode_ms", ms(total_wire.encode_ns) / rounds, "ms"),
        metric("wire.decode_ms", ms(total_wire.decode_ns) / rounds, "ms"),
        metric("wire.bytes", total_wire.bytes as f64 / rounds, "B"),
        metric(
            "wire.envelopes",
            total_wire.envelopes() as f64 / rounds,
            "count",
        ),
    ];
    for kind in EnvelopeKind::ALL {
        metrics.push(metric(
            format!("wire.envelopes.{}", kind.name()),
            total_wire.kinds[trace::kind_index(kind)] as f64 / rounds,
            "count",
        ));
    }
    metrics.extend([
        metric(
            "transport.queue_ms",
            ms(total_wire.queue_ns()) / rounds,
            "ms",
        ),
        metric(
            "transport.recv_polls",
            total_wire.recv_polls as f64 / rounds,
            "count",
        ),
        metric(
            "transport.empty_poll_frac",
            total_wire.empty_polls as f64 / total_wire.recv_polls.max(1) as f64,
            "ratio",
        ),
        metric(
            "transport.max_in_flight",
            total_wire.max_in_flight as f64,
            "count",
        ),
        metric(
            "session.compute_ms",
            per_round(&|r, l| {
                (busy_ns(r, l) - (l.wire.encode_ns + l.wire.decode_ns + l.wire.queue_ns()) as f64)
                    / 1e6
            }),
            "ms",
        ),
        metric("coding.encode_us", kernels.encode_us, "us"),
        metric("coding.decode_us", kernels.decode_us, "us"),
        metric("crypto.prg_us", kernels.prg_us, "us"),
        metric("crypto.sha256_us", kernels.sha256_us, "us"),
        metric("field.add_assign_us", kernels.add_assign_us, "us"),
        metric("field.weighted_sum_us", kernels.weighted_sum_us, "us"),
    ]);
    let p50 = |rs: &[RoundRecord]| {
        let xs: Vec<f64> = rs
            .iter()
            .filter(|r| r.ok())
            .map(RoundRecord::round_ms)
            .collect();
        stats::median(&xs).unwrap_or(f64::NAN)
    };
    metrics.push(metric(
        "trace.overhead_frac",
        p50(&records) / p50(&base) - 1.0,
        "ratio",
    ));
    Outcome {
        attempted: base.len() + records.len(),
        failed,
        problems,
        metrics,
    }
}

fn dispatch(args: &Args) -> Outcome {
    let shape = args.workload.shape();
    let seed = args.seed;
    match (args.workload.grouped(), args.trace) {
        (true, false) => untraced::<Fp61, _>(args, &|| run::plain_grouped(&shape, seed)),
        (true, true) => traced::<Fp61, _, _>(args, &|| run::plain_grouped(&shape, seed), &|| {
            run::traced_grouped(&shape, seed)
        }),
        (false, false) => untraced::<Fp32, _>(args, &|| run::plain_flat(&shape, seed)),
        (false, true) => traced::<Fp32, _, _>(args, &|| run::plain_flat(&shape, seed), &|| {
            run::traced_flat(&shape, seed)
        }),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <stable_cohort|sampled_cohort|async_wide> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check_environment() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    print_provenance(&args);
    let steal_before = host_steal_s();
    let outcome = dispatch(&args);
    if let (Some(before), Some(after)) = (steal_before, host_steal_s()) {
        println!("# host steal during the run: {:.2} s", after - before);
    }
    if print_outcome(&outcome) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload async_wide --seed 4 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::AsyncWide);
        assert_eq!((a.seed, a.seconds, a.trace), (4, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload async_wide --seconds 1",
            "--workload async_wide --seed x --seconds 1",
            "--workload async_wide --seed 1 --seconds 0",
            "--workload async_wide --seed 1 --seconds 1 --trace 2",
            "--workload async_wide --seed 1 --seconds 1 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
