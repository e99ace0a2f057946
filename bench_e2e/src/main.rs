//! `fqbert-e2e-bench` — the repository's end-to-end benchmark.
//!
//! ```text
//! fqbert-e2e-bench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! fqbert-e2e-bench steady --workload <name> --runs <n> [--seed <first>] [--seconds <s>]
//!                         [--trace <0|1>] [--out <results.jsonl>]
//! fqbert-e2e-bench compare <parent.jsonl> <change.jsonl>
//! ```
//!
//! A run builds the workload's seeded `.fqbt` artifacts, loads them with
//! `ModelRegistry::load`, serves them with `Server::spawn` under the
//! `fqbert-serve` binary's default policy, drives the server over TCP from
//! one or two connections, and checks answers against a direct
//! `Engine::classify_batch`. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `bench_e2e/README.md` for the workloads and every metric.

mod loadgen;
mod modes;
mod replay;
mod stats;
mod trace;
mod workload;

use fqbert_runtime::{Engine, EngineBuilder};
use fqbert_serve::json::{self, Json};
use fqbert_serve::{BatchPolicy, ModelRegistry, ModelSpec, Server, ServerConfig};
use loadgen::{Conn, Outcome, Phase, PhaseResult, References, Sample};
use stats::{median, percentile, Rng};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use workload::{Texts, Workload, CACHE_CAPACITY};

/// Setup is repeated and its median reported; at most this many times...
const SETUP_REPS: usize = 5;
/// ...and at least 3 times, stopping after this much setup time.
const SETUP_BUDGET: Duration = Duration::from_secs(3);
/// Pause between `Server::spawn` and the set-up connection.
const ACCEPT_SETTLE: Duration = Duration::from_millis(5);
/// Texts of one phase come from their own index range.
const PHASE_STRIDE: u64 = 1_000_000_000;

/// Root of the checkout the benchmark was built in.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a directory of the repository")
        .to_path_buf()
}

fn out_dir() -> PathBuf {
    repo_root().join("bench_e2e").join("out")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("steady") => modes::steady(&args[1..]),
        Some("compare") => modes::compare(&args[1..]),
        _ => run_cli(&args),
    };
    std::process::exit(code);
}

fn usage() -> i32 {
    eprintln!(
        "usage: fqbert-e2e-bench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>\n       \
         fqbert-e2e-bench steady --workload <name> --runs <n> [--seed <first>] [--seconds <s>] [--trace <0|1>] [--out <file>]\n       \
         fqbert-e2e-bench compare <parent.jsonl> <change.jsonl>",
        workload::NAMES.join("|")
    );
    2
}

/// Named metric values with their units, in print order.
type Metrics = Vec<(String, f64, &'static str)>;

/// Flag values of a run.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Parses `--flag value` pairs into a map.
pub fn flags(args: &[String]) -> Option<BTreeMap<String, String>> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag.strip_prefix("--")?;
        out.insert(name.to_string(), it.next()?.clone());
    }
    Some(out)
}

fn run_cli(args: &[String]) -> i32 {
    let Some(f) = flags(args) else { return usage() };
    let parsed = (|| {
        Some(RunArgs {
            workload: f.get("workload")?.clone(),
            seed: f.get("seed")?.parse().ok()?,
            seconds: f.get("seconds")?.parse().ok().filter(|&s| s > 0)?,
            trace: match f.get("trace").map(String::as_str) {
                None | Some("0") => false,
                Some("1") => true,
                Some(_) => return None,
            },
        })
    })();
    let Some(run) = parsed else { return usage() };
    let names: Vec<&str> = if run.workload == "all" {
        workload::NAMES.to_vec()
    } else {
        vec![run.workload.as_str()]
    };
    let mut worst = 0;
    for name in names {
        let Some(w) = Workload::by_name(name) else {
            return usage();
        };
        let code = match run_workload(&w, &run) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("{name}: {e}");
                1
            }
        };
        worst = worst.max(code);
    }
    worst
}

/// One set-up: load, spawn, one answered request per model.
struct Setup {
    server: Server,
    engines: Vec<Arc<Engine>>,
    times: SetupTimes,
}

/// Spans of one set-up, as offsets from the run's epoch.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    start: Duration,
    /// `ModelRegistry::load` until every model answered (`setup_s`).
    total: Duration,
    load: Duration,
    /// From `spawn` returning until every model answered.
    first_forward: Duration,
}

fn start_server(w: &Workload, specs: &[ModelSpec], epoch: Instant) -> Result<Setup, String> {
    let t0 = Instant::now();
    let registry = ModelRegistry::load(specs).map_err(|e| format!("registry load: {e}"))?;
    let load = t0.elapsed();
    let engines = registry.iter().map(|(_, e)| Arc::clone(e)).collect();
    let server = Server::spawn(
        registry,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            policy: BatchPolicy::default().bounded(1024),
            cache_capacity: CACHE_CAPACITY,
        },
    )
    .map_err(|e| format!("server spawn: {e}"))?;
    let t1 = Instant::now();
    // The server's accept loop polls; connecting the instant `spawn`
    // returns races its first accept call, which makes set-up time bimodal
    // by thread start order. Connecting a moment later always lands in the
    // first poll interval, as a client starting after the server would.
    std::thread::sleep(ACCEPT_SETTLE);
    let mut conn = Conn::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    for (i, def) in w.models.iter().enumerate() {
        // A text outside every workload, so no later request replays it.
        let line =
            loadgen::request_frame(&format!("setup{i}"), def.name, &["setup probe".to_string()]);
        let answer = conn
            .roundtrip(&line)
            .map_err(|e| format!("setup request: {e}"))?;
        if answer.contains("\"error\"") {
            return Err(format!("setup request failed: {answer}"));
        }
    }
    Ok(Setup {
        server,
        engines,
        times: SetupTimes {
            start: t0 - epoch,
            total: t0.elapsed(),
            load,
            first_forward: t1.elapsed(),
        },
    })
}

/// Removes the run's fixture directory however the run ends.
struct Cleanup(PathBuf);

impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_workload(w: &Workload, run: &RunArgs) -> Result<i32, String> {
    let epoch = Instant::now();
    let work = out_dir().join(format!("work-{}-{}", w.name, std::process::id()));
    let _cleanup = Cleanup(work.clone());
    let specs = workload::build_fixtures(w, &work)?;
    eprintln!(
        "{}: fixtures built in {:.2} s",
        w.name,
        epoch.elapsed().as_secs_f64()
    );
    let source = w.text_source(run.seed);
    let (window, traced) = if run.trace {
        let half = Duration::from_secs_f64(run.seconds as f64 / 2.0);
        (half, Some(half))
    } else {
        (Duration::from_secs(run.seconds), None)
    };
    let bases = [PHASE_STRIDE, 2 * PHASE_STRIDE];
    let (references, kernel) = reference_logits(w, &specs, &source, run.seed, &bases)?;
    eprintln!(
        "{}: {} reference logits at {:.2} s",
        w.name,
        references.len(),
        epoch.elapsed().as_secs_f64()
    );
    println!("provenance {}", provenance(w, run, kernel).render());

    // Set-up, repeated; the last server stays up for the measurement.
    let mut setups = Vec::new();
    let setup_started = Instant::now();
    let setup = loop {
        let s = start_server(w, &specs, epoch)?;
        let enough = setups.len() + 1 >= SETUP_REPS
            || (setups.len() + 1 >= 3 && setup_started.elapsed() >= SETUP_BUDGET);
        setups.push(s.times);
        if enough {
            break s;
        }
        s.server.shutdown();
    };
    let addr = setup.server.local_addr();
    let history = Mutex::new(HashSet::new());
    let phase = |index_base: u64, duration: Duration, tracing: bool| Phase {
        workload: w,
        addr,
        source: &source,
        references: &references,
        index_base,
        duration,
        epoch,
        tracing,
        history: &history,
    };
    let warmup = Duration::from_secs_f64((run.seconds as f64 * 0.1).clamp(1.0, 3.0));
    let io = |e: std::io::Error| format!("load generator: {e}");
    let warm = phase(0, warmup, false).run().map_err(io)?;
    // Weights resident after warm-up, with the registry's dedup netted out.
    let resident_bytes: usize = setup
        .engines
        .iter()
        .map(|e| {
            e.resident_bytes()
                .saturating_sub(e.load_stats().shared_bytes)
        })
        .sum();
    let measured = phase(bases[0], window, false).run().map_err(io)?;
    let traced = match traced {
        Some(duration) => {
            let before = stats_frame(addr)?;
            let on = phase(bases[1], duration, true).run().map_err(io)?;
            let after = stats_frame(addr)?;
            Some((on, before, after))
        }
        None => None,
    };
    let mut phases = vec![("warmup", &warm), ("window", &measured)];
    phases.extend(traced.as_ref().map(|(on, _, _)| ("traced", on)));

    let setup_s = median(
        &setups
            .iter()
            .map(|s| s.total.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    for (rep, s) in setups.iter().enumerate() {
        println!(
            "setup {rep}: {:.3} ms (load {:.3} ms, first answers {:.3} ms)",
            s.total.as_secs_f64() * 1e3,
            s.load.as_secs_f64() * 1e3,
            s.first_forward.as_secs_f64() * 1e3
        );
    }
    let mut attempted = 0;
    let mut failed = 0;
    let mut mismatches = Vec::new();
    for (name, p) in &phases {
        let e = E2e::of(w, p);
        println!(
            "phase {name:<7} sent {} ok {} failed {} (refused {}, unanswered {}, mismatched {}) \
             error_rate {:.6} repeat_share {:.4}",
            e.sent,
            e.ok,
            e.sent - e.ok,
            e.refused,
            e.unanswered,
            e.mismatched,
            (e.sent - e.ok) as f64 / e.sent.max(1) as f64,
            e.repeat_share,
        );
        mismatches.extend(p.samples.iter().filter_map(|s| match &s.outcome {
            Outcome::Mismatch(why) => Some(why.clone()),
            _ => None,
        }));
        if *name != "warmup" {
            attempted += e.sent;
            failed += e.sent - e.ok;
        }
    }
    let e2e = E2e::of(w, &measured);
    let end_to_end: Metrics = vec![
        ("setup_s".into(), setup_s, "s"),
        ("throughput_seq_s".into(), e2e.throughput, "1/s"),
        ("latency_p50_ms".into(), e2e.p50, "ms"),
        ("latency_p99_ms".into(), e2e.p99, "ms"),
        ("slo_attainment".into(), e2e.slo, "ratio"),
        (
            "weights_resident_mb".into(),
            resident_bytes as f64 / 1e6,
            "MB",
        ),
    ];
    for (name, value, unit) in &end_to_end {
        let n = match name.as_str() {
            "setup_s" => format!(" (n={})", setups.len()),
            "latency_p50_ms" | "latency_p99_ms" | "throughput_seq_s" => format!(
                " (n={}, p{:.0} supported)",
                e2e.latencies,
                stats::supported_tail(e2e.latencies),
            ),
            _ => String::new(),
        };
        println!("metric {name} {value} {unit}{n}");
    }
    let latencies: Vec<f64> = measured
        .samples
        .iter()
        .filter(|s| s.outcome == Outcome::Ok)
        .filter_map(Sample::latency_ms)
        .collect();
    println!(
        "latency_ms p50 {:.3} p90 {:.3} p95 {:.3} p99 {:.3} max {:.3} (slo {} ms)",
        percentile(&latencies, 50.0),
        percentile(&latencies, 90.0),
        percentile(&latencies, 95.0),
        percentile(&latencies, 99.0),
        percentile(&latencies, 100.0),
        w.slo_ms
    );
    let metrics = match &traced {
        None => end_to_end,
        Some((on, before, after)) => {
            let traced = E2e::of(w, on);
            let (values, replay_spans) = per_layer(
                w,
                &setups,
                on,
                before,
                after,
                &setup.engines[0],
                &traced,
                &e2e,
                epoch,
            )?;
            let spans =
                trace::assign_ids(vec![on.spans.clone(), setup_spans(&setups), replay_spans]);
            let path = out_dir().join(format!("trace-{}-seed{}.jsonl", w.name, run.seed));
            trace::write_spans(&path, &spans)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            println!("trace {} spans -> {}", spans.len(), path.display());
            for (name, value, unit) in &values {
                println!("layer {name} {value} {unit}");
            }
            values
        }
    };
    setup.server.shutdown();
    drop(setup);

    for why in mismatches.iter().take(5) {
        eprintln!("MISMATCH: {why}");
    }
    let mut obj = BTreeMap::new();
    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        obj.insert(
            name.clone(),
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
        );
    }
    let correct = mismatches.is_empty();
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(obj)),
    ]);
    println!("{}", result.render());
    Ok(if correct { 0 } else { 1 })
}

/// Spans of the repeated set-up: load, then the first answers.
fn setup_spans(setups: &[SetupTimes]) -> Vec<trace::Span> {
    let mut t = trace::Tracer::new(true);
    for (rep, s) in setups.iter().enumerate() {
        let end = s.start + s.total;
        let root = t.span(rep as u64, None, "setup", s.start, end);
        t.span(
            rep as u64,
            Some(root),
            "runtime.load",
            s.start,
            s.start + s.load,
        );
        t.span(
            rep as u64,
            Some(root),
            "runtime.first_forward",
            end - s.first_forward,
            end,
        );
    }
    t.into_spans()
}

/// End-to-end figures of one phase, each over the whole window.
struct E2e {
    sent: usize,
    ok: usize,
    refused: usize,
    unanswered: usize,
    mismatched: usize,
    throughput: f64,
    p50: f64,
    p99: f64,
    latencies: usize,
    slo: f64,
    repeat_share: f64,
}

impl E2e {
    fn of(w: &Workload, p: &PhaseResult) -> E2e {
        let s = &p.samples;
        let ok: Vec<&Sample> = s.iter().filter(|x| x.outcome == Outcome::Ok).collect();
        let latencies: Vec<f64> = ok.iter().filter_map(|x| x.latency_ms()).collect();
        let last = ok.iter().filter_map(|x| x.recv).max().unwrap_or(p.end);
        let span = last.saturating_sub(p.start).as_secs_f64().max(1e-9);
        let seqs: usize = ok.iter().map(|x| x.texts).sum();
        let count = |f: fn(&Outcome) -> bool| s.iter().filter(|x| f(&x.outcome)).count();
        E2e {
            sent: s.len(),
            ok: ok.len(),
            refused: count(|o| matches!(o, Outcome::Refused(_))),
            unanswered: count(|o| matches!(o, Outcome::Unanswered)),
            mismatched: count(|o| matches!(o, Outcome::Mismatch(_))),
            throughput: seqs as f64 / span,
            p50: percentile(&latencies, 50.0),
            p99: percentile(&latencies, 99.0),
            latencies: latencies.len(),
            slo: latencies.iter().filter(|&&l| l <= w.slo_ms).count() as f64
                / s.len().max(1) as f64,
            repeat_share: s.iter().filter(|x| x.repeat).count() as f64 / s.len().max(1) as f64,
        }
    }
}

/// Sends `{"cmd":"stats"}` on a short-lived connection and returns the
/// decoded `stats` object.
fn stats_frame(addr: std::net::SocketAddr) -> Result<Json, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("stats connect: {e}"))?;
    let line = conn
        .roundtrip("{\"cmd\":\"stats\"}")
        .map_err(|e| format!("stats: {e}"))?;
    let value = json::parse(&line).map_err(|e| format!("stats frame: {e}"))?;
    value
        .get("stats")
        .cloned()
        .ok_or_else(|| format!("stats frame without stats: {line}"))
}

fn counter(stats: &Json, pred: impl Fn(&str) -> bool) -> f64 {
    stats
        .get("counters")
        .and_then(Json::as_obj)
        .map(|m| {
            m.iter()
                .filter(|(k, _)| pred(k))
                .filter_map(|(_, v)| v.as_f64())
                .sum()
        })
        .unwrap_or(0.0)
}

/// The traced run's per-layer values.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    w: &Workload,
    setups: &[SetupTimes],
    on: &PhaseResult,
    before: &Json,
    after: &Json,
    engine: &Engine,
    traced: &E2e,
    off: &E2e,
    epoch: Instant,
) -> Result<(Metrics, Vec<trace::Span>), String> {
    let ok: Vec<&Sample> = on
        .samples
        .iter()
        .filter(|s| s.outcome == Outcome::Ok)
        .collect();
    let engine_served: Vec<&&Sample> = ok.iter().filter(|s| !s.cached).collect();
    let waits: Vec<f64> = engine_served.iter().map(|s| s.wait_ms * 1e3).collect();
    let flushes: Vec<f64> = engine_served.iter().map(|s| s.flushed as f64).collect();
    // Timed from when the server could read the request, so a pipelined
    // frame's wait behind earlier ones on its connection is not counted.
    let overhead: Vec<f64> = ok
        .iter()
        .filter_map(|s| {
            Some((s.decoded?.saturating_sub(s.ready)).as_secs_f64() * 1e6 - s.server_ms * 1e3)
        })
        .collect();
    let delta = |pred: fn(&str) -> bool| counter(after, pred) - counter(before, pred);
    let hits = delta(|k| k == "cache.hits");
    let lookups = hits + delta(|k| k == "cache.misses") + delta(|k| k == "cache.coalesced");
    let engine_p50 = after
        .get("histograms")
        .and_then(|h| h.get(&format!("model.{}.engine.classify_us", w.models[0].name)))
        .and_then(|h| h.get("p50"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let flush = median(&flushes).round().max(1.0) as usize;
    let mut tracer = trace::Tracer::new(true);
    let (values, table) = replay::replay(
        &replay::ReplayInput {
            engine,
            model_name: w.models[0].name,
            requests: &on.texts,
            frames: &on.frames,
            flush,
        },
        &mut tracer,
        epoch,
    )?;
    print!("{table}");
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let mut out: Metrics = vec![
        (
            "serve.queue_wait_us_p50".into(),
            percentile(&waits, 50.0),
            "us",
        ),
        (
            "serve.queue_wait_us_p99".into(),
            percentile(&waits, 99.0),
            "us",
        ),
        ("serve.flush_size_mean".into(), mean(&flushes), "seq"),
        ("serve.overhead_us".into(), median(&overhead), "us"),
        (
            "serve.cache_hit_ratio".into(),
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "ratio",
        ),
        (
            "serve.cache_coalesced".into(),
            delta(|k| k == "cache.coalesced"),
            "count",
        ),
        (
            "serve.shed".into(),
            delta(|k| k.ends_with(".queue.shed")),
            "count",
        ),
        (
            "serve.errors".into(),
            delta(|k| k == "server.errors"),
            "count",
        ),
        ("runtime.engine_classify_us_p50".into(), engine_p50, "us"),
        (
            "runtime.load_ms".into(),
            median(
                &setups
                    .iter()
                    .map(|s| s.load.as_secs_f64() * 1e3)
                    .collect::<Vec<_>>(),
            ),
            "ms",
        ),
        (
            "runtime.first_forward_ms".into(),
            median(
                &setups
                    .iter()
                    .map(|s| s.first_forward.as_secs_f64() * 1e3)
                    .collect::<Vec<_>>(),
            ),
            "ms",
        ),
        ("loadgen.repeat_share".into(), traced.repeat_share, "ratio"),
        (
            "trace.delta_throughput_seq_s".into(),
            traced.throughput - off.throughput,
            "1/s",
        ),
        (
            "trace.delta_latency_p50_ms".into(),
            traced.p50 - off.p50,
            "ms",
        ),
        (
            "trace.delta_latency_p99_ms".into(),
            traced.p99 - off.p99,
            "ms",
        ),
        (
            "trace.delta_slo_attainment".into(),
            traced.slo - off.slo,
            "ratio",
        ),
    ];
    out.extend(values);
    Ok((out, tracer.into_spans()))
}

/// Loads a reference engine per model and computes the logits of the
/// correctness sample with a direct `Engine::classify_batch`, before any
/// timing: the whole pool for pooled inputs, else a seeded sample of the
/// first texts of each measured phase.
fn reference_logits(
    w: &Workload,
    specs: &[ModelSpec],
    source: &workload::TextSource,
    seed: u64,
    bases: &[u64],
) -> Result<(References, &'static str), String> {
    let engines = w
        .models
        .iter()
        .zip(specs)
        .map(|(def, spec)| {
            EngineBuilder::new(fqbert_nlp::TaskKind::Sst2)
                .threads(def.threads)
                .load(&spec.path)
                .map_err(|e| format!("reference engine {}: {e}", def.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let models = w.models.len() as u64;
    let per = w.texts_per_request as u64;
    let mut wanted: Vec<Vec<String>> = vec![Vec::new(); w.models.len()];
    match w.texts {
        Texts::Pool { .. } => {
            for texts in &mut wanted {
                texts.extend(source.pool().iter().cloned());
            }
        }
        Texts::Unique { .. } => {
            let early = 2 * w.reference_sample as u64;
            let mut rng = Rng::new(seed, 0xB000_0000);
            for &base in bases {
                let mut picked = std::collections::BTreeSet::new();
                while picked.len() < w.reference_sample {
                    picked.insert(rng.next_u64() % early);
                }
                for i in picked {
                    wanted[((i / per) % models) as usize].push(source.text(base + i));
                }
            }
        }
    }
    let mut references = References::new();
    for (m, (engine, texts)) in engines.iter().zip(&wanted).enumerate() {
        if texts.is_empty() {
            continue;
        }
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let batch = fqbert_runtime::EncodedBatch::from_texts(engine.tokenizer(), &refs);
        let out = engine
            .classify_batch(&batch)
            .map_err(|e| format!("reference classify: {e}"))?;
        for (text, logits) in texts.iter().zip(out.logits) {
            references.insert(
                (m, text.clone()),
                logits.iter().map(|v| v.to_bits()).collect(),
            );
        }
    }
    Ok((references, engines[0].kernel()))
}

/// What was measured, on what: recorded with every result.
fn provenance(w: &Workload, run: &RunArgs, kernel: &str) -> Json {
    let env = |name: &str| std::env::var(name).map_or(Json::Null, Json::str);
    let models = w
        .models
        .iter()
        .map(|m| {
            let c = &m.config;
            Json::obj([
                ("name", Json::str(m.name)),
                ("bits", Json::str(m.bits)),
                ("threads", Json::Num(m.threads as f64)),
                (
                    "shape",
                    Json::str(format!(
                        "hidden {} layers {} heads {} intermediate {} max_len {}",
                        c.hidden, c.layers, c.heads, c.intermediate, w.max_len
                    )),
                ),
            ])
        })
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Json::obj([
        ("workload", Json::str(w.name)),
        ("seed", Json::Num(run.seed as f64)),
        ("seconds", Json::Num(run.seconds as f64)),
        ("trace", Json::Bool(run.trace)),
        ("git_rev", Json::str(git_rev())),
        (
            "source_crc32",
            Json::str(format!("{:08x}", source_digest())),
        ),
        ("kernel", Json::str(kernel)),
        ("nproc", Json::Num(nproc as f64)),
        ("models", Json::Arr(models)),
        ("params", Json::str(w.params())),
        (
            "env",
            Json::obj([
                ("FQBERT_THREADS", env("FQBERT_THREADS")),
                ("FQBERT_KERNEL", env("FQBERT_KERNEL")),
            ]),
        ),
    ])
}

/// The commit of a git checkout, or `none` outside one.
fn git_rev() -> String {
    let root = repo_root();
    if !root.join(".git").exists() {
        return "none".to_string();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// CRC-32 over the program's sources and manifests and the benchmark's
/// own sources, so results from checkouts without git still name the code
/// they measured.
fn source_digest() -> u32 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if !matches!(
                    path.file_name().and_then(|n| n.to_str()),
                    Some("target" | "out")
                ) {
                    walk(&path, out);
                }
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml" | "lock")
            ) {
                out.push(path);
            }
        }
    }
    let root = repo_root();
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("bench_e2e"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(
            f.strip_prefix(&root)
                .unwrap_or(&f)
                .to_string_lossy()
                .as_bytes(),
        );
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    fqbert_runtime::artifact::crc32(&bytes)
}
