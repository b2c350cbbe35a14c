//! The repository's benchmark harness.
//!
//! ```text
//! perfbench --workload figures-cold|search-store|daemon-warm --seed N
//!           --seconds S --trace 0|1 --paper PATH [--input-seed N]
//!           [--work DIR]
//! perfbench capture --input-seed N     # print reference digests
//! ```
//!
//! Every workload calls the layers' public functions from outside. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer metrics of a separate traced run). See
//! `README.md` next to this crate.

mod check;
mod daemon;
mod digest;
mod mix;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use heterovliw_core::api::Engine;

use crate::check::{Checker, Refs};
use crate::report::{Metrics, END_TO_END, PER_LAYER};
use crate::trace::Tracer;

/// Everything a workload needs to know about its run.
pub struct Ctx {
    /// Worker threads of every engine and daemon, and the client
    /// connections of daemon-warm.
    pub nproc: usize,
    /// Workload seed: request order and client offsets.
    pub seed: u64,
    /// The program's suite seed.
    pub input_seed: u64,
    pub seconds: f64,
    /// This run's scratch directory.
    pub work: PathBuf,
    /// The `paper` binary the daemon runs.
    pub paper: PathBuf,
    pub trace: bool,
    pub tracer: Tracer,
}

const WORKLOADS: [&str; 3] = ["figures-cold", "search-store", "daemon-warm"];
const GOLDEN: &str = "tests/golden/figure6_loops5_buses1.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("capture") {
        capture(&args[1..])
    } else {
        run(&args)
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Machine parallelism: the cap on client threads and connections.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Refuses more client threads or connections than cores, so clients
/// never compete with the program for a core they cannot have.
pub fn guard_parallelism(clients: usize, nproc: usize) -> Result<(), String> {
    if clients == 0 || clients > nproc {
        return Err(format!(
            "{clients} clients on {nproc} cores: use 1..={nproc}"
        ));
    }
    Ok(())
}

/// VmHWM of a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status).map_err(|e| format!("{status}: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{status}: no VmHWM"))?;
    Ok(kb / 1024.0)
}

/// `nproc`, CPU model and memory, so runs on different machines are
/// never compared unknowingly.
fn fingerprint(nproc: usize) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown", |v| v.trim_start_matches([' ', '\t', ':']))
        .to_owned();
    let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
    let mem_kb: f64 = meminfo
        .lines()
        .find_map(|l| l.strip_prefix("MemTotal:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0);
    format!(
        "nproc={nproc} cpu=\"{cpu}\" mem_gb={:.1} os={}",
        mem_kb / 1024.0 / 1024.0,
        std::env::consts::OS
    )
}

/// `(all, steal)` jiffies of the `cpu` line of `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

struct Args {
    workload: String,
    seed: u64,
    input_seed: u64,
    seconds: f64,
    trace: bool,
    paper: PathBuf,
    work: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        input_seed: 0,
        seconds: 0.0,
        trace: false,
        paper: PathBuf::new(),
        work: PathBuf::from(".bench_build/perfbench-work"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = val()?.clone(),
            "--seed" => a.seed = num(val()?)?,
            "--input-seed" => a.input_seed = num(val()?)?,
            "--seconds" => a.seconds = num(val()?)? as f64,
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--paper" => a.paper = PathBuf::from(val()?),
            "--work" => a.work = PathBuf::from(val()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if a.seconds < 1.0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    if !a.paper.is_file() {
        return Err(format!("--paper {:?} is not the paper binary", a.paper));
    }
    Ok(a)
}

/// Compares Figure 6 at the golden's scale with the committed golden.
fn golden_check(chk: &Checker, jobs: usize) -> Result<(), String> {
    let golden = std::fs::read_to_string(GOLDEN).map_err(|e| format!("{GOLDEN}: {e}"))?;
    let req = heterovliw_core::api::Request::builder("figure6")
        .loops(5)
        .buses(heterovliw_core::api::BusSel::One)
        .seed(0)
        .build()?;
    let r = Engine::new(jobs).run(&req);
    chk.holds(
        "figure6 --loops 5 --buses 1 equals its golden",
        r.ok && r.body.as_deref() == Some(golden.as_str()),
    );
    Ok(())
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let a = parse(args)?;
    let nproc = nproc();
    let started = Instant::now();
    let cpu_before = cpu_ticks();
    let work = a.work.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let ctx = Ctx {
        nproc,
        seed: a.seed,
        input_seed: a.input_seed,
        seconds: a.seconds,
        work: work.clone(),
        paper: a.paper.clone(),
        trace: a.trace,
        tracer: Tracer::new(a.trace),
    };
    let outcome = measure(&ctx, &a.workload);
    let _ = std::fs::remove_dir_all(&work);
    let (metrics, chk) = outcome?;

    if a.trace {
        let dir = a.work.join("traces");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let file = dir.join(format!("{}-seed{}.jsonl", a.workload, a.seed));
        std::fs::write(&file, trace::to_jsonl(&ctx.tracer.spans())).map_err(|e| e.to_string())?;
        println!("spans written to {}", file.display());
    }
    let (attempted, failed, violations, problems) = chk.summary();
    println!(
        "perfbench {} seed={} input_seed={} seconds={} trace={} wall_s={:.1}",
        a.workload,
        a.seed,
        a.input_seed,
        a.seconds,
        u8::from(a.trace),
        started.elapsed().as_secs_f64()
    );
    println!("machine: {}", fingerprint(nproc));
    // Time the hypervisor ran other guests on this machine's CPUs: a run
    // with a large share is slowed by the host, not by the program.
    if let (Some((all0, steal0)), Some((all1, steal1))) = (cpu_before, cpu_ticks()) {
        println!(
            "cpu steal during the run: {:.1}% of CPU time",
            100.0 * (steal1 - steal0) as f64 / (all1 - all0).max(1) as f64
        );
    }
    print!("{}", metrics.table());
    println!("checks: {attempted} ops, {failed} failed, {violations} count violations");
    for p in problems.iter().take(20) {
        println!("  problem: {p}");
    }
    if attempted == 0 {
        return Err("no op was attempted".to_owned());
    }
    let names: Vec<&str> = if a.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let correct = failed == 0 && violations == 0;
    println!(
        "{}",
        metrics.result_line(&names, correct, attempted, failed)?
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn measure(ctx: &Ctx, workload: &str) -> Result<(Metrics, Checker), String> {
    let figure_ops = mix::figures(mix::FIG_LOOPS, ctx.input_seed);
    let search_op = mix::cold_search(ctx.input_seed, None);
    let mut ops: Vec<&mix::Op> = figure_ops.iter().collect();
    ops.push(&search_op);
    let chk = workloads::checker(ctx, &ops)?;
    golden_check(&chk, ctx.nproc)?;

    let mut m = Metrics::default();
    let over = match workload {
        "figures-cold" => workloads::figures_cold(ctx, &chk, &mut m)?,
        "search-store" => workloads::search_store(ctx, &chk, &mut m)?,
        _ => workloads::daemon_warm(ctx, &chk, &mut m)?,
    };
    let (attempted, failed, _, _) = chk.summary();
    m.value(
        "success_rate",
        "ratio",
        1.0 - failed as f64 / attempted.max(1) as f64,
        attempted as usize,
    );
    if ctx.trace {
        m.value(
            "trace.overhead_pct",
            "%",
            workloads::overhead_pct(&over)?,
            over.traced.len() + over.untraced.len(),
        );
        // Spans so far are the workload's traced ops; the probes' calls
        // follow. A layer the workload reaches reports its median self
        // time per traced op, any other layer its median per probe call.
        let phase_end = ctx.tracer.spans().iter().map(|s| s.id).max().unwrap_or(0);
        probes::run(ctx, &chk, &mut m)?;
        let (phase, probe): (Vec<_>, Vec<_>) = ctx
            .tracer
            .spans()
            .into_iter()
            .partition(|s| s.id <= phase_end);
        let phase = trace::self_time_per_op(&phase);
        let probe = trace::self_time_per_op(&probe);
        for layer in [
            "bench",
            "api",
            "serve",
            "store",
            "sched",
            "explore",
            "search",
            "exec",
            "workloads",
        ] {
            let ns = phase
                .get(layer)
                .or_else(|| probe.get(layer))
                .ok_or_else(|| format!("no span reached layer {layer}"))?;
            let ms: Vec<f64> = ns.iter().map(|&v| v as f64 / 1e6).collect();
            m.median(&format!("trace.self_ms.{layer}"), "ms", &ms)?;
        }
    } else {
        for generic in END_TO_END {
            if let Some((own, factor)) = report::alias_of(workload, generic) {
                let src = m
                    .get(own)
                    .ok_or_else(|| format!("{own} was not measured"))?
                    .clone();
                let unit = if generic.ends_with("_ms_p50") {
                    "ms"
                } else {
                    "1/s"
                };
                m.value(generic, unit, src.value * factor, src.samples);
            }
        }
    }
    Ok((m, chk))
}

/// Prints the reference table for one input seed: digests of every
/// request of every workload, run cold in-process on a fresh engine,
/// plus the exact counts the self-checks compare against.
fn capture(args: &[String]) -> Result<ExitCode, String> {
    let input_seed = match args {
        [flag, v] if flag == "--input-seed" => v.parse().map_err(|_| "--input-seed N")?,
        _ => return Err("usage: perfbench capture --input-seed N".to_owned()),
    };
    let jobs = nproc();
    let mut refs = Refs::default();
    let figures = mix::figures(mix::FIG_LOOPS, input_seed);
    let engine = Engine::new(jobs);
    let mut misses = 0;
    for op in &figures {
        let r = engine.run(&op.req);
        if !r.ok {
            return Err(format!("{}: {:?}", op.key, r.error));
        }
        misses = r.cache.measure_misses;
        refs.insert_digest(op.key.clone(), check::digest_of(&r));
    }
    refs.insert_count("figures.measure_misses", misses);
    let mut ops = mix::daemon_mix(input_seed);
    ops.push(mix::cold_search(input_seed, None));
    for op in &ops {
        let r = Engine::new(jobs).run(&op.req);
        if !r.ok {
            return Err(format!("{}: {:?}", op.key, r.error));
        }
        if op.kind == "search" {
            let (evals, screened) = workloads::search_counts(&r)?;
            refs.insert_count("search.evaluations", evals);
            refs.insert_count("search.screened", screened);
            refs.insert_count("search.measure_misses", r.cache.measure_misses);
        }
        let d = check::digest_of(&r);
        if let Some(prev) = refs.digest(&op.key) {
            if *prev != d {
                return Err(format!("{}: differs between two cold runs", op.key));
            }
        }
        refs.insert_digest(op.key.clone(), d);
    }
    for line in refs.lines(input_seed) {
        println!("{line}");
    }
    Ok(ExitCode::SUCCESS)
}
