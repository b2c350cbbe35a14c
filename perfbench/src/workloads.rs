//! The three workloads. Each is a closed loop: every caller waits for
//! its reply before sending the next request.

use std::path::Path;
use std::time::Instant;

use heterovliw_core::api::{Client, Engine, Response};

use crate::check::{Checker, Refs};
use crate::daemon::Daemon;
use crate::mix::{self, Op};
use crate::report::Metrics;
use crate::stats;
use crate::Ctx;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Replays after each cold search.
const REPLAYS_PER_ROUND: usize = 48;
/// Samples a p90 needs (ten beyond it).
const P90_SAMPLES: usize = 100;
/// Figures-cold rounds at the least, however long they take.
const MIN_FIGURE_ROUNDS: usize = 3;

/// What a workload's measured phase leaves for the traced run: op times
/// with and without spans.
#[derive(Debug, Default)]
pub struct Overhead {
    pub traced: Vec<f64>,
    pub untraced: Vec<f64>,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// The checker for a workload's ops, against the committed digests of
/// the input seed.
pub fn checker(ctx: &Ctx, ops: &[&Op]) -> Result<Checker, String> {
    Ok(Checker::new(Refs::for_ops(ctx.input_seed, ops)?))
}

/// Runs `f` under a span when `traced`.
fn span<R>(ctx: &Ctx, traced: bool, layer: &'static str, name: &str, f: impl FnOnce() -> R) -> R {
    ctx.tracer.span(traced, layer, name, f)
}

/// figures-cold: each op is the `paper all` request set on a fresh
/// engine with no store, so every op schedules cold.
pub fn figures_cold(ctx: &Ctx, chk: &Checker, m: &mut Metrics) -> Result<Overhead, String> {
    let set = mix::figures(mix::FIG_LOOPS, ctx.input_seed);
    let warm = mix::figures(mix::WARMUP_LOOPS, ctx.input_seed);

    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let engine = Engine::new(ctx.nproc);
        for op in &warm {
            let r = engine.run(&op.req);
            chk.holds(&format!("warm-up {} ok", op.kind), r.ok);
        }
        setups.push(secs(t));
    }

    let mut times = Vec::new();
    let mut over = Overhead::default();
    let mut first_misses = None;
    let start = Instant::now();
    let mut round = 0u64;
    while (round as usize) < MIN_FIGURE_ROUNDS || secs(start) < ctx.seconds {
        let traced = ctx.trace && round % 2 == 1;
        let order = mix::order(set.len(), ctx.seed, round);
        let t = Instant::now();
        let responses: Vec<Response> = span(ctx, traced, "bench", "figures_round", || {
            let engine = Engine::new(ctx.nproc);
            order
                .iter()
                .map(|&i| span(ctx, traced, "api", set[i].kind, || engine.run(&set[i].req)))
                .collect()
        });
        let dt = secs(t);
        let mut misses = 0;
        for (&i, r) in order.iter().zip(&responses) {
            chk.response(&set[i], r);
            misses = misses.max(r.cache.measure_misses);
        }
        // Every round is cold: it must schedule exactly what the first did.
        let want = *first_misses.get_or_insert(misses);
        chk.exact("figures round measure_misses", misses, want);
        if let Some(c) = chk.refs().count("figures.measure_misses") {
            chk.exact("figures round measure_misses (committed)", misses, c);
        }
        if traced {
            over.traced.push(dt);
        } else {
            over.untraced.push(dt);
        }
        times.push(dt);
        eprintln!("figures-cold round {round}: {dt:.3} s");
        round += 1;
    }

    m.count("figures.measure_misses", first_misses.unwrap_or(0));
    m.median("setup_s", "s", &setups)?;
    m.value(
        "peak_rss_mb",
        "MB",
        crate::peak_rss_mb("/proc/self/status")?,
        1,
    );
    if !ctx.trace {
        let med = m.median("figures_s", "s", &times)?;
        m.value(
            "figures_requests_per_s",
            "1/s",
            set.len() as f64 / med,
            times.len(),
        );
    }
    Ok(over)
}

/// search-store: rounds of one cold search into a fresh empty store
/// (the write phase) followed by replays of it, each on a fresh engine
/// that reopens the store (the read phase).
pub fn search_store(ctx: &Ctx, chk: &Checker, m: &mut Metrics) -> Result<Overhead, String> {
    let root = ctx.work.join("search-store");

    let mut setups = Vec::new();
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let dir = root.join(format!("setup-{rep}"));
        fresh_dir(&dir)?;
        let op = mix::search(
            mix::WARMUP_LOOPS,
            mix::WARMUP_BUDGET,
            ctx.input_seed,
            Some(&dir),
        );
        let cold = Engine::new(ctx.nproc).run(&op.req);
        let replay = Engine::new(ctx.nproc).run(&op.req);
        chk.holds("warm-up search ok", cold.ok && replay.ok);
        setups.push(secs(t));
        let _ = std::fs::remove_dir_all(&dir);
    }

    let mut evals_per_s = Vec::new();
    let mut replays = Vec::new();
    // The VM this was tuned on alternates between a fast and a slow
    // speed every few milliseconds, so single replays are bimodal and
    // their median jumps between the modes. A read phase's mean replay
    // time averages over the switches.
    let mut read_phases = Vec::new();
    let mut over = Overhead::default();
    let mut first_counts = None;
    let start = Instant::now();
    let mut round = 0u64;
    while replays.len() < P90_SAMPLES || secs(start) < ctx.seconds {
        let dir = root.join(format!("round-{round}"));
        fresh_dir(&dir)?;
        let op = mix::cold_search(ctx.input_seed, Some(&dir));
        let t = Instant::now();
        let cold = Engine::new(ctx.nproc).run(&op.req);
        let dt = secs(t);
        chk.response(&op, &cold);
        let (evals, screened) = search_counts(&cold)?;
        let want = *first_counts.get_or_insert((evals, screened, cold.cache.measure_misses));
        chk.exact("cold search evaluations", evals, want.0);
        chk.exact("cold search screened", screened, want.1);
        chk.exact(
            "cold search measure_misses",
            cold.cache.measure_misses,
            want.2,
        );
        for (name, got) in [("search.evaluations", evals), ("search.screened", screened)] {
            if let Some(c) = chk.refs().count(name) {
                chk.exact(&format!("{name} (committed)"), got, c);
            }
        }
        evals_per_s.push(evals as f64 / dt);

        for i in 0..REPLAYS_PER_ROUND {
            let traced = ctx.trace && i % 2 == 1;
            let t = Instant::now();
            let r = span(ctx, traced, "bench", "replay", || {
                let engine = Engine::new(ctx.nproc);
                span(ctx, traced, "api", "search", || engine.run(&op.req))
            });
            let dt = ms(t);
            chk.response(&op, &r);
            chk.exact("replay measure_misses", r.cache.measure_misses, 0);
            chk.holds("replay store_hits > 0", r.cache.store_hits > 0);
            if traced {
                over.traced.push(dt);
            } else {
                over.untraced.push(dt);
            }
            replays.push(dt);
        }
        let _ = std::fs::remove_dir_all(&dir);
        let phase = replays[replays.len() - REPLAYS_PER_ROUND..]
            .iter()
            .sum::<f64>()
            / REPLAYS_PER_ROUND as f64;
        read_phases.push(phase);
        eprintln!("search-store round {round}: cold {dt:.3} s, mean replay {phase:.2} ms");
        round += 1;
    }

    m.median("setup_s", "s", &setups)?;
    m.value(
        "peak_rss_mb",
        "MB",
        crate::peak_rss_mb("/proc/self/status")?,
        1,
    );
    if !ctx.trace {
        m.median("search_evals_per_s", "1/s", &evals_per_s)?;
        m.median("replay_ms", "ms", &read_phases)?;
        m.median("replay_ms_p50", "ms", &replays)?;
        m.p90("replay_ms_p90", "ms", &replays)?;
    }
    Ok(over)
}

/// `(evaluations, screened)` of a search response.
pub fn search_counts(r: &Response) -> Result<(u64, u64), String> {
    let field = |doc: Option<&str>, key: &str| -> Result<u64, String> {
        let v = serde_json::from_str(doc.ok_or("search response without artefacts")?)
            .map_err(|e| format!("search artefact: {e}"))?;
        v.get(key)
            .and_then(serde_json::Value::as_u64)
            .ok_or_else(|| format!("search artefact has no {key}"))
    };
    Ok((
        field(r.body.as_deref(), "evaluations")?,
        field(r.meta.as_deref(), "screened")?,
    ))
}

/// One client's share of the daemon-warm phase.
#[derive(Debug, Default)]
struct ClientLog {
    /// `(op index, latency ms)` of every request.
    samples: Vec<(usize, f64)>,
    /// `(ms, traced)` of every cycle: one request of each kind.
    cycles: Vec<(f64, bool)>,
    end: Option<Instant>,
}

/// Sends one pass of `ops` over a fresh connection, checking each reply;
/// returns the last reply's measure-miss count.
fn warm_pass(socket: &Path, ops: &[Op], chk: &Checker) -> Result<u64, String> {
    let mut c = Client::connect(socket).map_err(|e| e.to_string())?;
    let mut misses = 0;
    for op in ops {
        let r = c.request(&op.req)?;
        chk.response(op, &r);
        misses = r.cache.measure_misses;
    }
    Ok(misses)
}

/// daemon-warm: a `paper serve` daemon with a store, warmed with one pass
/// of the mix, then `nproc` connections cycling through the mix, each in
/// its own seeded order.
pub fn daemon_warm(ctx: &Ctx, chk: &Checker, m: &mut Metrics) -> Result<Overhead, String> {
    let ops = mix::daemon_mix(ctx.input_seed);
    let clients = ctx.nproc;
    crate::guard_parallelism(clients, ctx.nproc)?;
    let root = ctx.work.join("daemon-warm");
    fresh_dir(&root)?;
    let store = root.join("store");
    let socket = root.join("d.sock");
    let log = |i: usize| root.join(format!("serve-{i}.log"));

    // The first daemon starts on an empty store and fills it; its
    // replies must already equal the cold in-process bytes.
    let d = Daemon::start(&ctx.paper, &socket, ctx.nproc, &store, &log(0))?;
    warm_pass(&socket, &ops, chk)?;
    d.shutdown()?;

    // Set-up: start a daemon over the filled store and warm it.
    let mut setups = Vec::new();
    let mut daemon = None;
    let mut warm_misses = 0;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let d = Daemon::start(&ctx.paper, &socket, ctx.nproc, &store, &log(rep + 1))?;
        warm_misses = warm_pass(&socket, &ops, chk)?;
        setups.push(secs(t));
        if rep + 1 < SETUP_REPS {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let mut daemon = daemon.expect("the last set-up keeps its daemon");

    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let ops = &ops;
                let socket = daemon.socket().to_path_buf();
                s.spawn(move || client_loop(ctx, chk, &socket, ops, i, start, warm_misses))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = logs
        .iter()
        .filter_map(|l| l.end)
        .max()
        .map_or(0.0, |e| e.duration_since(start).as_secs_f64());
    let peak = daemon.peak_rss_mb()?;
    daemon.shutdown()?;

    let mut cycles = Vec::new();
    let mut over = Overhead::default();
    for &(dt, traced) in logs.iter().flat_map(|l| &l.cycles) {
        cycles.push(dt);
        if traced {
            over.traced.push(dt);
        } else {
            over.untraced.push(dt);
        }
    }
    m.median("setup_s", "s", &setups)?;
    m.value("peak_rss_mb", "MB", peak, 1);
    if !ctx.trace {
        let all: Vec<f64> = logs.iter().flat_map(|l| &l.samples).map(|s| s.1).collect();
        m.median("cycle_ms_p50", "ms", &cycles)?;
        m.median("request_ms_p50", "ms", &all)?;
        m.p90("request_ms_p90", "ms", &all)?;
        m.value("requests_per_s", "1/s", all.len() as f64 / wall, all.len());
        for (k, op) in ops.iter().enumerate() {
            let lat: Vec<f64> = logs
                .iter()
                .flat_map(|l| &l.samples)
                .filter(|s| s.0 == k)
                .map(|s| s.1)
                .collect();
            m.median(&format!("request_ms_p50.{}", op.kind), "ms", &lat)?;
        }
    }
    Ok(over)
}

fn client_loop(
    ctx: &Ctx,
    chk: &Checker,
    socket: &Path,
    ops: &[Op],
    index: usize,
    start: Instant,
    warm_misses: u64,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut c = match Client::connect(socket) {
        Ok(c) => c,
        Err(e) => {
            chk.lost("connect", &e.to_string());
            return log;
        }
    };
    // Every cycle sends each kind once, in an order drawn per client and
    // cycle, so which kinds overlap on the daemon varies within a run
    // instead of being fixed by the seed.
    let client_seed = ctx.seed ^ (index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut cycle = 0u64;
    while secs(start) < ctx.seconds || log.samples.len() < P90_SAMPLES / ctx.nproc + 1 {
        let traced = ctx.trace && cycle % 2 == 1;
        let mut cycle_ms = 0.0;
        span(ctx, traced, "bench", "cycle", || {
            for k in mix::order(ops.len(), client_seed, cycle) {
                let t = Instant::now();
                let r = span(ctx, traced, "serve", ops[k].kind, || c.request(&ops[k].req));
                let dt = ms(t);
                match r {
                    Ok(r) => {
                        chk.response(&ops[k], &r);
                        chk.exact(
                            "daemon measure_misses after warm-up",
                            r.cache.measure_misses,
                            warm_misses,
                        );
                    }
                    Err(e) => chk.lost(ops[k].kind, &e),
                }
                cycle_ms += dt;
                log.samples.push((k, dt));
            }
        });
        log.cycles.push((cycle_ms, traced));
        cycle += 1;
    }
    log.end = Some(Instant::now());
    log
}

/// `traced median / untraced median − 1`, in percent.
pub fn overhead_pct(over: &Overhead) -> Result<f64, String> {
    let t = stats::median(&over.traced).map_err(|e| format!("traced ops: {e}"))?;
    let u = stats::median(&over.untraced).map_err(|e| format!("untraced ops: {e}"))?;
    Ok((t / u - 1.0) * 100.0)
}
