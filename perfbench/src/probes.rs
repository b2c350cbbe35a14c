//! Per-layer probes for the traced run. Each probe calls one layer's
//! public functions from outside, many times, under a span named after
//! the layer, and reports a median (or a count) with its sample count.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use heterovliw_core::api::{Client, Engine, Request, Response, StoreConfig};
use heterovliw_core::exec::Executor;
use heterovliw_core::explore::experiments::{
    profile_suite_stored, profile_suite_with, run_benchmark_with, ExperimentOptions, ProfiledSuite,
};
use heterovliw_core::explore::{
    optimum_homogeneous_suite_with, run_search_scaled, select_heterogeneous_with, suite_reference,
    SpaceKind,
};
use heterovliw_core::machine::{ClockedConfig, MachineDesign, Time};
use heterovliw_core::power::PowerModel;
use heterovliw_core::sched::partition::{evaluate_partition_ws, PartitionObjective};
use heterovliw_core::sched::{
    compute_partition_ws, schedule_loop_with_partition, schedule_loop_ws, Partition,
    SchedWorkspace, ScheduleOptions,
};
use heterovliw_core::search::Strategy;
use heterovliw_core::store::{MeasureRecord, MeasureStore, StoreKey};
use heterovliw_core::workloads::suite_seeded;

use crate::check::Checker;
use crate::daemon::Daemon;
use crate::mix::{self, Op};
use crate::report::Metrics;
use crate::workloads::search_counts;
use crate::Ctx;

/// Repetitions of the probes whose single call takes milliseconds or
/// more; enough for a median.
const SLOW_REPS: usize = 7;
/// Repetitions of the microsecond-scale probes.
const FAST_REPS: usize = 300;
/// Synthetic records the store put/get probe writes.
const STORE_RECORDS: u64 = 300;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Times `f` `reps` times under a span; returns the samples in µs.
fn sample_us(
    ctx: &Ctx,
    layer: &'static str,
    name: &str,
    reps: usize,
    mut f: impl FnMut(),
) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            ctx.tracer.span(true, layer, name, &mut f);
            us(t)
        })
        .collect()
}

fn to_ms(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| x / 1e3).collect()
}

/// Runs every probe and records every per-layer metric except the
/// trace's own.
pub fn run(ctx: &Ctx, chk: &Checker, m: &mut Metrics) -> Result<(), String> {
    let root = ctx.work.join("probes");
    if root.exists() {
        std::fs::remove_dir_all(&root).map_err(|e| e.to_string())?;
    }
    std::fs::create_dir_all(&root).map_err(|e| e.to_string())?;
    let counter = |name: &str| heterovliw_core::obs::counter(name).get();
    let written0 = counter("store_bytes_written_total");
    let read0 = counter("store_bytes_read_total");

    workloads_probe(ctx, m)?;
    sched_probe(ctx, m)?;
    explore_probe(ctx, m)?;
    exec_probe(ctx, m)?;
    let store_dir = root.join("engine-store");
    let engine = Engine::new(ctx.nproc).with_default_store(StoreConfig::at(&store_dir));
    engine_probe(ctx, chk, &engine, m)?;
    store_probe(ctx, &store_dir, &root.join("put-get"), m)?;
    replay_probe(ctx, &store_dir, m)?;
    serve_probe(ctx, chk, &root, &store_dir, &engine, m)?;

    m.count(
        "store.bytes_written",
        counter("store_bytes_written_total") - written0,
    );
    m.count(
        "store.bytes_read",
        counter("store_bytes_read_total") - read0,
    );
    Ok(())
}

/// workloads: generating the benchmark suite.
fn workloads_probe(ctx: &Ctx, m: &mut Metrics) -> Result<(), String> {
    let v = sample_us(ctx, "workloads", "suite_seeded", SLOW_REPS * 3, || {
        black_box(suite_seeded(mix::FIG_LOOPS, ctx.input_seed));
    });
    m.median("workloads.suite_ms", "ms", &to_ms(&v))?;
    Ok(())
}

/// sched: whole-loop scheduling, then its partition, pseudo-schedule
/// evaluation and IMS pieces on the same loops.
fn sched_probe(ctx: &Ctx, m: &mut Metrics) -> Result<(), String> {
    let suite = suite_seeded(mix::FIG_LOOPS, ctx.input_seed);
    let design = MachineDesign::paper_machine(1);
    let configs = [
        ClockedConfig::reference(design),
        ClockedConfig::heterogeneous(design, Time::from_ns(1.0), 1, Time::from_ns(1.5)),
    ];
    let mut ws = SchedWorkspace::new();
    let (mut loop_us, mut part_us, mut eval_us, mut ims_us) = (vec![], vec![], vec![], vec![]);
    let t_all = Instant::now();
    let mut scheduled = Vec::new();
    for bench in &suite {
        for l in &bench.loops {
            let opts = ScheduleOptions {
                trip_count: l.trip_count(),
                ..ScheduleOptions::default()
            };
            for config in &configs {
                let t = Instant::now();
                let s = ctx.tracer.span(true, "sched", "schedule_loop_ws", || {
                    schedule_loop_ws(l.ddg(), config, None, &opts, &mut ws)
                });
                loop_us.push(us(t));
                let s = s.map_err(|e| format!("sched probe: {e}"))?;
                scheduled.push((l, config, opts.clone(), s));
            }
        }
    }
    let wall = t_all.elapsed().as_secs_f64();
    m.value(
        "sched.loops_per_s",
        "1/s",
        loop_us.len() as f64 / wall,
        loop_us.len(),
    );
    m.median("sched.loop_us_p50", "us", &loop_us)?;
    m.p90("sched.loop_us_p90", "us", &loop_us)?;

    let scratch = ws.partition_scratch();
    for (l, config, opts, s) in &scheduled {
        let ddg = l.ddg();
        let objective = PartitionObjective {
            power: None,
            trip_count: opts.trip_count,
        };
        let t = Instant::now();
        let part = ctx.tracer.span(true, "sched", "compute_partition_ws", || {
            compute_partition_ws(ddg, config, s.clocks(), &objective, scratch)
        });
        part_us.push(us(t));
        let assignment = match part {
            Ok(p) => p.assignment,
            Err(_) => s.assignment().to_vec(),
        };
        let t = Instant::now();
        ctx.tracer.span(true, "sched", "evaluate_partition_ws", || {
            black_box(evaluate_partition_ws(
                ddg,
                &assignment,
                ddg.recurrences(),
                config,
                s.clocks(),
                &objective,
                scratch,
            ));
        });
        eval_us.push(us(t));
        let fixed = Partition {
            assignment: s.assignment().to_vec(),
        };
        let t = Instant::now();
        let r = ctx
            .tracer
            .span(true, "sched", "schedule_loop_with_partition", || {
                schedule_loop_with_partition(ddg, config, &fixed, opts)
            });
        ims_us.push(us(t));
        black_box(r.map_err(|e| format!("ims probe: {e}"))?);
    }
    m.median("sched.partition_us_p50", "us", &part_us)?;
    m.median("sched.pseudo_eval_us_p50", "us", &eval_us)?;
    m.median("sched.ims_us_p50", "us", &ims_us)?;
    Ok(())
}

/// explore: reference profiling, the homogeneous sweep, §3.3 selection,
/// memoised measurement (miss, then hit) and whole-benchmark evaluation.
fn explore_probe(ctx: &Ctx, m: &mut Metrics) -> Result<(), String> {
    let exec = Executor::new(ctx.nproc);
    let suite = suite_seeded(mix::FIG_LOOPS, ctx.input_seed);
    let opts = ExperimentOptions::default();
    let mut profile_s = Vec::new();
    let mut suites: Vec<ProfiledSuite> = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let p = ctx.tracer.span(true, "explore", "profile_suite_with", || {
            profile_suite_with(&suite, 1, &opts.sched, &exec)
        });
        profile_s.push(t.elapsed().as_secs_f64());
        suites.push(p.map_err(|e| format!("profile probe: {e}"))?);
    }
    m.median("explore.profile_s", "s", &profile_s)?;

    let measured = &suites[0];
    let evaluated = &suites[1];
    let design = measured.design;
    let power = PowerModel::calibrate(design, opts.shares, &suite_reference(&measured.profiles));
    let mut baseline = None;
    let homog = sample_us(
        ctx,
        "explore",
        "optimum_homogeneous_suite_with",
        SLOW_REPS,
        || {
            baseline = Some(optimum_homogeneous_suite_with(
                &measured.profiles,
                design,
                &power,
                &exec,
            ));
        },
    );
    m.median("explore.homog_ms", "ms", &to_ms(&homog))?;
    let baseline = baseline.expect("sampled at least once");

    let mut select_ms = Vec::new();
    let mut choices = Vec::new();
    for profile in &measured.profiles {
        for rep in 0..3 {
            let t = Instant::now();
            let c = ctx
                .tracer
                .span(true, "explore", "select_heterogeneous_with", || {
                    select_heterogeneous_with(profile, design, &power, &opts.menu, &exec)
                });
            select_ms.push(ms(t));
            if rep == 0 {
                choices.push(c.ok_or("selection found no feasible configuration")?);
            }
        }
    }
    m.median("explore.select_ms_p50", "ms", &select_ms)?;

    let mut sched_opts = opts.sched.clone();
    sched_opts.menu = opts.menu.clone();
    let (mut miss_ms, mut hit_us) = (Vec::new(), Vec::new());
    for (i, choice) in choices.iter().enumerate() {
        let t = Instant::now();
        let r = ctx
            .tracer
            .span(true, "explore", "measure_memoised.miss", || {
                measured.measure_memoised(i, &choice.config, &power, &sched_opts, &exec)
            });
        miss_ms.push(ms(t));
        r.map_err(|e| format!("measure probe: {e}"))?;
        for _ in 0..20 {
            let t = Instant::now();
            let r = ctx
                .tracer
                .span(true, "explore", "measure_memoised.hit", || {
                    measured.measure_memoised(i, &choice.config, &power, &sched_opts, &exec)
                });
            hit_us.push(us(t));
            black_box(r.map_err(|e| format!("measure probe: {e}"))?);
        }
    }
    m.median("explore.measure_miss_ms_p50", "ms", &miss_ms)?;
    m.median("explore.measure_hit_us_p50", "us", &hit_us)?;

    let mut eval_ms = Vec::new();
    for (i, (bench, profile)) in evaluated
        .benches
        .iter()
        .zip(&evaluated.profiles)
        .enumerate()
    {
        let t = Instant::now();
        let r = ctx.tracer.span(true, "explore", "run_benchmark_with", || {
            run_benchmark_with(
                bench,
                profile,
                &baseline.per_benchmark[i],
                design,
                &power,
                &opts,
                &exec,
                Some((evaluated, i)),
            )
        });
        eval_ms.push(ms(t));
        black_box(r.map_err(|e| format!("evaluate probe: {e}"))?);
    }
    m.median("explore.evaluate_ms_p50", "ms", &eval_ms)?;
    Ok(())
}

/// exec: fan-out of `nproc` no-op tasks.
fn exec_probe(ctx: &Ctx, m: &mut Metrics) -> Result<(), String> {
    let exec = Executor::new(ctx.nproc);
    let items = vec![0u32; ctx.nproc];
    let v = sample_us(ctx, "exec", "map", FAST_REPS, || {
        black_box(exec.map(&items, |_, x| black_box(*x)));
    });
    m.median("exec.map_us_p50", "us", &v)?;
    Ok(())
}

/// api: a cold figures round and a cold search on one engine over a
/// fresh store (exact measure-miss counts), then warm runs of every mix
/// kind, the wire codecs and `cache_stats`.
fn engine_probe(ctx: &Ctx, chk: &Checker, engine: &Engine, m: &mut Metrics) -> Result<(), String> {
    let run = |op: &Op| -> Response {
        let r = ctx
            .tracer
            .span(true, "api", op.kind, || engine.run(&op.req));
        chk.response(op, &r);
        r
    };
    let mut misses = 0;
    for op in mix::figures(mix::FIG_LOOPS, ctx.input_seed) {
        misses = run(&op).cache.measure_misses;
    }
    m.count("explore.measure_misses_figures", misses);
    let search = run(&mix::cold_search(ctx.input_seed, None));
    m.count(
        "explore.measure_misses_search",
        search.cache.measure_misses - misses,
    );
    let (evals, screened) = search_counts(&search)?;
    m.count("search.evaluations", evals);
    m.count("search.screened", screened);

    let ops = mix::daemon_mix(ctx.input_seed);
    let mut engine_ms = vec![Vec::new(); ops.len()];
    let mut responses = Vec::new();
    for _ in 0..SLOW_REPS {
        for (k, op) in ops.iter().enumerate() {
            let t = Instant::now();
            let r = run(op);
            engine_ms[k].push(ms(t));
            responses.push(r);
        }
    }
    for (k, op) in ops.iter().enumerate() {
        m.median(
            &format!("api.engine_run_ms_p50.{}", op.kind),
            "ms",
            &engine_ms[k],
        )?;
    }

    let lines: Vec<String> = ops.iter().map(|op| op.req.to_json_string()).collect();
    let mut i = 0;
    let v = sample_us(ctx, "api", "Request::from_json_str", FAST_REPS, || {
        black_box(Request::from_json_str(&lines[i % lines.len()]).expect("own request parses"));
        i += 1;
    });
    m.median("api.request_decode_us_p50", "us", &v)?;
    let mut i = 0;
    let mut encoded = Vec::new();
    let v = sample_us(ctx, "api", "Response::to_json_line", FAST_REPS, || {
        let line = responses[i % ops.len()].to_json_line();
        if encoded.len() < ops.len() {
            encoded.push(line);
        }
        i += 1;
    });
    m.median("api.response_encode_us_p50", "us", &v)?;
    let mut i = 0;
    let v = sample_us(ctx, "api", "Response::from_json_str", FAST_REPS, || {
        black_box(
            Response::from_json_str(&encoded[i % encoded.len()]).expect("own response parses"),
        );
        i += 1;
    });
    m.median("api.response_decode_us_p50", "us", &v)?;
    let v = sample_us(ctx, "api", "Engine::cache_stats", FAST_REPS, || {
        black_box(engine.cache_stats());
    });
    m.median("api.cache_stats_us_p50", "us", &v)?;
    Ok(())
}

/// store: open of the store the engine probe filled, stats on it, and
/// put then get of synthetic measurement records in a store of its own.
fn store_probe(ctx: &Ctx, filled: &Path, own: &Path, m: &mut Metrics) -> Result<(), String> {
    let bytes: u64 = std::fs::read_dir(filled)
        .map_err(|e| e.to_string())?
        .filter_map(Result::ok)
        .filter_map(|e| e.metadata().ok())
        .map(|md| md.len())
        .sum();
    let mut opened = None;
    let v = sample_us(ctx, "store", "MeasureStore::open", SLOW_REPS * 3, || {
        opened = Some(MeasureStore::open(filled));
    });
    let store = opened
        .expect("opened at least once")
        .map_err(|e| e.to_string())?;
    let open_ms = m.median("store.open_ms", "ms", &to_ms(&v))?;
    m.value(
        "store.open_mb_per_s",
        "MB/s",
        bytes as f64 / 1e6 / (open_ms / 1e3),
        v.len(),
    );
    let v = sample_us(ctx, "store", "MeasureStore::stats", FAST_REPS / 3, || {
        black_box(store.stats().expect("stats of an open store"));
    });
    m.median("store.stats_us_p50", "us", &v)?;

    let own_store = MeasureStore::open(own).map_err(|e| e.to_string())?;
    let key = |i: u64| StoreKey {
        content: 0x5eed_0000 + i,
        config: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    };
    let record = |i: u64| MeasureRecord {
        weighted_ins_per_cluster: vec![i as f64, 2.0, 3.0, 4.0],
        comms: i,
        mem_accesses: 2 * i,
        exec_time_fs: 1_000_000 + i,
    };
    let mut i = 0;
    let put = sample_us(ctx, "store", "put_measure", STORE_RECORDS as usize, || {
        own_store
            .put_measure(key(i), record(i))
            .expect("put into an open store");
        i += 1;
    });
    m.median("store.put_us_p50", "us", &put)?;
    let reopened = MeasureStore::open(own).map_err(|e| e.to_string())?;
    let mut i = 0;
    let mut found = 0u64;
    let get = sample_us(ctx, "store", "get_measure", STORE_RECORDS as usize, || {
        found += u64::from(reopened.get_measure(key(i)) == Some(record(i)));
        i += 1;
    });
    if found != STORE_RECORDS {
        return Err(format!(
            "store probe: {found} of {STORE_RECORDS} records read back"
        ));
    }
    m.median("store.get_us_p50", "us", &get)?;
    Ok(())
}

/// search: warm replays of the cold search straight through the search
/// layer, on suites wired to one already-open store.
fn replay_probe(ctx: &Ctx, filled: &Path, m: &mut Metrics) -> Result<(), String> {
    let store = Arc::new(MeasureStore::open(filled).map_err(|e| e.to_string())?);
    let exec = Executor::new(ctx.nproc);
    let opts = ExperimentOptions::default();
    let suite = suite_seeded(mix::SEARCH_LOOPS, ctx.input_seed);
    let mut v = Vec::new();
    let mut evals = Vec::new();
    for _ in 0..SLOW_REPS * 3 {
        let t = Instant::now();
        let report = ctx.tracer.span(true, "search", "run_search_scaled", || {
            let suites: Vec<ProfiledSuite> = [1, 2]
                .iter()
                .map(|&b| {
                    profile_suite_stored(&suite, b, &opts.sched, &exec, Some(Arc::clone(&store)))
                })
                .collect::<Result<_, _>>()
                .map_err(|e| format!("replay probe: {e}"))?;
            let refs: Vec<&ProfiledSuite> = suites.iter().collect();
            Ok::<_, String>(run_search_scaled(
                SpaceKind::Extended,
                Strategy::HillClimb,
                mix::SEARCH_BUDGET,
                ctx.input_seed,
                &refs,
                &opts,
                &exec,
                true,
            ))
        })?;
        v.push(ms(t));
        evals.push(report.report.evaluations);
    }
    if evals.iter().any(|&e| e != mix::SEARCH_BUDGET) {
        return Err(format!("replay probe: evaluations {evals:?}"));
    }
    m.median("search.replay_ms_p50", "ms", &v)?;
    Ok(())
}

/// serve: ping round trips, and client latency per mix kind minus the
/// warm in-process run of the same kind, sampled back to back.
fn serve_probe(
    ctx: &Ctx,
    chk: &Checker,
    root: &Path,
    store: &Path,
    engine: &Engine,
    m: &mut Metrics,
) -> Result<(), String> {
    let socket = root.join("p.sock");
    let daemon = Daemon::start(
        &ctx.paper,
        &socket,
        ctx.nproc,
        store,
        &root.join("serve.log"),
    )?;
    let mut c = Client::connect(&socket).map_err(|e| e.to_string())?;
    let mut err = None;
    let v = sample_us(ctx, "serve", "ping", FAST_REPS, || {
        if let Err(e) = c.request(&Request::Ping) {
            err = Some(e);
        }
    });
    if let Some(e) = err {
        return Err(format!("serve probe ping: {e}"));
    }
    m.median("serve.ping_us_p50", "us", &v)?;

    // One untimed pass loads the daemon's suites from the store.
    let ops = mix::daemon_mix(ctx.input_seed);
    for op in &ops {
        chk.response(op, &c.request(&op.req)?);
    }
    let mut over = Vec::new();
    for _ in 0..SLOW_REPS {
        for op in &ops {
            let t = Instant::now();
            let local = ctx
                .tracer
                .span(true, "api", op.kind, || engine.run(&op.req));
            let local_ms = ms(t);
            let t = Instant::now();
            let remote = ctx
                .tracer
                .span(true, "serve", op.kind, || c.request(&op.req))?;
            over.push(ms(t) - local_ms);
            chk.response(op, &local);
            chk.response(op, &remote);
        }
    }
    drop(c);
    daemon.shutdown()?;
    m.median("serve.overhead_ms_p50", "ms", &over)?;
    Ok(())
}
