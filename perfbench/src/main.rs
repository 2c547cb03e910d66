//! `perfbench`: the `hazel serve` benchmark's load generator.
//!
//! ```text
//! perfbench --workload drag|edit|sessions --seed N --seconds S --trace 0|1
//!           --hazel PATH/TO/hazel --out DIR
//! ```
//!
//! Drives the release `hazel serve` binary from outside with a seeded,
//! closed-loop request stream, checks every reply against an oracle the
//! generator computes itself, and prints one JSON result as its last
//! stdout line. `--trace 0` reports the end-to-end metrics with the
//! server's metrics layer off; `--trace 1` reports the per-layer metrics
//! from a traced run (see NOTES.md). Exits 1 if any request failed.

mod client;
mod layers;
mod stats;
mod sys;
mod workload;

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use client::{drive, Record, Server, ServerConfig, Spans};
use hazel::server::json::{self, Json};
use layers::{dir_bytes, dur_ms, ms, ratio, share, MetricsSnap};
use workload::{Interaction, Kind, Plan};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Cap on recorded request/reply pairs the in-process replays walk.
const REPLAY_CAP: usize = 20_000;
/// Cap on in-process engine runs.
const ENGINE_RUNS: usize = 300;
/// Alternating slices per server in a traced run.
const TRACE_SLICES: usize = 4;
/// Length of a timed slice whose host CPU steal is checked.
const STEAL_SLICE_S: f64 = 1.0;
/// Share of the machine's CPU time the hypervisor may take during a
/// slice before the slice is measured again. `/proc/stat` counts steal
/// in 10 ms ticks, so on 2 CPUs one tick in a 1 s slice reads 0.5%: the
/// bound keeps slices with at most one tick. On the 2-vCPU host this was
/// tuned on, `sessions` slices with 1 to 1.5% steal had a p99 about 25%
/// above those with none, while one tick made no visible difference.
const MAX_STEAL: f64 = 0.0075;
/// Longest the end-to-end timed phase may stretch, in `--seconds`.
const MAX_STRETCH: f64 = 1.5;
/// Timed interactions after which `server_rss_mib` is read. A fixed
/// amount of work, so the figure does not follow throughput; every
/// workload completes it well inside a run.
const RSS_AFTER: usize = 1000;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    hazel: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace, mut hazel, mut out) =
        (None, None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".into()),
                });
            }
            "--hazel" => hazel = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        hazel: hazel.ok_or("--hazel is required")?,
        out: out.ok_or("--out is required")?,
    })
}

/// A metric as reported: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// What a run produced.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
    /// The evaluation pool size the server reported.
    workers: u64,
    /// Share of the machine's CPU time the hypervisor took away during
    /// the timed phase: context for a noisy run.
    steal_share: f64,
    /// Seconds of timed slices left untimed because of steal.
    stolen_s: f64,
    /// Recorded spans (traced runs only).
    spans: Option<Spans>,
}

impl Outcome {
    fn absorb(&mut self, record: &Record) {
        self.attempted += record.attempted;
        self.failed += record.failed;
        self.failures.extend(record.failures.iter().cloned());
    }
}

/// Scratch space and settings shared by every server a run starts.
struct Ctx<'a> {
    args: &'a Args,
    tmp: PathBuf,
    spawns: usize,
}

/// A set-up server: every session open and rendered, warm-up done.
struct Live {
    server: Server,
    plan: Plan,
    setup: Duration,
    snapshot_dir: Option<PathBuf>,
    /// Interactions handed out by the timed phase so far.
    timed_interactions: usize,
    /// The server's `VmHWM` once `RSS_AFTER` timed interactions were
    /// handed out.
    rss_kib: Option<u64>,
}

impl Ctx<'_> {
    /// Starts a server and runs set-up: the ping, every `open` with its
    /// first `render`, then the untimed warm-up. `setup` spans spawn to
    /// the end of warm-up.
    fn set_up(&mut self, metrics: bool, outcome: &mut Outcome) -> Result<Live, String> {
        let kind = self.args.kind;
        self.spawns += 1;
        let snapshot_dir = kind
            .tcp()
            .then(|| self.tmp.join(format!("snapshots-{}", self.spawns)));
        let config = ServerConfig {
            binary: self.args.hazel.clone(),
            tcp: kind.tcp(),
            metrics,
            snapshot_dir: snapshot_dir.clone(),
            stderr_path: self.tmp.join(format!("server-{}.err", self.spawns)),
        };
        let mut server = Server::start(&config, kind.conns())
            .map_err(|e| format!("starting hazel serve: {e}"))?;
        outcome.attempted += kind.conns() as u64;
        let mut plan = Plan::new(kind, self.args.seed);
        let mut setup: Vec<VecDeque<Interaction>> =
            plan.lanes.iter().map(|l| l.setup().into()).collect();
        let mut warm = vec![kind.warmup(); plan.lanes.len()];
        let mut record = Record::default();
        drive(
            &mut server.conns,
            &mut |lane| {
                setup[lane].pop_front().or_else(|| {
                    (warm[lane] > 0).then(|| {
                        warm[lane] -= 1;
                        plan.lanes[lane].next_interaction()
                    })
                })
            },
            None,
            &mut record,
            None,
        );
        let setup = server.spawned.elapsed();
        outcome.absorb(&record);
        Ok(Live {
            server,
            plan,
            setup,
            snapshot_dir,
            timed_interactions: 0,
            rss_kib: None,
        })
    }

    /// Stops a server and clears its journals.
    fn tear_down(&self, live: Live) -> Result<(), String> {
        live.server
            .stop()
            .map_err(|e| format!("stopping hazel serve: {e}"))?;
        if let Some(dir) = live.snapshot_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        Ok(())
    }
}

impl Live {
    /// The closed-loop timed phase: runs the stream for `seconds`,
    /// adding what it observes to `record`. Reads the server's `VmHWM`
    /// before handing out the interaction after the `RSS_AFTER`th.
    fn timed(&mut self, seconds: f64, spans: Option<&mut Spans>, record: &mut Record) {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let pid = self.server.pid();
        let (plan, handed, rss) = (
            &mut self.plan,
            &mut self.timed_interactions,
            &mut self.rss_kib,
        );
        drive(
            &mut self.server.conns,
            &mut |lane| {
                if *handed == RSS_AFTER {
                    *rss = sys::peak_rss_kib(pid).ok();
                }
                *handed += 1;
                Some(plan.lanes[lane].next_interaction())
            },
            Some(deadline),
            record,
            spans,
        );
    }

    /// The end-to-end timed phase: `seconds` of closed-loop driving,
    /// timed only while the hypervisor left the machine's CPUs alone where
    /// it can. It runs in slices of [`STEAL_SLICE_S`]. A slice during
    /// which more than [`MAX_STEAL`] of the machine's CPU time was stolen
    /// is checked for correctness but not timed, and one more slice runs
    /// in its place, up to [`MAX_STRETCH`] times `seconds` in all. If the
    /// clean slices then fall short of `seconds`, the least-stolen of the
    /// others fill the gap. Kept slices stay in completion order.
    fn timed_unstolen(&mut self, seconds: f64, outcome: &mut Outcome) -> Record {
        let give_up = Instant::now() + Duration::from_secs_f64(seconds * MAX_STRETCH);
        let mut slices: Vec<(Record, f64)> = Vec::new();
        let mut clean_s = 0.0;
        while clean_s < seconds && Instant::now() < give_up {
            let steal0 = sys::steal_s().unwrap_or(0.0);
            let started = Instant::now();
            let mut slice = Record::default();
            self.timed((seconds - clean_s).min(STEAL_SLICE_S), None, &mut slice);
            let stolen = steal_share(steal0, started);
            if stolen <= MAX_STEAL {
                clean_s += slice.elapsed.as_secs_f64();
            }
            slices.push((slice, stolen));
        }
        // Slice indexes by steal, least first: keep from the front until
        // `seconds` are covered.
        let mut order: Vec<usize> = (0..slices.len()).collect();
        order.sort_by(|&i, &j| slices[i].1.total_cmp(&slices[j].1));
        let mut keep = vec![false; slices.len()];
        let mut kept_s = 0.0;
        for i in order {
            if kept_s >= seconds {
                break;
            }
            keep[i] = true;
            kept_s += slices[i].0.elapsed.as_secs_f64();
        }
        let mut record = Record::default();
        for ((slice, _), keep) in slices.into_iter().zip(keep) {
            if !keep {
                outcome.stolen_s += slice.elapsed.as_secs_f64();
            }
            record.append(slice, keep);
        }
        record
    }

    /// A `metrics` snapshot over the first connection.
    fn metrics(&mut self, outcome: &mut Outcome) -> Result<MetricsSnap, String> {
        outcome.attempted += 1;
        let reply = self.server.conns[0]
            .call("{\"op\":\"metrics\"}")
            .map_err(|e| format!("metrics op: {e}"))?;
        let snap = MetricsSnap::parse(&reply);
        if snap.is_err() {
            outcome.failed += 1;
        }
        snap
    }
}

/// Share of all CPUs' time since `started` that was stolen, given the
/// steal counter then.
fn steal_share(steal0: f64, started: Instant) -> f64 {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from) as f64;
    let stolen = sys::steal_s().unwrap_or(steal0) - steal0;
    ratio(stolen, started.elapsed().as_secs_f64() * nproc)
}

fn throughput(record: &Record) -> f64 {
    ratio(record.completed as f64, record.elapsed.as_secs_f64())
}

/// The end-to-end run: `SETUPS` set-ups (median reported), then the timed
/// phase on the last one, with the server's metrics layer off.
fn run_end_to_end(ctx: &mut Ctx<'_>, outcome: &mut Outcome) -> Result<(), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    for k in 0..SETUPS {
        let l = ctx.set_up(false, outcome)?;
        setups.push(l.setup.as_secs_f64());
        if k + 1 < SETUPS {
            ctx.tear_down(l)?;
        } else {
            live = Some(l);
        }
    }
    eprintln!("perfbench: set-up seconds {setups:?}");
    let mut live = live.expect("at least one set-up");
    let steal0 = sys::steal_s().unwrap_or(0.0);
    let started = Instant::now();
    let record = live.timed_unstolen(ctx.args.seconds, outcome);
    outcome.steal_share = steal_share(steal0, started);
    outcome.absorb(&record);
    let snap = live.metrics(outcome)?;
    outcome.workers = snap.workers;
    let rss_kib = match live.rss_kib {
        Some(kib) => kib,
        None => {
            eprintln!(
                "perfbench: only {} timed interactions, not {RSS_AFTER}; \
                 server_rss_mib is read at the end of the run",
                live.timed_interactions
            );
            sys::peak_rss_kib(live.server.pid()).map_err(|e| format!("reading VmHWM: {e}"))?
        }
    };
    ctx.tear_down(live)?;

    if record.latencies_ns.is_empty() {
        return Err("no interaction completed in the timed phase".into());
    }
    let (p50, p99) = stats::sliced(&record.latencies_ns);
    outcome.metrics = vec![
        ("setup_s", stats::median_f64(&setups), "s"),
        ("update_p50_ms", p50 / 1e6, "ms"),
        ("update_p99_ms", p99 / 1e6, "ms"),
        ("throughput_rps", throughput(&record), "req/s"),
        (
            "reply_bytes_per_update",
            ratio(record.reply_bytes as f64, record.latencies_ns.len() as f64),
            "B",
        ),
        ("server_rss_mib", rss_kib as f64 / 1024.0, "MiB"),
    ];
    Ok(())
}

/// The traced run: an untraced server A (the base for
/// `trace.overhead_ratio`, and the `/proc` accounting) and a server B with
/// the metrics layer on and client spans around every call, driven in
/// alternating slices so host drift hits both alike; for `sessions` a
/// stdio replay of its stream (sockets report no phases); and in-process
/// library replays.
fn run_traced(ctx: &mut Ctx<'_>, outcome: &mut Outcome) -> Result<(), String> {
    let kind = ctx.args.kind;
    let half = ctx.args.seconds / 2.0;
    let slice = half / TRACE_SLICES as f64;

    let mut a = ctx.set_up(false, outcome)?;
    let mut spans = Spans::new(Instant::now());
    let mut b = ctx.set_up(true, outcome)?;
    let first_reply = b.server.first_reply.iter().sum::<Duration>() / kind.conns() as u32;
    let m0 = b.metrics(outcome)?;
    let journal0 = b.snapshot_dir.as_deref().map_or(0, dir_bytes);
    let mut rec_a = Record::default();
    let mut rec_b = Record {
        log: Some(Vec::new()),
        ..Record::default()
    };
    let (mut cpu_s, mut switches) = (0.0, 0);
    let steal0 = sys::steal_s().unwrap_or(0.0);
    let started = Instant::now();
    for _ in 0..TRACE_SLICES {
        let p0 = sys::proc_sample(a.server.pid()).map_err(|e| e.to_string())?;
        a.timed(slice, None, &mut rec_a);
        let p1 = sys::proc_sample(a.server.pid()).map_err(|e| e.to_string())?;
        cpu_s += p1.cpu_s - p0.cpu_s;
        switches += p1.ctx_switches.saturating_sub(p0.ctx_switches);
        b.timed(slice, Some(&mut spans), &mut rec_b);
    }
    outcome.steal_share = steal_share(steal0, started);
    outcome.absorb(&rec_a);
    outcome.absorb(&rec_b);
    ctx.tear_down(a)?;
    let journal1 = b.snapshot_dir.as_deref().map_or(0, dir_bytes);
    let m1 = b.metrics(outcome)?;
    ctx.tear_down(b)?;
    let window = m1.since(&m0);
    outcome.workers = m1.workers;

    // The engine split. Socket servers install no tracer, so `sessions`
    // replays its own stream over stdio with metrics on.
    let (engine, updates) = if kind.tcp() {
        replay_over_stdio(ctx, half / 2.0, outcome)?
    } else {
        (window.clone(), rec_b.latencies_ns.len() as u64)
    };

    // In-process replays of the library calls behind each layer.
    let log = rec_b.log.as_deref().unwrap_or(&[]);
    let log = &log[..log.len().min(REPLAY_CAP)];
    let json_us = layers::json_replay(log, &mut spans)?;
    let append_us = layers::snapshot_replay(log, &ctx.tmp.join("append-replay"), &mut spans)?;
    let run_ms = layers::engine_replay(
        kind,
        ctx.args.seed,
        ENGINE_RUNS,
        Duration::from_secs_f64(half / 2.0),
        &mut spans,
    )?;

    let requests = rec_b.completed as f64;
    let per_update = |v: f64| ratio(v, updates as f64);
    let phase_ms = |name: &str| per_update(ms(engine.phase_ns(name)));
    let count = |name: &str| per_update(engine.counter(name) as f64);
    let handled_ns: u64 = window
        .ops
        .iter()
        .filter(|(op, _)| op.as_str() != "metrics")
        .map(|(_, h)| h.sum_ns)
        .sum();
    let phases_ns: u64 = engine.phases.values().map(|h| h.sum_ns).sum();
    let pipeline_ns = engine.op("render").sum_ns + engine.op("analyze").sum_ns;
    let handle = |op: &str| window.op(op).mean_ms();

    outcome.metrics = vec![
        (
            "transport.overhead_ms",
            ratio(ms(rec_b.rtt_ns) - ms(handled_ns), requests),
            "ms",
        ),
        (
            "transport.first_reply_ms",
            dur_ms(first_reply) - m0.op("stats").mean_ms(),
            "ms",
        ),
        (
            "transport.ctx_switches_per_req",
            ratio(switches as f64, rec_a.completed as f64),
            "count",
        ),
        ("server.handle_ms.open", m0.op("open").mean_ms(), "ms"),
        ("server.handle_ms.edit", handle("edit"), "ms"),
        ("server.handle_ms.dispatch", handle("dispatch"), "ms"),
        ("server.handle_ms.render", handle("render"), "ms"),
        ("server.handle_ms.analyze", handle("analyze"), "ms"),
        ("server.json_us_per_req", json_us, "us"),
        (
            "server.patch_ratio",
            ratio(window.patch_bytes as f64, window.full_bytes as f64),
            "ratio",
        ),
        (
            "server.phase_coverage",
            ratio(phases_ns as f64, pipeline_ns as f64),
            "ratio",
        ),
        (
            "snapshot.bytes_per_req",
            ratio(journal1.saturating_sub(journal0) as f64, requests),
            "B",
        ),
        ("snapshot.append_us", append_us, "us"),
        (
            "editor.fast_path_ratio",
            share(
                engine.counter("incremental_fast_paths"),
                engine.counter("incremental_full_runs"),
            ),
            "ratio",
        ),
        ("editor.run_ms", run_ms, "ms"),
        ("lang.parse_ms", phase_ms("parse"), "ms"),
        ("lang.elaborate_ms", phase_ms("elaborate"), "ms"),
        ("lang.typecheck_ms", phase_ms("typecheck"), "ms"),
        (
            "lang.interner_hits_per_update",
            count("interner_hits"),
            "count",
        ),
        (
            "lang.interner_misses_per_update",
            count("interner_misses"),
            "count",
        ),
        (
            "lang.machine_steps_per_update",
            count("machine_steps"),
            "count",
        ),
        (
            "lang.machine_allocs_per_update",
            count("machine_allocs"),
            "count",
        ),
        ("core.collect_ms", phase_ms("collect"), "ms"),
        ("core.eval_splices_ms", phase_ms("eval_splices"), "ms"),
        (
            "core.closures_collected_per_update",
            count("closures_collected"),
            "count",
        ),
        (
            "core.splice_cache_hit_ratio",
            share(
                engine.counter("splice_cache_hits"),
                engine.counter("splice_cache_misses"),
            ),
            "ratio",
        ),
        (
            "core.expansion_cache_hit_ratio",
            share(
                engine.counter("expansion_cache_hits"),
                engine.counter("expansion_cache_misses"),
            ),
            "ratio",
        ),
        ("mvu.render_diff_ms", phase_ms("render_diff"), "ms"),
        (
            "mvu.view_nodes_reused_ratio",
            share(
                engine.counter("view_nodes_reused"),
                engine.counter("view_nodes_rebuilt"),
            ),
            "ratio",
        ),
        ("analysis.analyze_ms", phase_ms("analyze"), "ms"),
        (
            "analysis.flow_dirty_defs_per_edit",
            count("flow_dirty_defs"),
            "count",
        ),
        (
            "analysis.flow_facts_reused_ratio",
            share(
                engine.counter("flow_facts_reused"),
                engine.counter("flow_facts_computed"),
            ),
            "ratio",
        ),
        (
            "analysis.cache_hit_ratio",
            share(
                engine.counter("analyzer_cache_hits"),
                engine.counter("analyzer_cache_misses"),
            ),
            "ratio",
        ),
        ("sched.tasks_per_update", count("sched_tasks"), "count"),
        (
            "sched.idle_ms_per_update",
            per_update(ms(engine.counter("sched_idle_ns"))),
            "ms",
        ),
        (
            "process.cpu_ms_per_req",
            ratio(cpu_s * 1e3, rec_a.completed as f64),
            "ms",
        ),
        (
            "trace.overhead_ratio",
            ratio(throughput(&rec_b), throughput(&rec_a)),
            "ratio",
        ),
    ];
    outcome.spans = Some(spans);
    Ok(())
}

/// Replays a socket workload's stream over one stdio connection with the
/// metrics layer (and so the phase tracer) on: set-up and warm-up of
/// every lane, then `seconds` of the lanes' streams in turn. Returns the
/// metrics of the timed window and the interactions in it.
fn replay_over_stdio(
    ctx: &mut Ctx<'_>,
    seconds: f64,
    outcome: &mut Outcome,
) -> Result<(MetricsSnap, u64), String> {
    ctx.spawns += 1;
    let config = ServerConfig {
        binary: ctx.args.hazel.clone(),
        tcp: false,
        metrics: true,
        snapshot_dir: None,
        stderr_path: ctx.tmp.join(format!("server-{}.err", ctx.spawns)),
    };
    let mut server = Server::start(&config, 1).map_err(|e| format!("starting hazel serve: {e}"))?;
    outcome.attempted += 1;
    let mut plan = Plan::new(ctx.args.kind, ctx.args.seed);
    let lanes = plan.lanes.len();
    let mut queue: VecDeque<Interaction> = plan.lanes.iter().flat_map(|l| l.setup()).collect();
    for i in 0..ctx.args.kind.warmup() * lanes {
        queue.push_back(plan.lanes[i % lanes].next_interaction());
    }
    let mut record = Record::default();
    drive(
        &mut server.conns,
        &mut |_| queue.pop_front(),
        None,
        &mut record,
        None,
    );
    outcome.absorb(&record);

    let mut live = Live {
        server,
        plan,
        setup: Duration::ZERO,
        snapshot_dir: None,
        timed_interactions: 0,
        rss_kib: None,
    };
    let m0 = live.metrics(outcome)?;
    let mut record = Record::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut turn = 0usize;
    let plan = &mut live.plan;
    drive(
        &mut live.server.conns,
        &mut |_| {
            turn += 1;
            Some(plan.lanes[turn % lanes].next_interaction())
        },
        Some(deadline),
        &mut record,
        None,
    );
    outcome.absorb(&record);
    let m1 = live.metrics(outcome)?;
    ctx.tear_down(live)?;
    Ok((m1.since(&m0), record.latencies_ns.len() as u64))
}

/// Run metadata: what a number must be reported with.
fn meta_json(args: &Args, outcome: &Outcome) -> Json {
    // The checkout may not be a repository; never report the commit of
    // one that merely encloses it.
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_owned();
    let command = |program: &str, argv: &[&str]| {
        std::process::Command::new(program)
            .args(argv)
            .env("GIT_CEILING_DIRECTORIES", &ceiling)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned())
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    json::obj([
        ("workload", json::str(args.kind.name())),
        ("seed", json::uint(args.seed)),
        ("seconds", num(args.seconds)),
        ("trace", json::int(u8::from(args.trace))),
        ("commit", json::str(command("git", &["rev-parse", "HEAD"]))),
        ("nproc", json::uint(nproc)),
        ("rustc", json::str(command("rustc", &["-V"]))),
        ("profile", json::str("release")),
        ("workers", json::uint(outcome.workers)),
        (
            "transport",
            json::str(if args.kind.tcp() {
                "loopback-tcp"
            } else {
                "stdio"
            }),
        ),
        ("conns", json::uint(args.kind.conns())),
        ("steal_share", num(outcome.steal_share)),
        ("stolen_s", num(outcome.stolen_s)),
    ])
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> Json {
    Json::Num(if v.is_finite() { v } else { 0.0 })
}

/// The result line: correctness counts and every metric with its unit.
fn result_json(outcome: &Outcome) -> Json {
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            let metric = json::obj([("value", num(value)), ("unit", json::str(unit))]);
            (name.to_owned(), metric)
        })
        .collect();
    json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", json::uint(outcome.attempted)),
        ("failed", json::uint(outcome.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Writes the run's record (and, traced, its spans) under `out`.
fn write_report(
    args: &Args,
    meta: &Json,
    result: &Json,
    spans: Option<&Spans>,
) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(&args.out)?;
    let stem = format!(
        "{}-{}-seed{}",
        if args.trace { "trace" } else { "result" },
        args.kind.name(),
        args.seed
    );
    let mut f = std::io::BufWriter::new(std::fs::File::create(
        args.out.join(format!("{stem}.jsonl")),
    )?);
    let record = json::obj([("meta", meta.clone()), ("result", result.clone())]);
    writeln!(f, "{record}")?;
    for s in spans.map_or(&[][..], |s| &s.spans) {
        let span = json::obj([
            ("id", json::uint(s.id)),
            ("parent", json::uint(s.parent)),
            ("name", json::str(s.name)),
            ("lane", json::uint(s.lane)),
            ("start_ns", json::uint(s.start_ns)),
            ("end_ns", json::uint(s.end_ns)),
        ]);
        writeln!(f, "{span}")?;
    }
    f.flush()
}

fn run(args: &Args, tmp: &Path) -> Result<Outcome, String> {
    let mut ctx = Ctx {
        args,
        tmp: tmp.to_owned(),
        spawns: 0,
    };
    let mut outcome = Outcome::default();
    let result = if args.trace {
        run_traced(&mut ctx, &mut outcome)
    } else {
        run_end_to_end(&mut ctx, &mut outcome)
    };
    match result {
        Ok(()) => Ok(outcome),
        Err(e) if outcome.failures.is_empty() => Err(e),
        Err(e) => Err(format!("{e}; first failures: {:?}", outcome.failures)),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload drag|edit|sessions --seed N --seconds S \
                 --trace 0|1 --hazel PATH --out DIR"
            );
            return ExitCode::from(2);
        }
    };
    let tmp = args.out.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    let outcome = run(&args, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for f in &outcome.failures {
        eprintln!("perfbench: failed: {f}");
    }
    let meta = meta_json(&args, &outcome);
    let result = result_json(&outcome);
    if let Err(e) = write_report(&args, &meta, &result, outcome.spans.as_ref()) {
        eprintln!("perfbench: cannot write the report: {e}");
        return ExitCode::from(1);
    }
    println!("{}", json::obj([("meta", meta)]));
    println!("{result}");
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
