//! Per-layer measurements: the server's own `metrics` snapshot, diffed
//! over a timed window, and in-process replays of the public library
//! calls behind each layer, each wrapped in a client-side span.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hazel::editor::{open_module, Document, IncrementalEngine, LivelitRegistry};
use hazel::lang::ident::HoleName;
use hazel::lang::parse::parse_uexp;
use hazel::lang::value::iv;
use hazel::mvu::html::{EventKind, Html};
use hazel::mvu::livelit::Action;
use hazel::mvu::splice::SpliceRef;
use hazel::server::json::{self, Json};
use hazel::server::snapshot::SnapshotStore;

use crate::client::{nanos, Spans};
use crate::workload::{Kind, Plan, Step};

/// Count and total nanoseconds of one histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Hist {
    /// Samples.
    pub count: u64,
    /// Sum of samples, nanoseconds.
    pub sum_ns: u64,
}

impl Hist {
    /// Mean in milliseconds (0 without samples).
    pub fn mean_ms(self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// The parts of a `metrics` reply the benchmark reads.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnap {
    /// The evaluation pool size the server runs.
    pub workers: u64,
    /// Bytes of view payload shipped by `render` replies.
    pub patch_bytes: u64,
    /// Bytes the same renders would have cost as full views.
    pub full_bytes: u64,
    /// Per-op handle-time histograms.
    pub ops: BTreeMap<String, Hist>,
    /// Per-phase span-time histograms (stdio with metrics on only).
    pub phases: BTreeMap<String, Hist>,
    /// Counter totals (stdio with metrics on only).
    pub counters: BTreeMap<String, u64>,
}

fn uint(j: &Json, key: &str) -> u64 {
    j.get(key)
        .and_then(Json::as_int)
        .and_then(|n| u64::try_from(n).ok())
        .unwrap_or(0)
}

fn hists(j: &Json, list: &str, key: &str) -> BTreeMap<String, Hist> {
    let mut out = BTreeMap::new();
    for h in j.get(list).and_then(Json::as_arr).unwrap_or(&[]) {
        if let Some(name) = h.get(key).and_then(Json::as_str) {
            out.insert(
                name.to_owned(),
                Hist {
                    count: uint(h, "count"),
                    sum_ns: uint(h, "sum_ns"),
                },
            );
        }
    }
    out
}

impl MetricsSnap {
    /// Parses a `metrics` reply.
    pub fn parse(reply: &str) -> Result<MetricsSnap, String> {
        let j = json::parse(reply).map_err(|e| format!("metrics reply is not JSON: {e}"))?;
        if !matches!(j.get("ok"), Some(Json::Bool(true))) {
            return Err(format!("metrics op failed: {reply}"));
        }
        let counters = match j.get("counters") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), u64::try_from(v.as_int()?).ok()?)))
                .collect(),
            _ => BTreeMap::new(),
        };
        Ok(MetricsSnap {
            workers: uint(&j, "workers"),
            patch_bytes: uint(&j, "patch_bytes"),
            full_bytes: uint(&j, "full_bytes"),
            ops: hists(&j, "ops", "op"),
            phases: hists(&j, "phases", "phase"),
            counters,
        })
    }

    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &MetricsSnap) -> MetricsSnap {
        let sub = |a: &BTreeMap<String, Hist>, b: &BTreeMap<String, Hist>| {
            a.iter()
                .map(|(k, h)| {
                    let e = b.get(k).copied().unwrap_or_default();
                    let d = Hist {
                        count: h.count.saturating_sub(e.count),
                        sum_ns: h.sum_ns.saturating_sub(e.sum_ns),
                    };
                    (k.clone(), d)
                })
                .collect()
        };
        MetricsSnap {
            workers: self.workers,
            patch_bytes: self.patch_bytes.saturating_sub(earlier.patch_bytes),
            full_bytes: self.full_bytes.saturating_sub(earlier.full_bytes),
            ops: sub(&self.ops, &earlier.ops),
            phases: sub(&self.phases, &earlier.phases),
            counters: self
                .counters
                .iter()
                .map(|(k, v)| {
                    let e = earlier.counters.get(k).copied().unwrap_or(0);
                    (k.clone(), v.saturating_sub(e))
                })
                .collect(),
        }
    }

    /// A histogram by op name (empty if the op never ran).
    pub fn op(&self, name: &str) -> Hist {
        self.ops.get(name).copied().unwrap_or_default()
    }

    /// A phase's total nanoseconds.
    pub fn phase_ns(&self, name: &str) -> u64 {
        self.phases.get(name).map_or(0, |h| h.sum_ns)
    }

    /// A counter's total.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// `part / (part + rest)`, 0 when both are 0.
pub fn share(part: u64, rest: u64) -> f64 {
    ratio(part as f64, (part + rest) as f64)
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Mean of `total` over `n`, 0 when `n` is 0.
fn mean(total: Duration, n: u64) -> Duration {
    if n == 0 {
        Duration::ZERO
    } else {
        total / u32::try_from(n).unwrap_or(u32::MAX)
    }
}

/// In-process `json::parse` of each request plus `Json::write` of its
/// reply over a recorded stream: mean microseconds per request.
pub fn json_replay(log: &[(String, String)], spans: &mut Spans) -> Result<f64, String> {
    let mut total = Duration::ZERO;
    let mut out = String::new();
    for (request, reply) in log {
        let reply = json::parse(reply).map_err(|e| format!("reply is not JSON: {e}"))?;
        let (parsed, parse_time) = spans.time("lib.json.parse", || json::parse(request));
        std::hint::black_box(parsed.map_err(|e| format!("request is not JSON: {e}"))?);
        out.clear();
        let ((), write_time) = spans.time("lib.json.write", || reply.write(&mut out));
        std::hint::black_box(&out);
        total += parse_time + write_time;
    }
    Ok(mean(total, log.len() as u64).as_secs_f64() * 1e6)
}

/// In-process `SnapshotStore::append` of every session-addressed request
/// of a recorded stream into a scratch directory: mean microseconds per
/// append.
pub fn snapshot_replay(
    log: &[(String, String)],
    dir: &Path,
    spans: &mut Spans,
) -> Result<f64, String> {
    let mut store = SnapshotStore::open(dir).map_err(|e| format!("snapshot dir: {e}"))?;
    let mut total = Duration::ZERO;
    let mut appends = 0u64;
    for (request, _) in log {
        let req = json::parse(request).map_err(|e| format!("request is not JSON: {e}"))?;
        let Some(session) = req.get("session").and_then(Json::as_str) else {
            continue;
        };
        let (appended, took) = spans.time("lib.snapshot.append", || store.append(session, request));
        appended.map_err(|e| format!("journal append: {e}"))?;
        total += took;
        appends += 1;
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok(mean(total, appends).as_secs_f64() * 1e6)
}

fn registry() -> LivelitRegistry {
    let mut registry = LivelitRegistry::new();
    hazel::std::register_all(&mut registry);
    registry
}

/// One document with its engine and last views.
struct Replayed {
    registry: LivelitRegistry,
    doc: Document,
    engine: IncrementalEngine,
    views: BTreeMap<HoleName, Arc<Html<Action>>>,
}

impl Replayed {
    fn open(source: &str) -> Result<Replayed, String> {
        let (registry, doc) = open_module(registry(), source).map_err(|e| e.to_string())?;
        let mut r = Replayed {
            registry,
            doc,
            engine: IncrementalEngine::new(),
            views: BTreeMap::new(),
        };
        r.run()?;
        Ok(r)
    }

    fn run(&mut self) -> Result<(), String> {
        let out = self
            .engine
            .run(&self.registry, &self.doc)
            .map_err(|e| e.to_string())?;
        self.views = out.views.clone();
        Ok(())
    }

    fn apply(&mut self, step: &Step) -> Result<(), String> {
        match step {
            Step::Set { hole, value } => self
                .doc
                .dispatch(HoleName(*hole), &iv::record([("set", iv::int(*value))])),
            Step::Splice { contents } => {
                let e = parse_uexp(contents).map_err(|e| e.to_string())?;
                self.doc.edit_splice(HoleName(0), SpliceRef(0), e)
            }
            Step::Click { hole, target, .. } => {
                let action = self
                    .views
                    .get(&HoleName(*hole))
                    .and_then(|v| v.find_handler(target, EventKind::Click))
                    .cloned()
                    .ok_or_else(|| format!("no {target} handler in hole {hole}"))?;
                self.doc.dispatch(HoleName(*hole), &action)
            }
        }
        .map_err(|e| e.to_string())
    }
}

/// In-process `IncrementalEngine::run` per interaction on the workload's
/// own documents and stream (warm-up included, untimed): mean
/// milliseconds per run over at most `max_runs` runs or `budget`.
pub fn engine_replay(
    kind: Kind,
    seed: u64,
    max_runs: usize,
    budget: Duration,
    spans: &mut Spans,
) -> Result<f64, String> {
    let mut plan = Plan::new(kind, seed);
    let mut docs: Vec<Replayed> = plan
        .sources()
        .iter()
        .map(|s| Replayed::open(s))
        .collect::<Result<_, _>>()?;
    let lanes = plan.lanes.len();
    let mut total = Duration::ZERO;
    let mut runs = 0u64;
    let started = Instant::now();
    for i in 0.. {
        let timed = i >= kind.warmup() * lanes;
        if timed && (runs as usize >= max_runs || started.elapsed() >= budget) {
            break;
        }
        let interaction = plan.lanes[i % lanes].next_interaction();
        let step = interaction.step.expect("stream interactions carry a step");
        let doc = match &step {
            Step::Click { session, .. } => &mut docs[*session],
            _ => &mut docs[0],
        };
        doc.apply(&step)?;
        if timed {
            let (ran, took) = spans.time("lib.engine.run", || doc.run());
            ran?;
            total += took;
            runs += 1;
        } else {
            doc.run()?;
        }
    }
    Ok(mean(total, runs).as_secs_f64() * 1e3)
}

/// Total bytes of the files directly in `dir` (0 if it does not exist).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Duration in milliseconds.
pub fn dur_ms(d: Duration) -> f64 {
    ms(nanos(d))
}
