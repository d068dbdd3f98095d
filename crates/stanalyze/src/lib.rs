#![warn(missing_docs)]

//! # stanalyze — causality analysis for struntime traces
//!
//! The runtime's lineage layer (see `struntime::traversal`) stamps every
//! traversal message with a world-unique id and records two event kinds
//! per message: a **spawn** (on the pushing rank, carrying the parent
//! message id — 0 for traversal seeds) and a **visit** (on the rank that
//! dequeued it). Those events define a causality DAG whose longest
//! dependent visit chain — the **critical path** — is a lower bound on
//! achievable phase time no amount of extra parallelism can beat, and
//! the quantitative explanation of the paper's FIFO-vs-priority gap: a
//! priority queue shortens the *realized* chain toward the DAG's
//! intrinsic one.
//!
//! This crate reconstructs that DAG from either an in-process
//! [`struntime::TraceDump`] ([`model_from_dump`]) or an exported Chrome
//! trace JSON ([`model_from_chrome`], used by `xtask analyze`), then
//! [`analyze`]s it:
//!
//! - verifies the graph is **acyclic** and **covers** every visit
//!   (every visited id was spawned, every spawned id visited) — with
//!   coverage downgraded to a warning when the trace ring dropped
//!   events, since a truncated window cannot prove anything missing;
//! - computes the **critical path** (visit count and wall-clock span);
//! - breaks down **load imbalance**: busy vs idle time per rank per
//!   span, spawn→visit queue-wait per rank per channel phase, and the
//!   max/mean busy-time ratio across ranks.
//!
//! [`gantt`] draws the same model's phase spans as an ASCII timeline,
//! one row per rank.

use std::collections::{BTreeMap, HashMap, VecDeque};

use stgraph::json::Json;
use struntime::trace::{TraceDump, TraceEventKind};

/// One parent→child lineage edge (a `Pusher::push` during a visit).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpawnRec {
    /// The created message's id.
    pub id: u64,
    /// The message being visited when the push happened (0 = seed).
    pub parent: u64,
    /// The pushing rank.
    pub rank: usize,
    /// Microseconds since the world epoch.
    pub ts_us: u64,
    /// Channel phase label the message travelled under.
    pub phase: String,
}

/// One message consumption: either the visitor callback
/// (`stale == false`) or a stale-relaxation drop at queue admission or at
/// pop (`stale == true`). Both terminate the message's lineage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VisitRec {
    /// The visited message's id (0 = visitor from an uninstrumented
    /// sender — never produced by a fully instrumented world).
    pub id: u64,
    /// The visiting rank.
    pub rank: usize,
    /// Microseconds since the world epoch.
    pub ts_us: u64,
    /// Channel phase label.
    pub phase: String,
    /// True when the stale filter dropped the message (at queue
    /// admission or at pop) instead of running the visitor callback.
    pub stale: bool,
}

/// One completed begin/end span pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRec {
    /// The recording rank.
    pub rank: usize,
    /// Span label ("voronoi", "traversal", "idle", ...).
    pub name: String,
    /// Span open, microseconds since the world epoch.
    pub begin_us: u64,
    /// Span close, microseconds since the world epoch.
    pub end_us: u64,
}

/// A trace reduced to what the analyzer needs, independent of whether it
/// came from an in-process dump or an exported Chrome JSON.
#[derive(Clone, Debug, Default)]
pub struct TraceModel {
    /// Number of rank lanes.
    pub num_ranks: usize,
    /// All lineage edges.
    pub spawns: Vec<SpawnRec>,
    /// All visits.
    pub visits: Vec<VisitRec>,
    /// All completed spans.
    pub spans: Vec<SpanRec>,
    /// Per-rank ring-overflow drop counts.
    pub dropped: Vec<u64>,
}

/// Builds a [`TraceModel`] from an in-process trace dump.
pub fn model_from_dump(dump: &TraceDump) -> TraceModel {
    let mut model = TraceModel {
        num_ranks: dump.ranks.len(),
        dropped: dump.ranks.iter().map(|r| r.dropped).collect(),
        ..TraceModel::default()
    };
    for rt in &dump.ranks {
        // Begin/end pairing: per-name stack of open timestamps. Ends
        // without a begin (begin evicted by ring overwrite) are skipped.
        let mut open: HashMap<&str, Vec<u64>> = HashMap::new();
        for ev in &rt.events {
            match ev.kind {
                TraceEventKind::SpanBegin => open.entry(ev.name).or_default().push(ev.ts_us),
                TraceEventKind::SpanEnd => {
                    if let Some(begin_us) = open.get_mut(ev.name).and_then(Vec::pop) {
                        model.spans.push(SpanRec {
                            rank: rt.rank,
                            name: ev.name.to_string(),
                            begin_us,
                            end_us: ev.ts_us,
                        });
                    }
                }
                TraceEventKind::Instant | TraceEventKind::Counter => {}
                TraceEventKind::Spawn => model.spawns.push(SpawnRec {
                    id: ev.arg,
                    parent: ev.arg2,
                    rank: rt.rank,
                    ts_us: ev.ts_us,
                    phase: ev.name.to_string(),
                }),
                TraceEventKind::Visit => model.visits.push(VisitRec {
                    id: ev.arg,
                    rank: rt.rank,
                    ts_us: ev.ts_us,
                    phase: ev.name.to_string(),
                    stale: ev.arg2 != 0,
                }),
            }
        }
    }
    model
}

fn field_u64(ev: &Json, key: &str) -> Option<u64> {
    ev.get(key).and_then(|v| v.as_u64())
}

fn field_str<'a>(ev: &'a Json, key: &str) -> Option<&'a str> {
    ev.get(key).and_then(|v| v.as_str())
}

/// Builds a [`TraceModel`] from a parsed Chrome trace JSON (the format
/// `struntime::TraceDump::to_chrome_trace` writes). Fails with a
/// description when the document is not a chrome trace object.
pub fn model_from_chrome(doc: &Json) -> Result<TraceModel, String> {
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .ok_or("not a chrome trace: missing traceEvents array")?;
    let mut model = TraceModel::default();
    if let Some(dropped) = doc
        .get("struntime")
        .and_then(|s| s.get("dropped"))
        .and_then(|d| d.as_arr())
    {
        model.dropped = dropped.iter().filter_map(|d| d.as_u64()).collect();
    }
    // Begin/end pairing per (rank, name).
    let mut open: HashMap<(usize, String), Vec<u64>> = HashMap::new();
    for ev in events {
        let ph = field_str(ev, "ph").unwrap_or("");
        if ph == "M" {
            continue;
        }
        let rank = field_u64(ev, "tid").unwrap_or(0) as usize;
        model.num_ranks = model.num_ranks.max(rank + 1);
        let ts_us = field_u64(ev, "ts").unwrap_or(0);
        let name = field_str(ev, "name").unwrap_or("").to_string();
        match ph {
            "B" => open.entry((rank, name)).or_default().push(ts_us),
            "E" => {
                if let Some(begin_us) = open.get_mut(&(rank, name.clone())).and_then(Vec::pop) {
                    model.spans.push(SpanRec {
                        rank,
                        name,
                        begin_us,
                        end_us: ts_us,
                    });
                }
            }
            "s" => model.spawns.push(SpawnRec {
                id: field_u64(ev, "id").unwrap_or(0),
                parent: ev
                    .get("args")
                    .and_then(|a| a.get("parent"))
                    .and_then(|p| p.as_u64())
                    .unwrap_or(0),
                rank,
                ts_us,
                phase: name,
            }),
            "f" => model.visits.push(VisitRec {
                id: field_u64(ev, "id").unwrap_or(0),
                rank,
                ts_us,
                phase: name,
                stale: ev
                    .get("args")
                    .and_then(|a| a.get("stale"))
                    .and_then(|s| s.as_u64())
                    .unwrap_or(0)
                    != 0,
            }),
            _ => {}
        }
    }
    model.num_ranks = model.num_ranks.max(model.dropped.len());
    Ok(model)
}

/// The longest dependent visit chain of the causality DAG.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Visits on the chain (0 when the trace holds no visits).
    pub visits: u64,
    /// Wall-clock from the chain's first visit to its last.
    pub span_us: u64,
}

/// Busy/idle attribution of one span label on one rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseLoad {
    /// Span label.
    pub phase: String,
    /// Span time not covered by nested `idle` spans.
    pub busy_us: u64,
    /// Span time spent inside `idle` spans (waiting for quiescence).
    pub idle_us: u64,
}

/// One rank's load breakdown.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RankLoad {
    /// The rank.
    pub rank: usize,
    /// Busy vs idle per span label (excluding the `idle` spans
    /// themselves), label-sorted.
    pub spans: Vec<PhaseLoad>,
    /// Total spawn→visit delay per channel phase — how long this rank's
    /// visitors sat created-but-unvisited (queue wait plus network).
    pub queue_wait_us: BTreeMap<String, u64>,
}

/// Everything [`analyze`] derives from one trace.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Lineage edges in the trace.
    pub total_spawns: u64,
    /// Consumptions in the trace (visitor callbacks plus stale drops —
    /// every delivered message terminates here).
    pub total_visits: u64,
    /// Consumptions that were stale-relaxation drops: the stale filter
    /// discarded the message at queue admission or at pop without
    /// running the visitor. Always `<= total_visits`.
    pub stale_drops: u64,
    /// Visits whose message had no parent (traversal seeds).
    pub roots: u64,
    /// Whether the causality graph is a DAG (it must be; a cycle proves
    /// corrupted lineage).
    pub acyclic: bool,
    /// Whether every visit was spawned and every spawn visited. Forced
    /// true (with warnings) when the ring dropped events, since a
    /// truncated trace cannot prove a violation.
    pub coverage_ok: bool,
    /// The longest dependent visit chain.
    pub critical_path: CriticalPath,
    /// Per-rank busy/idle/queue-wait breakdown.
    pub per_rank: Vec<RankLoad>,
    /// Max over ranks of traversal busy time divided by the mean — 1.0
    /// is a perfectly balanced world.
    pub imbalance_ratio: f64,
    /// Total ring-overflow drops across ranks.
    pub dropped_events: u64,
    /// Human-readable diagnostics (truncation, coverage gaps, ...).
    pub warnings: Vec<String>,
}

impl Analysis {
    /// Hard validity: acyclic, covered, and a critical path consistent
    /// with the visit count. `Err` carries the first failed property.
    pub fn verify(&self) -> Result<(), String> {
        if !self.acyclic {
            return Err("causality graph has a cycle".to_string());
        }
        if !self.coverage_ok {
            return Err(format!(
                "causality graph does not cover all visits: {}",
                self.warnings.join("; ")
            ));
        }
        if self.total_visits > 0 && self.critical_path.visits == 0 {
            return Err("trace has visits but the critical path is empty".to_string());
        }
        if self.critical_path.visits > self.total_visits {
            return Err(format!(
                "critical path ({}) longer than total visits ({})",
                self.critical_path.visits, self.total_visits
            ));
        }
        Ok(())
    }

    /// The analysis as JSON (machine twin of [`Analysis::render_text`]).
    pub fn to_json(&self) -> Json {
        let mut per_rank = Json::arr();
        for r in &self.per_rank {
            let mut spans = Json::obj();
            for pl in &r.spans {
                spans.insert(
                    &pl.phase,
                    Json::obj()
                        .with("busy_us", pl.busy_us)
                        .with("idle_us", pl.idle_us),
                );
            }
            let mut qw = Json::obj();
            for (phase, us) in &r.queue_wait_us {
                qw.insert(phase, *us);
            }
            per_rank.push(
                Json::obj()
                    .with("rank", r.rank)
                    .with("spans", spans)
                    .with("queue_wait_us", qw),
            );
        }
        let mut warnings = Json::arr();
        for w in &self.warnings {
            warnings.push(w.as_str());
        }
        Json::obj()
            .with("total_spawns", self.total_spawns)
            .with("total_visits", self.total_visits)
            .with("stale_drops", self.stale_drops)
            .with("roots", self.roots)
            .with("acyclic", self.acyclic)
            .with("coverage_ok", self.coverage_ok)
            .with(
                "critical_path",
                Json::obj()
                    .with("visits", self.critical_path.visits)
                    .with("span_us", self.critical_path.span_us),
            )
            .with("imbalance_ratio", self.imbalance_ratio)
            .with("dropped_events", self.dropped_events)
            .with("per_rank", per_rank)
            .with("warnings", warnings)
    }

    /// A human-readable readout (what `xtask analyze` prints).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "causality DAG: {} visits ({} stale drops), {} spawns, {} roots, acyclic={}, coverage={}",
            self.total_visits,
            self.stale_drops,
            self.total_spawns,
            self.roots,
            self.acyclic,
            if self.coverage_ok { "ok" } else { "VIOLATED" },
        );
        let _ = writeln!(
            s,
            "critical path: {} dependent visits spanning {} us (lower bound on phase time)",
            self.critical_path.visits, self.critical_path.span_us
        );
        let _ = writeln!(
            s,
            "imbalance ratio (max/mean busy): {:.3}",
            self.imbalance_ratio
        );
        for r in &self.per_rank {
            let _ = write!(s, "rank {}:", r.rank);
            for pl in &r.spans {
                let _ = write!(
                    s,
                    " {}[busy {} us, idle {} us]",
                    pl.phase, pl.busy_us, pl.idle_us
                );
            }
            for (phase, us) in &r.queue_wait_us {
                let _ = write!(s, " wait:{phase}[{us} us]");
            }
            let _ = writeln!(s);
        }
        if self.dropped_events > 0 {
            let _ = writeln!(
                s,
                "WARNING: ring dropped {} event(s); analysis ran on a truncated window",
                self.dropped_events
            );
        }
        for w in &self.warnings {
            let _ = writeln!(s, "warning: {w}");
        }
        s
    }
}

/// Total overlap of `[begin, end)` with the given disjoint-ish intervals.
fn overlap_us(begin: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    intervals
        .iter()
        .map(|&(b, e)| e.min(end).saturating_sub(b.max(begin)))
        .sum()
}

/// Reconstructs and checks the causality DAG, computes the critical
/// path, and attributes per-rank load. Pure — safe to call on any
/// [`TraceModel`], including empty ones.
pub fn analyze(model: &TraceModel) -> Analysis {
    let mut a = Analysis {
        total_spawns: model.spawns.len() as u64,
        total_visits: model.visits.len() as u64,
        stale_drops: model.visits.iter().filter(|v| v.stale).count() as u64,
        dropped_events: model.dropped.iter().sum(),
        acyclic: true,
        coverage_ok: true,
        ..Analysis::default()
    };
    let truncated = a.dropped_events > 0;
    if truncated {
        let per_rank: Vec<String> = model
            .dropped
            .iter()
            .enumerate()
            .filter(|(_, &d)| d > 0)
            .map(|(r, d)| format!("rank {r}: {d}"))
            .collect();
        a.warnings.push(format!(
            "trace ring overflowed ({}); lineage coverage checked only on the surviving window",
            per_rank.join(", ")
        ));
    }

    // Index spawns and visits by id.
    let mut spawn_of: HashMap<u64, &SpawnRec> = HashMap::new();
    for sp in &model.spawns {
        if spawn_of.insert(sp.id, sp).is_some() {
            a.acyclic = false; // duplicate ids make any DAG claim void
            a.warnings.push(format!("duplicate spawn id {}", sp.id));
        }
    }
    let mut visit_of: HashMap<u64, &VisitRec> = HashMap::new();
    for v in &model.visits {
        if v.id == 0 {
            a.coverage_ok = truncated;
            a.warnings
                .push("visit without lineage id (uninstrumented sender?)".to_string());
            continue;
        }
        if visit_of.insert(v.id, v).is_some() {
            a.acyclic = false;
            a.warnings.push(format!("message {} visited twice", v.id));
        }
    }

    // Coverage: spawned => visited and visited => spawned. On a
    // truncated trace either direction can fail benignly, so only a
    // complete trace turns gaps into violations.
    let spawned_not_visited = spawn_of
        .keys()
        .filter(|id| !visit_of.contains_key(id))
        .count();
    let visited_not_spawned = visit_of
        .keys()
        .filter(|id| !spawn_of.contains_key(id))
        .count();
    if spawned_not_visited > 0 {
        if !truncated {
            a.coverage_ok = false;
        }
        a.warnings.push(format!(
            "{spawned_not_visited} spawned message(s) never visited"
        ));
    }
    if visited_not_spawned > 0 {
        if !truncated {
            a.coverage_ok = false;
        }
        a.warnings.push(format!(
            "{visited_not_spawned} visited message(s) have no spawn record"
        ));
    }

    a.roots = visit_of
        .values()
        .filter(|v| spawn_of.get(&v.id).is_none_or(|sp| sp.parent == 0))
        .count() as u64;

    // Build the DAG over visited messages: edge parent -> child when
    // both endpoints were visited. Kahn's algorithm gives a topological
    // order (or proves a cycle); a DP over it finds the longest chain.
    let mut children: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut indegree: HashMap<u64, usize> = visit_of.keys().map(|&id| (id, 0)).collect();
    for &id in visit_of.keys() {
        if let Some(sp) = spawn_of.get(&id) {
            if sp.parent != 0 && visit_of.contains_key(&sp.parent) {
                children.entry(sp.parent).or_default().push(id);
                *indegree.get_mut(&id).expect("indexed above") += 1;
            }
        }
    }
    let mut ready: VecDeque<u64> = indegree
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&id, _)| id)
        .collect();
    // depth = chain length ending here; start = first visit ts of that chain.
    let mut depth: HashMap<u64, u64> = HashMap::new();
    let mut start: HashMap<u64, u64> = HashMap::new();
    let mut processed = 0usize;
    while let Some(id) = ready.pop_front() {
        processed += 1;
        let d = *depth.entry(id).or_insert(1);
        let s = *start.entry(id).or_insert_with(|| visit_of[&id].ts_us);
        let end_ts = visit_of[&id].ts_us;
        if d > a.critical_path.visits
            || (d == a.critical_path.visits && end_ts.saturating_sub(s) > a.critical_path.span_us)
        {
            a.critical_path = CriticalPath {
                visits: d,
                span_us: end_ts.saturating_sub(s),
            };
        }
        for &child in children.get(&id).into_iter().flatten() {
            if depth.get(&child).copied().unwrap_or(0) < d + 1 {
                depth.insert(child, d + 1);
                start.insert(child, s);
            }
            let deg = indegree.get_mut(&child).expect("indexed above");
            *deg -= 1;
            if *deg == 0 {
                ready.push_back(child);
            }
        }
    }
    if processed < indegree.len() {
        a.acyclic = false;
        a.warnings.push(format!(
            "causality graph has a cycle ({} visit(s) unreachable in topological order)",
            indegree.len() - processed
        ));
        a.critical_path = CriticalPath::default();
    }

    // Per-rank load: busy = span minus nested idle; queue wait =
    // spawn->visit per channel phase of the *visiting* rank.
    let mut busy_per_rank: Vec<u64> = vec![0; model.num_ranks];
    for (rank, rank_busy) in busy_per_rank.iter_mut().enumerate() {
        let idle: Vec<(u64, u64)> = model
            .spans
            .iter()
            .filter(|s| s.rank == rank && s.name == "idle")
            .map(|s| (s.begin_us, s.end_us))
            .collect();
        let mut loads: BTreeMap<String, PhaseLoad> = BTreeMap::new();
        for sp in model
            .spans
            .iter()
            .filter(|s| s.rank == rank && s.name != "idle")
        {
            let dur = sp.end_us.saturating_sub(sp.begin_us);
            let idle_us = overlap_us(sp.begin_us, sp.end_us, &idle).min(dur);
            let e = loads.entry(sp.name.clone()).or_insert_with(|| PhaseLoad {
                phase: sp.name.clone(),
                busy_us: 0,
                idle_us: 0,
            });
            e.busy_us += dur - idle_us;
            e.idle_us += idle_us;
            if sp.name == "traversal" {
                *rank_busy += dur - idle_us;
            }
        }
        let mut queue_wait_us: BTreeMap<String, u64> = BTreeMap::new();
        for v in model.visits.iter().filter(|v| v.rank == rank) {
            if let Some(sp) = spawn_of.get(&v.id) {
                *queue_wait_us.entry(v.phase.clone()).or_insert(0) +=
                    v.ts_us.saturating_sub(sp.ts_us);
            }
        }
        a.per_rank.push(RankLoad {
            rank,
            spans: loads.into_values().collect(),
            queue_wait_us,
        });
    }
    // Fall back to all-span busy time when no traversal spans exist
    // (e.g. a BSP-only trace) so the ratio still says something.
    if busy_per_rank.iter().all(|&b| b == 0) {
        for (rank, load) in a.per_rank.iter().enumerate() {
            busy_per_rank[rank] = load.spans.iter().map(|p| p.busy_us).sum();
        }
    }
    let total_busy: u64 = busy_per_rank.iter().sum();
    a.imbalance_ratio = if total_busy == 0 || busy_per_rank.is_empty() {
        1.0
    } else {
        let mean = total_busy as f64 / busy_per_rank.len() as f64;
        *busy_per_rank.iter().max().expect("non-empty") as f64 / mean
    };
    a
}

/// Renders an ASCII phase Gantt / per-rank utilization view from the
/// phase spans of a trace: one row per rank over a shared wall-clock
/// axis running from the first phase span's begin to the last one's end.
/// Each column shows the phase whose span covers the column's midpoint on
/// that rank, as the digit or letter of its position in `phases` (`.` =
/// inside no phase span). The right margin shows the rank's visits
/// (stale drops excluded) and its share of the most-loaded rank's. Spans
/// not named in `phases` are ignored; a model without a phase span is an
/// error.
pub fn gantt(model: &TraceModel, phases: &[&str]) -> Result<String, String> {
    const WIDTH: u64 = 64;
    let spans: Vec<(&SpanRec, usize)> = model
        .spans
        .iter()
        .filter_map(|s| phases.iter().position(|&p| p == s.name).map(|i| (s, i)))
        .collect();
    let t0 = spans
        .iter()
        .map(|(s, _)| s.begin_us)
        .min()
        .ok_or("trace holds no phase span")?;
    let t1 = spans.iter().map(|(s, _)| s.end_us).max().unwrap_or(t0);
    let len = (t1 - t0).max(1);
    let glyph = |i: usize| char::from_digit(i as u32, 36).unwrap_or('?');
    let visits: Vec<u64> = (0..model.num_ranks)
        .map(|r| {
            model
                .visits
                .iter()
                .filter(|v| v.rank == r && !v.stale)
                .count() as u64
        })
        .collect();
    let max_visits = visits.iter().copied().max().unwrap_or(0).max(1);
    let mut out = String::new();
    for (rank, &v) in visits.iter().enumerate() {
        let line: String = (0..WIDTH)
            .map(|col| {
                let t = t0 + (2 * col + 1) * len / (2 * WIDTH);
                spans
                    .iter()
                    .find(|(s, _)| s.rank == rank && s.begin_us <= t && t <= s.end_us)
                    .map_or('.', |&(_, i)| glyph(i))
            })
            .collect();
        out.push_str(&format!(
            "r{rank:<3} |{line}| {v} visits ({}%)\n",
            v * 100 / max_visits
        ));
    }
    out.push_str(&format!(
        "      time axis: {len} us from the first phase span\n"
    ));
    for (i, name) in phases.iter().enumerate() {
        if spans.iter().any(|&(_, j)| j == i) {
            out.push_str(&format!("      {} = {name}\n", glyph(i)));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use struntime::{run_traversal, MetricsConfig, QueueKind, TraceConfig, World, WorldConfig};

    fn traced_world(p: usize, queue: QueueKind, hops: u32) -> (TraceModel, u64) {
        let config = WorldConfig {
            trace: TraceConfig::ring(),
            metrics: MetricsConfig::Off,
            ..WorldConfig::default()
        };
        let out = World::run_config(p, config, |comm| {
            let chan = comm.open_channels::<Vec<u32>>("ring");
            let init = if comm.rank() == 0 { vec![0u32] } else { vec![] };
            run_traversal(
                comm,
                &chan,
                queue,
                |&v| v as u64,
                init,
                |v, pusher| {
                    if v < hops {
                        pusher.push((pusher.rank() + 1) % p, v + 1);
                    }
                },
            )
        });
        let total: u64 = out.results.iter().map(|s| s.processed).sum();
        (model_from_dump(&out.trace), total)
    }

    #[test]
    fn ring_chain_critical_path_is_total_visits() {
        // A token ring is one dependent chain: the critical path must be
        // exactly every visit.
        let (model, total) = traced_world(3, QueueKind::Fifo, 9);
        let a = analyze(&model);
        a.verify().expect("clean trace analyzes clean");
        assert_eq!(a.total_visits, total);
        assert_eq!(a.critical_path.visits, total);
        assert_eq!(a.roots, 1);
        assert!(a.imbalance_ratio >= 1.0);
    }

    #[test]
    fn flood_critical_path_is_shorter_than_visits() {
        let p = 4;
        let config = WorldConfig {
            trace: TraceConfig::ring(),
            ..WorldConfig::default()
        };
        let out = World::run_config(p, config, |comm| {
            let chan = comm.open_channels::<Vec<u8>>("flood");
            let init = if comm.rank() == 0 { vec![0u8] } else { vec![] };
            run_traversal(
                comm,
                &chan,
                QueueKind::Fifo,
                |_| 0,
                init,
                |gen, pusher| {
                    if gen < 2 {
                        for d in 0..p {
                            pusher.push(d, gen + 1);
                        }
                    }
                },
            )
        });
        let total: u64 = out.results.iter().map(|s| s.processed).sum();
        let a = analyze(&model_from_dump(&out.trace));
        a.verify().expect("clean trace");
        assert_eq!(a.total_visits, total);
        // Three generations -> chains of exactly 3 visits, far fewer
        // than the 1 + p + p^2 total.
        assert_eq!(a.critical_path.visits, 3);
        assert!(a.critical_path.visits < total);
    }

    #[test]
    fn chrome_round_trip_preserves_analysis() {
        let (model, _) = traced_world(2, QueueKind::Priority, 7);
        let direct = analyze(&model);
        let config = WorldConfig {
            trace: TraceConfig::ring(),
            ..WorldConfig::default()
        };
        let out = World::run_config(2, config, |comm| {
            let chan = comm.open_channels::<Vec<u32>>("ring");
            let init = if comm.rank() == 0 { vec![0u32] } else { vec![] };
            run_traversal(
                comm,
                &chan,
                QueueKind::Priority,
                |&v| v as u64,
                init,
                |v, pusher| {
                    if v < 7 {
                        pusher.push((pusher.rank() + 1) % 2, v + 1);
                    }
                },
            )
        });
        let text = out.trace.to_chrome_trace();
        let doc = stgraph::json::parse(&text).expect("chrome trace parses");
        let rebuilt = model_from_chrome(&doc).expect("model from chrome");
        let via_json = analyze(&rebuilt);
        via_json
            .verify()
            .expect("round-tripped trace analyzes clean");
        assert_eq!(via_json.total_visits, direct.total_visits);
        assert_eq!(via_json.total_spawns, direct.total_spawns);
        assert_eq!(via_json.roots, direct.roots);
        assert_eq!(via_json.critical_path.visits, direct.critical_path.visits);
    }

    #[test]
    fn truncated_trace_warns_instead_of_failing_coverage() {
        let model = TraceModel {
            num_ranks: 1,
            spawns: vec![],
            visits: vec![VisitRec {
                id: (1u64 << 40) | 5,
                rank: 0,
                ts_us: 10,
                phase: "x".to_string(),
                stale: false,
            }],
            spans: vec![],
            dropped: vec![3],
        };
        let a = analyze(&model);
        assert!(a.coverage_ok, "truncation downgrades coverage to warning");
        assert!(a.dropped_events == 3);
        assert!(!a.warnings.is_empty());
        a.verify().expect("still verifies");
    }

    #[test]
    fn complete_trace_with_gap_fails_coverage() {
        let model = TraceModel {
            num_ranks: 1,
            spawns: vec![SpawnRec {
                id: (1u64 << 40) | 1,
                parent: 0,
                rank: 0,
                ts_us: 1,
                phase: "x".to_string(),
            }],
            visits: vec![],
            spans: vec![],
            dropped: vec![0],
        };
        let a = analyze(&model);
        assert!(!a.coverage_ok);
        assert!(a.verify().is_err());
    }

    #[test]
    fn cycle_is_detected() {
        // Hand-built corrupt lineage: 1 -> 2 -> 1.
        let mk_spawn = |id: u64, parent: u64| SpawnRec {
            id,
            parent,
            rank: 0,
            ts_us: 0,
            phase: "x".to_string(),
        };
        let mk_visit = |id: u64| VisitRec {
            id,
            rank: 0,
            ts_us: 0,
            phase: "x".to_string(),
            stale: false,
        };
        let model = TraceModel {
            num_ranks: 1,
            spawns: vec![mk_spawn(1, 2), mk_spawn(2, 1)],
            visits: vec![mk_visit(1), mk_visit(2)],
            spans: vec![],
            dropped: vec![0],
        };
        let a = analyze(&model);
        assert!(!a.acyclic);
        assert!(a.verify().is_err());
    }

    #[test]
    fn busy_idle_split_accounts_spans() {
        let model = TraceModel {
            num_ranks: 1,
            spawns: vec![],
            visits: vec![],
            spans: vec![
                SpanRec {
                    rank: 0,
                    name: "traversal".to_string(),
                    begin_us: 0,
                    end_us: 100,
                },
                SpanRec {
                    rank: 0,
                    name: "idle".to_string(),
                    begin_us: 40,
                    end_us: 70,
                },
            ],
            dropped: vec![0],
        };
        let a = analyze(&model);
        let load = &a.per_rank[0];
        assert_eq!(load.spans.len(), 1);
        assert_eq!(load.spans[0].phase, "traversal");
        assert_eq!(load.spans[0].busy_us, 70);
        assert_eq!(load.spans[0].idle_us, 30);
        assert!((a.imbalance_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn render_text_and_json_carry_headline_numbers() {
        let (model, _) = traced_world(2, QueueKind::Fifo, 5);
        let a = analyze(&model);
        let text = a.render_text();
        assert!(text.contains("critical path"));
        assert!(text.contains("imbalance ratio"));
        let j = a.to_json();
        assert_eq!(
            j.get("critical_path")
                .and_then(|c| c.get("visits"))
                .and_then(|v| v.as_u64()),
            Some(a.critical_path.visits)
        );
        assert_eq!(j.get("acyclic").and_then(|b| b.as_bool()), Some(true));
    }

    #[test]
    fn gantt_renders_rows_legend_and_utilization() {
        // Two ranks, rank 0 twice as loaded: voronoi then tree_edge on
        // rank 0, a short voronoi on rank 1.
        let span = |rank: usize, name: &str, begin_us: u64, end_us: u64| SpanRec {
            rank,
            name: name.to_string(),
            begin_us,
            end_us,
        };
        let visit = |rank: usize, id: u64| VisitRec {
            id,
            rank,
            ts_us: 0,
            phase: "voronoi".to_string(),
            stale: false,
        };
        let model = TraceModel {
            num_ranks: 2,
            spawns: vec![],
            visits: (0..13)
                .map(|i| visit(0, i + 1))
                .chain((0..5).map(|i| visit(1, i + 100)))
                .collect(),
            spans: vec![
                span(0, "voronoi", 0, 60),
                span(0, "idle", 10, 20),
                span(0, "tree_edge", 60, 100),
                span(1, "voronoi", 0, 30),
            ],
            dropped: vec![0, 0],
        };
        let text = gantt(&model, &["voronoi", "mst", "tree_edge"]).unwrap();
        let rows: Vec<&str> = text.lines().collect();
        assert!(rows[0].starts_with("r0   |0000"), "{text}");
        assert!(rows[0].contains("2222|"), "{text}");
        // Rank 0 executed 13 visits (100%), rank 1 only 5.
        assert!(rows[0].ends_with("13 visits (100%)"), "{text}");
        assert!(rows[1].ends_with("5 visits (38%)"), "{text}");
        // Rank 1's row goes blank after its span closes.
        assert!(rows[1].contains("0...."), "{rows:?}");
        assert!(text.contains("time axis: 100 us"), "{text}");
        // The legend names the phases that appear, in `phases` order.
        assert!(text.contains("0 = voronoi"), "{text}");
        assert!(text.contains("2 = tree_edge"), "{text}");
        assert!(!text.contains("mst"), "{text}");
    }

    #[test]
    fn gantt_reads_spans_of_a_traced_world() {
        let (model, _) = traced_world(2, QueueKind::Fifo, 5);
        let text = gantt(&model, &["traversal"]).unwrap();
        assert_eq!(text.lines().filter(|l| l.starts_with('r')).count(), 2);
        assert!(text.contains("0 = traversal"), "{text}");
        assert!(gantt(&model, &["voronoi"]).is_err());
        assert!(gantt(&TraceModel::default(), &["voronoi"]).is_err());
    }
}

#[cfg(test)]
mod proptests;
