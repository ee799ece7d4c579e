//! `serve-edit`: a closed-loop session trace through
//! `Dispatcher::handle_line`.
//!
//! Each trace starts a dispatcher on an empty store directory with the
//! session WAL on (the serve defaults; a probe-size trace keeps the cache
//! in memory, with no store directory and so no WAL) and analyzes a fresh
//! input variant cold; then two client threads each open it warm and run
//! a fixed script against their own session. The clients take turns: while
//! one sends an edit, the other sends `query-use` point reads, so writes
//! run beside reads on the one engine lock; then the editing client alone
//! sends the check's `query` and plans its next edit. The edit mix and
//! the warm re-analyzes follow `usher serve-bench`'s trace: edits are
//! single-function const swaps (incremental path) with every fifth edit
//! of the trace a declaration-inserting structural edit (fallback path),
//! and one warm re-analyze per round of edits, sent by the round's last
//! client. Any error response, shed request included, is a failed
//! operation.
//!
//! After the measuring window, each `query` plan digest of the first
//! trace is compared with a cold `Pipeline::run_source` of the session
//! source at that point, and each `query-use` verdict with the exhaustive
//! resolution of that cold run's VFG. Later traces must reproduce the
//! first trace's digests and verdicts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use usher_core::resolve;
use usher_driver::parallel_map;
use usher_serve::json::{Json, ObjWriter};
use usher_serve::{codec, DiskStore, Dispatcher, FaultIo, ServerConfig, StoreKind, Wal, WalRecord};
use usher_workloads::{generate, ladder_config, Rng};

use crate::common::{
    mix, peak_rss_mb, perturb, plan_digest, release_free_memory, reset_peak_rss, split_int_assign,
    steady_count, Report, Scenario, Size,
};
use crate::ladder::cold_run;
use crate::stats::{mean, median, percentile};
use crate::trace;

/// Every reason an edit can fall back to a full recompute, as the
/// engine names them in `fallback_reason`.
const FALLBACK_REASONS: [&str; 11] = [
    "new-function",
    "backend-cold",
    "pointer-strategy-changed",
    "unknown-function",
    "inline-involved",
    "inline-target",
    "calls-inline-target",
    "pointer-structure-changed",
    "signature-changed",
    "new-types",
    "object-count-changed",
];

/// Client threads of the closed loop.
const CLIENTS: usize = 2;
/// Edits each client applies per trace (as in `usher serve-bench`).
const EDITS_PER_CLIENT: usize = 8;
/// Every this many edits of a trace, counted over all clients in round
/// order, one is structural (as in `usher serve-bench`).
const STRUCTURAL_EVERY: usize = 5;
/// `query-use` requests a client sends while another client edits.
/// `usher serve-bench` sends none; see `perfbench/predictions.json`.
const QUERIES_PER_STEP: usize = 8;

/// The serve program for a run.
pub struct ServeInput {
    base: String,
    seed: u64,
    /// Whether traces run with a store directory and the WAL. Probes
    /// keep the cache in memory: persistence is serve-edit's to measure,
    /// and its fsyncs would make the probe figures on the other
    /// workloads follow the host's disk rather than the program.
    persist: bool,
}

/// Generates the session program: the gen-71 ladder shape in a full run,
/// gen-37 in a probe.
pub fn setup(seed: u64, size: Size) -> ServeInput {
    let (s, helpers, stmts) = match size {
        Size::Full => (71, 96, 14),
        Size::Probe => (37, 32, 12),
    };
    let _g = trace::span("workloads.generate");
    ServeInput {
        base: generate(s, ladder_config(helpers, stmts)),
        seed,
        persist: size == Size::Full,
    }
}

fn req_analyze(src: &str) -> String {
    let mut w = ObjWriter::new();
    w.str("op", "analyze").str("source", src);
    w.finish()
}

fn req_edit(sid: u64, func: &str, body: &str) -> String {
    let mut w = ObjWriter::new();
    w.str("op", "edit")
        .u64("session", sid)
        .str("func", func)
        .str("body", body);
    w.finish()
}

fn req_session(op: &str, sid: u64) -> String {
    let mut w = ObjWriter::new();
    w.str("op", op).u64("session", sid);
    w.finish()
}

fn req_query_use(sid: u64, check: u64) -> String {
    let mut w = ObjWriter::new();
    w.str("op", "query-use")
        .u64("session", sid)
        .u64("check", check);
    w.finish()
}

/// Sends one request, timing `handle_line` under a `serve.handle_line`
/// span. Returns the parsed response when it is `ok`.
fn send(d: &Dispatcher, line: &str) -> (Option<Json>, f64) {
    trace::begin_request();
    let (h, dt) = trace::timed("serve.handle_line", || d.handle_line("perfbench", line));
    let resp = Json::parse(&h.response)
        .ok()
        .filter(|v| v.get("ok").and_then(Json::as_bool) == Some(true));
    if resp.is_none() {
        eprintln!("perfbench: serve error response: {}", h.response);
    }
    (resp, dt)
}

fn field_u64(v: &Json, k: &str) -> u64 {
    v.get(k).and_then(Json::as_u64).unwrap_or(0)
}

/// Top-level `def` spans of `helper*` functions as `(name, start, end)`
/// line ranges (the generator's bodies have no braces in comments).
fn helper_spans(lines: &[&str]) -> Vec<(String, usize, usize)> {
    let mut spans = Vec::new();
    let mut depth = 0i64;
    let mut open: Option<(String, usize)> = None;
    for (i, line) in lines.iter().enumerate() {
        let code = line.split("//").next().unwrap_or("");
        if depth == 0 {
            if let Some(rest) = code.trim_start().strip_prefix("def ") {
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if name.starts_with("helper") {
                    open = Some((name, i));
                }
            }
        }
        depth += code.matches('{').count() as i64;
        depth -= code.matches('}').count() as i64;
        if depth == 0 {
            if let Some((name, start)) = open.take() {
                spans.push((name, start, i + 1));
            }
        }
    }
    spans
}

/// The next edit of a session, as `(function, new definition)`, in the
/// first helper from the one `pick` selects on that admits it: a const
/// swap (`x = 5;` becomes `x = 12;`), the only edit class the engine's
/// incremental path accepts, or when `structural` a declaration inserted
/// at the top of the body, which changes the function's object count and
/// must fall back.
fn plan_edit(source: &str, pick: usize, structural: bool, tag: usize) -> Option<(String, String)> {
    let lines: Vec<&str> = source.lines().collect();
    let spans = helper_spans(&lines);
    for off in 0..spans.len() {
        let (name, start, end) = &spans[(pick + off) % spans.len()];
        let mut body: Vec<String> = lines[*start..*end].iter().map(|l| l.to_string()).collect();
        if structural {
            body.insert(1, format!("    int bench_x{tag} = 7;"));
            return Some((name.clone(), body.join("\n")));
        }
        for line in body.iter_mut().skip(1) {
            let Some(lhs) = split_int_assign(line) else {
                continue;
            };
            let old: u64 = line[lhs.len() + 3..]
                .trim_end()
                .trim_end_matches(';')
                .parse()
                .ok()?;
            *line = format!("{lhs} = {};", (old + 7) % 97 + 1);
            return Some((name.clone(), body.join("\n")));
        }
    }
    None
}

/// The session state after one edit: its source, the plan digest the
/// server's `query` reported for it, and the `query-use` answers given
/// on it as `(node, maybe_undef)`.
struct EditRecord {
    source: String,
    digest: u64,
    verdicts: Vec<(u32, bool)>,
}

/// Samples and counters of the measuring window.
#[derive(Default)]
struct Samples {
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    edit_ms: Vec<f64>,
    query_use_us: Vec<f64>,
    /// `(trace, client)` → `(incremental, fallback)` edit counts.
    splits: BTreeMap<(u64, usize), (u64, u64)>,
    reasons: BTreeMap<String, u64>,
    warm_hit_ratio: Vec<f64>,
    /// Peak RSS of the process during each trace.
    peak_rss_mb: Vec<f64>,
    /// Request class → (requests, summed `handle_line` ms).
    classes: BTreeMap<&'static str, (u64, f64)>,
    demand_nodes_visited: u64,
    demand_memo_hits: u64,
    demand_queries: u64,
    /// Direct engine calls beside `handle_line` (traced runs only).
    lock_wait_ms: Vec<f64>,
    engine_query_use_ms: Vec<f64>,
    /// `(trace, client, edit)` → the session state after that edit.
    records: BTreeMap<(u64, usize, usize), EditRecord>,
    attempted: u64,
    failed: u64,
}

impl Samples {
    fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts one `handle_line` request of class `name` taking `dt` s.
    fn class(&mut self, name: &'static str, dt: f64) {
        let c = self.classes.entry(name).or_insert((0, 0.0));
        c.0 += 1;
        c.1 += dt * 1e3;
    }

    fn merge(&mut self, o: Samples) {
        self.cold_ms.extend(o.cold_ms);
        self.warm_ms.extend(o.warm_ms);
        self.edit_ms.extend(o.edit_ms);
        self.query_use_us.extend(o.query_use_us);
        self.splits.extend(o.splits);
        for (k, v) in o.reasons {
            *self.reasons.entry(k).or_insert(0) += v;
        }
        self.warm_hit_ratio.extend(o.warm_hit_ratio);
        self.peak_rss_mb.extend(o.peak_rss_mb);
        for (k, (n, ms)) in o.classes {
            let c = self.classes.entry(k).or_insert((0, 0.0));
            c.0 += n;
            c.1 += ms;
        }
        self.demand_nodes_visited += o.demand_nodes_visited;
        self.demand_memo_hits += o.demand_memo_hits;
        self.demand_queries += o.demand_queries;
        self.lock_wait_ms.extend(o.lock_wait_ms);
        self.engine_query_use_ms.extend(o.engine_query_use_ms);
        self.records.extend(o.records);
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// One client of the closed loop, working on its own session.
struct Client<'a> {
    d: &'a Dispatcher,
    src: &'a str,
    sid: u64,
    key: (u64, usize),
    rng: Rng,
    /// Issue every other `query-use` directly on the engine (traced runs).
    direct: bool,
    /// The planned next edit: `(function, new definition)`.
    next: Option<(String, String)>,
    /// The edit the current session state came from, if any.
    edited: Option<usize>,
    checks_total: u64,
    incremental: u64,
    fallback: u64,
    local: Samples,
}

impl Client<'_> {
    fn session_source(&self) -> String {
        let engine = self.d.engine().lock().expect("engine lock");
        engine.session_source(self.sid).unwrap_or_default()
    }

    /// A warm analyze of the program. Re-analyzes close the session
    /// they open; the client's own opening keeps it.
    fn warm_analyze(&mut self, keep: bool) -> Option<u64> {
        let (re, dt) = send(self.d, &req_analyze(self.src));
        let re = re.filter(|v| v.get("mode").and_then(Json::as_str) == Some("warm"));
        self.local.op(re.is_some());
        self.local.warm_ms.push(dt * 1e3);
        self.local
            .class(if keep { "warm-open" } else { "warm-reanalyze" }, dt);
        let sid = field_u64(re.as_ref()?, "session");
        if !keep {
            let (closed, dt) = send(self.d, &req_session("close", sid));
            self.local.op(closed.is_some());
            self.local.class("close", dt);
        }
        Some(sid)
    }

    /// Plans edit `k` on the current session source: a const swap, or a
    /// structural edit when it is the trace's fifth, tenth, ... edit.
    fn plan(&mut self, k: usize) {
        let pick = self.rng.below(1 << 16);
        let structural = (k * CLIENTS + self.key.1) % STRUCTURAL_EVERY == STRUCTURAL_EVERY - 1;
        let source = self.session_source();
        self.next = plan_edit(&source, pick, structural, self.key.1 * 100 + k);
        self.local.op(self.next.is_some());
    }

    /// Phase A of the client's own turn: send the planned edit.
    fn edit(&mut self) {
        let Some((func, body)) = self.next.take() else {
            return;
        };
        let (resp, dt) = send(self.d, &req_edit(self.sid, &func, &body));
        self.local.op(resp.is_some());
        let Some(resp) = resp else { return };
        self.local.edit_ms.push(dt * 1e3);
        if resp.get("incremental").and_then(Json::as_bool) == Some(true) {
            self.incremental += 1;
            self.local.class("edit-incremental", dt);
        } else {
            self.fallback += 1;
            self.local.class("edit-fallback", dt);
            let reason = resp
                .get("fallback_reason")
                .and_then(Json::as_str)
                .unwrap_or("?");
            *self.local.reasons.entry(reason.to_string()).or_insert(0) += 1;
        }
    }

    /// Phase B of the client's own turn: the check's `query` for the
    /// plan digest of the session as edited, the round's warm re-analyze
    /// when this is the round's last client, and the plan of the next
    /// edit.
    fn after_edit(&mut self, k: usize) {
        let (q, dt) = send(self.d, &req_session("query", self.sid));
        self.local.op(q.is_some());
        self.local.class("query", dt);
        let digest = q
            .and_then(|v| {
                v.get("plan_digest")
                    .and_then(Json::as_str)
                    .map(str::to_string)
            })
            .and_then(|h| u64::from_str_radix(&h, 16).ok())
            .unwrap_or(0);
        // Only the first trace's sources are checked against cold runs.
        let source = if self.key.0 == 0 {
            self.session_source()
        } else {
            String::new()
        };
        let record = EditRecord {
            source,
            digest,
            verdicts: Vec::new(),
        };
        self.local
            .records
            .insert((self.key.0, self.key.1, k), record);
        self.edited = Some(k);
        if self.key.1 == CLIENTS - 1 {
            self.warm_analyze(false);
        }
        if k + 1 < EDITS_PER_CLIENT {
            self.plan(k + 1);
        }
    }

    /// Phase A of another client's turn: `query-use` point queries, once
    /// the session has a backend (after its first edit).
    fn read(&mut self) {
        if self.edited.is_none() {
            return;
        }
        for q in 0..QUERIES_PER_STEP {
            let check = self.rng.below(self.checks_total as usize) as u64;
            self.query_use(check, self.direct && q % 2 == 1);
        }
    }

    fn query_use(&mut self, check: u64, direct: bool) {
        let verdict = if direct {
            // A direct engine call under the same contention: times the
            // lock wait and the engine call apart.
            trace::begin_request();
            let t = Instant::now();
            let mut engine = {
                let _g = trace::span("serve.engine.lock_wait");
                self.d.engine().lock().expect("engine lock")
            };
            self.local
                .lock_wait_ms
                .push(t.elapsed().as_secs_f64() * 1e3);
            let (r, dt) = trace::timed("serve.engine.query_use", || {
                engine.query_use(self.sid, check as usize)
            });
            drop(engine);
            self.local.op(r.as_ref().is_ok_and(|r| r.complete));
            let Ok(r) = r else { return };
            self.local.engine_query_use_ms.push(dt * 1e3);
            (r.node, r.maybe_undef)
        } else {
            let (resp, dt) = send(self.d, &req_query_use(self.sid, check));
            let complete = resp
                .as_ref()
                .is_some_and(|v| v.get("complete").and_then(Json::as_bool) == Some(true));
            self.local.op(complete);
            self.local.class("query-use", dt);
            let Some(resp) = resp else { return };
            self.local.query_use_us.push(dt * 1e6);
            self.checks_total = field_u64(&resp, "checks_total").max(1);
            self.local.demand_queries += 1;
            self.local.demand_nodes_visited += field_u64(&resp, "nodes_visited");
            if resp.get("memo_hit").and_then(Json::as_bool) == Some(true) {
                self.local.demand_memo_hits += 1;
            }
            let bot = resp.get("maybe_undef").and_then(Json::as_bool) == Some(true);
            (field_u64(&resp, "node") as u32, bot)
        };
        let key = (self.key.0, self.key.1, self.edited.unwrap_or(0));
        if let Some(r) = self.local.records.get_mut(&key) {
            r.verdicts.push(verdict);
        }
    }
}

/// One client's script. Clients take turns: in phase A of a turn its
/// client sends an edit while every other client sends `query-use`
/// reads, so writes run beside reads on the one engine lock; in phase B
/// the editing client alone checks, re-analyzes and plans. Session opens
/// are sequential too, so only the edit-beside-read contention varies.
fn client(
    d: &Dispatcher,
    src: &str,
    seed: u64,
    key: (u64, usize),
    direct: bool,
    step: &Barrier,
    out: &Mutex<Samples>,
) {
    let c = key.1;
    let mut me = Client {
        d,
        src,
        sid: 0,
        key,
        rng: Rng::new(mix(seed, 0xc11e + c as u64)),
        direct,
        next: None,
        edited: None,
        checks_total: 1,
        incremental: 0,
        fallback: 0,
        local: Samples::default(),
    };
    let mut open = false;
    for turn in 0..CLIENTS {
        if turn == c {
            if let Some(sid) = me.warm_analyze(true) {
                me.sid = sid;
                open = true;
                me.plan(0);
            }
        }
        step.wait();
    }
    for k in 0..EDITS_PER_CLIENT {
        for turn in 0..CLIENTS {
            if open && turn == c {
                me.edit();
            } else if open {
                me.read();
            }
            step.wait();
            if open && turn == c {
                me.after_edit(k);
            }
            step.wait();
        }
    }
    if open {
        let (closed, dt) = send(d, &req_session("close", me.sid));
        me.local.op(closed.is_some());
        me.local.class("close", dt);
    }
    me.local.splits.insert(key, (me.incremental, me.fallback));
    out.lock().expect("samples").merge(me.local);
}

/// A dispatcher with the serve defaults, on an empty store directory
/// `dir` (so with the WAL on) when `persist`, else memory-only.
fn fresh_dispatcher(dir: &Path, persist: bool) -> Option<Dispatcher> {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = ServerConfig {
        store_dir: persist.then(|| dir.to_path_buf()),
        ..ServerConfig::default()
    };
    Dispatcher::new(&cfg).ok()
}

/// The serve-edit scenario: each step is one whole trace.
pub struct Serve<'a> {
    input: &'a ServeInput,
    dir: PathBuf,
    direct: bool,
    samples: Mutex<Samples>,
    traces: u64,
}

impl<'a> Serve<'a> {
    /// A scenario keeping its store directories under `work`; `direct`
    /// adds the direct engine calls of the traced run.
    pub fn new(input: &'a ServeInput, work: &Path, direct: bool) -> Serve<'a> {
        Serve {
            input,
            dir: work.join("serve-store"),
            direct,
            samples: Mutex::new(Samples::default()),
            traces: 0,
        }
    }
}

impl Scenario for Serve<'_> {
    /// One trace: a fresh dispatcher, a cold analyze of a new input
    /// variant (as in `usher serve-bench`), then the clients on it. The
    /// process's peak RSS is taken per trace, from a reset at its start
    /// (after freed memory went back to the kernel) to its end.
    fn step(&mut self, _report: &mut Report) {
        let iter = self.traces;
        self.traces += 1;
        let out = &self.samples;
        release_free_memory();
        reset_peak_rss();
        let Some(d) = fresh_dispatcher(&self.dir, self.input.persist) else {
            out.lock().expect("samples").op(false);
            return;
        };
        let src = perturb(&self.input.base, mix(self.input.seed, iter << 8));
        let (cold, dt) = send(&d, &req_analyze(&src));
        let cold = cold.filter(|v| v.get("mode").and_then(Json::as_str) == Some("cold"));
        let mut s = out.lock().expect("samples");
        s.op(cold.is_some());
        s.cold_ms.push(dt * 1e3);
        s.class("cold-analyze", dt);
        // The clients open sessions of their own; this one's backend is
        // not needed (its artifacts stay in the cache tiers).
        if let Some(cold) = cold {
            let (closed, dt) = send(&d, &req_session("close", field_u64(&cold, "session")));
            s.op(closed.is_some());
            s.class("close", dt);
        }
        drop(s);
        let step = Barrier::new(CLIENTS);
        let (seed, direct) = (self.input.seed, self.direct);
        std::thread::scope(|scope| {
            for c in 0..CLIENTS {
                let (d, src, step) = (&d, src.as_str(), &step);
                scope.spawn(move || client(d, src, seed, (iter, c), direct, step, out));
            }
        });
        let (stats, dt) = send(&d, r#"{"op":"stats"}"#);
        let mut s = out.lock().expect("samples");
        s.op(stats.is_some());
        s.class("stats", dt);
        if let Some(Json::Num(r)) = stats.as_ref().and_then(|v| v.get("warm_hit_ratio")) {
            s.warm_hit_ratio.push(*r);
        }
        drop(s);
        drop(d);
        out.lock().expect("samples").peak_rss_mb.push(peak_rss_mb());
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    fn covered(&self) -> bool {
        self.traces > 0
    }

    fn finish(self: Box<Self>, report: &mut Report) {
        let traces = self.traces;
        let s = self.samples.into_inner().expect("samples");
        report.attempted += s.attempted;
        report.failed += s.failed;
        if s.failed > 0 {
            eprintln!("perfbench: FAILED: {} serve requests failed", s.failed);
        }

        // Output checks. The first trace's session states are checked
        // against cold runs of their sources; every later trace runs the
        // same script on an input variant with other constants only, so
        // its digests and verdicts must equal the first trace's.
        let first: Vec<(&(u64, usize, usize), &EditRecord)> =
            s.records.iter().filter(|(k, _)| k.0 == 0).collect();
        let checked: Vec<(bool, bool)> = parallel_map(2, &first, |(_, r)| {
            let Some(run) = cold_run("serve-check", &r.source) else {
                return (false, false);
            };
            let digest_ok = plan_digest(&run.plan) == r.digest;
            let verdicts_ok = run.vfg.as_ref().is_some_and(|vfg| {
                let gamma = resolve(vfg, 1);
                r.verdicts
                    .iter()
                    .all(|&(node, bot)| (node as usize) < gamma.len() && gamma.is_bot(node) == bot)
            });
            (digest_ok, verdicts_ok)
        });
        for ((key, _), (digest_ok, verdicts_ok)) in first.iter().zip(checked) {
            report.op(digest_ok, || {
                format!("serve edit {key:?}: query plan digest differs from a cold run")
            });
            report.op(verdicts_ok, || {
                format!(
                    "serve edit {key:?}: a query-use verdict differs from exhaustive resolution"
                )
            });
        }
        for (&(t, c, k), r) in s.records.iter().filter(|(k, _)| k.0 > 0) {
            let same = s
                .records
                .get(&(0, c, k))
                .is_some_and(|r0| r0.digest == r.digest && r0.verdicts == r.verdicts);
            report.op(same, || {
                format!(
                    "serve edit {:?}: digest or verdicts differ from the first trace",
                    (t, c, k)
                )
            });
        }

        // The incremental/fallback split of every client script must
        // repeat exactly in every trace.
        let mut per_client: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
        for (&(_, c), &split) in &s.splits {
            per_client.entry(c).or_default().push(split);
        }
        let (mut incremental, mut fallback) = (0u64, 0u64);
        for (c, splits) in &per_client {
            let inc: Vec<u64> = splits.iter().map(|x| x.0).collect();
            let fb: Vec<u64> = splits.iter().map(|x| x.1).collect();
            incremental += steady_count(report, &format!("serve.client{c}.edit_incremental"), &inc);
            fallback += steady_count(report, &format!("serve.client{c}.edit_fallback"), &fb);
        }

        // The request mix as measured: per class, requests per trace and
        // shares of all requests and of all `handle_line` time.
        let all_n: u64 = s.classes.values().map(|c| c.0).sum();
        let all_ms: f64 = s.classes.values().map(|c| c.1).sum();
        let mut mix = String::new();
        for (name, (n, ms)) in &s.classes {
            let _ = write!(
                mix,
                "{}{name}:{:.2}/{:.1}%/{:.1}%",
                if mix.is_empty() { "" } else { "," },
                *n as f64 / traces.max(1) as f64,
                *n as f64 * 100.0 / all_n.max(1) as f64,
                ms * 100.0 / all_ms.max(1e-9),
            );
        }
        println!("serve-edit mix (class:per_trace/requests/time): {mix}");
        println!(
            "serve-edit row: traces={traces} cold_n={} cold_ms={:.3} warm_n={} warm_p50_ms={:.3} \
             edit_n={} edit_p50_ms={:.3} edit_p90_ms={:.3} query_use_n={} query_use_p50_us={:.1} \
             edits_per_trace={incremental}+{fallback} fallback_reasons={:?}",
            s.cold_ms.len(),
            median(&s.cold_ms),
            s.warm_ms.len(),
            median(&s.warm_ms),
            s.edit_ms.len(),
            median(&s.edit_ms),
            percentile(&s.edit_ms, 90.0),
            s.query_use_us.len(),
            median(&s.query_use_us),
            s.reasons,
        );
        report.e2e("serve_cold_ms", median(&s.cold_ms), "ms");
        report.e2e("warm_analyze_p50_ms", median(&s.warm_ms), "ms");
        report.e2e("edit_p50_ms", median(&s.edit_ms), "ms");
        report.e2e("edit_p90_ms", percentile(&s.edit_ms, 90.0), "ms");
        report.e2e("query_use_p50_us", median(&s.query_use_us), "us");
        report.e2e("peak_rss_mb", median(&s.peak_rss_mb), "MB");

        report.layer("serve.edit_incremental", incremental as f64, "count");
        report.layer("serve.edit_fallback", fallback as f64, "count");
        for reason in FALLBACK_REASONS {
            let n = s.reasons.get(reason).copied().unwrap_or(0) as f64 / traces.max(1) as f64;
            report.layer(&format!("serve.fallback.{reason}"), n, "count");
        }
        report.layer("serve.warm_hit_ratio", median(&s.warm_hit_ratio), "ratio");
        let queries = s.demand_queries.max(1) as f64;
        report.layer(
            "vfg.demand_nodes_visited",
            s.demand_nodes_visited as f64 / queries,
            "count",
        );
        report.layer(
            "vfg.demand_memo_hit_ratio",
            s.demand_memo_hits as f64 / queries,
            "ratio",
        );
        if self.direct {
            report.layer("serve.engine.lock_wait_ms", mean(&s.lock_wait_ms), "ms");
            report.layer(
                "serve.engine.query_use_ms",
                median(&s.engine_query_use_ms),
                "ms",
            );
        }
    }
}

/// Repeats of each paired measurement in the traced layer pass.
const LAYER_REPS: usize = 5;

/// The traced layer pass, single-threaded on a fresh dispatcher: the
/// cold request against a cold `run_source` of the same source, each
/// request kind through `handle_line` against the same call made
/// directly on the engine, and the codec, store and WAL calls on the
/// session's artifacts.
pub fn layers(input: &ServeInput, work: &Path, report: &mut Report) {
    let dir = work.join("serve-layers");
    let Some(d) = fresh_dispatcher(&dir, true) else {
        report.op(false, || "layer pass: dispatcher".to_string());
        return;
    };
    let src = perturb(&input.base, mix(input.seed, 0x1a7e));
    let (cold, cold_s) = send(&d, &req_analyze(&src));
    report.op(cold.is_some(), || "layer pass: cold analyze".to_string());
    let sid = cold.map_or(0, |v| field_u64(&v, "session"));
    trace::begin_request();
    let (run, run_s) = trace::timed("driver.run_source", || cold_run("serve-layers", &src));
    report.op(run.is_some(), || "layer pass: cold run_source".to_string());
    report.layer("serve.cold_unaccounted_ms", (cold_s - run_s) * 1e3, "ms");

    // Direct cold engine analyze of another variant.
    let other = perturb(&input.base, mix(input.seed, 0x1a7f));
    trace::begin_request();
    let (r, dt) = trace::timed("serve.engine.analyze", || {
        d.engine().lock().expect("engine lock").analyze(&other)
    });
    report.op(r.is_ok(), || "layer pass: direct cold analyze".to_string());
    report.layer("serve.engine.analyze_ms", dt * 1e3, "ms");

    let mut overhead = Vec::new();
    let mut edit_ms = Vec::new();
    let mut source = d
        .engine()
        .lock()
        .expect("engine lock")
        .session_source(sid)
        .unwrap_or_default();
    for k in 0..LAYER_REPS {
        // Warm analyze: handle_line vs engine.
        let (h, th) = send(&d, &req_analyze(&src));
        report.op(h.is_some(), || "layer pass: warm analyze".to_string());
        trace::begin_request();
        let (e, te) = trace::timed("serve.engine.analyze_warm", || {
            d.engine().lock().expect("engine lock").analyze(&src)
        });
        report.op(e.is_ok(), || "layer pass: direct warm analyze".to_string());
        overhead.push((th - te) * 1e3);
        // Query-use: handle_line vs engine.
        let (h, th) = send(&d, &req_query_use(sid, k as u64));
        report.op(h.is_some(), || "layer pass: query-use".to_string());
        trace::begin_request();
        let (e, te) = trace::timed("serve.engine.query_use", || {
            d.engine()
                .lock()
                .expect("engine lock")
                .query_use(sid, k as u64 as usize)
        });
        report.op(e.is_ok(), || "layer pass: direct query-use".to_string());
        overhead.push((th - te) * 1e3);
        // Incremental edits: one through handle_line, one direct.
        for via_line in [true, false] {
            let Some((func, body)) = plan_edit(&source, k * 17, false, k) else {
                report.op(false, || "layer pass: no edit".to_string());
                continue;
            };
            if via_line {
                let (h, _) = send(&d, &req_edit(sid, &func, &body));
                report.op(h.is_some(), || "layer pass: edit".to_string());
            } else {
                trace::begin_request();
                let (e, te) = trace::timed("serve.engine.edit", || {
                    d.engine()
                        .lock()
                        .expect("engine lock")
                        .edit(sid, &func, &body)
                });
                report.op(e.is_ok(), || "layer pass: direct edit".to_string());
                edit_ms.push(te * 1e3);
            }
            source = d
                .engine()
                .lock()
                .expect("engine lock")
                .session_source(sid)
                .unwrap_or_default();
        }
    }
    report.layer("serve.server.overhead_ms", median(&overhead), "ms");
    report.layer("serve.engine.edit_ms", median(&edit_ms), "ms");
    drop(d);

    // Codec, store and WAL on the session's artifacts.
    let Some(run) = run else { return };
    let Some(gamma) = run.gamma.as_ref() else {
        return;
    };
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut payloads = Vec::new();
    for _ in 0..LAYER_REPS {
        trace::begin_request();
        let ((m, g, p), dt) = trace::timed("serve.codec.encode", || {
            (
                codec::encode_module(&run.module),
                codec::encode_gamma(gamma, run.opt2_redirected),
                codec::encode_plan(&run.plan),
            )
        });
        enc.push(dt * 1e3);
        let (ok, dt) = trace::timed("serve.codec.decode", || {
            codec::decode_module(&m).is_ok()
                && codec::decode_gamma(&g).is_ok()
                && codec::decode_plan(&p).is_ok()
        });
        report.op(ok, || "layer pass: codec round trip".to_string());
        dec.push(dt * 1e3);
        payloads = vec![
            (StoreKind::Module, m),
            (StoreKind::Gamma, g),
            (StoreKind::Plan, p),
        ];
    }
    report.layer("serve.codec.encode_ms", median(&enc), "ms");
    report.layer("serve.codec.decode_ms", median(&dec), "ms");
    let bytes: usize = payloads.iter().map(|(_, p)| p.len()).sum();
    report.layer("serve.codec.bytes", bytes as f64, "bytes");

    let store_dir = dir.join("layer-store");
    let (mut write, mut load) = (Vec::new(), Vec::new());
    if let Ok(store) = DiskStore::open(&store_dir, 256 << 20) {
        for rep in 0..LAYER_REPS as u64 {
            trace::begin_request();
            let ((), dt) = trace::timed("serve.store.write", || {
                for (i, (kind, p)) in payloads.iter().enumerate() {
                    store.store(rep * 8 + i as u64, *kind, p);
                }
            });
            write.push(dt * 1e3);
            let (ok, dt) = trace::timed("serve.store.load", || {
                payloads.iter().enumerate().all(|(i, (kind, p))| {
                    store.load(rep * 8 + i as u64, *kind).as_deref() == Some(p)
                })
            });
            report.op(ok, || "layer pass: store round trip".to_string());
            load.push(dt * 1e3);
        }
    }
    report.layer("serve.store.write_ms", median(&write), "ms");
    report.layer("serve.store.load_ms", median(&load), "ms");

    let io = FaultIo::none();
    let mut wal = Wal::create(&dir.join("layer.wal"), &io, &[]);
    let mut append = Vec::new();
    for sid in 0..LAYER_REPS as u64 {
        let record = WalRecord::Open {
            sid,
            warm: true,
            edits: 0,
            source: src.clone(),
        };
        trace::begin_request();
        let ((), dt) = trace::timed("serve.wal.append", || wal.append(&record));
        append.push(dt * 1e3);
    }
    report.op(wal.appends_failed() == 0, || {
        "layer pass: WAL append".to_string()
    });
    report.layer("serve.wal.append_ms", median(&append), "ms");
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
}
