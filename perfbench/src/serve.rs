//! `serve-mix`: an in-process `ccache_serve` server with two closed-loop client
//! connections sending `replay` requests against seeded binary trace files.
//!
//! Four requests in ten repeat a key the same client sent before (a store hit: the
//! server renders the stored artefact) and the rest are new (a store miss: spec
//! planning, trace decode or streaming, replay and artefact render). The two clients draw new
//! keys from disjoint halves of the variant space, so which requests hit is a function
//! of the seed alone.

use crate::harness::{add_counts, Counts, Ledger, Outcome, SETUP_ROUNDS};
use crate::layers::{complete, insert_counts, insert_span_times, Layers, ENGINE_COUNTERS};
use crate::stats::{median, percentile, ratio};
use crate::tracer::Tracer;
use ccache_exp::{execute, plan, Artefact, ExecOptions, ExperimentSpec, GeometrySpec};
use ccache_json::{Json, ToJson};
use ccache_serve::{serve, Client, ServeConfig, ServerHandle};
use ccache_sim::ReplacementPolicy;
use ccache_telemetry::Registry;
use ccache_trace::binfmt::{write_trace, TraceReader};
use ccache_trace::Trace;
use ccache_workloads::gzipsim::{run_gzip_job, GzipConfig};
use ccache_workloads::mpeg::{run_combined, run_idct};
use ccache_workloads::MpegConfig;
use column_caching::Session;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Closed-loop client connections (the machine has two cores).
const CLIENTS: usize = 2;
/// Server worker threads.
const WORKERS: usize = 2;
/// Distinct keys per client whose stage-by-stage execution gives the deterministic
/// counts of a traced run.
const COUNTED_KEYS: usize = 16;
/// Completions per chunk; `ops_per_s` is the median of the chunks' rates.
const CHUNK: usize = 200;
/// Untraced requests after which `peak_rss_mb` is read. The store and the clients keep
/// every distinct reply, so memory grows with the requests completed; read at a fixed
/// count, it does not depend on how fast the host ran the rest of the run. A slow
/// host completes about 400 requests a second.
const RSS_AT_REQUESTS: usize = 4000;
/// Share of requests that repeat an earlier key. Kept off one half so the median
/// latency falls inside the miss distribution, not on the hit/miss boundary.
const REPEAT_PERCENT: u64 = 40;

const BACKENDS: [&str; 3] = ["column-cache", "set-assoc", "ideal-scratchpad"];
const POLICIES: [&str; 3] = ["shared", "heuristic", "round-robin"];

/// A small deterministic generator (SplitMix64) for the request scripts.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One request key: a trace file under one geometry, backend and mapping policy.
#[derive(Debug, Clone)]
struct Variant {
    trace: usize,
    geometry: GeometrySpec,
    backend: &'static str,
    policy: &'static str,
}

/// Every valid variant over `traces` trace files, in a fixed order.
fn variant_space(traces: usize) -> Vec<Variant> {
    let mut out = Vec::new();
    for trace in 0..traces {
        for capacity in [1024u64, 2048, 4096, 8192] {
            // Columns of at least 512 bytes keep the layout of the heuristic policies
            // to a few dozen units per trace; smaller columns make it cost seconds.
            for columns in [2usize, 4, 8]
                .into_iter()
                .filter(|c| capacity / *c as u64 >= 512)
            {
                for line in [16u64, 32, 64] {
                    for page in [128u64, 256, 1024] {
                        for tlb in [16usize, 32, 64, 128] {
                            for replacement in ReplacementPolicy::ALL {
                                let geometry = GeometrySpec {
                                    capacity,
                                    columns,
                                    line,
                                    page,
                                    tlb,
                                    replacement,
                                    ..GeometrySpec::default()
                                };
                                let valid =
                                    geometry.system_config().is_ok_and(|c| c.validate().is_ok());
                                if !valid {
                                    continue;
                                }
                                for backend in BACKENDS {
                                    for policy in POLICIES {
                                        out.push(Variant {
                                            trace,
                                            geometry,
                                            backend,
                                            policy,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

impl Variant {
    fn request(&self, paths: &[String]) -> Json {
        Json::obj([
            ("cmd", "replay".to_json()),
            ("trace", paths[self.trace].to_json()),
            ("backend", self.backend.to_json()),
            ("geometry", self.geometry.to_json()),
            ("policy", self.policy.to_json()),
        ])
    }

    /// The spec the server compiles the request to.
    fn spec(&self, paths: &[String]) -> Result<ExperimentSpec, String> {
        let doc = Json::obj([
            ("name", "serve-grid".to_json()),
            (
                "replay",
                Json::arr([Json::obj([
                    (
                        "workloads",
                        Json::arr([Json::obj([("trace", paths[self.trace].to_json())])]),
                    ),
                    ("backends", Json::arr([self.backend.to_json()])),
                    ("geometries", Json::arr([self.geometry.to_json()])),
                    ("policies", Json::arr([self.policy.to_json()])),
                ])]),
            ),
        ]);
        ExperimentSpec::from_json(&doc).map_err(|e| e.to_string())
    }
}

/// One client's request script: new keys from its own shuffled share of the variant
/// space, repeats drawn from the keys it already sent.
struct Script {
    rng: Rng,
    order: Vec<usize>,
    next_new: usize,
    sent: Vec<usize>,
}

impl Script {
    fn new(seed: u64, client: usize, variants: usize) -> Self {
        let mut rng = Rng(seed ^ (0xC1E7 + client as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
        let mut order: Vec<usize> = (client..variants).step_by(CLIENTS).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        Script {
            rng,
            order,
            next_new: 0,
            sent: Vec::new(),
        }
    }

    /// The next variant and whether it repeats an earlier key.
    fn next(&mut self) -> (usize, bool) {
        let repeat = !self.sent.is_empty() && self.rng.next() % 100 < REPEAT_PERCENT;
        if repeat || self.next_new == self.order.len() {
            return (self.sent[self.rng.below(self.sent.len())], true);
        }
        let v = self.order[self.next_new];
        self.next_new += 1;
        self.sent.push(v);
        (v, false)
    }
}

/// Reads the peak resident set once the untraced phase has completed
/// [`RSS_AT_REQUESTS`] requests.
#[derive(Default)]
struct RssProbe {
    completed: AtomicUsize,
    peak_mb: OnceLock<f64>,
}

impl RssProbe {
    fn completed_one(&self) {
        if self.completed.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AT_REQUESTS {
            let _ = self.peak_mb.set(crate::harness::peak_rss_mb());
        }
    }
}

/// One completed request.
struct Sample {
    ms: f64,
    hit: bool,
    done: Instant,
    refs: u64,
}

/// A client's script plus everything it observed, carried across phases.
struct ClientState {
    id: usize,
    script: Script,
    first: BTreeMap<usize, String>,
    samples: Vec<Sample>,
    failed: u64,
    refused: u64,
    repeats: u64,
    sim_refs: u64,
    problems: Vec<String>,
    tracer: Tracer,
    ops: u64,
}

/// Simulated references of the replays in a reply's artefact.
fn references_of(reply: &Json) -> u64 {
    reply
        .get("result")
        .and_then(|r| r.get("results"))
        .and_then(Json::as_arr)
        .map_or(0, |rows| {
            rows.iter()
                .filter_map(|row| row.get("result")?.get("references")?.as_u64())
                .sum()
        })
}

impl ClientState {
    /// Sends requests in a closed loop until `deadline`.
    fn drive(
        mut self,
        addr: std::net::SocketAddr,
        variants: &[Variant],
        paths: &[String],
        deadline: Instant,
        traced: bool,
        rss: &RssProbe,
    ) -> Result<Self, String> {
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let t = &mut self.tracer;
        while Instant::now() < deadline {
            let (v, hit) = self.script.next();
            t.set_op(((self.id as u64) << 32) | self.ops);
            self.ops += 1;
            let start = Instant::now();
            if traced {
                t.enter("op");
            }
            let render = || format!("{}\n", variants[v].request(paths).compact());
            let line = if traced {
                t.span("json.render", render)
            } else {
                render()
            };
            let exchange = |client: &mut Client| -> std::io::Result<Option<String>> {
                client.send_raw(line.as_bytes())?;
                client.recv_line()
            };
            let reply = if traced {
                t.span("serve.exchange", || exchange(&mut client))
            } else {
                exchange(&mut client)
            };
            let reply = reply
                .map_err(|e| format!("request failed: {e}"))?
                .ok_or("the server closed the connection")?;
            let doc = if traced {
                t.span("json.parse", || Json::parse(&reply))
            } else {
                Json::parse(&reply)
            };
            if traced {
                t.exit();
            }
            let done = Instant::now();
            let doc = doc.map_err(|e| format!("unparseable reply: {e}"))?;
            let refs = if hit { 0 } else { references_of(&doc) };
            self.samples.push(Sample {
                ms: (done - start).as_secs_f64() * 1e3,
                hit,
                done,
                refs,
            });
            if !traced {
                rss.completed_one();
            }
            let mut wrong = None;
            if doc.get("ok").and_then(Json::as_bool) != Some(true) {
                self.refused += 1;
                wrong = Some(format!("request refused: {}", reply.trim_end()));
            } else if hit {
                self.repeats += 1;
                if self.first.get(&v) != Some(&reply) {
                    wrong = Some(format!("variant {v}: a hit differs from the first reply"));
                }
            } else {
                self.sim_refs += refs;
                self.first.insert(v, reply);
            }
            if let Some(w) = wrong {
                self.failed += 1;
                if self.problems.len() < 10 {
                    self.problems.push(w);
                }
            }
        }
        Ok(self)
    }
}

/// Runs both clients until `deadline`.
fn phase(
    clients: Vec<ClientState>,
    handle: &ServerHandle,
    variants: &[Variant],
    paths: &[String],
    deadline: Instant,
    traced: bool,
    rss: &RssProbe,
) -> Result<Vec<ClientState>, String> {
    let addr = handle.addr();
    std::thread::scope(|s| {
        let joins: Vec<_> = clients
            .into_iter()
            .map(|c| s.spawn(move || c.drive(addr, variants, paths, deadline, traced, rss)))
            .collect();
        joins
            .into_iter()
            .map(|j| {
                j.join()
                    .map_err(|_| "a client thread panicked".to_string())?
            })
            .collect()
    })
}

/// The seeded trace files of one run: five gzip jobs of 4-12 KiB input (30k-85k
/// references) and the Paper-scale MPEG idct and combined traces.
fn traces(seed: u64) -> Vec<(String, Trace)> {
    let mut rng = Rng(seed ^ 0x5E_ED);
    let mut out = Vec::new();
    for j in 0..5u64 {
        // Sizes are fixed so that the seed changes the data, not the amount of work.
        let config = GzipConfig {
            input_len: 4096 + 2048 * j as usize,
            ..GzipConfig::default()
        }
        .with_seed(rng.next() % 1000);
        let run = run_gzip_job(&config, 0x100_0000 * (j + 1), &format!("gzip-{j}"));
        out.push((format!("gzip-{j}"), run.trace));
    }
    let mpeg = MpegConfig::default().with_seed(rng.next() % 1000);
    out.push(("mpeg-idct".into(), run_idct(&mpeg).trace));
    out.push(("mpeg-combined".into(), run_combined(&mpeg).trace));
    out
}

/// Starts a server over freshly written trace files and sends one warm-up request.
fn setup_round(
    seed: u64,
    dir: &std::path::Path,
    setup: &mut Tracer,
) -> Result<(ServerHandle, Vec<String>, Vec<Variant>), String> {
    let generated = setup.span("workloads.gen", || traces(seed));
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut paths = Vec::new();
    setup.enter("trace.encode");
    for (name, trace) in &generated {
        let path = dir.join(format!("{name}.cct"));
        let file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
        let mut out =
            write_trace(trace, std::io::BufWriter::new(file)).map_err(|e| e.to_string())?;
        std::io::Write::flush(&mut out).map_err(|e| e.to_string())?;
        paths.push(path.to_string_lossy().into_owned());
    }
    setup.exit();
    let variants = variant_space(paths.len());
    let handle = serve(ServeConfig {
        port: 0,
        workers: WORKERS,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("cannot start the server: {e}"))?;
    // The warm-up key is outside the variant space (no scripted capacity is 16 KiB),
    // so it never turns a scripted miss into a hit.
    let mut client = Client::connect(handle.addr()).map_err(|e| e.to_string())?;
    let warm_geometry = GeometrySpec {
        capacity: 16 * 1024,
        ..GeometrySpec::default()
    };
    let warm = Json::obj([
        ("cmd", "replay".to_json()),
        ("trace", paths[0].to_json()),
        ("geometry", warm_geometry.to_json()),
        ("policy", "shared".to_json()),
    ]);
    let reply = client.request(&warm).map_err(|e| e.to_string())?;
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("warm-up request refused: {}", reply.compact()));
    }
    Ok((handle, paths, variants))
}

/// What the stage-by-stage execution of one key measured.
struct Staged {
    refs_decoded: u64,
    counts: Counts,
}

/// Executes one key stage by stage — decode, plan, execute, render — and checks the
/// stitched artefact against the server's reply.
fn staged(
    variant: &Variant,
    paths: &[String],
    reply: &str,
    t: &mut Tracer,
) -> Result<Staged, String> {
    let spec = variant.spec(paths)?;
    let path = &paths[variant.trace];
    let decoded = t
        .span("trace.decode", || {
            TraceReader::open(path).and_then(|mut r| r.read_to_trace())
        })
        .map_err(|e| e.to_string())?;
    let planned = t.span("exp.plan", || plan(&spec));
    let registry = Registry::new();
    let options = ExecOptions {
        telemetry: Some(registry.clone()),
        ..ExecOptions::default()
    };
    let outcomes = t
        .span("exp.execute", || execute(&planned, &options))
        .map_err(|e| e.to_string())?;
    let artefact = Artefact::new(spec, false, planned, outcomes);
    let rendered = t.span("json.render", || artefact.to_json().compact());
    let got = Json::parse(reply)
        .ok()
        .and_then(|d| d.get("result").map(Json::compact));
    if got.as_deref() != Some(rendered.as_str()) {
        return Err("the stage-by-stage artefact differs from the server's reply".into());
    }
    let mut counts = Counts::new();
    for name in ENGINE_COUNTERS {
        counts.insert(*name, registry.counter_value(name));
    }
    for (_, outcome) in artefact.entries() {
        if let ccache_exp::JobOutcome::Replay { result, .. } = outcome {
            for (k, v) in [
                ("sim.references", result.references),
                ("sim.hits", result.hits),
                ("sim.misses", result.misses),
                ("sim.writebacks", result.writebacks),
                ("sim.total_cycles", result.total_cycles()),
                ("sim.control_cycles", result.control_cycles),
            ] {
                *counts.entry(k).or_default() += v;
            }
        }
    }
    Ok(Staged {
        refs_decoded: decoded.len() as u64,
        counts,
    })
}

/// Checks every distinct key against `Session::run_spec_bytes`, on two threads.
fn verify_keys(
    keys: &[(usize, &String)],
    variants: &[Variant],
    paths: &[String],
) -> Result<Vec<String>, String> {
    let session = Session::builder().build().map_err(|e| e.to_string())?;
    std::thread::scope(|s| {
        let joins: Vec<_> = (0..2)
            .map(|part| {
                let session = &session;
                s.spawn(move || -> Result<Vec<String>, String> {
                    let mut bad = Vec::new();
                    for (v, reply) in keys.iter().skip(part).step_by(2) {
                        let spec = variants[*v].spec(paths)?;
                        let (_, bytes) =
                            session.run_spec_bytes(&spec).map_err(|e| e.to_string())?;
                        let got = Json::parse(reply)
                            .ok()
                            .and_then(|d| d.get("result").map(Json::pretty));
                        if got.as_deref() != Some(bytes.as_str()) {
                            bad.push(format!("variant {v}: reply differs from run_spec_bytes"));
                        }
                    }
                    Ok(bad)
                })
            })
            .collect();
        let mut bad = Vec::new();
        for j in joins {
            bad.extend(
                j.join()
                    .map_err(|_| "a verifier thread panicked".to_string())??,
            );
        }
        Ok(bad)
    })
}

/// Rates of `weight` per second over consecutive chunks of [`CHUNK`] completions.
fn chunk_rates(samples: &[&Sample], start: Instant, weight: impl Fn(&Sample) -> u64) -> Vec<f64> {
    let mut order: Vec<&Sample> = samples.to_vec();
    order.sort_by_key(|s| s.done);
    let mut rates = Vec::new();
    let mut from = start;
    for chunk in order.chunks_exact(CHUNK) {
        let to = chunk[CHUNK - 1].done;
        let total: u64 = chunk.iter().map(|s| weight(s)).sum();
        rates.push(ratio(total as f64, (to - from).as_secs_f64()));
        from = to;
    }
    rates
}

/// Runs the serve-mix workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let dir = crate::out_dir().join(format!("serve-{}", std::process::id()));
    let result = run_in(seed, seconds, trace, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(seed: u64, seconds: f64, trace: bool, dir: &std::path::Path) -> Result<Outcome, String> {
    // Half the set-up rounds run before the timed phases and half after them, so that
    // `setup_s` samples the host at both ends of the run. A round rewrites the trace
    // files, so none runs while the measured server reads them.
    let mut setup = Tracer::new();
    let mut setup_s = Vec::new();
    let timed_round = |setup_s: &mut Vec<f64>, setup: &mut Tracer| {
        setup.set_op(setup_s.len() as u64);
        let t0 = Instant::now();
        let round = setup_round(seed, dir, setup)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        Ok::<_, String>(round)
    };
    let mut current = timed_round(&mut setup_s, &mut setup)?;
    while setup_s.len() < SETUP_ROUNDS / 2 {
        current.0.shutdown();
        current = timed_round(&mut setup_s, &mut setup)?;
    }
    let (mut handle, paths, variants) = current;
    let mut clients: Vec<ClientState> = (0..CLIENTS)
        .map(|id| ClientState {
            id,
            script: Script::new(seed, id, variants.len()),
            first: BTreeMap::new(),
            samples: Vec::new(),
            failed: 0,
            refused: 0,
            repeats: 0,
            sim_refs: 0,
            problems: Vec::new(),
            tracer: Tracer::new(),
            ops: 0,
        })
        .collect();

    let plain_secs = if trace { seconds / 2.0 } else { seconds };
    let start = Instant::now();
    let plain_end = start + Duration::from_secs_f64(plain_secs);
    let rss = RssProbe::default();
    clients = phase(clients, &handle, &variants, &paths, plain_end, false, &rss)?;
    let plain_stop = Instant::now();
    let plain_counts: Vec<usize> = clients.iter().map(|c| c.samples.len()).collect();
    let plain_refs: u64 = clients.iter().map(|c| c.sim_refs).sum();
    let mut traced_window = None;
    if trace {
        let t_start = Instant::now();
        let end = t_start + Duration::from_secs_f64(seconds / 2.0);
        clients = phase(clients, &handle, &variants, &paths, end, true, &rss)?;
        traced_window = Some((t_start, Instant::now()));
    }
    // Runs too short to reach the fixed request count read it at the end.
    let peak_rss_mb = rss
        .peak_mb
        .get()
        .copied()
        .unwrap_or_else(crate::harness::peak_rss_mb);
    let service = std::sync::Arc::clone(handle.service());
    handle.shutdown();
    while setup_s.len() < SETUP_ROUNDS {
        timed_round(&mut setup_s, &mut setup)?.0.shutdown();
    }

    let mut plain = Ledger::default();
    let mut traced_ledger = trace.then(Ledger::default);
    let mut all_plain: Vec<&Sample> = Vec::new();
    let mut traced_samples: Vec<&Sample> = Vec::new();
    for (c, n) in clients.iter().zip(&plain_counts) {
        all_plain.extend(&c.samples[..*n]);
        traced_samples.extend(&c.samples[*n..]);
    }
    plain.samples_ms = all_plain.iter().map(|s| s.ms).collect();
    plain.attempted = all_plain.len() as u64;
    plain.elapsed = plain_stop - start;
    plain.sim_refs = plain_refs;
    let failed: u64 = clients.iter().map(|c| c.failed).sum();
    let refused: u64 = clients.iter().map(|c| c.refused).sum();
    for c in &clients {
        for p in &c.problems {
            plain.problem(p.clone());
        }
    }
    plain.failed = failed;
    if let Some(l) = traced_ledger.as_mut() {
        l.attempted = traced_samples.len() as u64;
        l.samples_ms = traced_samples.iter().map(|s| s.ms).collect();
    }
    // Chunks mix hits and misses at random, so their fastest tenth would select cheap
    // mixes rather than fast host spells; the median chunk is reported instead.
    plain.op_rates = chunk_rates(&all_plain, start, |_| 1);
    plain.ops_per_s = median(&plain.op_rates);
    plain.sim_refs_per_s = median(&chunk_rates(&all_plain, start, |s| s.refs));

    // The store must have answered exactly the scripted repeats, and computed every
    // new key plus the warm-up once per set-up round's server (only the last one here).
    let store = service.cache_counters();
    let repeats: u64 = clients.iter().map(|c| c.repeats).sum();
    let distinct: u64 = clients.iter().map(|c| c.first.len() as u64).sum();
    let publishes = service.telemetry().counter_value("serve.store.publishes");
    if store.hits != repeats || store.misses != distinct + 1 || publishes != distinct + 1 {
        plain.problem(format!(
            "store counters hits {} misses {} publishes {publishes}, expected {repeats} / {} / {}",
            store.hits,
            store.misses,
            distinct + 1,
            distinct + 1
        ));
    }

    let keys: Vec<(usize, &String)> = clients
        .iter()
        .flat_map(|c| c.first.iter().map(|(v, r)| (*v, r)))
        .collect();
    let mut layers = Layers::new();
    let mut oracle_failures = 0;
    if trace {
        let mut t = Tracer::new();
        let mut counts = Counts::new();
        let mut decoded = 0u64;
        for c in &clients {
            for (i, v) in c.script.sent.iter().enumerate() {
                t.set_op(((c.id as u64) << 32) | i as u64);
                let Some(reply) = c.first.get(v) else {
                    continue;
                };
                match staged(&variants[*v], &paths, reply, &mut t) {
                    Ok(s) => {
                        decoded += s.refs_decoded;
                        if i < COUNTED_KEYS {
                            add_counts(&mut counts, &s.counts);
                        }
                    }
                    Err(e) => {
                        oracle_failures += 1;
                        plain.problem(format!("variant {v}: {e}"));
                    }
                }
            }
        }
        // The stitched stages agree with the untraced entry point on the first key.
        if let Some((v, reply)) = keys.first() {
            let session = Session::builder().build().map_err(|e| e.to_string())?;
            let (_, bytes) = session
                .run_spec_bytes(&variants[*v].spec(&paths)?)
                .map_err(|e| e.to_string())?;
            let got = Json::parse(reply)
                .ok()
                .and_then(|d| d.get("result").map(Json::pretty));
            if got.as_deref() != Some(bytes.as_str()) {
                plain.problem("the first key differs from run_spec_bytes".into());
            }
        }
        layers = serve_layers(&clients, &t, &setup, counts, decoded, &service, refused);
        let (t_start, t_end) = traced_window.expect("traced phase ran");
        let traced_rate = ratio(traced_samples.len() as f64, (t_end - t_start).as_secs_f64());
        layers.insert(
            "bench.trace_overhead_ratio".into(),
            ratio(traced_rate, plain.mean_ops_per_s()),
        );
        let hits: Vec<f64> = all_plain.iter().filter(|s| s.hit).map(|s| s.ms).collect();
        let misses: Vec<f64> = all_plain.iter().filter(|s| !s.hit).map(|s| s.ms).collect();
        layers.insert(
            "serve.hit_p50_ms".into(),
            percentile(&hits, 0.5).unwrap_or(0.0),
        );
        layers.insert(
            "serve.miss_p50_ms".into(),
            percentile(&misses, 0.5).unwrap_or(0.0),
        );
        let mut spans = t;
        for c in clients.iter_mut() {
            spans.absorb(std::mem::replace(&mut c.tracer, Tracer::new()));
        }
        spans
            .write_jsonl(&crate::out_dir().join(format!("spans-serve-mix-seed{seed}.jsonl")))
            .map_err(|e| format!("cannot write spans: {e}"))?;
    } else {
        for bad in verify_keys(&keys, &variants, &paths)? {
            oracle_failures += 1;
            plain.problem(bad);
        }
    }

    Ok(Outcome {
        setup_s,
        plain,
        traced: traced_ledger,
        peak_rss_mb,
        oracle_failures,
        extra: Vec::new(),
        layers: complete(layers),
        description: format!(
            "closed loop, {CLIENTS} client connections, {WORKERS} server workers; replay \
             requests over {} seeded .cct traces x {} geometry/backend/policy variants, \
             {REPEAT_PERCENT}% repeats of the client's own earlier keys",
            paths.len(),
            variants.len() / paths.len().max(1)
        ),
    })
}

/// Per-layer metrics of a traced run. Stage spans are per distinct key, the client's
/// reply parse per request, and set-up spans per set-up round.
fn serve_layers(
    clients: &[ClientState],
    staged: &Tracer,
    setup: &Tracer,
    mut counts: Counts,
    decoded: u64,
    service: &ccache_serve::Service,
    refused: u64,
) -> Layers {
    let mut l = Layers::new();
    let times = staged.self_times();
    let keys = times.get("exp.plan").map_or(0, |s| s.1);
    insert_span_times(&mut l, staged, keys, setup);
    let decode_ns = times.get("trace.decode").map_or(0, |s| s.0);
    l.insert(
        "trace.decode_refs_per_s".into(),
        ratio(decoded as f64, decode_ns as f64 / 1e9),
    );
    let (mut parse_ns, mut parses) = (0, 0);
    for c in clients {
        if let Some((ns, n)) = c.tracer.self_times().get("json.parse") {
            parse_ns += ns;
            parses += n;
        }
    }
    l.insert(
        "json.parse_ms".into(),
        ratio(parse_ns as f64 / 1e6, parses as f64),
    );
    let store = service.cache_counters();
    counts.insert("serve.store.hits", store.hits);
    counts.insert("serve.store.misses", store.misses);
    counts.insert(
        "serve.store.publishes",
        service.telemetry().counter_value("serve.store.publishes"),
    );
    counts.insert("serve.refused", refused);
    insert_counts(&mut l, &counts);
    l
}
