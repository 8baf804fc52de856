//! `service-mix`: the compile service in-process (2 workers, ephemeral
//! port) and 2 closed-loop TCP clients replaying a seeded mix of
//! QASM-text requests over the 18 Table III circuits.
//!
//! The mix is a sequence of *chains*, one per circuit per pass. A chain
//! is what one user does with one circuit, each request sent after the
//! previous reply:
//!
//! 1. a cold submit on a fresh seed;
//! 2. an exact repeat (result-cache hit);
//! 3. a near-miss with the same circuit and seed, alternately
//!    `return_home: false` and `scheduling: multi-mover` (a layout-cache
//!    hit that drives the plan cache and both scheduler loops);
//! 4. for the variational circuits, a `submit-sweep` (template cache and
//!    rebind);
//! 5. a second exact repeat, after the near-miss compiles.
//!
//! A client takes the next chain and sends its requests in order. A phase
//! ends at the last pass boundary that fits in its time (at least one
//! pass), so every run replays whole passes and the mix's composition is
//! the same at every seed. The seed picks the random circuits' instances
//! (4 of each circuit, one pass after another, so a run's latencies mix
//! instances instead of hanging on one draw), every chain's compile seed
//! and the sweep parameters.
//!
//! Each circuit is sent as the QASM rendering of its registry circuit.
//!
//! The proportions of the mix are an assumption, not recorded traffic:
//! the repository holds no request log. The report prints the measured
//! share of each request kind.

use super::{splitmix, warm_up_seed, Phase, Quality, Workload};
use crate::checks;
use crate::counters::Counters;
use crate::spans::Recorder;
use parallax_circuit::{from_qasm, optimize, Circuit, CircuitTemplate};
use parallax_core::layout_cache::{self, layout_cache_stats};
use parallax_core::{CompilationResult, SchedulingMode};
use parallax_graphine::{GraphineLayout, InteractionGraph};
use parallax_service::{
    circuit_content_hash, compile_payload, encode_request, parse_request, start, Request,
    ServerConfig, ServerHandle, ServiceClient, SubmitRequest, SubmitSource, SweepRequest,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Parameter points per sweep request.
const SWEEP_POINTS: usize = 3;
/// The variational circuits that also receive a sweep.
const VARIATIONAL: [&str; 4] = ["QAOA", "GCM", "QGAN", "VQE"];
/// Instances generated per circuit; pass `p` sends instance `p % INSTANCES`.
const INSTANCES: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Kind {
    Cold,
    Repeat,
    NoReturnHome,
    MultiMover,
    Sweep,
}

#[derive(Debug, Clone, PartialEq)]
struct Circuit1 {
    qasm: String,
    /// What the server makes of `qasm`: parsed, lowered and optimized.
    resolved: Circuit,
    /// Sweep parameter vectors, for the variational circuits.
    sweep: Option<Vec<Vec<f64>>>,
}

/// The generated inputs: everything the mix sends follows from the seed.
#[derive(Debug, Clone, PartialEq)]
struct Mix {
    seed: u64,
    /// Instance `i` of benchmark `b` is `circuits[i * order[0].len() + b]`.
    circuits: Vec<Circuit1>,
    /// Per instance, its circuits' indices, largest QASM text first.
    order: Vec<Vec<usize>>,
}

/// One chain: a circuit, its compile seed, and the requests sent for it.
#[derive(Debug, Clone, PartialEq)]
struct Chain {
    circuit: usize,
    seed: u64,
    kinds: Vec<Kind>,
}

pub struct ServiceMix {
    mix: Mix,
    clients: Vec<ServiceClient>,
    /// Chains handed out so far, across phases.
    chains: usize,
    next_request: u64,
    first_pass_digests: Vec<u64>,
    /// Dropped last: shutting the server down drains it and joins its
    /// threads.
    server: ServerHandle,
}

enum Reply {
    Submit { cached: bool, total_us: u64, result: String },
    Sweep { total_us: u64, points: Vec<(String, String)> },
}

struct Record {
    id: u64,
    chain: usize,
    circuit: usize,
    seed: u64,
    kind: Kind,
    ms: f64,
    reply: Result<Reply, String>,
    /// The `service.server` span, in the client's recorder.
    server_span: Option<usize>,
}

/// Deterministic 64-bit hash of `(a, b)`.
fn mix(a: u64, b: u64) -> u64 {
    let mut s = a ^ b.wrapping_mul(0xd134_2543_de82_ef95);
    splitmix(&mut s)
}

impl Mix {
    fn generate(seed: u64) -> Result<Self, String> {
        let mut seeds = seed ^ 0x5e2f_1ce0;
        let benchmarks = parallax_workloads::all_benchmarks();
        let mut circuits = Vec::new();
        for b in (0..INSTANCES).flat_map(|_| &benchmarks) {
            let qasm = b.circuit(splitmix(&mut seeds)).to_qasm();
            let resolved =
                SubmitRequest { source: SubmitSource::Qasm(qasm.clone()), ..Default::default() }
                    .resolve_circuit()?;
            let sweep = VARIATIONAL.contains(&b.name).then(|| {
                let slots = CircuitTemplate::from_circuit(&resolved).num_params();
                let angle = |s: &mut u64| {
                    (splitmix(s) >> 11) as f64 / (1u64 << 53) as f64 * std::f64::consts::TAU
                };
                (0..SWEEP_POINTS).map(|_| (0..slots).map(|_| angle(&mut seeds)).collect()).collect()
            });
            circuits.push(Circuit1 { qasm, resolved, sweep });
        }
        let n = benchmarks.len();
        let order = (0..INSTANCES)
            .map(|i| {
                let mut order: Vec<usize> = (i * n..(i + 1) * n).collect();
                order.sort_by_key(|&c| std::cmp::Reverse(circuits[c].qasm.len()));
                order
            })
            .collect();
        Ok(Self { seed, circuits, order })
    }

    /// Chains per pass: one per benchmark.
    fn pass_len(&self) -> usize {
        self.order[0].len()
    }

    /// Chain `k`. Every pass visits the circuits largest request first, so
    /// the two clients finish a pass close together and the end of a phase
    /// does not leave one client idle behind the other. The near-miss kind
    /// alternates between neighbours in that order and between passes, so
    /// every pass holds the same number of each.
    fn chain(&self, k: usize) -> Chain {
        let n = self.pass_len();
        let circuit = self.order[k / n % INSTANCES][k % n];
        let near =
            if (k % n + k / n).is_multiple_of(2) { Kind::NoReturnHome } else { Kind::MultiMover };
        let mut kinds = vec![Kind::Cold, Kind::Repeat, near];
        if self.circuits[circuit].sweep.is_some() {
            kinds.push(Kind::Sweep);
        }
        kinds.push(Kind::Repeat);
        Chain { circuit, seed: mix(self.seed ^ 0xc4a1_7000, k as u64), kinds }
    }

    fn request(&self, circuit: usize, seed: u64, kind: Kind, id: u64) -> SubmitRequest {
        SubmitRequest {
            source: SubmitSource::Qasm(self.circuits[circuit].qasm.clone()),
            seed,
            return_home: kind != Kind::NoReturnHome,
            scheduling: if kind == Kind::MultiMover {
                SchedulingMode::MultiMover
            } else {
                SchedulingMode::Single
            },
            id: Some(id),
            ..Default::default()
        }
    }
}

impl ServiceMix {
    pub fn setup(seed: u64, rep: usize) -> Result<Self, String> {
        let mix = Mix::generate(seed)?;
        let server = start(ServerConfig { workers: WORKERS, ..Default::default() })
            .map_err(|e| format!("server start: {e}"))?;
        let mut clients = Vec::new();
        for _ in 0..CLIENTS {
            let mut c =
                ServiceClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
            c.ping().map_err(|e| format!("warm-up ping: {e}"))?;
            clients.push(c);
        }
        // Warm-up: one cold submit of the smallest circuit on a seed the
        // measured phases never use.
        let smallest = *mix.order[0].last().expect("18 circuits");
        let warm = mix.request(smallest, warm_up_seed(seed, rep), Kind::Cold, 0);
        clients[0].submit(warm).map_err(|e| format!("warm-up submit: {e}"))?;
        Ok(Self {
            mix,
            clients,
            chains: 0,
            next_request: 0,
            first_pass_digests: Vec::new(),
            server,
        })
    }
}

/// Hand out the next chain. At each pass boundary `stop(passes started)`
/// decides whether another pass starts; once it says no, no client gets
/// another chain, so a phase replays whole passes.
fn take_chain(
    next: &Mutex<(usize, bool)>,
    pass_len: usize,
    first: usize,
    stop: impl Fn(usize) -> bool,
) -> Option<usize> {
    let mut state = next.lock().expect("chain lock");
    let (k, stopped) = &mut *state;
    if !*stopped && *k % pass_len == 0 && *k > first && stop((*k - first) / pass_len) {
        *stopped = true;
    }
    if *stopped {
        return None;
    }
    *k += 1;
    Some(*k - 1)
}

/// Send one request and time its round trip; in the traced phase, record
/// the round trip and the server's reported time as spans.
fn send(
    client: &mut ServiceClient,
    rec: &mut Recorder,
    req: SubmitRequest,
    sweep: Option<Vec<Vec<f64>>>,
) -> (f64, Result<Reply, String>, Option<usize>) {
    let id = req.id.expect("requests carry an id");
    let t0 = Instant::now();
    let root = rec.enter("request", id);
    let reply = match sweep {
        None => client.submit(req).and_then(|r| {
            if r.id != Some(id) {
                return Err(parallax_service::ClientError::Protocol("reply id mismatch".into()));
            }
            Ok(Reply::Submit { cached: r.cached, total_us: r.total_us, result: r.result.encode() })
        }),
        Some(params) => {
            client.submit_sweep(SweepRequest { submit: req, params }).map(|r| Reply::Sweep {
                total_us: r.total_us,
                points: r.points.into_iter().map(|p| (p.bound_hash, p.result.encode())).collect(),
            })
        }
    };
    rec.exit();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let reply = reply.map_err(|e| e.to_string());
    let server_span = match (&reply, rec.enabled()) {
        (Ok(r), true) => {
            let total_us = match r {
                Reply::Submit { total_us, .. } | Reply::Sweep { total_us, .. } => *total_us,
            };
            let (_, end) = rec.bounds(root);
            let dur = total_us * 1000;
            Some(rec.record_within(root, "service.server", end.saturating_sub(dur), dur))
        }
        _ => None,
    };
    (ms, reply, server_span)
}

/// Re-run the server's request-side calls on the same request, outside
/// the round trip, and place each measured duration where that call runs
/// in the request: the line decode just before the server's clock starts,
/// then QASM parse, lowering, optimization and the content hash at the
/// start of the server's time.
fn replay_request_layers(
    rec: &mut Recorder,
    server_span: usize,
    line: &str,
    qasm: &str,
    hash: bool,
    gates_after_optimize: &mut u64,
) {
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_nanos() as u64
    };
    let decode = time(&mut || drop(std::hint::black_box(parse_request(line))));
    let mut program = None;
    let parse =
        time(&mut || program = Some(parallax_qasm::parse(qasm).expect("benchmark QASM parses")));
    let program = program.expect("parsed");
    let mut raw = None;
    let lower = time(&mut || raw = Some(from_qasm(&program).expect("benchmark QASM lowers")));
    let raw = raw.expect("lowered");
    let mut circuit = None;
    let opt = time(&mut || circuit = Some(optimize(&raw)));
    let circuit = circuit.expect("optimized");
    *gates_after_optimize += circuit.len() as u64;
    let content_hash = if hash {
        time(&mut || {
            std::hint::black_box(circuit_content_hash(&circuit));
        })
    } else {
        0
    };
    let (server_start, _) = rec.bounds(server_span);
    let root = rec.spans()[server_span].parent.expect("server span has a parent");
    rec.record_within(root, "service.request_decode", server_start.saturating_sub(decode), decode);
    let mut at = server_start;
    for (name, dur) in [
        ("qasm.parse", parse),
        ("circuit.lower", lower),
        ("circuit.optimize", opt),
        ("service.content_hash", content_hash),
    ] {
        if dur > 0 {
            rec.record_within(server_span, name, at, dur);
            at += dur;
        }
    }
}

impl Workload for ServiceMix {
    fn measure(&mut self, seconds: f64, traced: bool, epoch: Instant) -> Phase {
        let mut phase = Phase::new(traced, epoch);
        let before = Counters::snapshot(Some(&self.server.shared().metrics));
        // (next chain to hand out, whether the phase has stopped).
        let next_chain = Mutex::new((self.chains, false));
        let first_chain = self.chains;
        let next_id = AtomicUsize::new(self.next_request as usize);
        let n = self.mix.pass_len();
        let mut clients = std::mem::take(&mut self.clients);
        let mix = &self.mix;
        let t0 = Instant::now();
        let per_client: Vec<(Vec<Record>, Recorder, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|client| {
                    let (next_chain, next_id) = (&next_chain, &next_id);
                    s.spawn(move || {
                        let mut rec = Recorder::new(traced, epoch);
                        let mut records = Vec::new();
                        let mut gates = 0u64;
                        loop {
                            // Another pass starts only if one more pass of
                            // the mean length so far still fits in
                            // `seconds`: the pass count stays put while
                            // pass times vary by less than one pass in
                            // `seconds / passes`.
                            let stop = |passes: usize| {
                                let elapsed = t0.elapsed().as_secs_f64();
                                elapsed + elapsed / passes as f64 > seconds
                            };
                            let Some(k) = take_chain(next_chain, n, first_chain, stop) else {
                                break;
                            };
                            let Chain { circuit, seed, kinds } = mix.chain(k);
                            let sweep = &mix.circuits[circuit].sweep;
                            for kind in kinds {
                                let id = next_id.fetch_add(1, Ordering::SeqCst) as u64;
                                let req = mix.request(circuit, seed, kind, id);
                                let params = (kind == Kind::Sweep)
                                    .then(|| sweep.clone().expect("sweep params"));
                                let line = rec.enabled().then(|| match &params {
                                    None => encode_request(&Request::Submit(Box::new(req.clone()))),
                                    Some(p) => encode_request(&Request::SubmitSweep(Box::new(
                                        SweepRequest { submit: req.clone(), params: p.clone() },
                                    ))),
                                });
                                let (ms, reply, server_span) = send(client, &mut rec, req, params);
                                if let (Some(line), Some(span)) = (line, server_span) {
                                    replay_request_layers(
                                        &mut rec,
                                        span,
                                        &line,
                                        &mix.circuits[circuit].qasm,
                                        kind != Kind::Sweep,
                                        &mut gates,
                                    );
                                }
                                records.push(Record {
                                    id,
                                    chain: k,
                                    circuit,
                                    seed,
                                    kind,
                                    ms,
                                    reply,
                                    server_span,
                                });
                            }
                        }
                        (records, rec, gates)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        phase.window_s = t0.elapsed().as_secs_f64();
        self.clients = clients;
        phase.counters.add_delta(&Counters::snapshot(Some(&self.server.shared().metrics)), &before);
        self.chains = next_chain.into_inner().expect("chain lock").0;
        self.next_request = next_id.load(Ordering::SeqCst) as u64;

        let mut records = Vec::new();
        let mut gates = 0u64;
        for (mut recs, rec, g) in per_client {
            let base = phase.spans.spans().len();
            phase.spans.absorb(rec);
            for r in &mut recs {
                r.server_span = r.server_span.map(|s| s + base);
            }
            records.extend(recs);
            gates += g;
        }
        records.sort_by_key(|r| (r.chain, r.id));
        self.check(&mut phase, records);
        let requests = phase.attempted().max(1) as f64;
        phase.extra.insert("circuit.gates_after_optimize", gates as f64 / requests);
        phase
    }

    /// The mix sends the Table III circuits under the paper-fidelity
    /// configuration, so its reference set is `cold-table3`'s.
    fn quality(&self) -> Quality {
        super::cold_table3::table3_reference_quality()
    }

    fn first_pass_digests(&self) -> &[u64] {
        &self.first_pass_digests
    }
}

/// The in-process twin of one distinct request: what the server must have
/// sent, and whether its schedule replays within the hardware constraints.
struct Twin {
    result: CompilationResult,
    payload: String,
    encode_ns: u64,
    replay: Result<(), String>,
}

impl ServiceMix {
    /// Check every reply against an in-process twin compile of the same
    /// request, outside the measured window; record the server-side
    /// payload encode in the traced phase; keep the schedule digests of
    /// the run's first pass of cold submits.
    ///
    /// The twins run with the process-wide layout, plan and template
    /// caches disabled, on a layout annealed here, so they share nothing
    /// the server cached: a wrong cached entry cannot make a twin agree.
    fn check(&mut self, phase: &mut Phase, records: Vec<Record>) {
        let capacity = layout_cache_stats().capacity;
        layout_cache::resize(0);
        let mut layouts: HashMap<(usize, u64), GraphineLayout> = HashMap::new();
        let mut twins: HashMap<(usize, u64, Kind), Twin> = HashMap::new();
        let mut kinds: BTreeMap<Kind, u64> = BTreeMap::new();
        let (mut server_ms, mut overhead_ms) = (0.0, 0.0);
        for r in records {
            *kinds.entry(r.kind).or_default() += 1;
            let c = &self.mix.circuits[r.circuit];
            let key_kind =
                if r.kind == Kind::Repeat || r.kind == Kind::Sweep { Kind::Cold } else { r.kind };
            let twin = twins.entry((r.circuit, r.seed, key_kind)).or_insert_with(|| {
                let req = self.mix.request(r.circuit, r.seed, key_kind, 0);
                let config = req.compiler_config();
                let layout = layouts.entry((r.circuit, r.seed)).or_insert_with(|| {
                    GraphineLayout::from_graph(
                        &InteractionGraph::from_circuit(&c.resolved),
                        &config.placement,
                    )
                });
                let result = req
                    .build_compiler()
                    .expect("quera is a known machine")
                    .compile_with_layout(&c.resolved, layout);
                let t = Instant::now();
                let payload = compile_payload(&result).encode();
                let encode_ns = t.elapsed().as_nanos() as u64;
                let replay = checks::check_replay(&c.resolved, layout, &config, &result);
                Twin { result, payload, encode_ns, replay }
            });
            let Twin { result, payload, encode_ns, replay } = &*twin;
            let check = match &r.reply {
                Err(e) => Err(e.clone()),
                Ok(Reply::Submit { cached, total_us, result: served }) => {
                    server_ms += *total_us as f64 / 1e3;
                    overhead_ms += r.ms - *total_us as f64 / 1e3;
                    if let (Some(span), false) = (r.server_span, cached) {
                        let (_, end) = phase.spans.bounds(span);
                        phase.spans.record_within(
                            span,
                            "service.payload_encode",
                            end.saturating_sub(*encode_ns),
                            *encode_ns,
                        );
                    }
                    check_payload(served, payload, &c.resolved, result)
                }
                Ok(Reply::Sweep { total_us, points }) => {
                    server_ms += *total_us as f64 / 1e3;
                    overhead_ms += r.ms - *total_us as f64 / 1e3;
                    if let Some(span) = r.server_span {
                        let (_, end) = phase.spans.bounds(span);
                        phase.spans.record_within(
                            span,
                            "service.payload_encode",
                            end.saturating_sub(*encode_ns),
                            *encode_ns,
                        );
                    }
                    let params = c.sweep.as_ref().expect("sweeps go to variational circuits");
                    if points.len() != params.len() {
                        Err(format!(
                            "{} sweep points for {} parameter vectors",
                            points.len(),
                            params.len()
                        ))
                    } else {
                        points.iter().zip(params).try_for_each(|((hash, served), p)| {
                            let want = checks::expected_bound_hash(&c.resolved, p)?;
                            if *hash != want {
                                return Err(format!(
                                    "sweep bound_hash {hash} != local bind {want}"
                                ));
                            }
                            check_payload(served, payload, &c.resolved, result)
                        })
                    }
                }
            }
            .and_then(|()| replay.clone());
            if r.kind == Kind::Cold && r.chain < self.mix.pass_len() {
                self.first_pass_digests.push(parallax_service::schedule_digest(result));
            }
            phase.finish_request(
                r.ms,
                check.map_err(|e| format!("service-mix request {}: {e}", r.id)),
            );
        }
        layout_cache::resize(capacity);
        let n = phase.attempted().max(1) as f64;
        phase.extra.insert("service.server_ms", server_ms / n);
        phase.extra.insert("service.client_overhead_ms", overhead_ms / n);
        // The server does not export this count; its twins' schedules are
        // byte-equal to the server's, so their mean stands for it.
        let memo_hits =
            twins.values().map(|t| t.result.schedule.stats.failed_move_memo_hits as u64).sum();
        phase.counters.compile.failed_move_memo_hits = Some((memo_hits, twins.len() as u64));
        let shares: Vec<String> = kinds
            .iter()
            .map(|(kind, &k)| format!("{kind:?} {k} ({:.1}%)", 100.0 * k as f64 / n))
            .collect();
        let hits = phase.counters.service.result_cache;
        phase.notes.push(format!(
            "request mix (assumed proportions, not recorded traffic): {}; result-cache hits {} of \
             {} lookups",
            shares.join(", "),
            hits.hits,
            hits.hits + hits.misses
        ));
    }
}

/// A served payload must be byte-equal to the in-process payload of the
/// same request, with zero SWAPs and the input's gate counts.
fn check_payload(
    served: &str,
    expected: &str,
    circuit: &Circuit,
    result: &CompilationResult,
) -> Result<(), String> {
    if served != expected {
        return Err(format!("served payload {served} != in-process payload {expected}"));
    }
    checks::check_counts_and_order(circuit, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::validate_nesting;

    #[test]
    fn request_lists_repeat_per_seed() {
        let (a, b, c) =
            (Mix::generate(7).unwrap(), Mix::generate(7).unwrap(), Mix::generate(8).unwrap());
        assert_eq!(a, b, "same seed, same inputs");
        assert_ne!(a, c, "another seed, other inputs");
        let plan = |m: &Mix| (0..40).map(|k| m.chain(k)).collect::<Vec<_>>();
        assert_eq!(plan(&a), plan(&b));
        assert_ne!(plan(&a), plan(&c));
        // A pass visits every circuit once, and a chain's seed is fresh.
        let mut pass: Vec<usize> = (0..18).map(|k| a.chain(k).circuit).collect();
        pass.sort_unstable();
        assert_eq!(pass, (0..18).collect::<Vec<_>>());
        // The next pass sends the next instance; after the last, the first
        // again.
        assert_eq!(a.chain(18).circuit / 18, 1);
        assert_eq!(a.chain(0).circuit, a.chain(18 * INSTANCES).circuit);
        assert_ne!(a.chain(0).seed, a.chain(18 * INSTANCES).seed);
        let sweeps = (0..18).filter(|&k| a.chain(k).kinds.contains(&Kind::Sweep)).count();
        assert_eq!(sweeps, VARIATIONAL.len());
    }

    #[test]
    fn take_chain_hands_out_whole_passes() {
        let next = Mutex::new((0, false));
        // Time is up from the start: the first pass still runs whole.
        let taken: Vec<usize> = std::iter::from_fn(|| take_chain(&next, 3, 0, |_| true)).collect();
        assert_eq!(taken, vec![0, 1, 2]);
        assert_eq!(take_chain(&next, 3, 0, |_| false), None, "a stopped phase stays stopped");
        // The stop rule sees how many passes have started.
        let next = Mutex::new((3, false));
        let taken: Vec<usize> =
            std::iter::from_fn(|| take_chain(&next, 3, 3, |passes| passes == 2)).collect();
        assert_eq!(taken, vec![3, 4, 5, 6, 7, 8]);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper-fidelity compiles: run with --release")]
    fn one_traced_pass_checks_clean() {
        let mut w = ServiceMix::setup(3, 0).unwrap();
        let phase = w.measure(1e-9, true, Instant::now());
        assert_eq!(phase.failed, 0, "{:?}", phase.first_failure);
        assert_eq!(phase.attempted(), 18 * 4 + VARIATIONAL.len() as u64);
        validate_nesting(phase.spans.spans()).unwrap();
        assert_eq!(w.first_pass_digests().len(), 18);
        assert!(phase.counters.service.result_cache.hits >= 36, "both repeats hit");
        assert!(phase.counters.layout.hits >= 18, "near-misses hit the layout cache");
        // One twin per cold submit and per near-miss, and the caches the
        // twins ran without are back at their capacity.
        assert_eq!(phase.counters.compile.failed_move_memo_hits.map(|(_, n)| n), Some(36));
        assert!(layout_cache_stats().capacity > 0);
    }
}
