//! The serve stage: an in-process `codense_service::serve` with one
//! compression worker, driven in chunks. An open-loop chunk sends at a
//! fixed Poisson rate over one pipelined connection (a sender and a
//! receiver thread); a closed-loop chunk sends a fixed number of requests,
//! each connection waiting for its answer. Every response is checked
//! against the container an in-process compression produces. The
//! end-to-end figure is the server threads' CPU time per request; the
//! client-side latencies and throughput, which move with every stall of a
//! shared host, are per-layer figures of the traced run.

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use codense_codegen::Rng;
use codense_core::{container, Compressor, EncodingKind, SelectorKind};
use codense_obj::ObjectModule;
use codense_service::cache::fnv1a;
use codense_service::protocol::decode_error;
use codense_service::{
    arrival_schedule_us, codec, counter_value, serve, Client, CompressRequest, ErrorCode, Op,
    PipelinedClient, ServeOptions, ServerHandle,
};

use crate::stages::{report, Stage};
use crate::host::server_cpu_s;
use crate::trace::{median, percentile_with_misses, quantile, Tracer};
use crate::{Ledger, Metrics};

/// Client socket timeout; far above any response the workloads produce.
const TIMEOUT_MS: u64 = 60_000;

/// Share of serve chunks run open loop when the workload has an open
/// loop; the rest are closed loop.
const OPEN_SHARE: f64 = 0.8;

/// Seconds of traffic in one serve chunk (at the workload's rates).
pub const CHUNK_S: f64 = 0.5;

/// The reported tail percentile. At `--seconds 25` every workload has at
/// least 240 latency samples, so at least twelve lie beyond it; p99 moved
/// from run to run with the host's stalls rather than with the program.
const TAIL_PCT: f64 = 95.0;

/// A request the server has already answered, so it is served from the
/// result cache.
pub struct HotItem {
    pub payload: Vec<u8>,
    pub expected: Vec<u8>,
}

/// Where first-time (cache-missing) requests come from: the base modules,
/// each made unique by one appended `li r3, imm`.
pub struct MissSource {
    pub bases: Vec<ObjectModule>,
    pub encodings: Vec<EncodingKind>,
    /// Share of requests drawn from the hot set; the rest are misses.
    pub hit_share: f64,
}

/// What the serve stage sends besides the hot set, and so where its
/// latency comes from.
pub enum Mix {
    /// Every request repeats the hot set. Latency comes from a closed loop
    /// over one connection, so no request waits behind another connection's.
    HitsOnly,
    /// Hot-set hits mixed with first-time misses. Latency comes from an
    /// open loop at `open_rps` requests per second; the closed loop uses two
    /// connections (the host's `nproc`).
    Mixed { misses: MissSource, open_rps: f64 },
}

/// The serve stage's inputs.
pub struct ServeInputs {
    pub hot: Vec<HotItem>,
    pub mix: Mix,
    /// Closed-loop requests per chunk-second (about the closed-loop
    /// throughput), so every run sends the same number of requests.
    pub closed_rps: f64,
}

impl ServeInputs {
    fn closed_connections(&self) -> usize {
        match self.mix {
            Mix::HitsOnly => 1,
            Mix::Mixed { .. } => 2,
        }
    }
}

pub fn request(module: &ObjectModule, encoding: EncodingKind) -> CompressRequest {
    CompressRequest {
        encoding,
        selector: SelectorKind::Greedy,
        max_entry_len: crate::stages::MAX_ENTRY_LEN as u16,
        max_codewords: 0,
        module: codense_obj::serialize(module),
    }
}

/// The in-process container for a request: what every served response
/// must equal byte for byte.
pub fn expected(module: &ObjectModule, req: &CompressRequest) -> Result<Vec<u8>, String> {
    Compressor::new(req.config())
        .with_selector(req.selector)
        .compress(module)
        .map(|c| container::serialize(&c))
        .map_err(|e| e.to_string())
}

#[derive(Clone, Copy)]
enum Kind {
    Hit(usize),
    /// Miss number `n`, from base module `base` under `encoding`.
    Miss {
        n: u32,
        base: usize,
        encoding: usize,
    },
}

/// Requests are drawn in passes of this many, each with the hit share's
/// number of misses.
const CLASS_PASS: usize = 16;

/// Seeded draws that stay balanced: each pass deals every card once, in a
/// fresh shuffled order. Every run then sends the same mix of hits, misses
/// and modules (up to its last, partial pass), and the seed changes only
/// their order and timing. With independent draws, the share of misses on
/// the largest modules, and with it the tail, moved from seed to seed.
struct Deck {
    cards: Vec<usize>,
    next: usize,
}

impl Deck {
    fn new(cards: Vec<usize>) -> Deck {
        Deck { next: cards.len(), cards }
    }

    fn draw(&mut self, rng: &mut Rng) -> usize {
        if self.next == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.below(i + 1));
            }
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// The decks a run's requests are drawn from: hit (0) or miss (1), which
/// hot item, and which (base module, encoding) pair a miss varies.
struct Decks {
    class: Deck,
    hot: Deck,
    miss: Deck,
}

impl Decks {
    fn new(inputs: &ServeInputs) -> Decks {
        let (class, miss) = match &inputs.mix {
            Mix::HitsOnly => (vec![0], Vec::new()),
            Mix::Mixed { misses: m, .. } => {
                let n = (CLASS_PASS as f64 * (1.0 - m.hit_share)).round() as usize;
                let class = (0..CLASS_PASS).map(|i| usize::from(i < n)).collect();
                (class, (0..m.bases.len() * m.encodings.len()).collect())
            }
        };
        Decks {
            class: Deck::new(class),
            hot: Deck::new((0..inputs.hot.len()).collect()),
            miss: Deck::new(miss),
        }
    }
}

struct Plan {
    kinds: Vec<Kind>,
}

impl Plan {
    fn new(
        inputs: &ServeInputs,
        count: usize,
        first_miss: u32,
        decks: &mut Decks,
        rng: &mut Rng,
    ) -> Plan {
        let mut n = first_miss;
        let kinds = (0..count)
            .map(|_| match &inputs.mix {
                Mix::Mixed { misses: m, .. } if decks.class.draw(rng) == 1 => {
                    n += 1;
                    let pair = decks.miss.draw(rng);
                    let e = m.encodings.len();
                    Kind::Miss { n, base: pair / e, encoding: pair % e }
                }
                _ => Kind::Hit(decks.hot.draw(rng)),
            })
            .collect();
        Plan { kinds }
    }

    fn misses(&self) -> u32 {
        self.kinds.iter().filter(|k| matches!(k, Kind::Miss { .. })).count() as u32
    }
}

/// A miss variant's module: the base plus one instruction whose immediate
/// is unique within the run (miss numbers are below 2^16).
fn variant(m: &MissSource, n: u32, base: usize, salt: u32) -> ObjectModule {
    let mut module = m.bases[base].clone();
    module.code.push(0x3860_0000 | (n.wrapping_add(salt) & 0xffff)); // li r3, imm
    module
}

/// A response to check after the run: a miss's digest, compared with the
/// digest of an in-process compression once timing is over.
struct Pending {
    n: u32,
    base: usize,
    encoding: usize,
    digest: Digest,
}

/// Length, CRC-32 and FNV-1a of a container: what a served miss is
/// compared by, so the run does not hold every miss response.
type Digest = (usize, u32, u64);

fn digest(bytes: &[u8]) -> Digest {
    (bytes.len(), container::crc32(bytes), fnv1a(bytes))
}

/// Outcome of one response.
enum Outcome {
    Ok,
    Pending(Pending),
    Busy,
    Failed(String),
}

fn classify(inputs: &ServeInputs, kind: Kind, op: Op, payload: Vec<u8>) -> Outcome {
    match (op, kind) {
        (Op::RespOk, Kind::Hit(i)) if payload == inputs.hot[i].expected => Outcome::Ok,
        (Op::RespOk, Kind::Hit(i)) => Outcome::Failed(format!("hot item {i}: response differs")),
        (Op::RespOk, Kind::Miss { n, base, encoding }) => {
            Outcome::Pending(Pending { n, base, encoding, digest: digest(&payload) })
        }
        (Op::RespErr, _) => match decode_error(&payload) {
            Some((ErrorCode::Busy, _)) => Outcome::Busy,
            e => Outcome::Failed(format!("error response {e:?}")),
        },
        (op, _) => Outcome::Failed(format!("unexpected op {op:?}")),
    }
}

fn payload(inputs: &ServeInputs, kind: Kind, salt: u32) -> Cow<'_, [u8]> {
    match kind {
        Kind::Hit(i) => Cow::Borrowed(&inputs.hot[i].payload),
        Kind::Miss { n, base, encoding } => {
            let Mix::Mixed { misses: m, .. } = &inputs.mix else {
                unreachable!("misses are planned only in a mixed run")
            };
            Cow::Owned(request(&variant(m, n, base, salt), m.encodings[encoding]).encode())
        }
    }
}

/// One request's observations, µs from its chunk's start. A request is due
/// at its scheduled arrival (open loop) or when its connection became free
/// (closed loop).
struct Sample {
    kind: Kind,
    /// Tracer time of the chunk's start, which the µs fields count from.
    base_ns: u64,
    due_us: u64,
    sent_us: u64,
    done_us: Option<u64>,
    ok: bool,
}

impl Sample {
    fn based(self, base_ns: u64) -> Sample {
        Sample { base_ns, ..self }
    }

    fn latency_ms(&self) -> Option<f64> {
        self.done_us.map(|d| d.saturating_sub(self.due_us) as f64 / 1e3)
    }
}

fn server_counters(addr: &str) -> Result<String, String> {
    Client::connect(addr, TIMEOUT_MS)
        .map_err(|e| e.to_string())?
        .metrics()
        .map_err(|e| e.to_string())
}

fn count(json: &str, name: &str) -> f64 {
    counter_value(json, name).unwrap_or(0) as f64
}

/// The serve stage, run in chunks of about [`CHUNK_S`] seconds so that it
/// interleaves with the other stages. One server serves the whole run.
pub struct ServeStage<'a> {
    inputs: &'a ServeInputs,
    server: ServerHandle,
    addr: String,
    seed: u64,
    salt: u32,
    rng: Rng,
    decks: Decks,
    /// Misses planned so far (miss numbers stay unique across chunks).
    misses: u32,
    pending: Vec<Pending>,
    priming_ms: Vec<f64>,
    open: Vec<Sample>,
    closed: Vec<Sample>,
    open_chunks: u64,
    closed_chunks: u64,
    /// Correct responses per second of each closed-loop chunk.
    closed_rates: Vec<f64>,
    /// The closed loop's connections, open for the whole run as a waiting
    /// client's would be. A fresh connection per chunk made the server's
    /// CPU per multi-MiB request jump between two levels from chunk to
    /// chunk.
    closed_conns: Vec<PipelinedClient>,
    /// Server-thread CPU seconds and requests sent, per chunk.
    server_cpu: Vec<(f64, usize)>,
    /// Server cache hits and misses over the latency phase.
    cache: (f64, f64),
}

impl<'a> ServeStage<'a> {
    /// Starts the server and primes its cache: every hot item is answered
    /// once before timing.
    pub fn start(inputs: &'a ServeInputs, seed: u64, ledger: &mut Ledger) -> Result<Self, String> {
        let opts = ServeOptions { jobs: 1, timeout_ms: TIMEOUT_MS, ..ServeOptions::default() };
        let server = serve(&opts).map_err(|e| format!("serve: {e}"))?;
        let addr = server.addr().to_string();
        let mut conn =
            PipelinedClient::connect(addr.as_str(), TIMEOUT_MS).map_err(|e| e.to_string())?;
        let mut pending = Vec::new();
        let mut priming_ms = Vec::new();
        for (i, item) in inputs.hot.iter().enumerate() {
            ledger.attempted += 1;
            let t = Instant::now();
            conn.send(Op::ReqCompress, i as u32, &item.payload).map_err(|e| e.to_string())?;
            match conn.recv() {
                Ok(Some(f)) => {
                    priming_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    settle(classify(inputs, Kind::Hit(i), f.op, f.payload), ledger, &mut pending);
                }
                other => ledger.fail(format!("priming: {other:?}")),
            }
        }
        // The priming connection carries on as the first closed-loop one.
        // Each further one answers a hot request before timing starts, so
        // the server has accepted it by then: an accept counted during a
        // compress round would break that round's counter check.
        let mut closed_conns = vec![conn];
        while closed_conns.len() < inputs.closed_connections() {
            let mut conn =
                PipelinedClient::connect(addr.as_str(), TIMEOUT_MS).map_err(|e| e.to_string())?;
            ledger.attempted += 1;
            conn.send(Op::ReqCompress, 0, &inputs.hot[0].payload).map_err(|e| e.to_string())?;
            match conn.recv() {
                Ok(Some(f)) => {
                    settle(classify(inputs, Kind::Hit(0), f.op, f.payload), ledger, &mut pending);
                }
                other => ledger.fail(format!("connection warm-up: {other:?}")),
            }
            closed_conns.push(conn);
        }
        Ok(ServeStage {
            inputs,
            server,
            addr,
            seed,
            salt: (seed as u32).wrapping_mul(0x9E37_79B9) >> 16,
            rng: Rng::new(seed ^ 0x5E7E_A11E),
            decks: Decks::new(inputs),
            misses: 0,
            pending,
            priming_ms,
            open: Vec::new(),
            closed: Vec::new(),
            open_chunks: 0,
            closed_chunks: 0,
            closed_rates: Vec::new(),
            closed_conns,
            server_cpu: Vec::new(),
            cache: (0.0, 0.0),
        })
    }

    fn plan(&mut self, n: usize) -> Plan {
        let plan = Plan::new(self.inputs, n, self.misses, &mut self.decks, &mut self.rng);
        self.misses += plan.misses();
        plan
    }

    fn chunk(&mut self, tracer: &Tracer, ledger: &mut Ledger) -> Result<(), String> {
        let inputs = self.inputs;
        let before = server_counters(&self.addr)?;
        let base_ns = tracer.now_ns();
        // A mixed run alternates open and closed chunks in the ratio
        // OPEN_SHARE sets; a hits-only run measures latency closed loop.
        let (open_rate, latency_phase) = match inputs.mix {
            Mix::Mixed { open_rps, .. }
                if self.open_chunks as f64 * (1.0 - OPEN_SHARE)
                    <= self.closed_chunks as f64 * OPEN_SHARE =>
            {
                (Some(open_rps), true)
            }
            Mix::Mixed { .. } => (None, false),
            Mix::HitsOnly => (None, true),
        };
        let cpu = server_cpu_s()?;
        let requests;
        if let Some(rate) = open_rate {
            let plan = self.plan(((rate * CHUNK_S).round() as usize).max(1));
            let chunk_seed =
                self.seed.wrapping_add(self.open_chunks.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let schedule = arrival_schedule_us(rate, plan.kinds.len(), chunk_seed);
            let samples = open_loop(
                inputs,
                &plan,
                &schedule,
                &self.addr,
                self.salt,
                ledger,
                &mut self.pending,
            )?;
            requests = samples.len();
            self.open.extend(samples.into_iter().map(|s| s.based(base_ns)));
            self.open_chunks += 1;
        } else {
            let plan = self.plan(((inputs.closed_rps * CHUNK_S).round() as usize).max(1));
            let (samples, wall) =
                closed_loop(inputs, &plan, &mut self.closed_conns, self.salt, ledger, &mut self.pending)?;
            let ok = samples.iter().filter(|s| s.ok).count();
            requests = samples.len();
            self.closed_rates.push(ok as f64 / wall);
            self.closed.extend(samples.into_iter().map(|s| s.based(base_ns)));
            self.closed_chunks += 1;
        }
        self.server_cpu.push((server_cpu_s()? - cpu, requests));
        if latency_phase {
            let after = server_counters(&self.addr)?;
            let delta = |name: &str| count(&after, name) - count(&before, name);
            self.cache.0 += delta("serve.cache.hits");
            self.cache.1 += delta("serve.cache.misses");
        }
        Ok(())
    }

    /// `scale` holds each chunk's host-speed factor.
    pub fn finish(
        mut self,
        scale: &[f64],
        tracer: &Tracer,
        ledger: &mut Ledger,
        e2e: &mut Metrics,
        layers: &mut Metrics,
    ) -> Result<(), String> {
        let last = server_counters(&self.addr)?;
        self.server.shutdown();
        let (inputs, salt) = (self.inputs, self.salt);

        // Misses were kept for this check, outside every timed phase; it
        // runs on both CPUs.
        if let Mix::Mixed { misses: m, .. } = &inputs.mix {
            let chunk = self.pending.len().div_ceil(2).max(1);
            let failures: Vec<String> = std::thread::scope(|scope| {
                let workers: Vec<_> = self
                    .pending
                    .chunks(chunk)
                    .map(|part| {
                        scope.spawn(move || {
                            part.iter().filter_map(|p| check_miss(m, p, salt)).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                workers.into_iter().flat_map(|w| w.join().expect("miss check thread")).collect()
            });
            for f in failures {
                ledger.fail(f);
            }
        }

        // Latency comes from the open loop when there is one. Anything that
        // was not a correct response misses every limit.
        let (phase, samples) = match inputs.mix {
            Mix::Mixed { .. } => ("open", &self.open),
            Mix::HitsOnly => ("closed", &self.closed),
        };
        let lat: Vec<Option<f64>> =
            samples.iter().map(|s| s.latency_ms().filter(|_| s.ok)).collect();
        let p50 = percentile_with_misses(&lat, 50.0);
        let tail = percentile_with_misses(&lat, TAIL_PCT);
        let beyond = lat.iter().filter(|l| l.is_none_or(|v| v > tail)).count();
        let per_req = cpu_ms_per_req(&inputs.mix, &self.server_cpu, scale);
        e2e.put("serve_cpu_ms_per_req", per_req, "ms");
        let unscaled = cpu_ms_per_req(&inputs.mix, &self.server_cpu, &vec![1.0; scale.len()]);
        crate::stages::unscaled("serve", "ms", std::iter::once(unscaled));
        let late: Vec<f64> =
            samples.iter().map(|s| s.sent_us.saturating_sub(s.due_us) as f64 / 1e3).collect();
        eprintln!(
            "  serve: latency from the {phase} loop: {} requests ({beyond} beyond p95), \
             p50 {p50:.3} ms, p95 {tail:.3} ms, late p99 {:.3} ms; closed loop: {} requests",
            samples.len(),
            quantile(&late, 0.99),
            self.closed.len(),
        );
        report("serve closed loop", "req/s", &self.closed_rates);
        if !tracer.enabled() {
            return Ok(());
        }

        for (k, s) in samples.iter().enumerate() {
            if let Some(done) = s.done_us {
                let name = if matches!(s.kind, Kind::Hit(_)) { "serve.hit" } else { "serve.miss" };
                tracer.record(name, k as u64, s.base_ns + s.due_us * 1000, s.base_ns + done * 1000);
            }
        }
        let class = |hit: bool| -> Vec<f64> {
            samples
                .iter()
                .filter(|s| matches!(s.kind, Kind::Hit(_)) == hit && s.ok)
                .filter_map(Sample::latency_ms)
                .collect()
        };
        // The priming requests are misses too; the corpus workloads have
        // no others.
        let mut miss_ms = class(false);
        miss_ms.extend(&self.priming_ms);
        layers.put("service.p50_ms", p50, "ms");
        layers.put("service.p95_ms", tail, "ms");
        layers.put("service.closed_rps", median(&self.closed_rates), "req/s");
        layers.put("service.hit_ms", median(&class(true)), "ms");
        layers.put("service.miss_ms", median(&miss_ms), "ms");
        layers.put("loadgen.late_ms", quantile(&late, 0.99), "ms");
        let (hits, missed) = self.cache;
        layers.put("service.cache_hit_ratio", hits / (hits + missed).max(1.0), "ratio");
        layers.put("service.queue_high_water", count(&last, "serve.queue_high_water"), "count");
        layers.put("service.requests_busy", count(&last, "serve.requests_busy"), "count");

        // The server's per-request layers, called in process on every
        // distinct hot request.
        let (mut decode_s, mut process_s) = (Vec::new(), Vec::new());
        for (i, item) in inputs.hot.iter().enumerate() {
            let (r, dt) = tracer.span("service.decode", i as u64, || {
                let req = CompressRequest::decode(&item.payload).map_err(|e| e.to_string())?;
                let module = codense_obj::deserialize(&req.module).map_err(|e| e.to_string())?;
                module.validate().map_err(|e| e.to_string())?;
                Ok::<_, String>(req)
            });
            decode_s.push(dt);
            let req = match r {
                Ok(req) => req,
                Err(e) => {
                    ledger.fail(format!("decode: {e}"));
                    continue;
                }
            };
            let (r, dt) = tracer.span("service.process", i as u64, || codec::process(&req));
            process_s.push(dt);
            ledger.check(r.as_ref().is_ok_and(|b| *b == item.expected), || {
                format!("codec::process of hot item {i} differs")
            });
        }
        layers.put("service.decode_s", median(&decode_s), "s");
        layers.put("service.process_s", median(&process_s), "s");
        Ok(())
    }
}

impl Stage for ServeStage<'_> {
    fn rounds(&self) -> usize {
        (self.open_chunks + self.closed_chunks) as usize
    }

    fn step(&mut self, tracer: &Tracer, ledger: &mut Ledger) {
        if let Err(e) = self.chunk(tracer, ledger) {
            ledger.fail(format!("serve: {e}"));
        }
    }
}

/// Server CPU milliseconds per request from each chunk's (CPU seconds,
/// requests) and host-speed factor.
fn cpu_ms_per_req(mix: &Mix, chunks: &[(f64, usize)], scale: &[f64]) -> f64 {
    let scaled = chunks.iter().zip(scale).map(|(&(s, n), k)| (s * k * 1e3, n));
    match mix {
        // Every chunk sends the same request: each is a sample of one cost,
        // and the median drops the chunks the host slowed.
        Mix::HitsOnly => median(&scaled.map(|(ms, n)| ms / n as f64).collect::<Vec<_>>()),
        // Chunks differ in their misses, but every run sends the same mix,
        // so the run's total is the steady figure.
        Mix::Mixed { .. } => {
            let (ms, n) = scaled.fold((0.0, 0), |(a, b), (ms, n)| (a + ms, b + n));
            ms / n.max(1) as f64
        }
    }
}

/// Compresses a miss variant in process and compares it with the served
/// bytes; `Some(reason)` when they differ.
fn check_miss(m: &MissSource, p: &Pending, salt: u32) -> Option<String> {
    let module = variant(m, p.n, p.base, salt);
    match expected(&module, &request(&module, m.encodings[p.encoding])) {
        Ok(want) if digest(&want) == p.digest => None,
        Ok(_) => Some(format!("miss {}: response differs from in-process", p.n)),
        Err(e) => Some(format!("miss {}: in-process compress: {e}", p.n)),
    }
}

fn settle(outcome: Outcome, ledger: &mut Ledger, pending: &mut Vec<Pending>) -> bool {
    match outcome {
        Outcome::Ok => true,
        Outcome::Pending(p) => {
            pending.push(p);
            true
        }
        Outcome::Busy => {
            ledger.fail("BUSY".into());
            false
        }
        Outcome::Failed(e) => {
            ledger.fail(e);
            false
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn open_loop(
    inputs: &ServeInputs,
    plan: &Plan,
    schedule: &[u64],
    addr: &str,
    salt: u32,
    ledger: &mut Ledger,
    pending: &mut Vec<Pending>,
) -> Result<Vec<Sample>, String> {
    let n = plan.kinds.len();
    let mut sender = PipelinedClient::connect(addr, TIMEOUT_MS).map_err(|e| e.to_string())?;
    let mut receiver = sender.try_clone().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let (sent, received) = std::thread::scope(|scope| {
        let send = scope.spawn(|| {
            let mut sent = vec![u64::MAX; n];
            // Each request is built while the sender waits for its slot
            // (misses are new modules; hits borrow the hot payload).
            for k in 0..n {
                let body = payload(inputs, plan.kinds[k], salt);
                let target = Duration::from_micros(schedule[k]);
                let now = start.elapsed();
                if target > now {
                    std::thread::sleep(target - now);
                }
                sent[k] = start.elapsed().as_micros() as u64;
                if sender.send(Op::ReqCompress, k as u32, &body).is_err() {
                    break;
                }
            }
            let _ = sender.finish_sending();
            sent
        });
        let recv = scope.spawn(|| {
            // Each answer is checked as it arrives, so no payload is kept.
            let mut got = Vec::with_capacity(n);
            while got.len() < n {
                match receiver.recv() {
                    Ok(Some(f)) => {
                        let at = start.elapsed().as_micros() as u64;
                        let id = f.request_id as usize;
                        let outcome = match plan.kinds.get(id) {
                            Some(&kind) => classify(inputs, kind, f.op, f.payload),
                            None => Outcome::Failed(format!("answer to unknown request {id}")),
                        };
                        got.push((at, id, outcome));
                    }
                    _ => break,
                }
            }
            got
        });
        (send.join().expect("sender thread"), recv.join().expect("receiver thread"))
    });

    let mut samples: Vec<Sample> = (0..n)
        .map(|k| Sample {
            kind: plan.kinds[k],
            base_ns: 0,
            due_us: schedule[k],
            sent_us: sent[k],
            done_us: None,
            ok: false,
        })
        .collect();
    ledger.attempted += n as u64;
    for (at, id, outcome) in received {
        let ok = settle(outcome, ledger, pending);
        if let Some(s) = samples.get_mut(id) {
            s.done_us = Some(at);
            s.ok = ok;
        }
    }
    let lost = samples.iter().filter(|s| s.done_us.is_none()).count();
    if lost > 0 {
        ledger.fail(format!("{lost} open-loop requests got no response"));
    }
    Ok(samples)
}

/// Closed loop over `conns`, each connection sending its next
/// request when the previous answer arrives, until the plan is used up.
/// Returns one sample per request and the wall time.
fn closed_loop(
    inputs: &ServeInputs,
    plan: &Plan,
    conns: &mut [PipelinedClient],
    salt: u32,
    ledger: &mut Ledger,
    pending: &mut Vec<Pending>,
) -> Result<(Vec<Sample>, f64), String> {
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::new());
    let start = Instant::now();
    let now_us = || start.elapsed().as_micros() as u64;
    std::thread::scope(|scope| {
        for conn in conns.iter_mut() {
            let (next, results) = (&next, &results);
            scope.spawn(move || {
                let mut mine = Vec::new();
                let mut k = next.fetch_add(1, Ordering::Relaxed);
                let mut body = plan.kinds.get(k).map(|&kind| payload(inputs, kind, salt));
                let mut due = now_us();
                while let Some(p) = body.take() {
                    let sent = now_us();
                    if conn.send(Op::ReqCompress, k as u32, &p).is_err() {
                        mine.push((k, due, sent, None));
                        break;
                    }
                    // Build the next request while this one is served.
                    let k2 = next.fetch_add(1, Ordering::Relaxed);
                    body = plan.kinds.get(k2).map(|&kind| payload(inputs, kind, salt));
                    match conn.recv() {
                        Ok(Some(f)) => {
                            let done = now_us();
                            let outcome = if f.request_id as usize == k {
                                classify(inputs, plan.kinds[k], f.op, f.payload)
                            } else {
                                Outcome::Failed(format!("answer {} to request {k}", f.request_id))
                            };
                            mine.push((k, due, sent, Some((done, outcome))));
                            due = done;
                        }
                        _ => {
                            mine.push((k, due, sent, None));
                            break;
                        }
                    }
                    k = k2;
                }
                results.lock().expect("no closed-loop thread panics holding the lock").extend(mine);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    for (k, due, sent, got) in results.into_inner().expect("closed-loop threads joined") {
        ledger.attempted += 1;
        let kind = plan.kinds[k];
        let mut sample =
            Sample { kind, base_ns: 0, due_us: due, sent_us: sent, done_us: None, ok: false };
        match got {
            Some((done, outcome)) => {
                sample.done_us = Some(done);
                sample.ok = settle(outcome, ledger, pending);
            }
            None => ledger.fail(format!("closed loop request {k}: no answer")),
        }
        samples.push(sample);
    }
    let lost = plan.kinds.len() - samples.len();
    if lost > 0 {
        ledger.attempted += lost as u64;
        ledger.fail(format!("{lost} closed-loop requests were never answered"));
    }
    Ok((samples, wall))
}
