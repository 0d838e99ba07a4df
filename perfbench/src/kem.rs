//! The KEM service workloads. `kem_closed` and `kem_mixed` are closed
//! loops, one submitting thread keeping `2 × workers` requests in
//! flight: `kem_closed` against a small server keyring, `kem_mixed`
//! over keys of all three sets that never repeat within a cache's
//! reach. `kem_open` sends `kem_mixed`'s traffic as Poisson arrivals at
//! a fixed offered rate.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use saber_kem::params::{SaberParams, ALL_PARAMS};
use saber_kem::serialize::{ciphertext_to_bytes, public_key_to_bytes, secret_key_to_bytes};
use saber_kem::{decaps, encaps, keygen, Ciphertext, KemSecretKey, PublicKey, SharedSecret};
use saber_ring::mul::SchoolbookMultiplier;
use saber_ring::PolyMultiplier;
use saber_service::{JobHandle, KemService, ServiceConfig, ServiceReport, SubmitError};

use crate::ladder::Case;
use crate::load::{self, ns, LoopStats, Pending, Target};
use crate::schedule::{self, Rng};
use crate::stats::Histogram;
use crate::{Args, Outcome};

/// `kem_open`'s offered rate: about half of what the service sustains
/// on that mix with two workers.
pub const OPEN_RATE_PER_S: f64 = 2000.0;

/// The service's queue capacity: more than a whole segment's arrivals
/// in the open loop, so a slow stretch of the host shows as latency
/// rather than as refused requests. The closed loop never has more than
/// `2 × workers` requests in flight.
pub const QUEUE_CAPACITY: usize = 4096;

/// The parameter sets as `'static` references (the service takes those).
pub static PARAMS: [SaberParams; 3] = ALL_PARAMS;

// Stream tags of the seeded inputs.
const KEY: u64 = 1;
const SEAL: u64 = 2;
const ENTROPY: u64 = 3;
const KIND: u64 = 4;
const PICK: u64 = 5;
const SAMPLE: u64 = 6;
const ARRIVALS: u64 = 7;
const WARM: u64 = 8;

/// About one keygen or encaps in `SAMPLE_EVERY` among the first
/// `SAMPLE_SPAN` requests is recomputed on the schoolbook oracle.
const SAMPLE_EVERY: usize = 128;
const SAMPLE_SPAN: u64 = 4096;

/// Which traffic a KEM workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Saber encaps and decaps 1:1 against a 4-key server keyring.
    Keyring,
    /// keygen:encaps:decaps 1:4:4 over 1024 keys of all three sets.
    Spread,
}

/// A key pair and the seed it was generated from.
pub struct Key {
    params: &'static SaberParams,
    seed: [u8; 32],
    pk: PublicKey,
    sk: KemSecretKey,
}

/// A ciphertext and the shared secret fixed when it was generated.
pub struct Sealed {
    key: usize,
    ct: Ciphertext,
    ss: SharedSecret,
}

/// Everything a KEM workload submits, generated from the seed.
pub struct KemInputs {
    mix: Mix,
    seed: u64,
    keys: Vec<Key>,
    sealed: Vec<Sealed>,
}

/// One planned request.
enum Op<'a> {
    Keygen(&'static SaberParams, [u8; 32]),
    Encaps(&'a Key, [u8; 32]),
    Decaps(&'a Key, &'a Sealed),
}

/// A fresh shard of the engine the service ships with.
pub fn shipped_engine() -> Box<dyn PolyMultiplier + Send> {
    ServiceConfig::default().engine.build()
}

fn keygen_bytes(pk: &PublicKey, sk: &KemSecretKey) -> Vec<u8> {
    [public_key_to_bytes(pk), secret_key_to_bytes(sk)].concat()
}

fn encaps_bytes(ct: &Ciphertext, ss: &SharedSecret, params: &SaberParams) -> Vec<u8> {
    let mut bytes = ciphertext_to_bytes(ct, params);
    bytes.extend_from_slice(ss.as_bytes());
    bytes
}

impl KemInputs {
    /// Generates the keyring and the sealed ciphertexts (outside every
    /// timed window).
    pub fn generate(mix: Mix, seed: u64) -> Self {
        let (keys, sealed) = match mix {
            Mix::Keyring => (4, 64),
            Mix::Spread => (1024, 1024),
        };
        let mut engine = shipped_engine();
        let keys: Vec<Key> = (0..keys)
            .map(|i| {
                let params = match mix {
                    Mix::Keyring => &PARAMS[1],
                    Mix::Spread => &PARAMS[i % 3],
                };
                let seed = Rng::derive(seed, KEY, i as u64).bytes32();
                let (pk, sk) = keygen(params, &seed, engine.as_mut());
                Key {
                    params,
                    seed,
                    pk,
                    sk,
                }
            })
            .collect();
        let sealed = (0..sealed)
            .map(|j| {
                let key = j % keys.len();
                let entropy = Rng::derive(seed, SEAL, j as u64).bytes32();
                let (ct, ss) = encaps(&keys[key].pk, &entropy, engine.as_mut());
                Sealed { key, ct, ss }
            })
            .collect();
        Self {
            mix,
            seed,
            keys,
            sealed,
        }
    }

    /// Recomputes the first keys and sealed ciphertexts on the
    /// schoolbook oracle.
    fn check_reference(&self) -> Result<(), String> {
        let mut oracle = SchoolbookMultiplier;
        for key in self.keys.iter().take(4) {
            let (pk, sk) = keygen(key.params, &key.seed, &mut oracle);
            if keygen_bytes(&pk, &sk) != keygen_bytes(&key.pk, &key.sk) {
                return Err(format!(
                    "{} input key differs from the schoolbook oracle",
                    key.params.name
                ));
            }
        }
        for sealed in self.sealed.iter().take(4) {
            if decaps(&self.keys[sealed.key].sk, &sealed.ct, &mut oracle) != sealed.ss {
                return Err(
                    "an input ciphertext does not open to its secret on the schoolbook oracle"
                        .into(),
                );
            }
        }
        Ok(())
    }

    fn op(&self, id: u64) -> Op<'_> {
        let entropy = Rng::derive(self.seed, ENTROPY, id).bytes32();
        let mut pick = Rng::derive(self.seed, PICK, id);
        match self.mix {
            Mix::Keyring if id.is_multiple_of(2) => {
                Op::Encaps(&self.keys[pick.below(self.keys.len())], entropy)
            }
            Mix::Keyring => {
                let sealed = &self.sealed[pick.below(self.sealed.len())];
                Op::Decaps(&self.keys[sealed.key], sealed)
            }
            Mix::Spread => {
                let slot = schedule::spread(self.seed, id, self.keys.len());
                match Rng::derive(self.seed, KIND, id).below(9) {
                    0 => Op::Keygen(&PARAMS[pick.below(3)], entropy),
                    1..=4 => Op::Encaps(&self.keys[slot], entropy),
                    _ => Op::Decaps(&self.keys[slot], &self.sealed[slot]),
                }
            }
        }
    }

    fn label(&self, id: u64) -> &'static str {
        match self.op(id) {
            Op::Keygen(..) => "keygen",
            Op::Encaps(..) => "encaps",
            Op::Decaps(..) => "decaps",
        }
    }

    fn sampled(&self, id: u64) -> bool {
        id < SAMPLE_SPAN && Rng::derive(self.seed, SAMPLE, id).below(SAMPLE_EVERY) == 0
    }

    /// Recomputes every sampled keygen and encaps output on the
    /// schoolbook oracle.
    fn check_samples(&self, samples: &[(u64, Vec<u8>)]) -> Result<(), String> {
        let mut oracle = SchoolbookMultiplier;
        for (id, got) in samples {
            let want = match self.op(*id) {
                Op::Keygen(params, seed) => {
                    let (pk, sk) = keygen(params, &seed, &mut oracle);
                    keygen_bytes(&pk, &sk)
                }
                Op::Encaps(key, entropy) => {
                    let (ct, ss) = encaps(&key.pk, &entropy, &mut oracle);
                    encaps_bytes(&ct, &ss, key.params)
                }
                Op::Decaps(..) => continue,
            };
            if &want != got {
                return Err(format!(
                    "request {id}: output differs from the schoolbook oracle"
                ));
            }
        }
        Ok(())
    }

    /// Runs request `id` directly on this thread.
    fn run_direct(&self, id: u64, engine: &mut dyn PolyMultiplier) {
        match self.op(id) {
            Op::Keygen(params, seed) => drop(std::hint::black_box(keygen(params, &seed, engine))),
            Op::Encaps(key, e) => drop(std::hint::black_box(encaps(&key.pk, &e, engine))),
            Op::Decaps(key, s) => drop(std::hint::black_box(decaps(&key.sk, &s.ct, engine))),
        }
    }

    /// The first keys (for `kem_open`, two of each set), each with a
    /// ciphertext, for the per-layer timings.
    pub fn cases(&self) -> Vec<Case> {
        (0..self.keys.len().min(6))
            .map(|i| {
                let key = &self.keys[i];
                let sealed = self
                    .sealed
                    .iter()
                    .find(|s| s.key == i)
                    .expect("every key has a sealed ciphertext");
                Case {
                    params: key.params,
                    seed: key.seed,
                    entropy: Rng::derive(self.seed, WARM, i as u64).bytes32(),
                    pk: key.pk.clone(),
                    sk: key.sk.clone(),
                    ct: sealed.ct.clone(),
                }
            })
            .collect()
    }
}

type Samples = Mutex<Vec<(u64, Vec<u8>)>>;

/// The service as a load target.
struct ServiceTarget<'a> {
    service: &'a KemService,
    inputs: &'a KemInputs,
    samples: &'a Samples,
    /// Time inside the service's `submit_*` calls, when tracing.
    submit: Option<&'a mut Histogram>,
}

enum Handle<'a> {
    Keygen(JobHandle<(PublicKey, KemSecretKey)>, &'static SaberParams),
    Encaps(JobHandle<(Ciphertext, SharedSecret)>, &'static SaberParams),
    Decaps(JobHandle<SharedSecret>, &'a SharedSecret),
}

struct KemPending<'a> {
    id: u64,
    handle: Handle<'a>,
    samples: Option<&'a Samples>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let value = f();
    (value, ns(t.elapsed()))
}

impl<'a> Target for ServiceTarget<'a> {
    type Pending = KemPending<'a>;

    fn submit(&mut self, id: u64) -> Option<KemPending<'a>> {
        let (service, inputs) = (self.service, self.inputs);
        // Jobs own their inputs: clone them before the timed submit.
        let (handle, elapsed) = match inputs.op(id) {
            Op::Keygen(params, seed) => timed(|| {
                service
                    .submit_keygen(params, seed)
                    .map(|h| Handle::Keygen(h, params))
            }),
            Op::Encaps(key, entropy) => {
                let pk = key.pk.clone();
                timed(|| {
                    service
                        .submit_encaps(pk, entropy)
                        .map(|h| Handle::Encaps(h, key.params))
                })
            }
            Op::Decaps(key, sealed) => {
                let (sk, ct) = (key.sk.clone(), sealed.ct.clone());
                timed(|| {
                    service
                        .submit_decaps(sk, ct)
                        .map(|h| Handle::Decaps(h, &sealed.ss))
                })
            }
        };
        if let Some(h) = self.submit.as_deref_mut() {
            h.record(elapsed);
        }
        Some(KemPending {
            id,
            handle: handle.ok()?,
            samples: inputs.sampled(id).then_some(self.samples),
        })
    }
}

impl Pending for KemPending<'_> {
    /// Checks every output cheaply as it resolves, keeps the sampled
    /// ones for the oracle, and drops the rest.
    fn wait(self) -> Result<(), String> {
        let sample = match self.handle {
            Handle::Keygen(h, params) => {
                let (pk, sk) = h.wait().map_err(|e| e.to_string())?;
                if pk.params != *params || sk.public_key() != &pk {
                    return Err("keygen returned a mismatched key pair".into());
                }
                self.samples.map(|_| keygen_bytes(&pk, &sk))
            }
            Handle::Encaps(h, params) => {
                let (ct, ss) = h.wait().map_err(|e| e.to_string())?;
                if ct.b_prime.len() != params.rank {
                    return Err("encaps returned a ciphertext of the wrong rank".into());
                }
                self.samples.map(|_| encaps_bytes(&ct, &ss, params))
            }
            Handle::Decaps(h, expected) => {
                if h.wait().map_err(|e| e.to_string())? != *expected {
                    return Err("decaps secret differs from the one fixed at encapsulation".into());
                }
                None
            }
        };
        if let (Some(bytes), Some(samples)) = (sample, self.samples) {
            samples
                .lock()
                .expect("sample list lock")
                .push((self.id, bytes));
        }
        Ok(())
    }
}

fn wait_all<T>(
    handles: impl Iterator<Item = Result<JobHandle<T>, SubmitError>>,
) -> Result<Vec<T>, String> {
    let handles = handles
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("warm-up refused: {e}"))?;
    handles
        .into_iter()
        .map(|h| h.wait().map_err(|e| e.to_string()))
        .collect()
}

/// Starts the service as shipped (only `workers` and `queue_capacity`
/// differ from the default config) and warms it. The timed window runs from `spawn`
/// until the warm-up resolves: `kem_closed` first generates its server
/// keyring through the service, then each op kind is submitted
/// `2 × workers` times at once, so that every worker is offered every
/// kind (the service does not report which worker ran a job).
fn set_up(
    inputs: &KemInputs,
    workers: usize,
    errors: &mut Vec<String>,
) -> Result<(KemService, f64), String> {
    let n = 2 * workers;
    let warm = |i: usize| Rng::derive(inputs.seed, WARM, i as u64).bytes32();
    let start = Instant::now();
    let service = KemService::spawn(&ServiceConfig {
        workers,
        queue_capacity: QUEUE_CAPACITY,
        ..ServiceConfig::default()
    });
    let keygens: Vec<(&'static SaberParams, [u8; 32])> = match inputs.mix {
        Mix::Keyring => inputs.keys.iter().map(|k| (k.params, k.seed)).collect(),
        Mix::Spread => (0..n).map(|i| (&PARAMS[i % 3], warm(i))).collect(),
    };
    let keyring = wait_all(keygens.iter().map(|&(p, s)| service.submit_keygen(p, s)))?;
    wait_all(
        (0..n)
            .map(|i| service.submit_encaps(inputs.keys[i % inputs.keys.len()].pk.clone(), warm(i))),
    )?;
    let opened = wait_all((0..n).map(|i| {
        let s = &inputs.sealed[i % inputs.sealed.len()];
        service.submit_decaps(inputs.keys[s.key].sk.clone(), s.ct.clone())
    }))?;
    let elapsed = start.elapsed().as_secs_f64();
    if inputs.mix == Mix::Keyring
        && keyring
            .iter()
            .zip(&inputs.keys)
            .any(|((pk, sk), k)| keygen_bytes(pk, sk) != keygen_bytes(&k.pk, &k.sk))
    {
        errors.push(
            "the server keyring generated through the service differs from the reference keys"
                .into(),
        );
    }
    if opened
        .iter()
        .enumerate()
        .any(|(i, ss)| *ss != inputs.sealed[i % inputs.sealed.len()].ss)
    {
        errors.push("a warm-up decaps returned the wrong secret".into());
    }
    Ok((service, elapsed))
}

/// One measured stretch of a KEM workload.
pub struct Measured {
    /// The requests of every segment.
    pub stats: LoopStats,
    /// Each segment's set-up time, seconds.
    pub setups: Vec<f64>,
    /// Process CPU seconds while load ran.
    pub cpu_s: f64,
    /// The service's own report at each segment's shutdown.
    pub reports: Vec<ServiceReport>,
    /// Time inside `submit_*` calls (traced stretches only).
    pub submit: Histogram,
    /// Wrong outputs, described.
    pub errors: Vec<String>,
    /// Each segment's raw `[ops per second, p50 ms, p90 ms]` (per
    /// CPU-second in the open loop).
    pub segments: Vec<[f64; 3]>,
    /// Each segment's host speed (see [`crate::speed`]).
    pub speeds: Vec<f64>,
    /// The open loop's arrival windows added up, in seconds at nominal
    /// host speed.
    pub arrival_s: f64,
}

/// Runs `segments` fresh set-ups, each followed by an equal share of
/// `seconds` of load (open or closed loop), then checks the sampled
/// outputs on the oracle. The host speed is read before the first
/// segment and after each; a segment's speed is the geometric mean of
/// the readings on either side. The open loop's rate is set in nominal
/// seconds from the median of the last three readings, so that the
/// service runs at the same utilisation whatever the host's speed and
/// one stray reading does not change the load.
pub fn measure(
    inputs: &KemInputs,
    workers: usize,
    seconds: f64,
    segments: usize,
    open: bool,
    trace: bool,
) -> Result<Measured, String> {
    let samples: Samples = Mutex::new(Vec::new());
    let mut m = Measured {
        stats: LoopStats::default(),
        setups: Vec::new(),
        cpu_s: 0.0,
        reports: Vec::new(),
        submit: Histogram::default(),
        errors: Vec::new(),
        segments: Vec::new(),
        speeds: Vec::new(),
        arrival_s: 0.0,
    };
    let share = Duration::from_secs_f64(seconds / segments as f64);
    let mut readings = vec![crate::speed::reading(workers)];
    for segment in 0..segments {
        let before = readings[readings.len() - 1];
        let pace = crate::stats::median(&readings[readings.len().saturating_sub(3)..]);
        let (service, setup) = set_up(inputs, workers, &mut m.errors)?;
        m.setups.push(setup);
        let mut target = ServiceTarget {
            service: &service,
            inputs,
            samples: &samples,
            submit: trace.then_some(&mut m.submit),
        };
        let first = m.stats.next_id;
        let cpu = crate::cpu_seconds();
        let stats = if open {
            let arrivals = schedule::poisson(
                Rng::derive(inputs.seed, ARRIVALS, segment as u64),
                OPEN_RATE_PER_S * pace,
                share,
            );
            m.arrival_s += share.as_secs_f64() * pace;
            load::open_loop(&mut target, arrivals, share, first, 2 * workers, trace)
        } else {
            load::closed_loop(&mut target, first, 2 * workers, share, trace)
        };
        let cpu = crate::cpu_seconds() - cpu;
        m.cpu_s += cpu;
        m.segments.push([
            if open {
                stats.completed as f64 / cpu
            } else {
                stats.per_s(stats.completed)
            },
            stats.latency.quantile_ms(0.5),
            stats.latency.quantile_ms(0.9),
        ]);
        m.stats.merge(stats);
        m.reports.push(service.shutdown());
        let after = crate::speed::reading(workers);
        readings.push(after);
        m.speeds.push((before * after).sqrt());
    }
    m.errors.extend(m.stats.first_error.clone());
    if let Err(e) = inputs.check_samples(&samples.into_inner().expect("sample list lock")) {
        m.errors.push(e);
    }
    Ok(m)
}

impl Measured {
    /// Folds stretches of the same workload into one.
    fn combine(stretches: Vec<Measured>) -> Measured {
        let mut all = stretches.into_iter();
        let mut m = all.next().expect("at least one stretch");
        for other in all {
            m.stats.merge(other.stats);
            m.setups.extend(other.setups);
            m.cpu_s += other.cpu_s;
            m.reports.extend(other.reports);
            m.submit.merge(&other.submit);
            m.errors.extend(other.errors);
            m.segments.extend(other.segments);
            m.speeds.extend(other.speeds);
            m.arrival_s += other.arrival_s;
        }
        m
    }

    fn engines(&self) -> Vec<String> {
        let mut engines: Vec<String> = self
            .reports
            .iter()
            .flat_map(|r| r.engines.clone())
            .collect();
        engines.sort();
        engines.dedup();
        engines
    }

    fn fold_into(&self, out: &mut Outcome) {
        out.attempted += self.stats.attempted;
        out.failed += self.stats.failed();
        out.errors.extend(self.errors.iter().cloned());
        if out.engines.is_empty() {
            out.engines = self.engines();
        }
    }

    /// The `service` and `loadgen` per-layer metrics of this stretch.
    pub fn service_metrics(&self, out: &mut Outcome) {
        let sum = |f: fn(&ServiceReport) -> u64| self.reports.iter().map(f).sum::<u64>() as f64;
        out.metric(
            "service.submit_us",
            self.submit.quantile_ns(0.5) / 1e3,
            "us",
        );
        out.metric("service.rejected", sum(|r| r.rejected), "count");
        out.metric("service.steal_hits", sum(|r| r.steal_hits), "count");
        let high_water = self
            .reports
            .iter()
            .map(|r| r.queue_high_water)
            .max()
            .unwrap_or(0);
        out.metric("service.queue_high_water", high_water as f64, "count");
        out.metric(
            "loadgen.late_p99_ms",
            self.stats.late.quantile_ms(0.99),
            "ms",
        );
        // The open loop's rate is set in nominal seconds; a closed loop
        // offers what it completes.
        let offered = if self.arrival_s > 0.0 {
            self.stats.attempted as f64 / self.arrival_s
        } else {
            self.stats.per_s(self.stats.attempted)
        };
        out.metric("loadgen.offered_per_s", offered, "1/s");
    }
}

/// `service.excess_us`: the closed-loop p50 through the service minus
/// the p50 of the same requests called directly on one thread.
pub fn service_excess_us(
    inputs: &KemInputs,
    workers: usize,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let probe = measure(inputs, workers, seconds, 1, false, false)?;
    out.errors.extend(probe.errors.iter().cloned());
    let mut engine = shipped_engine();
    let mut direct = Histogram::default();
    for id in 0..probe.stats.attempted.min(2000) {
        let t = Instant::now();
        inputs.run_direct(id, engine.as_mut());
        direct.record(ns(t.elapsed()));
    }
    let through = probe.stats.latency.quantile_ns(0.5);
    println!(
        "service probe (closed loop, {} in flight): p50 {:.1} µs through the service vs {:.1} µs direct ({} requests)",
        2 * workers,
        through / 1e3,
        direct.quantile_ns(0.5) / 1e3,
        direct.count()
    );
    out.metric(
        "service.excess_us",
        (through - direct.quantile_ns(0.5)) / 1e3,
        "us",
    );
    Ok(())
}

/// Runs the traffic `mix` as a closed loop (`kem_closed`, `kem_mixed`)
/// or, with `open`, as an open loop (`kem_open`).
pub fn run(mix: Mix, open: bool, args: &Args, out: &mut Outcome) -> Result<(), String> {
    let workers = crate::nproc();
    let t = Instant::now();
    let inputs = KemInputs::generate(mix, args.seed);
    let input_gen_s = t.elapsed().as_secs_f64();
    println!(
        "input generation: {input_gen_s:.3} s for {} keys and {} sealed ciphertexts (outside every timed window)",
        inputs.keys.len(),
        inputs.sealed.len()
    );
    if let Err(e) = inputs.check_reference() {
        out.errors.push(e);
    }
    let shape = if open {
        format!(
            "open loop, Poisson arrivals at {OPEN_RATE_PER_S}/s, {} waiter threads",
            2 * workers
        )
    } else {
        format!(
            "closed loop, {} requests in flight from one thread",
            2 * workers
        )
    };
    println!("shape: {shape}; {workers} workers");
    // An unmeasured stretch of the same load first, so that the
    // allocator, the caches and the host's scheduler settle.
    let warm = measure(&inputs, workers, crate::WARM_UP_S, 4, open, false)?;
    out.errors.extend(warm.errors);

    if !args.trace {
        let segments = crate::segments(args.seconds);
        let m = measure(&inputs, workers, args.seconds, segments, open, false)?;
        m.fold_into(out);
        println!(
            "latency from {}: {}",
            if open {
                "scheduled arrival"
            } else {
                "the freeing of the request's slot"
            },
            m.stats.latency.summary()
        );
        println!(
            "attempted {}, completed {}, refused (QueueFull) {}, wrong {}; window {:.3} s; {:.1} completed/s; {:.3} CPU s",
            m.stats.attempted,
            m.stats.completed,
            m.stats.refused,
            m.stats.wrong,
            m.stats.window.as_secs_f64(),
            m.stats.per_s(m.stats.completed),
            m.cpu_s
        );
        if open {
            println!(
                "offered over the arrival windows: {:.1}/s in wall-clock seconds, {:.1}/s in nominal seconds \
                 (configured {OPEN_RATE_PER_S}/s at nominal speed); generator lateness: {}",
                m.stats.per_s(m.stats.attempted),
                m.stats.attempted as f64 / m.arrival_s,
                m.stats.late.summary()
            );
        }
        // The open loop's wall-clock throughput is its offered rate, so
        // it reports work per CPU-second instead.
        crate::speed::report(&m.speeds);
        let figures = crate::over_segments(
            [if open { "ops/CPU-s" } else { "ops/s" }, "p50 ms", "p90 ms"],
            &m.segments,
            &crate::at_nominal_speed(&m.segments, &m.speeds),
        );
        out.metric("setup_s", crate::setup_median(&m.setups, &m.speeds), "s");
        out.metric("rss_mb", crate::peak_rss_mib(), "MiB");
        out.metric("ops_per_s", figures[0], "1/s");
        out.metric("p50_ms", figures[1], "ms");
        out.metric("p90_ms", figures[2], "ms");
        return Ok(());
    }

    // Untraced and traced stretches alternate, so that drift on the host
    // falls on both sides of the overhead ratio.
    let phase = args.seconds / (2 * crate::TRACE_ROUNDS) as f64;
    const KINDS: [&str; 3] = ["keygen", "encaps", "decaps"];
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    // Per op kind: executions in the service's own spans, and their total time.
    let mut program = [(0u64, 0u64); 3];
    for _ in 0..crate::TRACE_ROUNDS {
        plain.push(measure(&inputs, workers, phase, 1, open, false)?);
        let session = saber_trace::start();
        traced.push(measure(&inputs, workers, phase, 1, open, true)?);
        let trace = session.finish();
        for (kind, tally) in KINDS.iter().zip(program.iter_mut()) {
            for event in trace.spans_named(kind) {
                if let saber_trace::EventKind::Span { dur_ns, .. } = event.kind {
                    *tally = (tally.0 + 1, tally.1 + dur_ns);
                }
            }
        }
    }
    let plan = &inputs;
    let rows: Vec<String> = traced
        .iter()
        .enumerate()
        .flat_map(|(round, m)| {
            m.stats.spans.iter().map(move |s| {
                format!(
                    "{{\"round\":{round},\"id\":{},\"op\":\"{}\",\"due_ns\":{},\"submit_ns\":{},\"done_ns\":{}}}",
                    s.id,
                    plan.label(s.id),
                    s.due_ns,
                    s.submit_ns,
                    s.done_ns
                )
            })
        })
        .collect();
    crate::write_spans(&args.workload, args.seed, rows.into_iter())?;
    let (plain, traced) = (Measured::combine(plain), Measured::combine(traced));
    plain.fold_into(out);
    traced.fold_into(out);
    let cost = |m: &Measured| {
        let [ops_per_s, p50_ms, _] =
            crate::medians(&crate::at_nominal_speed(&m.segments, &m.speeds));
        if open {
            p50_ms * 1e6
        } else {
            1.0 / ops_per_s
        }
    };
    println!(
        "tracing overhead: {:.6e} untraced vs {:.6e} traced ({} at nominal speed, median over stretches)",
        cost(&plain),
        cost(&traced),
        if open {
            "p50 ns"
        } else {
            "seconds per completed request"
        }
    );
    out.metric(
        "trace.overhead_frac",
        cost(&traced) / cost(&plain) - 1.0,
        "frac",
    );
    traced.service_metrics(out);
    for (kind, (executions, total_ns)) in KINDS.iter().zip(program) {
        let ours = traced
            .stats
            .spans
            .iter()
            .filter(|s| inputs.label(s.id) == *kind)
            .count();
        println!(
            "cross-check: {ours} {kind} requests resolved in the traced stretches; the service's own spans: \
             {executions} {kind} executions (set-up included), mean {:.1} µs",
            total_ns as f64 / executions.max(1) as f64 / 1e3
        );
    }
    service_excess_us(&inputs, workers, 0.5, out)?;
    crate::ladder::software(&inputs.cases(), crate::layer_budget(args), out);
    let sim = crate::sim::SimInputs::generate(args.seed)?;
    crate::sim::ladder(&sim, crate::layer_budget(args), out)
}
