//! Seeded workload input and the result oracle.
//!
//! Everything the cluster receives comes from here: every batch is a
//! pure function of `(seed, cycle, producer, batch index)`, so one seed
//! always sends byte-identical input. The [`Oracle`] folds the batches
//! the gate acknowledged into the `(sum, count)` the `chain3` sink must
//! end with.

use ms_wire::apps::KEY_STRIDE;

/// Producer connections the benchmark holds (ids `1..=PRODUCERS`).
pub const PRODUCERS: u64 = 2;
/// Gate key space, and the keyed interior's state key space.
pub const KEYS: u64 = 65_536;
/// Events per timed batch.
pub const BATCH_EVENTS: usize = 64;
/// Events per prefill batch (prefill is untimed, so batches are large).
pub const PREFILL_BATCH_EVENTS: usize = 512;
/// Offered load of `ingest`, events per second.
pub const INGEST_EPS: f64 = 50_000.0;
/// Offered load of `keyed` and `recover`, events per second.
pub const KEYED_EPS: f64 = 20_000.0;
/// Ingest values are drawn from `1..=INGEST_VALUE_MAX`.
const INGEST_VALUE_MAX: u64 = 1_000;
/// Keyed values span this many key strides per key, so `(v / 8) % KEYS`
/// is uniform over the key space.
const KEYED_VALUE_WRAPS: u64 = 16;

/// The three benchmark workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Open loop at [`INGEST_EPS`], stateless `Doubler` interior, gate
    /// pre-aggregation on.
    Ingest,
    /// Open loop at [`KEYED_EPS`], `KeyedStat` interior over [`KEYS`].
    Keyed,
    /// [`Workload::Keyed`] plus a SIGKILL of the gate host mid-stream.
    Recover,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ingest" => Some(Workload::Ingest),
            "keyed" => Some(Workload::Keyed),
            "recover" => Some(Workload::Recover),
            _ => None,
        }
    }

    /// The workload's name as the command line spells it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Keyed => "keyed",
            Workload::Recover => "recover",
        }
    }

    /// Whether the gate folds each batch per key.
    pub fn preagg(self) -> bool {
        self == Workload::Ingest
    }

    /// The interior's keyed state size (`--keyed-state`; 0 = `Doubler`).
    pub fn keyed_state(self) -> u64 {
        match self {
            Workload::Ingest => 0,
            Workload::Keyed | Workload::Recover => KEYS,
        }
    }

    /// Offered load, events per second (every workload is open loop).
    pub fn rate_eps(self) -> f64 {
        match self {
            Workload::Ingest => INGEST_EPS,
            Workload::Keyed | Workload::Recover => KEYED_EPS,
        }
    }

    /// Whether an untimed prefill touches every state key first.
    pub fn prefills(self) -> bool {
        self.keyed_state() > 0
    }

    /// Whether the gate host is SIGKILLed mid-stream.
    pub fn kills(self) -> bool {
        self == Workload::Recover
    }
}

/// splitmix64: a tiny, seedable, statistically solid generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2^-40 here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(1) over `0..n`, sampled by inverse CDF.
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution `P(k) ∝ 1 / (k + 1)` over `0..n`.
    pub fn new(n: u64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One key.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1) as u64
    }
}

/// One producer's timed batch stream within one cycle of a run.
pub struct BatchGen {
    rng: Rng,
    zipf: Option<Zipf>,
}

impl BatchGen {
    /// The stream of producer `producer` (1-based) in cycle `cycle`.
    pub fn new(workload: Workload, seed: u64, cycle: u64, producer: u64) -> BatchGen {
        let mut mix = Rng::new(seed ^ 0x6d73_2d62_656e_6368);
        let stream = mix.next_u64() ^ cycle.wrapping_mul(0x9e37_79b9) ^ (producer << 48);
        BatchGen {
            rng: Rng::new(stream),
            zipf: (workload == Workload::Ingest).then(|| Zipf::new(KEYS)),
        }
    }

    /// The next batch of `(key, value)` events.
    pub fn next_batch(&mut self) -> Vec<(u64, i64)> {
        (0..BATCH_EVENTS)
            .map(|_| match &self.zipf {
                Some(z) => {
                    let k = z.sample(&mut self.rng);
                    (k, 1 + self.rng.below(INGEST_VALUE_MAX) as i64)
                }
                None => {
                    let v = self.rng.below(KEY_STRIDE * KEYS * KEYED_VALUE_WRAPS);
                    ((v / KEY_STRIDE) % KEYS, v as i64)
                }
            })
            .collect()
    }
}

/// The untimed prefill of producer `producer` (1-based): every state
/// key congruent to `producer - 1` modulo [`PRODUCERS`], once each, so
/// both producers together touch every key exactly once.
pub fn prefill_batches(producer: u64) -> Vec<Vec<(u64, i64)>> {
    let keys: Vec<u64> = (0..KEYS)
        .filter(|k| k % PRODUCERS == producer - 1)
        .collect();
    keys.chunks(PREFILL_BATCH_EVENTS)
        .map(|chunk| {
            chunk
                .iter()
                .map(|&k| (k, (k * KEY_STRIDE) as i64))
                .collect()
        })
        .collect()
}

/// The sink `(sum, count)` the acknowledged batches imply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Oracle {
    /// Expected sink sum.
    pub sum: i64,
    /// Expected sink tuple count.
    pub count: u64,
}

impl Oracle {
    /// Folds one acknowledged batch in. The single interior doubles
    /// every value; with pre-aggregation the gate emits one tuple per
    /// distinct key of the batch, otherwise one per event.
    pub fn add_batch(&mut self, events: &[(u64, i64)], preagg: bool) {
        self.sum += 2 * events.iter().map(|&(_, v)| v).sum::<i64>();
        self.count += if preagg {
            distinct_keys(events)
        } else {
            events.len() as u64
        };
    }

    /// Adds another oracle's totals.
    pub fn merge(&mut self, other: Oracle) {
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// Distinct keys in a batch.
pub fn distinct_keys(events: &[(u64, i64)]) -> u64 {
    let mut keys: Vec<u64> = events.iter().map(|&(k, _)| k).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_core::gate::GateMsg;

    /// The first `n` batches of every producer, as the bytes sent.
    fn wire_bytes(workload: Workload, seed: u64, n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for p in 1..=PRODUCERS {
            let mut g = BatchGen::new(workload, seed, 0, p);
            for b in 1..=n as u64 {
                let msg = GateMsg::Batch {
                    batch: b,
                    events: g.next_batch(),
                };
                out.extend(msg.encode());
            }
        }
        out
    }

    #[test]
    fn one_seed_gives_byte_identical_batches_and_another_differs() {
        for w in [Workload::Ingest, Workload::Keyed, Workload::Recover] {
            assert_eq!(wire_bytes(w, 7, 50), wire_bytes(w, 7, 50));
            assert_ne!(wire_bytes(w, 7, 50), wire_bytes(w, 8, 50));
        }
    }

    #[test]
    fn producers_and_cycles_get_distinct_streams() {
        let a = BatchGen::new(Workload::Keyed, 1, 0, 1).next_batch();
        let b = BatchGen::new(Workload::Keyed, 1, 0, 2).next_batch();
        let c = BatchGen::new(Workload::Keyed, 1, 1, 1).next_batch();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn prefill_touches_every_key_once() {
        let mut seen = vec![0u8; KEYS as usize];
        for p in 1..=PRODUCERS {
            for batch in prefill_batches(p) {
                for (k, v) in batch {
                    assert_eq!((v as u64 / KEY_STRIDE) % KEYS, k);
                    seen[k as usize] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&n| n == 1));
    }

    #[test]
    fn keyed_values_pick_their_state_key() {
        let mut g = BatchGen::new(Workload::Keyed, 3, 0, 1);
        for (k, v) in g.next_batch() {
            assert_eq!((v as u64 / KEY_STRIDE) % KEYS, k);
        }
    }

    #[test]
    fn zipf_is_skewed_toward_low_keys() {
        let z = Zipf::new(KEYS);
        let mut rng = Rng::new(11);
        let hits = (0..10_000).filter(|_| z.sample(&mut rng) == 0).count();
        // P(0) = 1 / H(65536) ≈ 0.085.
        assert!((700..1_000).contains(&hits), "key 0 drawn {hits} times");
    }

    #[test]
    fn oracle_counts_distinct_keys_under_preagg() {
        let mut o = Oracle::default();
        o.add_batch(&[(1, 5), (1, 6), (2, 7)], true);
        assert_eq!(o, Oracle { sum: 36, count: 2 });
        o.add_batch(&[(1, 1), (1, 1)], false);
        assert_eq!(o, Oracle { sum: 40, count: 4 });
    }
}
