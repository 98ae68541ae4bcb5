//! Seeded inputs: keys, values, op streams, and the model that knows what
//! every GET must return.
//!
//! The generator is the benchmark's own (SplitMix64), not the repo's `rand`
//! stand-in, so the same `--seed` yields the same bytes whatever happens to
//! the code under test.

pub const KEY_SIZE: usize = 16;

/// SplitMix64 (Steele, Lea & Flood).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`, 53 bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The 16 key bytes of key number `idx`: the number, then a hash of it so
/// that neighbouring keys do not differ in one byte only. The key space is
/// the same for every seed — it is stationary by design.
pub fn key_bytes(idx: u32) -> [u8; KEY_SIZE] {
    let mut k = [0u8; KEY_SIZE];
    k[..8].copy_from_slice(&u64::from(idx).to_be_bytes());
    k[8..].copy_from_slice(&mix(u64::from(idx) ^ 0x6b65_7973).to_le_bytes());
    k
}

/// Distance between successive words of a value.
const STEP: u64 = 0x9E37_79B9_7F4A_7C15;

/// First word of the value that `version` of key `idx` holds under `seed`.
fn value_word(seed: u64, idx: u32, version: u32) -> u64 {
    mix(seed ^ (u64::from(idx) << 32 | u64::from(version)))
}

/// Overwrite `buf` with the `len` value bytes of (`seed`, `idx`,
/// `version`): little-endian words `w, w + s, w + 2s, …`. Cheap enough to
/// regenerate inside a timed loop, and every byte depends on all three
/// inputs.
pub fn fill_value(buf: &mut Vec<u8>, len: usize, seed: u64, idx: u32, version: u32) {
    buf.clear();
    let mut w = value_word(seed, idx, version);
    while buf.len() + 8 <= len {
        buf.extend_from_slice(&w.to_le_bytes());
        w = w.wrapping_add(STEP);
    }
    let tail = len - buf.len();
    buf.extend_from_slice(&w.to_le_bytes()[..tail]);
}

/// Whether `got` is exactly the value of (`seed`, `idx`, `version`).
pub fn value_matches(got: &[u8], len: usize, seed: u64, idx: u32, version: u32) -> bool {
    if got.len() != len {
        return false;
    }
    let mut w = value_word(seed, idx, version);
    let mut chunks = got.chunks_exact(8);
    for c in &mut chunks {
        if c != w.to_le_bytes() {
            return false;
        }
        w = w.wrapping_add(STEP);
    }
    let tail = chunks.remainder();
    tail == &w.to_le_bytes()[..tail.len()]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get,
    Put,
}

/// One operation of a stream: what to do, to which key number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: Kind,
    pub key: u32,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    Uniform,
    /// YCSB's zipfian with this exponent; rank 0 is the hottest.
    Zipf(f64),
}

/// Draws key numbers for one connection. Connection `conn` of `conns` owns
/// the keys ≡ `conn` (mod `conns`), so no two connections ever write the
/// same key and each one's model is exact.
#[derive(Debug, Clone)]
pub struct KeyPicker {
    conn: u32,
    conns: u32,
    /// Keys this connection owns.
    owned: u32,
    zipf: Option<Zipf>,
}

#[derive(Debug, Clone)]
struct Zipf {
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

/// Multiplier that scatters zipf ranks over the owned keys, so the hot keys
/// are not neighbours. A prime, hence coprime to any smaller key count.
const SCATTER: u64 = 2_654_435_761;

impl KeyPicker {
    pub fn new(keys: u32, conn: u32, conns: u32, dist: Dist) -> KeyPicker {
        assert!(conn < conns && conns <= keys);
        // Keys conn, conn + conns, … below `keys`.
        let owned = (keys - conn).div_ceil(conns);
        let zipf = match dist {
            Dist::Uniform => None,
            Dist::Zipf(theta) => {
                assert!(u64::from(owned) < SCATTER && owned >= 2);
                let n = f64::from(owned);
                let zetan: f64 = (1..=owned).map(|i| f64::from(i).powf(-theta)).sum();
                let zeta2 = 1.0 + 0.5f64.powf(theta);
                Some(Zipf {
                    theta,
                    zetan,
                    alpha: 1.0 / (1.0 - theta),
                    eta: (1.0 - (2.0 / n).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
                })
            }
        };
        KeyPicker {
            conn,
            conns,
            owned,
            zipf,
        }
    }

    pub fn pick(&self, rng: &mut SplitMix64) -> u32 {
        let local = match &self.zipf {
            None => (rng.next_u64() % u64::from(self.owned)) as u32,
            Some(z) => {
                let u = rng.next_f64();
                let uz = u * z.zetan;
                let rank = if uz < 1.0 {
                    0
                } else if uz < 1.0 + 0.5f64.powf(z.theta) {
                    1
                } else {
                    let r = f64::from(self.owned) * (z.eta * u - z.eta + 1.0).powf(z.alpha);
                    (r as u32).min(self.owned - 1)
                };
                (u64::from(rank) * SCATTER % u64::from(self.owned)) as u32
            }
        };
        local * self.conns + self.conn
    }
}

/// The seeded op stream of one connection for one round: `ops` operations,
/// `get_pct` % of them GETs.
pub fn stream(
    picker: &KeyPicker,
    get_pct: u32,
    ops: usize,
    seed: u64,
    conn: u32,
    round: u32,
) -> Vec<Op> {
    let mut rng = SplitMix64::new(mix(seed) ^ mix(u64::from(conn) << 32 | u64::from(round)));
    (0..ops)
        .map(|_| {
            let kind = if rng.next_u64() % 100 < u64::from(get_pct) {
                Kind::Get
            } else {
                Kind::Put
            };
            Op {
                kind,
                key: picker.pick(&mut rng),
            }
        })
        .collect()
}

/// What the store must hold: the current version of every key. Version 0 is
/// the preload; each PUT writes the next one.
#[derive(Debug, Clone)]
pub struct Model {
    pub seed: u64,
    pub value_len: usize,
    versions: Vec<u32>,
}

impl Model {
    pub fn preloaded(keys: u32, value_len: usize, seed: u64) -> Model {
        Model {
            seed,
            value_len,
            versions: vec![0; keys as usize],
        }
    }

    pub fn keys(&self) -> u32 {
        self.versions.len() as u32
    }

    pub fn version(&self, key: u32) -> u32 {
        self.versions[key as usize]
    }

    /// Fill `buf` with the next version of `key` and record that it is now
    /// the current one.
    pub fn next_value(&mut self, key: u32, buf: &mut Vec<u8>) {
        let v = &mut self.versions[key as usize];
        *v += 1;
        fill_value(buf, self.value_len, self.seed, key, *v);
    }

    /// Fill `buf` with the current value of `key`.
    pub fn current_value(&self, key: u32, buf: &mut Vec<u8>) {
        fill_value(buf, self.value_len, self.seed, key, self.version(key));
    }

    /// Whether `got` is the current value of `key`.
    pub fn holds(&self, key: u32, got: &[u8]) -> bool {
        value_matches(got, self.value_len, self.seed, key, self.version(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        for dist in [Dist::Uniform, Dist::Zipf(0.99)] {
            let p = KeyPicker::new(50_000, 1, 2, dist);
            let a = stream(&p, 10, 20_000, 7, 1, 3);
            let b = stream(&p, 10, 20_000, 7, 1, 3);
            assert_eq!(a, b, "{dist:?}: same seed, same stream");
            assert_ne!(a, stream(&p, 10, 20_000, 8, 1, 3), "{dist:?}: other seed");
            assert_ne!(a, stream(&p, 10, 20_000, 7, 1, 4), "{dist:?}: other round");
            assert_ne!(a, stream(&p, 10, 20_000, 7, 0, 3), "{dist:?}: other conn");
        }
    }

    #[test]
    fn a_connection_only_touches_the_keys_it_owns() {
        for dist in [Dist::Uniform, Dist::Zipf(0.99)] {
            for (keys, conns) in [(50_000, 2), (1001, 2), (10, 3)] {
                for conn in 0..conns {
                    let p = KeyPicker::new(keys, conn, conns, dist);
                    for op in stream(&p, 50, 5_000, 1, conn, 0) {
                        assert!(op.key < keys);
                        assert_eq!(op.key % conns, conn);
                    }
                }
            }
        }
    }

    #[test]
    fn the_mix_follows_get_pct() {
        let p = KeyPicker::new(1000, 0, 1, Dist::Uniform);
        let s = stream(&p, 95, 100_000, 42, 0, 0);
        let gets = s.iter().filter(|o| o.kind == Kind::Get).count();
        assert!((94_000..96_000).contains(&gets), "{gets}");
    }

    #[test]
    fn zipf_is_skewed_and_uniform_is_not() {
        let share_of_top_1pct = |dist| {
            let p = KeyPicker::new(50_000, 0, 1, dist);
            let mut hits = vec![0u32; 50_000];
            for op in stream(&p, 0, 200_000, 3, 0, 0) {
                hits[op.key as usize] += 1;
            }
            hits.sort_unstable_by(|a, b| b.cmp(a));
            f64::from(hits[..500].iter().sum::<u32>()) / 200_000.0
        };
        assert!(share_of_top_1pct(Dist::Zipf(0.99)) > 0.5);
        assert!(share_of_top_1pct(Dist::Uniform) < 0.05);
    }

    #[test]
    fn values_verify_and_every_input_matters() {
        let mut buf = Vec::new();
        for len in [0, 1, 7, 8, 100, 1024] {
            fill_value(&mut buf, len, 5, 17, 2);
            assert_eq!(buf.len(), len);
            assert!(value_matches(&buf, len, 5, 17, 2));
            if len > 0 {
                assert!(!value_matches(&buf, len, 6, 17, 2));
                assert!(!value_matches(&buf, len, 5, 18, 2));
                assert!(!value_matches(&buf, len, 5, 17, 3));
                assert!(!value_matches(&buf[..len - 1], len, 5, 17, 2));
                let last = buf.len() - 1;
                buf[last] ^= 1;
                assert!(!value_matches(&buf, len, 5, 17, 2));
            }
        }
    }

    #[test]
    fn the_model_tracks_versions() {
        let mut m = Model::preloaded(10, 100, 9);
        let mut v0 = Vec::new();
        m.current_value(3, &mut v0);
        assert!(m.holds(3, &v0));
        let mut v1 = Vec::new();
        m.next_value(3, &mut v1);
        assert_eq!(m.version(3), 1);
        assert!(m.holds(3, &v1));
        assert!(!m.holds(3, &v0));
        assert!(m.holds(4, &{
            let mut b = Vec::new();
            m.current_value(4, &mut b);
            b
        }));
    }

    #[test]
    fn keys_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..100_000 {
            assert!(seen.insert(key_bytes(i)));
        }
    }
}
