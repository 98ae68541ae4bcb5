//! Shared harness utilities for the table/figure regeneration binaries.
//!
//! Every binary prints the same rows/series the paper reports; see
//! `EXPERIMENTS.md` at the workspace root for the recorded paper-vs-measured
//! comparison. Each binary accepts `--quick` (tiny sizes for smoke runs)
//! and simple `--key value` overrides, declared once per binary ([`Args`]):
//! `--help` prints them, and anything else refuses to run.

use std::sync::Arc;
use std::time::Instant;

use spp_core::{PmdkPolicy, SppPolicy, TagConfig};
use spp_pm::{LatencyModel, PmPool, PoolConfig};
use spp_pmdk::{ObjPool, PoolOpts};
use spp_safepm::SafePmPolicy;

/// The three benchmarking variants of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Native PMDK.
    Pmdk,
    /// SafePM shadow memory.
    SafePm,
    /// Safe persistent pointers.
    Spp,
}

impl Variant {
    /// Figure order: baseline first.
    pub const ALL: [Variant; 3] = [Variant::Pmdk, Variant::SafePm, Variant::Spp];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Pmdk => "PMDK",
            Variant::SafePm => "SafePM",
            Variant::Spp => "SPP",
        }
    }
}

/// Create a fresh device + object pool.
pub fn fresh_pool(bytes: u64, lanes: usize) -> Arc<ObjPool> {
    let pm = Arc::new(PmPool::new(PoolConfig::new(bytes).record_stats(false)));
    Arc::new(ObjPool::create(pm, PoolOpts::new().lanes(lanes)).expect("pool create"))
}

/// Create a fresh pool backed by a device whose fences pay an *overlappable*
/// wall-clock wait to drain the flushes before them
/// ([`LatencyModel::device_wait`]) — the substrate for the
/// thread-scaling rows. The wait starts **disabled** so preloading runs at
/// DRAM speed; call `pool.pm().set_latency_enabled(true)` around the timed
/// region.
pub fn fresh_scaling_pool(bytes: u64, lanes: usize, flush_wait_ns: u32) -> Arc<ObjPool> {
    let pm = Arc::new(PmPool::new(
        PoolConfig::new(bytes)
            .record_stats(false)
            .latency(LatencyModel::device_wait(flush_wait_ns)),
    ));
    pm.set_latency_enabled(false);
    Arc::new(ObjPool::create(pm, PoolOpts::new().lanes(lanes)).expect("pool create"))
}

/// Create a pool mapped low (for wide-tag configurations like Phoenix's).
pub fn fresh_low_pool(bytes: u64, lanes: usize) -> Arc<ObjPool> {
    let pm = Arc::new(PmPool::new(
        PoolConfig::new(bytes).base(0x10000).record_stats(false),
    ));
    Arc::new(ObjPool::create(pm, PoolOpts::new().lanes(lanes)).expect("pool create"))
}

/// Build the native policy.
pub fn pmdk_policy(pool: Arc<ObjPool>) -> Arc<PmdkPolicy> {
    Arc::new(PmdkPolicy::new(pool))
}

/// Build the SPP policy (26 tag bits unless overridden). A pool mapping
/// that extends past the requested encoding's address range narrows the
/// tag via [`TagConfig::fitting`] instead of failing: large benchmark
/// pools trade maximum object size for reach while keeping the SPP+T
/// generation field (spatial-only configs like Phoenix's are used as
/// given).
pub fn spp_policy(pool: Arc<ObjPool>, cfg: TagConfig) -> Arc<SppPolicy> {
    let end_va = pool.pm().base() + pool.pm().size();
    let cfg = if end_va > cfg.max_va() && cfg.gen_bits() > 0 {
        TagConfig::fitting(end_va).expect("pool beyond any tag encoding")
    } else {
        cfg
    };
    Arc::new(SppPolicy::new(pool, cfg).expect("spp policy"))
}

/// Build the SafePM policy (allocates the shadow).
pub fn safepm_policy(pool: Arc<ObjPool>) -> Arc<SafePmPolicy> {
    Arc::new(SafePmPolicy::create(pool).expect("safepm policy"))
}

/// Touch every page of the device so first-touch page faults of the
/// simulated media do not pollute measurements.
pub fn warm_pool(pool: &Arc<ObjPool>) {
    let size = pool.pm().size();
    let chunk = vec![0u8; 1 << 20];
    let mut off = pool.heap_off();
    while off < size {
        let n = ((size - off) as usize).min(chunk.len());
        // Writing zeros over the (still zero) heap dirties the pages for
        // real — read faults would only map the shared zero page.
        pool.write(off, &chunk[..n]).expect("warm write");
        off += n as u64;
    }
}

/// Time a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Slowdown of `t` relative to `baseline` (1.0 = parity).
pub fn slowdown(t: f64, baseline: f64) -> f64 {
    if baseline > 0.0 {
        t / baseline
    } else {
        f64::NAN
    }
}

/// One option a binary reads: a bare `--name` flag, or `--name VALUE`
/// whose value must parse as the type the binary reads it as.
#[derive(Debug, Clone, Copy)]
pub struct Opt {
    name: &'static str,
    /// For a valued option: its type's name and the check its value passes.
    value: Option<(&'static str, Parses)>,
}

/// Whether a value parses as an option's type.
type Parses = fn(&str) -> bool;

impl Opt {
    /// The bare flag `--name`.
    pub const fn flag(name: &'static str) -> Opt {
        Opt { name, value: None }
    }

    /// `--name VALUE`, read with [`Args::get::<T>`](Args::get).
    pub fn value<T: std::str::FromStr>(name: &'static str) -> Opt {
        fn parses<T: std::str::FromStr>(v: &str) -> bool {
            v.parse::<T>().is_ok()
        }
        Opt {
            name,
            value: Some((std::any::type_name::<T>(), parses::<T>)),
        }
    }

    fn type_name(&self) -> Option<&'static str> {
        self.value.map(|(t, _)| t)
    }
}

/// Why `Args::try_parse` did not return arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ArgsError {
    /// `--help` or `-h`: print the usage and exit 0.
    Help,
    /// An unknown option, a missing value or one that does not parse.
    Bad(String),
}

/// `--key value` / `--flag` arguments, checked against the options the
/// binary declares, so a mistyped flag or value refuses to run instead of
/// running the defaults.
#[derive(Debug, Clone)]
pub struct Args {
    /// Each option passed, in order, with its value if it takes one.
    given: Vec<(&'static str, Option<String>)>,
    opts: Vec<Opt>,
}

impl Args {
    /// Parse the process arguments against `opts`. On `--help`/`-h` prints
    /// the usage and exits 0; on an unknown option or a bad value
    /// prints the reason and the usage to stderr and exits 2 — before the
    /// binary does any work or writes any file.
    pub fn parse(opts: &[Opt]) -> Self {
        match Self::try_parse(std::env::args().skip(1), opts) {
            Ok(args) => args,
            Err(ArgsError::Help) => {
                println!("{}", usage(opts));
                std::process::exit(0)
            }
            Err(ArgsError::Bad(why)) => {
                eprintln!("error: {why}\n{}", usage(opts));
                std::process::exit(2)
            }
        }
    }

    /// Check `argv` (without the program name) against `opts`: every token
    /// must be a declared `--name`, and a valued option's next token must
    /// parse as its type.
    fn try_parse(argv: impl IntoIterator<Item = String>, opts: &[Opt]) -> Result<Self, ArgsError> {
        let mut given = Vec::new();
        let mut it = argv.into_iter();
        while let Some(a) = it.next() {
            if a == "--help" || a == "-h" {
                return Err(ArgsError::Help);
            }
            let opt = a
                .strip_prefix("--")
                .and_then(|name| opts.iter().find(|o| o.name == name))
                .ok_or_else(|| ArgsError::Bad(format!("unknown argument {a:?}")))?;
            let value = match opt.value {
                None => None,
                Some((ty, parses)) => {
                    let v = it
                        .next()
                        .ok_or_else(|| ArgsError::Bad(format!("{a} needs a value")))?;
                    if !parses(&v) {
                        return Err(ArgsError::Bad(format!("{a} {v:?}: not a {}", short(ty))));
                    }
                    Some(v)
                }
            };
            given.push((opt.name, value));
        }
        Ok(Args {
            given,
            opts: opts.to_vec(),
        })
    }

    fn declared(&self, name: &str) -> &Opt {
        self.opts
            .iter()
            .find(|o| o.name == name)
            .unwrap_or_else(|| panic!("--{name} is read but not declared"))
    }

    /// Whether `--name` was passed.
    pub fn flag(&self, name: &str) -> bool {
        assert!(
            self.declared(name).value.is_none(),
            "--{name} is not a flag"
        );
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The names of the options passed, in order.
    pub fn passed(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.given.iter().map(|(n, _)| *n)
    }

    /// The value after `--name`, parsed, or `default` when it is absent.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        let declared = self.declared(name).type_name();
        assert_eq!(
            declared,
            Some(std::any::type_name::<T>()),
            "--{name} is read as another type than declared"
        );
        match self
            .given
            .iter()
            .find_map(|(n, v)| v.as_ref().filter(|_| *n == name))
        {
            // `try_parse` checked the value with this very type.
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| unreachable!("checked by try_parse")),
            None => default,
        }
    }
}

/// A comma-separated list option, `--threads 1,2,4`: every entry must
/// parse as `T`, so one bad entry refuses the whole value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct List<T>(pub Vec<T>);

impl<T: std::str::FromStr> std::str::FromStr for List<T> {
    type Err = T::Err;

    fn from_str(s: &str) -> Result<Self, T::Err> {
        s.split(',')
            .map(|t| t.trim().parse())
            .collect::<Result<_, _>>()
            .map(List)
    }
}

/// A type name without its module paths: `u64`, `PolicyKind`,
/// `List<SocketAddr>`.
fn short(ty: &str) -> String {
    ty.split_inclusive(['<', ','])
        .map(|seg| seg.rsplit("::").next().unwrap_or(seg))
        .collect()
}

/// `usage: <program> [--flag] [--name <type>] ...`
fn usage(opts: &[Opt]) -> String {
    let prog = std::env::args()
        .next()
        .and_then(|p| {
            std::path::Path::new(&p)
                .file_name()
                .map(|f| f.to_string_lossy().into_owned())
        })
        .unwrap_or_default();
    let mut out = format!("usage: {prog}");
    for o in opts {
        match o.type_name() {
            None => out.push_str(&format!(" [--{}]", o.name)),
            Some(ty) => out.push_str(&format!(" [--{} <{}>]", o.name, short(ty))),
        }
    }
    out
}

/// Uniform pseudo-random keys (pmembench's uniform 8-byte keys).
pub fn uniform_keys(n: u64, seed: u64) -> Vec<u64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        })
        .collect()
}

/// Print a figure/table header.
pub fn banner(title: &str) {
    println!("==================================================================");
    println!("{title}");
    println!("==================================================================");
}

/// A minimal JSON value (the workspace vendors no serde; the benchmark
/// binaries only need to *emit* results, never parse them).
#[derive(Debug, Clone)]
pub enum Json {
    /// A number; non-finite values render as `null`.
    Num(f64),
    /// An unsigned integer (rendered without a fraction).
    Int(u64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// Serialise to compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Num(v) if v.is_finite() => out.push_str(&format!("{v}")),
            Json::Num(_) => out.push_str("null"),
            Json::Int(v) => out.push_str(&format!("{v}")),
            Json::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str((*k).to_string()).render_into(out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// A parsed JSON value with owned keys — the read-side complement of
/// [`Json`] (whose `Obj` keys are `&'static str`, fine for emitting but
/// useless for parsing). Used by `perf_gate` to read committed result
/// artifacts back without vendoring serde.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers are widened to `f64`).
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// A position-annotated description of the first syntax error.
    pub fn parse(src: &str) -> Result<JsonValue, String> {
        let mut p = JsonParser {
            bytes: src.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Maximum nesting depth [`JsonValue::parse`] accepts; result artifacts
/// are three levels deep, so this only bounds recursion on garbage input.
const JSON_MAX_DEPTH: usize = 64;

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", want as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > JSON_MAX_DEPTH {
            return Err(format!("nesting deeper than {JSON_MAX_DEPTH}"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.lit("false", JsonValue::Bool(false)),
            Some(b'n') => self.lit("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            fields.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogates are not paired up — artifacts
                            // never emit astral-plane text.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x80 => {
                    out.push(c as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: the source is a &str, so the
                    // sequence is valid — copy it through wholesale.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let ch = s.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

/// Self-validation of benchmark result rows, run by every binary before it
/// exits (the `--smoke` CI mode relies on this to turn a silently-broken
/// harness into a red build): there must be at least one row, and each of
/// the named fields must be present in every row, numeric, finite, and
/// strictly positive.
///
/// # Errors
///
/// A description of the first problem found.
pub fn validate_rows(rows: &[Json], positive_fields: &[&str]) -> Result<(), String> {
    if rows.is_empty() {
        return Err("no result rows were produced".into());
    }
    for (i, row) in rows.iter().enumerate() {
        let Json::Obj(fields) = row else {
            return Err(format!("result row {i} is not an object"));
        };
        for want in positive_fields {
            let Some((_, v)) = fields.iter().find(|(k, _)| k == want) else {
                return Err(format!("result row {i}: missing field `{want}`"));
            };
            let num = match v {
                Json::Num(x) => *x,
                Json::Int(x) => *x as f64,
                other => {
                    return Err(format!(
                        "result row {i}: field `{want}` is not numeric: {other:?}"
                    ))
                }
            };
            if !num.is_finite() || num <= 0.0 {
                return Err(format!(
                    "result row {i}: field `{want}` = {num} (must be finite and > 0)"
                ));
            }
        }
    }
    Ok(())
}

/// Self-validation of a thread-scaling series: `ops_per_s[i]` measured at
/// `threads[i]`, with thread counts strictly increasing. The series must be
/// *monotone non-decreasing within tolerance* — each step may dip at most
/// `dip_tolerance` below the running maximum (scheduler noise happens; a
/// collapse does not) — and the final point must reach at least
/// `min_final_speedup` × the first. Run by the scaling benches before they
/// publish a row, so a re-serialized hot path turns the build red rather
/// than silently flattening the figure.
///
/// # Errors
///
/// A description of the first violation found.
pub fn validate_scaling(
    threads: &[usize],
    ops_per_s: &[f64],
    dip_tolerance: f64,
    min_final_speedup: f64,
) -> Result<(), String> {
    if threads.len() != ops_per_s.len() {
        return Err(format!(
            "scaling series shape mismatch: {} thread counts vs {} measurements",
            threads.len(),
            ops_per_s.len()
        ));
    }
    if threads.len() < 2 {
        return Err("scaling series needs at least two points".into());
    }
    if !threads.windows(2).all(|w| w[0] < w[1]) {
        return Err(format!("thread counts must strictly increase: {threads:?}"));
    }
    let mut peak = 0.0f64;
    for (&t, &ops) in threads.iter().zip(ops_per_s) {
        if !ops.is_finite() || ops <= 0.0 {
            return Err(format!("{t} threads: ops/s = {ops} (must be > 0)"));
        }
        if ops < peak * (1.0 - dip_tolerance) {
            return Err(format!(
                "scaling collapse: {t} threads ran at {ops:.0} ops/s, below \
                 {:.0} (peak {peak:.0} − {:.0}% tolerance)",
                peak * (1.0 - dip_tolerance),
                dip_tolerance * 100.0
            ));
        }
        peak = peak.max(ops);
    }
    let speedup = ops_per_s[ops_per_s.len() - 1] / ops_per_s[0];
    if speedup < min_final_speedup {
        return Err(format!(
            "{}-thread throughput is only {speedup:.2}x the {}-thread run \
             (need >= {min_final_speedup:.2}x)",
            threads[threads.len() - 1],
            threads[0]
        ));
    }
    Ok(())
}

/// Write a plain-text artifact (e.g. a contention-profile dump) to
/// `results/<name>` and return the path.
pub fn write_text_artifact(name: &str, text: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results/");
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write results artifact");
    path
}

/// Write a benchmark result document to `results/BENCH_<name>.json`
/// (creating `results/` under the current directory) and return the path.
pub fn write_results(name: &str, doc: &Json) -> std::path::PathBuf {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results/");
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, doc.render() + "\n").expect("write results json");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> Vec<Opt> {
        vec![
            Opt::flag("smoke"),
            Opt::value::<u64>("ops"),
            Opt::value::<String>("addr"),
        ]
    }

    fn parse(argv: &[&str]) -> Result<Args, ArgsError> {
        Args::try_parse(argv.iter().map(|a| a.to_string()), &opts())
    }

    fn refused(argv: &[&str]) -> String {
        match parse(argv) {
            Err(ArgsError::Bad(why)) => why,
            other => panic!("{argv:?} was not refused: {other:?}"),
        }
    }

    #[test]
    fn args_read_declared_options() {
        let a = parse(&["--ops", "7", "--smoke", "--addr", "--ops"]).unwrap();
        assert!(a.flag("smoke"));
        assert_eq!(a.get("ops", 1u64), 7);
        // A value is a value even when it looks like an option.
        assert_eq!(a.get("addr", String::new()), "--ops");
        let a = parse(&[]).unwrap();
        assert!(!a.flag("smoke"));
        assert_eq!(a.get("ops", 1u64), 1);
    }

    #[test]
    fn args_refuse_unknown_options_and_bad_values() {
        assert!(refused(&["--no-such-flag"]).contains("--no-such-flag"));
        assert!(refused(&["--smoke", "extra"]).contains("extra"));
        assert!(refused(&["-s"]).contains("-s"));
        assert!(refused(&["--ops", "abc"]).contains("not a u64"));
        assert!(refused(&["--ops", "-1"]).contains("not a u64"));
        assert!(refused(&["--ops"]).contains("needs a value"));
    }

    #[test]
    fn args_help_wins_wherever_it_stands() {
        for argv in [
            &["--help"][..],
            &["-h"],
            &["--ops", "3", "--help"],
            &["--smoke", "-h"],
        ] {
            assert_eq!(parse(argv).unwrap_err(), ArgsError::Help, "{argv:?}");
        }
    }

    #[test]
    fn list_options_parse_every_entry_or_refuse() {
        let opts = [Opt::value::<List<u32>>("threads"), Opt::flag("smoke")];
        let parse = |argv: &[&str]| Args::try_parse(argv.iter().map(|a| a.to_string()), &opts);
        let a = parse(&["--smoke", "--threads", "1, 2,8"]).unwrap();
        assert_eq!(a.get("threads", List(vec![])), List(vec![1u32, 2, 8]));
        assert_eq!(a.passed().collect::<Vec<_>>(), ["smoke", "threads"]);
        for bad in ["1,x,2", "1,,2", "", "1,-2"] {
            let Err(ArgsError::Bad(why)) = parse(&["--threads", bad]) else {
                panic!("{bad:?} was not refused");
            };
            assert!(why.contains("not a List<u32>"), "{why}");
        }
        assert!(usage(&opts).contains("[--threads <List<u32>>]"));
    }

    #[test]
    #[should_panic(expected = "read but not declared")]
    fn args_reading_an_undeclared_option_panics() {
        parse(&[]).unwrap().get("threads", 1usize);
    }

    #[test]
    #[should_panic(expected = "another type than declared")]
    fn args_reading_as_another_type_panics() {
        parse(&[]).unwrap().get("ops", 1u32);
    }

    fn row(v: f64) -> Json {
        Json::Obj(vec![("x", Json::Num(v)), ("n", Json::Int(3))])
    }

    #[test]
    fn json_parse_roundtrips_emitted_documents() {
        let doc = Json::Obj(vec![
            ("name", Json::Str("x \"quoted\" \\ line\n".into())),
            ("n", Json::Int(42)),
            ("v", Json::Num(-1.25e3)),
            ("ok", Json::Bool(true)),
            ("bad", Json::Num(f64::NAN)), // renders as null
            (
                "rows",
                Json::Arr(vec![
                    Json::Obj(vec![("t", Json::Num(0.5))]),
                    Json::Arr(vec![]),
                ]),
            ),
        ]);
        let v = JsonValue::parse(&doc.render()).unwrap();
        assert_eq!(
            v.get("name").unwrap().as_str().unwrap(),
            "x \"quoted\" \\ line\n"
        );
        assert_eq!(v.get("n").unwrap().as_f64(), Some(42.0));
        assert_eq!(v.get("v").unwrap().as_f64(), Some(-1250.0));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("bad"), Some(&JsonValue::Null));
        let rows = v.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].get("t").unwrap().as_f64(), Some(0.5));
        assert_eq!(rows[1], JsonValue::Arr(vec![]));
    }

    #[test]
    fn json_parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "{} trailing",
            "[01",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Deep nesting is bounded, not a stack overflow.
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(JsonValue::parse(&deep).unwrap_err().contains("nesting"));
    }

    #[test]
    fn validate_rows_accepts_sane_rows() {
        assert!(validate_rows(&[row(1.5), row(0.1)], &["x", "n"]).is_ok());
    }

    #[test]
    fn validate_rows_rejects_garbage() {
        assert!(validate_rows(&[], &["x"])
            .unwrap_err()
            .contains("no result rows"));
        assert!(validate_rows(&[row(0.0)], &["x"])
            .unwrap_err()
            .contains("must be finite"));
        assert!(validate_rows(&[row(f64::NAN)], &["x"])
            .unwrap_err()
            .contains("must be finite"));
        assert!(validate_rows(&[row(-2.0)], &["x"])
            .unwrap_err()
            .contains("must be finite"));
        assert!(validate_rows(&[row(1.0)], &["missing"])
            .unwrap_err()
            .contains("missing field"));
        assert!(validate_rows(&[Json::Num(1.0)], &["x"])
            .unwrap_err()
            .contains("not an object"));
    }

    #[test]
    fn validate_scaling_accepts_monotone_and_noisy_monotone() {
        let t = [1, 2, 4, 8];
        assert!(validate_scaling(&t, &[100.0, 190.0, 360.0, 650.0], 0.05, 2.0).is_ok());
        // A small dip within tolerance is fine.
        assert!(validate_scaling(&t, &[100.0, 98.0, 180.0, 340.0], 0.05, 2.0).is_ok());
    }

    #[test]
    fn validate_scaling_rejects_collapse_and_weak_speedup() {
        let t = [1, 2, 4, 8];
        assert!(
            validate_scaling(&t, &[100.0, 60.0, 200.0, 400.0], 0.05, 2.0)
                .unwrap_err()
                .contains("scaling collapse")
        );
        assert!(
            validate_scaling(&t, &[100.0, 110.0, 120.0, 130.0], 0.05, 2.0)
                .unwrap_err()
                .contains("need >= 2.00x")
        );
        assert!(validate_scaling(&[1], &[100.0], 0.05, 2.0)
            .unwrap_err()
            .contains("at least two points"));
        assert!(validate_scaling(&t, &[100.0], 0.05, 2.0)
            .unwrap_err()
            .contains("shape mismatch"));
        assert!(
            validate_scaling(&[1, 1, 2, 4], &[1.0, 2.0, 3.0, 4.0], 0.05, 1.0)
                .unwrap_err()
                .contains("strictly increase")
        );
        assert!(
            validate_scaling(&t, &[100.0, f64::NAN, 1.0, 1.0], 0.05, 1.0)
                .unwrap_err()
                .contains("must be > 0")
        );
    }
}
