//! The one JSON-lines codec. Results records ([`crate::orchestrator`]),
//! trace export ([`crate::telemetry`]), the serve protocol
//! ([`crate::serve`]) and biaslint findings (`biaslab-analyze`) are
//! written with `format!` and read, sealed and stored only through
//! [`Fields::scan`] (a strict scanner: no whitespace outside strings, no
//! escapes, no duplicate keys, nothing after the closing brace), the crc
//! `seal` / `unseal` (checked by [`verify_sealed`]), `write_atomic` and the
//! bounded `retry_io`.

use std::fmt::Write as _;
use std::fs::{self, File};
use std::io::{self, BufWriter};
use std::path::Path;
use std::time::Duration;

use crate::faults;

/// FNV-1a over a string: the digest that folds free-form values (machine
/// config, environment, measurement keys) into ids, and the seal's crc.
#[must_use]
pub(crate) fn fnv64(s: &str) -> u64 {
    fnv64_extend(0xcbf2_9ce4_8422_2325, s.as_bytes())
}

/// Continues an FNV-1a digest `h` over more bytes.
#[must_use]
pub(crate) fn fnv64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The top-level `(key, raw value)` pairs of one object, in line order. A
/// raw value is the value's exact text, quotes and brackets included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fields<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    /// Scans `line` as exactly one object, or returns `None`. Each key is
    /// a quoted string followed by `:` and one value; no key appears twice;
    /// nothing follows the closing brace. A value is a string, an array or
    /// object with matching brackets (strings skipped at every depth), or
    /// a run of `[0-9A-Za-z.+-]`. No whitespace outside strings, no
    /// backslash anywhere. Never panics; takes O(n + k log k) time for n
    /// bytes and k keys.
    #[must_use]
    pub fn scan(line: &'a str) -> Option<Fields<'a>> {
        let mut pairs = Vec::with_capacity(16);
        if line == "{}" {
            return Some(Fields { pairs });
        }
        let b = line.as_bytes();
        if b.first() != Some(&b'{') {
            return None;
        }
        let mut at = 1;
        loop {
            let colon = string_end(b, at)?;
            let key = &line[at + 1..colon - 1];
            if b.get(colon) != Some(&b':') {
                return None;
            }
            let end = value_end(b, colon + 1)?;
            pairs.push((key, &line[colon + 1..end]));
            at = end + 1;
            match b.get(end)? {
                b',' => {}
                b'}' if at == b.len() => break,
                _ => return None,
            }
        }
        // Duplicates sort next to each other, so a line with many keys
        // costs a sort, not a comparison of every pair.
        let mut keys: Vec<&str> = pairs.iter().map(|&(k, _)| k).collect();
        keys.sort_unstable();
        keys.windows(2)
            .all(|w| w[0] != w[1])
            .then_some(Fields { pairs })
    }

    /// The `(key, raw value)` pairs, in line order.
    pub fn pairs(&self) -> impl Iterator<Item = (&'a str, &'a str)> + '_ {
        self.pairs.iter().copied()
    }

    /// Whether the keys are exactly `schema`, in order.
    #[must_use]
    pub fn keys_are(&self, schema: &[&str]) -> bool {
        self.pairs().map(|(k, _)| k).eq(schema.iter().copied())
    }

    /// The raw text of `key`'s value.
    #[must_use]
    pub fn raw(&self, key: &str) -> Option<&'a str> {
        self.pairs.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v)
    }

    /// `key`'s value as a `u64`.
    #[must_use]
    pub fn u64(&self, key: &str) -> Option<u64> {
        self.raw(key)?.parse().ok()
    }

    /// `key`'s string value, without its quotes.
    #[must_use]
    pub fn str(&self, key: &str) -> Option<&'a str> {
        self.raw(key)?.strip_prefix('"')?.strip_suffix('"')
    }

    /// The text between the brackets of `key`'s array value.
    #[must_use]
    pub fn array(&self, key: &str) -> Option<&'a str> {
        self.raw(key)?.strip_prefix('[')?.strip_suffix(']')
    }

    /// `key`'s object value, scanned by the same rules.
    #[must_use]
    pub fn object(&self, key: &str) -> Option<Fields<'a>> {
        Fields::scan(self.raw(key)?)
    }
}

/// The index just past the string that opens at `b[at]`; `None` if there
/// is no string there, it never closes, or it holds a backslash.
fn string_end(b: &[u8], at: usize) -> Option<usize> {
    let rest = b.get(at..)?.strip_prefix(b"\"")?;
    let len = rest.iter().position(|&c| c == b'"' || c == b'\\')?;
    (rest[len] == b'"').then_some(at + len + 2)
}

/// The index just past the one value that starts at `b[at]`.
fn value_end(b: &[u8], at: usize) -> Option<usize> {
    match *b.get(at)? {
        b'"' => string_end(b, at),
        b'[' | b'{' => {
            // The closer each open bracket expects: `[`+2 is `]`, `{`+2 is `}`.
            let mut closers = Vec::new();
            let mut i = at;
            loop {
                match *b.get(i)? {
                    b'"' => i = string_end(b, i)? - 1,
                    c @ (b'[' | b'{') => closers.push(c + 2),
                    c @ (b']' | b'}') => {
                        if closers.pop() != Some(c) {
                            return None;
                        }
                        if closers.is_empty() {
                            return Some(i + 1);
                        }
                    }
                    c if c.is_ascii_whitespace() || c == b'\\' => return None,
                    _ => {}
                }
                i += 1;
            }
        }
        _ => {
            let len = b[at..]
                .iter()
                .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, b'.' | b'+' | b'-'))
                .count();
            (len > 0).then_some(at + len)
        }
    }
}

/// `values` as the comma-separated body of a JSON array.
#[must_use]
pub(crate) fn csv(values: &[u64]) -> String {
    values
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// Seals an unclosed object body (`{"v":1,…`): appends `,"crc":<fnv64 of
/// the body>}`.
#[must_use]
pub(crate) fn seal(mut body: String) -> String {
    let crc = fnv64(&body);
    let _ = write!(body, ",\"crc\":{crc}}}");
    body
}

/// Scans a sealed line: `None` unless the last of at least two fields is
/// `crc` and holds the [`fnv64`] of every byte before `,"crc":`, which
/// every truncation and every single-byte change breaks.
#[must_use]
pub(crate) fn unseal(line: &str) -> Option<Fields<'_>> {
    let fields = Fields::scan(line)?;
    let &[.., _, ("crc", crc)] = fields.pairs.as_slice() else {
        return None;
    };
    let body = line.strip_suffix('}')?.strip_suffix(crc)?;
    let body = body.strip_suffix(",\"crc\":")?;
    (crc.parse() == Ok(fnv64(body))).then_some(fields)
}

/// Whether `line` is one well-formed object whose last field `crc` holds
/// the FNV-64 of every byte before `,"crc":`.
#[must_use]
pub fn verify_sealed(line: &str) -> bool {
    unseal(line).is_some()
}

/// Replaces `path` (creating its directory): `write` fills a buffered
/// sibling `.tmp` file, which is flushed, fsynced and renamed over `path`,
/// and the parent directory is fsynced so the rename survives a crash. On
/// any error the temp file is removed and `path` keeps its old content.
///
/// # Errors
///
/// Propagates the first error from `write` or from the file system.
pub(crate) fn write_atomic<T>(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<T>,
) -> io::Result<T> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension("tmp");
    let written = File::create(&tmp).and_then(|f| {
        let mut w = BufWriter::new(f);
        let out = write(&mut w)?;
        let f = w.into_inner().map_err(io::IntoInnerError::into_error)?;
        f.sync_all()?;
        fs::rename(&tmp, path)?;
        Ok(out)
    });
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    } else if let Some(Ok(dir)) = path.parent().map(File::open) {
        // Best-effort: not every platform can sync a directory handle,
        // and the rename itself has already succeeded.
        let _ = dir.sync_all();
    }
    written
}

/// Runs `op` up to three times, sleeping 1 ms and then 4 ms between
/// attempts; a retry that succeeds counts as recovered `io.retry`.
pub(crate) fn retry_io<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut attempt = 0;
    loop {
        match op() {
            Err(_) if attempt < 2 => std::thread::sleep(Duration::from_millis(1 << (2 * attempt))),
            Ok(out) if attempt > 0 => {
                faults::recovered("io.retry");
                return Ok(out);
            }
            done => return done,
        }
        attempt += 1;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::fmt::Debug;
    use std::io::Write as _;

    use biaslab_toolchain::OptLevel;
    use biaslab_workloads::{Expected, InputSize};
    use proptest::prelude::*;
    use proptest::sample::select;

    use super::*;
    use crate::harness::{MeasureError, Measurement};
    use crate::orchestrator::{
        counters_from_vec, parse_record, record_line, reference_line, MeasureKey, RecordVerdict,
        ReferenceRecord, RECORD_FIELDS, REFERENCE_FIELDS,
    };
    use crate::serve::{
        encode_deadline, encode_draining, encode_error, encode_ok, encode_request, encode_response,
        encode_shed, encode_stats, encode_sweep_done, encode_sweep_item, line_health, line_id,
        line_status, parse_request, stats_counter, validate_response_line, MeasureSpec, Request,
        ITEM_FIELDS, REQ_CONTROL_FIELDS, REQ_MEASURE_FIELDS, REQ_SHUTDOWN_FIELDS, REQ_SWEEP_FIELDS,
        RESP_FIELDS, STATS_FIELDS,
    };
    use crate::setup::LinkOrder;
    use crate::telemetry::{
        parse_line, CacheEvent, CacheOutcome, FaultEvent, FaultKind, ProfileEvent, SpanEvent,
        TraceEvent, TraceLine, CACHE_FIELDS, FAULT_FIELDS, METRICS_FIELDS, PROFILE_FIELDS,
        SPAN_FIELDS, SPAN_NAMES, START_FIELDS,
    };

    #[test]
    fn scan_returns_top_level_pairs_in_order() {
        let line = "{\"a\":1,\"b\":\"two, three: [4]\",\"c\":[[\"x\",1],[\"y\",2]],\
                    \"d\":{\"e\":5,\"f\":[]},\"g\":-0.5}";
        let f = Fields::scan(line).expect("one object");
        assert!(f.keys_are(&["a", "b", "c", "d", "g"]));
        assert_eq!(f.u64("a"), Some(1));
        assert_eq!(f.str("b"), Some("two, three: [4]"));
        assert_eq!(f.array("c"), Some("[\"x\",1],[\"y\",2]"));
        assert_eq!(f.object("d").and_then(|d| d.u64("e")), Some(5));
        assert_eq!(f.raw("g"), Some("-0.5"));
        // Nested keys are not top-level fields; a number is not a string.
        assert_eq!(f.raw("e"), None);
        assert_eq!(f.str("a"), None);
        assert_eq!(f.raw("missing"), None);
        assert!(Fields::scan("{}").is_some_and(|f| f.pairs().next().is_none()));
    }

    #[test]
    fn scan_rejects_what_no_writer_emits() {
        for bad in [
            "",
            "{",
            "}",
            "[]",
            "{}}",
            "{} ",
            " {}",
            "{\"a\":1}x",
            "{\"a\":1}}}",
            // A duplicate key, a key without a value, a missing key.
            "{\"a\":1,\"a\":2}",
            "{\"a\":1,\"b\"}",
            "{\"a\":}",
            "{\"a\"1}",
            "{a:1}",
            "{\"a\":1,}",
            "{,\"a\":1}",
            // Whitespace outside strings, junk between fields.
            "{\"a\":1 ,\"b\":2}",
            "{\"a\": 1}",
            "{\"a\":\"x\" \"y\"}",
            "{\"a\":[1, 2]}",
            "{\"a\":1$}",
            // Escapes, an unterminated string.
            "{\"a\":\"x\\\"y\"}",
            "{\"a\":\"x\\\\\"}",
            "{\"a\":\"x}",
            // Brackets that do not match.
            "{\"a\":[1,2}",
            "{\"a\":{\"b\":1]}",
            "{\"a\":[[1]}",
            "{\"a\":[1]]}",
        ] {
            assert_eq!(Fields::scan(bad), None, "accepted: {bad}");
        }
    }

    #[test]
    fn deep_nesting_scans_without_recursion() {
        let nested = |n: usize, tail: &str| {
            format!("{{\"a\":{}{}{tail}", "[{\"b\":".repeat(n), "1}]".repeat(n))
        };
        assert!(Fields::scan(&nested(100_000, "}")).is_some());
        assert!(Fields::scan(&nested(100_000, "]}")).is_none());
    }

    #[test]
    fn many_keys_scan_without_comparing_every_pair() {
        // About 1.5 MB and 100k distinct keys: comparing every pair of keys
        // would take billions of steps before answering.
        let body: Vec<String> = (0..100_000).map(|i| format!("\"k{i}\":{i}")).collect();
        let distinct = format!("{{{}}}", body.join(","));
        let repeated = format!("{{{},\"k0\":0}}", body.join(","));
        let start = std::time::Instant::now();
        let f = Fields::scan(&distinct).expect("distinct keys scan");
        assert!(Fields::scan(&repeated).is_none(), "first key repeated last");
        let took = start.elapsed();
        assert_eq!(f.pairs().count(), 100_000);
        assert_eq!(f.u64("k99999"), Some(99_999));
        assert!(took < Duration::from_secs(5), "scans took {took:?}");
    }

    #[test]
    fn seal_is_the_last_field_and_covers_the_whole_body() {
        let line = seal("{\"v\":1,\"x\":\"y z\"".to_owned());
        let f = unseal(&line).expect("sealed line verifies");
        assert!(f.keys_are(&["v", "x", "crc"]));
        assert!(
            unseal(&line.replace("y z", "y_z")).is_none(),
            "tampered body"
        );
        assert!(!verify_sealed(&format!("{line} ")), "trailing byte");
        // The crc must be the last of at least two fields.
        let crc = fnv64("{");
        assert!(unseal(&format!("{{\"crc\":{crc}}}")).is_none());
        assert!(unseal(&format!("{{\"crc\":{crc},\"v\":1}}")).is_none());
        assert!(
            unseal(&seal("{\"v\":1,\"v\":2".to_owned())).is_none(),
            "duplicate key"
        );
    }

    #[test]
    fn fnv64_is_stable() {
        assert_eq!(fnv64(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64("a"), fnv64("b"));
    }

    #[test]
    fn write_atomic_replaces_the_file_or_leaves_it_alone() {
        let dir = std::env::temp_dir().join(format!("biaslab-jsonl-{}", std::process::id()));
        let path = dir.join("nested").join("out.jsonl");
        write_atomic(&path, |w| writeln!(w, "one")).expect("first write");
        assert_eq!(fs::read_to_string(&path).expect("written"), "one\n");
        let failed = write_atomic(&path, |w| {
            writeln!(w, "two")?;
            Err::<(), _>(io::Error::other("writer died"))
        });
        assert!(failed.is_err());
        assert_eq!(fs::read_to_string(&path).expect("kept"), "one\n");
        assert!(!path.with_extension("tmp").exists(), "temp file leaked");
        write_atomic(&path, |w| writeln!(w, "three")).expect("second write");
        assert_eq!(fs::read_to_string(&path).expect("replaced"), "three\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_io_makes_three_attempts_and_counts_recoveries() {
        let recovered = || {
            crate::telemetry::metrics()
                .counter("fault.recovered.io.retry")
                .get()
        };
        let before = recovered();
        let mut calls = 0;
        let out = retry_io(|| {
            calls += 1;
            if calls < 3 {
                Err(io::Error::other("transient"))
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out.expect("third attempt succeeds"), 3);
        assert!(recovered() > before, "a recovered retry is counted");
        let mut calls = 0;
        let out = retry_io(|| {
            calls += 1;
            Err::<(), _>(io::Error::other("persistent"))
        });
        assert!(out.is_err());
        assert_eq!(calls, 3);
    }

    // -----------------------------------------------------------------------
    // One property suite for every line format in this crate. Each case
    // writes lines through the format's own writer and checks:
    // (a) the scanned keys are the format's schema constant, in order, and
    //     the format's parser returns the written value;
    // (b) every proper prefix is rejected — by `unseal` for sealed formats,
    //     by `Fields::scan` otherwise;
    // (c) every single-byte mutation is handled without a panic and scans
    //     and parses the same way twice; a sealed line fails its seal.
    // -----------------------------------------------------------------------

    fn keys(line: &str) -> Vec<&str> {
        Fields::scan(line)
            .expect("written line scans")
            .pairs()
            .map(|(k, _)| k)
            .collect()
    }

    /// Laws (b) and (c) for one written line; `parse` is the format's
    /// reader, `byte` the replacement byte tried at every position.
    fn check_laws<T: PartialEq + Debug>(
        line: &str,
        sealed: bool,
        byte: u8,
        parse: impl Fn(&str) -> T,
    ) {
        let accepts = |l: &str| {
            if sealed {
                unseal(l).is_some()
            } else {
                Fields::scan(l).is_some()
            }
        };
        assert!(accepts(line), "written line rejected: {line}");
        for cut in 0..line.len() {
            if let Some(prefix) = line.get(..cut) {
                assert!(!accepts(prefix), "prefix accepted: {prefix}");
            }
        }
        let mut bytes = line.as_bytes().to_vec();
        for at in 0..bytes.len() {
            let original = std::mem::replace(&mut bytes[at], byte);
            let mutated = String::from_utf8_lossy(&bytes);
            assert_eq!(Fields::scan(&mutated), Fields::scan(&mutated));
            assert_eq!(parse(&mutated), parse(&mutated));
            if sealed && mutated != line {
                assert!(
                    unseal(&mutated).is_none(),
                    "mutation kept its seal: {mutated}"
                );
            }
            bytes[at] = original;
        }
    }

    fn orders() -> Vec<LinkOrder> {
        vec![
            LinkOrder::Default,
            LinkOrder::Reversed,
            LinkOrder::Alphabetical,
            LinkOrder::Random(0),
            LinkOrder::Random(u64::MAX),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        #[test]
        fn prop_records_obey_the_codec_laws(
            (bench, machine, env) in ("[a-z0-9_]{1,10}", any::<u64>(), any::<u64>()),
            opt in select(OptLevel::ALL.to_vec()),
            link_order in select(orders()),
            (text_offset, stack_shift) in (any::<u32>(), any::<u32>()),
            size in select(vec![InputSize::Test, InputSize::Ref]),
            (warmup_runs, symbol_layout) in (any::<u32>(), any::<u64>()),
            setup in "[a-zA-Z0-9/=.,:() -]{0,40}",
            counters in prop::collection::vec(any::<u64>(), 22..23),
            checksum in any::<u64>(),
            byte in any::<u8>(),
        ) {
            let key = MeasureKey {
                bench, machine, opt, link_order, text_offset, stack_shift, env, size,
                warmup_runs, symbol_layout,
            };
            let m = Measurement {
                setup,
                counters: counters_from_vec(&counters).expect("22 counters"),
                checksum,
            };
            let line = record_line(&key, &m);
            prop_assert_eq!(keys(&line), RECORD_FIELDS);
            let RecordVerdict::Ok(k, back) = parse_record(&line) else {
                panic!("record did not parse back: {line}");
            };
            prop_assert_eq!(k, key);
            prop_assert_eq!(
                (back.setup, back.counters, back.checksum),
                (m.setup, m.counters, m.checksum)
            );
            check_laws(&line, true, byte, |l| format!("{:?}", parse_record(l)));
        }

        #[test]
        fn prop_reference_lines_obey_the_codec_laws(
            bench in "[a-z0-9_]{1,10}",
            size in select(vec![InputSize::Test, InputSize::Ref]),
            (digest, checksum, return_value, ir_ops) in
                (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            byte in any::<u8>(),
        ) {
            let expected = Expected { checksum, return_value, ir_ops };
            let line = reference_line(&bench, size, digest, &expected);
            prop_assert_eq!(keys(&line), REFERENCE_FIELDS);
            let RecordVerdict::Reference(back) = parse_record(&line) else {
                panic!("reference did not parse back: {line}");
            };
            prop_assert_eq!(back, ReferenceRecord { bench, size, digest, expected });
            check_laws(&line, true, byte, |l| format!("{:?}", parse_record(l)));
            // A torn line is quarantined, never read as a record or foreign.
            for cut in 1..line.len() {
                prop_assert!(matches!(parse_record(&line[..cut]), RecordVerdict::Corrupt)
                    || !line[..cut].starts_with("{\"v\":4"));
            }
        }

        #[test]
        fn prop_trace_lines_obey_the_codec_laws(
            (id, parent, key, t) in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            name in select(SPAN_NAMES.to_vec()),
            (scope, bench, label) in ("[a-z0-9-]{0,8}", "[a-z0-9_]{1,10}", "[a-z0-9 ,:()-]{0,24}"),
            worker in 0u64..64,
            outcome in select(vec![
                None,
                Some(CacheOutcome::Hit),
                Some(CacheOutcome::Miss),
                Some(CacheOutcome::Evict),
            ]),
            kind in select(vec![FaultKind::Injected, FaultKind::Recovered]),
            entries in prop::collection::vec(
                ("[a-z_][a-z0-9_]{0,12}", any::<u64>(), any::<u64>()),
                0..4,
            ),
            counters in prop::collection::vec(("[a-z][a-z.]{0,11}", any::<u64>()), 0..4),
            byte in any::<u8>(),
        ) {
            let counters: BTreeMap<String, u64> = counters.into_iter().collect();
            let lines = [
                (TraceLine::Start { label, clock_us: t }, START_FIELDS),
                (
                    TraceLine::Event(TraceEvent::Span(SpanEvent {
                        id, parent, name, scope: scope.clone(), bench: bench.clone(), worker,
                        key, outcome, start_us: t, dur_us: t / 2,
                    })),
                    SPAN_FIELDS,
                ),
                (
                    TraceLine::Event(TraceEvent::Cache(CacheEvent {
                        outcome: outcome.unwrap_or(CacheOutcome::Hit), key,
                        bench: bench.clone(), scope: scope.clone(), worker, t_us: t,
                    })),
                    CACHE_FIELDS,
                ),
                (
                    TraceLine::Event(TraceEvent::Profile(ProfileEvent {
                        span: id, bench: bench.clone(), scope: scope.clone(), entries,
                    })),
                    PROFILE_FIELDS,
                ),
                (
                    TraceLine::Event(TraceEvent::Fault(FaultEvent {
                        kind, site: bench, scope, worker, t_us: t,
                    })),
                    FAULT_FIELDS,
                ),
                (TraceLine::Metrics(counters.into_iter().collect()), METRICS_FIELDS),
            ];
            for (value, schema) in lines {
                let line = value.to_line();
                prop_assert_eq!(keys(&line), schema);
                prop_assert_eq!(parse_line(&line), Some(value));
                check_laws(&line, false, byte, parse_line);
            }
        }

        #[test]
        fn prop_requests_obey_the_codec_laws(
            id in any::<u64>(),
            bench in select(vec!["hmmer", "milc", "mcf"]),
            machine in select(vec!["core2", "pentium4", "o3cpu"]),
            opt in select(OptLevel::ALL.to_vec()),
            order in select(orders()),
            (text_offset, stack_shift) in (any::<u32>(), any::<u32>()),
            env in select(vec![0u64, 23, 612, 4096]),
            budget in any::<u64>(),
            deadline_ms in select(vec![0u64, 1, 60_000]),
            envs in prop::collection::vec(select(vec![0u64, 64, 612]), 0..4),
            byte in any::<u8>(),
        ) {
            let spec = MeasureSpec {
                bench: bench.to_owned(),
                machine: machine.to_owned(),
                opt,
                order,
                text_offset,
                stack_shift,
                env,
                size: InputSize::Test,
                budget,
            };
            // `deadline_ms` is written only when set.
            let schema = |fields: &[&'static str]| -> Vec<&'static str> {
                fields.iter().copied().filter(|k| deadline_ms > 0 || *k != "deadline_ms").collect()
            };
            let requests = [
                (Request::Ping { id }, schema(REQ_CONTROL_FIELDS)),
                (Request::Stats { id }, schema(REQ_CONTROL_FIELDS)),
                (Request::Shutdown { id, drain: false }, schema(REQ_CONTROL_FIELDS)),
                (Request::Shutdown { id, drain: true }, schema(REQ_SHUTDOWN_FIELDS)),
                (
                    Request::Measure { id, spec: spec.clone(), deadline_ms },
                    schema(REQ_MEASURE_FIELDS),
                ),
                (Request::Sweep { id, spec, envs, deadline_ms }, schema(REQ_SWEEP_FIELDS)),
            ];
            for (req, fields) in requests {
                let line = encode_request(&req);
                prop_assert_eq!(keys(&line), fields);
                prop_assert_eq!(parse_request(&line), Ok(req));
                check_laws(&line, false, byte, parse_request);
            }
        }

        #[test]
        fn prop_responses_obey_the_codec_laws(
            (id, seq, checksum) in (any::<u64>(), any::<u64>(), any::<u64>()),
            setup in "[a-zA-Z0-9/=.,:() -]{0,40}",
            counters in prop::collection::vec(any::<u64>(), 22..23),
            msg in "[ -~]{0,40}",
            limit in any::<u64>(),
            stats in prop::collection::vec(("[a-z][a-z.]{0,11}", any::<u64>()), 0..4),
            health in select(vec!["ok", "draining"]),
            byte in any::<u8>(),
        ) {
            let m = Measurement {
                setup: setup.clone(),
                counters: counters_from_vec(&counters).expect("22 counters"),
                checksum,
            };
            let stats: Vec<(String, u64)> =
                stats.into_iter().collect::<BTreeMap<_, _>>().into_iter().collect();
            let lines = [
                (encode_response(id, &Ok(m.clone())), RESP_FIELDS, "ok"),
                (encode_response(id, &Err(MeasureError::Watchdog { limit })), RESP_FIELDS, "err"),
                (encode_sweep_item(id, seq, &Ok(m)), ITEM_FIELDS, "ok"),
                (encode_sweep_done(id, seq), RESP_FIELDS, "ok"),
                (encode_ok(id), RESP_FIELDS, "ok"),
                (encode_error(id, "proto", &msg), RESP_FIELDS, "err"),
                (encode_shed(id), RESP_FIELDS, "shed"),
                (encode_deadline(id, seq), RESP_FIELDS, "deadline"),
                (encode_draining(id), RESP_FIELDS, "draining"),
            ];
            for (line, schema, status) in &lines {
                prop_assert_eq!(keys(line), *schema);
                prop_assert_eq!(line_id(line), Some(id));
                prop_assert_eq!(line_status(line), Some(*status));
                check_laws(line, true, byte, validate_response_line);
            }
            let ok = unseal(&lines[0].0).expect("sealed");
            prop_assert_eq!(ok.str("setup"), Some(setup.as_str()));
            prop_assert_eq!(ok.array("counters"), Some(csv(&counters).as_str()));
            prop_assert_eq!(ok.u64("checksum"), Some(checksum));
            let line = encode_stats(id, health, &stats);
            prop_assert_eq!(keys(&line), STATS_FIELDS);
            prop_assert_eq!(line_health(&line), Some(health));
            for (name, value) in &stats {
                prop_assert_eq!(stats_counter(&line, name), Some(*value));
            }
            check_laws(&line, true, byte, validate_response_line);
        }
    }
}
