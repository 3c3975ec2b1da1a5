//! Minimal JSON serialization and parsing for the experiment report.
//!
//! The offline build environment has no `serde`/`serde_json`. The report
//! binary only ever *writes* JSON for a handful of plain-data row types, so
//! a small value tree plus hand-written [`ToJson`] impls covers that need
//! without a derive macro; the `bench_regression` comparator additionally
//! *reads* the documents back ([`JsonValue::parse`]), so a matching
//! recursive-descent parser with path accessors lives here too.

use crate::experiments as exp;

/// An owned, parsed JSON value (the read-side counterpart of [`Json`],
/// which keeps `&'static str` keys for cheap emission).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// Any JSON number (parsed as a double; the reports only compare
    /// medians and throughputs, where f64 is exact enough).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document, rejecting trailing garbage.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }

    /// Member lookup on an object (`None` for other variants or missing
    /// keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Descends a `.`-separated member path (`"quick_report.e3_update_time"`).
    pub fn get_path(&self, path: &str) -> Option<&JsonValue> {
        path.split('.').try_fold(self, |node, key| node.get(key))
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| JsonValue::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| JsonValue::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| JsonValue::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos).map(JsonValue::Num),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        // Surrogate pairs don't occur in our own documents.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar. The input came in as a &str, so
                // boundaries are sound; validate at most 4 bytes rather than
                // the whole remaining document.
                let end = (*pos + 4).min(bytes.len());
                let rest = std::str::from_utf8(&bytes[*pos..end])
                    .map(|s| s.chars().next())
                    .unwrap_or_else(|e| {
                        std::str::from_utf8(&bytes[*pos..*pos + e.valid_up_to()])
                            .ok()
                            .and_then(|s| s.chars().next())
                    });
                let c = rest.ok_or("bad UTF-8 in string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .ok_or_else(|| format!("bad number at byte {start}"))
}

/// A JSON value tree.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null` (also used for non-finite floats).
    Null,
    /// A boolean.
    Bool(bool),
    /// An integer (kept separate from floats so counts print exactly).
    Int(i64),
    /// A finite double.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// Serializes with two-space indentation (the `serde_json` pretty style).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(x) => {
                if x.is_finite() {
                    // `{}` on f64 is shortest-roundtrip and always parses as
                    // a JSON number for finite values.
                    out.push_str(&x.to_string());
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Conversion into a [`Json`] value tree.
pub trait ToJson {
    /// Converts `self` into a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::Int(*self as i64)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Int(*self as i64)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl ToJson for exp::ShardedRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("shards", self.shards.to_json()),
            ("melem_per_s", self.melem_per_s.to_json()),
            ("speedup_vs_single", self.speedup_vs_single.to_json()),
            (
                "critical_path_melem_per_s",
                self.critical_path_melem_per_s.to_json(),
            ),
            (
                "critical_path_speedup",
                self.critical_path_speedup.to_json(),
            ),
        ])
    }
}

impl ToJson for exp::ShardedScaling {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cores", self.cores.to_json()),
            ("stream_length", self.stream_length.to_json()),
            ("single_melem_per_s", self.single_melem_per_s.to_json()),
            ("rows", self.rows.to_json()),
        ])
    }
}

impl ToJson for exp::RuntimeRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("shards", self.shards.to_json()),
            ("runtime_melem_per_s", self.runtime_melem_per_s.to_json()),
            ("scoped_melem_per_s", self.scoped_melem_per_s.to_json()),
            ("runtime_vs_scoped", self.runtime_vs_scoped.to_json()),
        ])
    }
}

impl ToJson for exp::RuntimeReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cores", self.cores.to_json()),
            ("stream_length", self.stream_length.to_json()),
            ("batch_len", self.batch_len.to_json()),
            ("rows", self.rows.to_json()),
            ("query_every_batches", self.query_every_batches.to_json()),
            ("quiet_melem_per_s", self.quiet_melem_per_s.to_json()),
            ("querying_melem_per_s", self.querying_melem_per_s.to_json()),
            ("querying_vs_quiet", self.querying_vs_quiet.to_json()),
            (
                "snapshot_query_micros",
                self.snapshot_query_micros.to_json(),
            ),
            (
                "clone_merge_query_micros",
                self.clone_merge_query_micros.to_json(),
            ),
        ])
    }
}

impl ToJson for exp::CheckpointBench {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("stream_length", self.stream_length.to_json()),
            ("checkpoints", self.checkpoints.to_json()),
            ("delta_frames", self.delta_frames.to_json()),
            ("full_frames", self.full_frames.to_json()),
            (
                "full_snapshot_bytes_mean",
                self.full_snapshot_bytes_mean.to_json(),
            ),
            (
                "delta_frame_bytes_mean",
                self.delta_frame_bytes_mean.to_json(),
            ),
            ("full_over_delta", self.full_over_delta.to_json()),
            ("chain_bytes_vs_full", self.chain_bytes_vs_full.to_json()),
            ("encode_micros_mean", self.encode_micros_mean.to_json()),
            ("recovery_micros", self.recovery_micros.to_json()),
            (
                "recovery_byte_identical",
                self.recovery_byte_identical.to_json(),
            ),
        ])
    }
}

impl ToJson for exp::LpSpaceRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("p", self.p.to_json()),
            ("points", self.points.to_json()),
            ("instances", self.instances.to_json()),
            ("fitted_exponent", self.fitted_exponent.to_json()),
            ("theory_exponent", self.theory_exponent.to_json()),
        ])
    }
}

impl ToJson for exp::UpdateTimeRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "truly_perfect_nanos_per_update",
                self.truly_perfect_nanos_per_update.to_json(),
            ),
            (
                "truly_perfect_batch_nanos_per_update",
                self.truly_perfect_batch_nanos_per_update.to_json(),
            ),
            ("batch_speedup", self.batch_speedup.to_json()),
            (
                "turnstile_f0_nanos_per_update",
                self.turnstile_f0_nanos_per_update.to_json(),
            ),
            (
                "turnstile_f0_batch_nanos_per_update",
                self.turnstile_f0_batch_nanos_per_update.to_json(),
            ),
            (
                "turnstile_batch_speedup",
                self.turnstile_batch_speedup.to_json(),
            ),
            (
                "baseline_duplications",
                self.baseline_duplications.to_json(),
            ),
            (
                "baseline_nanos_per_update",
                self.baseline_nanos_per_update.to_json(),
            ),
            ("engine_slot_counts", self.engine_slot_counts.to_json()),
            (
                "engine_stream_lengths",
                self.engine_stream_lengths.to_json(),
            ),
            (
                "engine_nanos_per_update",
                self.engine_nanos_per_update.to_json(),
            ),
        ])
    }
}

impl ToJson for exp::DistributionRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("truly_perfect_tv", self.truly_perfect_tv.to_json()),
            ("expected_noise", self.expected_noise.to_json()),
            (
                "truly_perfect_drift_ratio",
                self.truly_perfect_drift_ratio.to_json(),
            ),
            ("biased_drift_ratio", self.biased_drift_ratio.to_json()),
            ("gamma", self.gamma.to_json()),
        ])
    }
}

impl ToJson for exp::SamplerRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("measure", self.measure.to_json()),
            ("tv_distance", self.tv_distance.to_json()),
            ("expected_noise", self.expected_noise.to_json()),
            ("fail_rate", self.fail_rate.to_json()),
            ("space_bytes", self.space_bytes.to_json()),
        ])
    }
}

impl ToJson for exp::F0Row {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("points", self.points.to_json()),
            (
                "fitted_space_exponent",
                self.fitted_space_exponent.to_json(),
            ),
            ("tv_distance", self.tv_distance.to_json()),
            ("fail_rate", self.fail_rate.to_json()),
        ])
    }
}

impl ToJson for exp::EqualityRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("gamma", self.gamma.to_json()),
            ("observed_advantage", self.observed_advantage.to_json()),
            ("lower_bound_bits", self.lower_bound_bits.to_json()),
        ])
    }
}

impl ToJson for exp::MultiPassRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("gamma", self.gamma.to_json()),
            ("passes", self.passes.to_json()),
            ("peak_counters", self.peak_counters.to_json()),
            ("tv_distance", self.tv_distance.to_json()),
        ])
    }
}

impl ToJson for exp::CheckpointRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("window", self.window.to_json()),
            ("checkpoints", self.checkpoints.to_json()),
            ("sandwich_holds", self.sandwich_holds.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_prints_nested_structures() {
        let v = Json::Obj(vec![
            ("name", Json::Str("a \"quoted\" name".into())),
            (
                "xs",
                Json::Arr(vec![Json::Int(1), Json::Num(0.5), Json::Null]),
            ),
            ("ok", Json::Bool(true)),
        ]);
        let s = v.pretty();
        assert!(s.contains("\"a \\\"quoted\\\" name\""));
        assert!(s.contains("0.5"));
        assert!(s.starts_with('{') && s.ends_with('}'));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Num(f64::NAN).pretty(), "null");
        assert_eq!(Json::Num(f64::INFINITY).pretty(), "null");
    }

    #[test]
    fn empty_containers_are_compact() {
        assert_eq!(Json::Arr(vec![]).pretty(), "[]");
        assert_eq!(Json::Obj(vec![]).pretty(), "{}");
    }

    #[test]
    fn parse_roundtrips_emitted_documents() {
        let v = Json::Obj(vec![
            ("name", Json::Str("a \"quoted\"\nname".into())),
            (
                "xs",
                Json::Arr(vec![Json::Int(-3), Json::Num(0.5), Json::Null]),
            ),
            ("nested", Json::Obj(vec![("ok", Json::Bool(true))])),
            ("empty", Json::Arr(vec![])),
        ]);
        let parsed = JsonValue::parse(&v.pretty()).unwrap();
        assert_eq!(
            parsed.get("name"),
            Some(&JsonValue::Str("a \"quoted\"\nname".into()))
        );
        assert_eq!(parsed.get_path("nested.ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(
            parsed.get("xs"),
            Some(&JsonValue::Arr(vec![
                JsonValue::Num(-3.0),
                JsonValue::Num(0.5),
                JsonValue::Null
            ]))
        );
        assert_eq!(parsed.get("empty"), Some(&JsonValue::Arr(vec![])));
    }

    #[test]
    fn parse_handles_numbers_and_rejects_garbage() {
        assert_eq!(
            JsonValue::parse("[1, 2.5e3, -0.25]").unwrap(),
            JsonValue::Arr(vec![
                JsonValue::Num(1.0),
                JsonValue::Num(2500.0),
                JsonValue::Num(-0.25)
            ])
        );
        assert!(JsonValue::parse("{\"a\": 1} trailing").is_err());
        assert!(JsonValue::parse("{\"a\" 1}").is_err());
        assert!(JsonValue::parse("").is_err());
    }

    #[test]
    fn parse_handles_multibyte_strings() {
        // 2-, 3- and 4-byte scalars, adjacent and at end-of-string, plus a
        // \u escape: exercises the bounded UTF-8 width decoding.
        let doc = JsonValue::parse("{\"k\": \"ζ≥G — 𝄞ok𝄞\", \"u\": \"\\u03b6\"}").unwrap();
        assert_eq!(doc.get("k"), Some(&JsonValue::Str("ζ≥G — 𝄞ok𝄞".into())));
        assert_eq!(doc.get("u"), Some(&JsonValue::Str("ζ".into())));
    }

    #[test]
    fn get_path_descends_and_misses_cleanly() {
        let doc = JsonValue::parse(r#"{"a": {"b": {"c": 7}}}"#).unwrap();
        assert_eq!(doc.get_path("a.b.c").and_then(JsonValue::as_f64), Some(7.0));
        assert_eq!(doc.get_path("a.b.missing"), None);
        assert_eq!(doc.get_path("a.b.c.too_deep"), None);
    }
}
