//! The latency suite's regression smoke gate.
//!
//! CI runs the latency sweep at smoke effort on every push and compares the
//! fresh `slo_max_load` scalars against the smoke-baseline series committed
//! inside `BENCH_latency.json`.  Comparing raw requests/sec across machines
//! would be meaningless (the committed baseline comes from the reference
//! container, CI runners differ in clock speed and core count), so the gate
//! compares **normalized** per-scheme values: each scheme's mean over the
//! sweep, divided by the best scheme's mean in the *same* run.  A scheme
//! whose normalized value drops by more than the caller's tolerance
//! (override with the `BENCH_REGRESSION_TOLERANCE` env var, e.g. `0.5`)
//! relative to the committed baseline fails the gate — that shape change is
//! what a scheme-specific regression looks like, and it is invariant to how
//! fast the host is.
//!
//! The committed document is parsed with the small JSON reader in this
//! module (the workspace is offline — no serde), which understands exactly
//! the subset `metrics::Series::to_json` emits.

use metrics::Series;

/// Environment variable overriding the caller's regression tolerance.
pub const TOLERANCE_ENV: &str = "BENCH_REGRESSION_TOLERANCE";

/// The tolerance to use: `BENCH_REGRESSION_TOLERANCE` if set (a fraction in
/// `(0, 1]`), the caller's `default` otherwise.
///
/// # Panics
/// Panics if the variable is set but does not parse as a fraction.
pub fn tolerance_from_env_or(default: f64) -> f64 {
    match std::env::var(TOLERANCE_ENV) {
        Ok(raw) => {
            let tol: f64 = raw
                .parse()
                .unwrap_or_else(|_| panic!("{TOLERANCE_ENV} must be a number, got {raw:?}"));
            assert!(
                tol > 0.0 && tol <= 1.0,
                "{TOLERANCE_ENV} must be in (0, 1], got {tol}"
            );
            tol
        }
        Err(_) => default,
    }
}

/// Result of one gate evaluation.
#[derive(Debug, Default)]
pub struct GateOutcome {
    /// Per-scheme comparisons performed (a zero count means the committed
    /// document had no comparable baseline — the gate should be treated as
    /// not run, not as passed).
    pub checks: usize,
    /// Fresh series for which a comparable committed baseline was found.
    /// Callers that pass N series should insist on N here — a partially
    /// matching baseline must not half-disable the gate silently.
    pub series_checked: usize,
    /// Human-readable description of every comparison.
    pub details: Vec<String>,
    /// Failed comparisons (empty = pass).
    pub failures: Vec<String>,
}

impl GateOutcome {
    /// True if every performed comparison passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compare freshly measured series against a committed suite document.
///
/// Each fresh series named `name` is compared against the committed series
/// `{name}_smoke` (the smoke-sized baseline embedded in the full document),
/// falling back to `{name}` when the x-axis labels match exactly; series
/// without a comparable baseline are skipped and noted in `details`.
pub fn regression_gate(
    committed_json: &str,
    fresh: &[(&str, &Series)],
    tolerance: f64,
) -> Result<GateOutcome, String> {
    let doc = json::parse(committed_json)?;
    let series_obj = doc
        .get("series")
        .ok_or("committed document has no \"series\" object")?;
    let mut outcome = GateOutcome::default();
    for (name, fresh_series) in fresh {
        let smoke_name = format!("{name}_smoke");
        let committed = [smoke_name.as_str(), name]
            .into_iter()
            .filter_map(|n| series_obj.get(n).map(|v| (n.to_string(), v)))
            .find(|(_, v)| x_labels(v) == fresh_x_labels(fresh_series));
        let Some((baseline_name, committed)) = committed else {
            outcome.details.push(format!(
                "{name}: no committed baseline with matching sweep labels; skipped"
            ));
            continue;
        };
        outcome.series_checked += 1;
        compare_series(
            name,
            &baseline_name,
            committed,
            fresh_series,
            tolerance,
            &mut outcome,
        )?;
    }
    Ok(outcome)
}

fn fresh_x_labels(series: &Series) -> Vec<String> {
    series.x_values().to_vec()
}

fn x_labels(series: &json::Value) -> Vec<String> {
    series
        .get("x")
        .and_then(|x| x.as_array())
        .map(|arr| {
            arr.iter()
                .filter_map(|v| v.as_str().map(String::from))
                .collect()
        })
        .unwrap_or_default()
}

/// Mean of a column, 0 for an empty one.
fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Normalize per-scheme means by the best scheme's mean.
fn normalize(means: &[(String, f64)]) -> Vec<(String, f64)> {
    let best = means.iter().map(|(_, m)| *m).fold(0.0f64, f64::max);
    means
        .iter()
        .map(|(name, m)| (name.clone(), if best > 0.0 { m / best } else { 0.0 }))
        .collect()
}

fn compare_series(
    name: &str,
    baseline_name: &str,
    committed: &json::Value,
    fresh: &Series,
    tolerance: f64,
    outcome: &mut GateOutcome,
) -> Result<(), String> {
    let columns = committed
        .get("columns")
        .and_then(|c| c.as_object())
        .ok_or_else(|| format!("committed series {baseline_name} has no columns"))?;
    let committed_means: Vec<(String, f64)> = columns
        .iter()
        .map(|(scheme, values)| {
            let nums: Vec<f64> = values
                .as_array()
                .map(|a| a.iter().filter_map(|v| v.as_f64()).collect())
                .unwrap_or_default();
            (scheme.clone(), mean(&nums))
        })
        .collect();
    let fresh_means: Vec<(String, f64)> = fresh
        .column_names()
        .iter()
        .map(|scheme| {
            (
                scheme.to_string(),
                mean(fresh.column(scheme).unwrap_or(&[])),
            )
        })
        .collect();
    let committed_norm = normalize(&committed_means);
    let fresh_norm = normalize(&fresh_means);
    for (scheme, fresh_value) in &fresh_norm {
        let Some((_, committed_value)) = committed_norm.iter().find(|(s, _)| s == scheme) else {
            outcome.details.push(format!(
                "{name}/{scheme}: not in committed baseline; skipped"
            ));
            continue;
        };
        outcome.checks += 1;
        let floor = committed_value * (1.0 - tolerance);
        let line = format!(
            "{name}/{scheme}: normalized {fresh_value:.3} vs committed {committed_value:.3} \
             (floor {floor:.3})"
        );
        if *fresh_value < floor {
            outcome.failures.push(line.clone());
        }
        outcome.details.push(line);
    }
    Ok(())
}

/// A minimal JSON reader for the benchmark documents this crate emits.
///
/// Supports objects, arrays, strings (with the common escapes), numbers,
/// booleans and null — everything `metrics::Series::to_json` produces.  Not
/// a general-purpose parser; errors are positions plus a short description.
pub mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any JSON number (kept as `f64`; the documents only carry f64s).
        Number(f64),
        /// A string.
        String(String),
        /// An array.
        Array(Vec<Value>),
        /// An object, insertion-ordered.
        Object(Vec<(String, Value)>),
    }

    impl Value {
        /// Member `key` of an object value.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The object members, if this is an object.
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Object(members) => Some(members),
                _ => None,
            }
        }

        /// The elements, if this is an array.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(items) => Some(items),
                _ => None,
            }
        }

        /// The number, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Number(x) => Some(*x),
                _ => None,
            }
        }

        /// The string, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::String(s) => Some(s),
                _ => None,
            }
        }
    }

    /// Parse a JSON document.
    pub fn parse(input: &str) -> Result<Value, String> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing data"));
        }
        Ok(value)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn error(&self, message: &str) -> String {
            format!("JSON error at byte {}: {message}", self.pos)
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, byte: u8) -> Result<(), String> {
            if self.peek() == Some(byte) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.error(&format!("expected {:?}", byte as char)))
            }
        }

        fn literal(&mut self, lit: &str, value: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(value)
            } else {
                Err(self.error(&format!("expected {lit}")))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::String(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                _ => Err(self.error("expected a value")),
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut members = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Object(members));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value()?;
                members.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Object(members));
                    }
                    _ => return Err(self.error("expected , or } in object")),
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(self.error("expected , or ] in array")),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.error("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let escaped = self.peek().ok_or_else(|| self.error("bad escape"))?;
                        self.pos += 1;
                        match escaped {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'r' => out.push('\r'),
                            _ => return Err(self.error("unsupported escape")),
                        }
                    }
                    Some(_) => {
                        // Multi-byte UTF-8 sequences pass through unharmed:
                        // continuation bytes never match the arms above.
                        let start = self.pos;
                        while !matches!(self.peek(), None | Some(b'"') | Some(b'\\')) {
                            self.pos += 1;
                        }
                        out.push_str(
                            std::str::from_utf8(&self.bytes[start..self.pos])
                                .map_err(|_| self.error("invalid UTF-8"))?,
                        );
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
            {
                self.pos += 1;
            }
            std::str::from_utf8(&self.bytes[start..self.pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Value::Number)
                .ok_or_else(|| self.error("bad number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(labels: &[&str], columns: &[(&str, &[f64])]) -> Series {
        let mut s = Series::new("t", "x");
        s.set_x_values(labels.iter().map(|l| l.to_string()));
        for (name, values) in columns {
            s.add_column(*name, values.to_vec());
        }
        s
    }

    fn committed_doc() -> String {
        let smoke = series(
            &["1p x 2w", "2p x 2w"],
            &[("WW", &[10.0, 10.0]), ("NoAgg", &[5.0, 5.0])],
        );
        let paper = series(&["1p x 4w"], &[("WW", &[100.0]), ("NoAgg", &[60.0])]);
        crate::suite_json(
            "latency",
            crate::Effort::Paper,
            &[("slo_max_load", &paper), ("slo_max_load_smoke", &smoke)],
        )
    }

    #[test]
    fn json_roundtrip_of_a_series_document() {
        let doc = committed_doc();
        let parsed = json::parse(&doc).expect("parse");
        assert_eq!(
            parsed.get("suite").and_then(|v| v.as_str()),
            Some("latency")
        );
        let smoke = parsed
            .get("series")
            .and_then(|s| s.get("slo_max_load_smoke"))
            .expect("smoke series present");
        let ww = smoke
            .get("columns")
            .and_then(|c| c.get("WW"))
            .and_then(|v| v.as_array())
            .expect("WW column");
        assert_eq!(ww.len(), 2);
        assert_eq!(ww[0].as_f64(), Some(10.0));
    }

    #[test]
    fn matching_shape_passes_even_on_a_slower_host() {
        // Fresh numbers are 10x slower in absolute terms but have the same
        // scheme ratios: the normalized gate must pass.
        let fresh = series(
            &["1p x 2w", "2p x 2w"],
            &[("WW", &[1.0, 1.0]), ("NoAgg", &[0.5, 0.5])],
        );
        let outcome = regression_gate(&committed_doc(), &[("slo_max_load", &fresh)], 0.30).unwrap();
        assert_eq!(outcome.checks, 2);
        assert_eq!(outcome.series_checked, 1);
        assert!(outcome.passed(), "{:?}", outcome.failures);
    }

    #[test]
    fn per_scheme_collapse_fails_the_gate() {
        // NoAgg collapses from 0.5x-of-best to 0.1x-of-best: > 30% drop.
        let fresh = series(
            &["1p x 2w", "2p x 2w"],
            &[("WW", &[1.0, 1.0]), ("NoAgg", &[0.1, 0.1])],
        );
        let outcome = regression_gate(&committed_doc(), &[("slo_max_load", &fresh)], 0.30).unwrap();
        assert!(!outcome.passed());
        assert_eq!(outcome.failures.len(), 1);
        assert!(outcome.failures[0].contains("NoAgg"));
    }

    #[test]
    fn wider_tolerance_lets_the_same_drop_through() {
        let fresh = series(
            &["1p x 2w", "2p x 2w"],
            &[("WW", &[1.0, 1.0]), ("NoAgg", &[0.4, 0.4])],
        );
        let strict = regression_gate(&committed_doc(), &[("slo_max_load", &fresh)], 0.1).unwrap();
        assert!(!strict.passed());
        let lax = regression_gate(&committed_doc(), &[("slo_max_load", &fresh)], 0.5).unwrap();
        assert!(lax.passed());
    }

    #[test]
    fn mismatched_sweep_labels_are_skipped_not_compared() {
        let fresh = series(&["9p x 9w"], &[("WW", &[1.0])]);
        let outcome = regression_gate(&committed_doc(), &[("slo_max_load", &fresh)], 0.30).unwrap();
        assert_eq!(outcome.checks, 0);
        assert_eq!(
            outcome.series_checked, 0,
            "an uncovered series must be visible to callers"
        );
        assert!(outcome.passed());
        assert!(outcome.details[0].contains("skipped"));
    }

    #[test]
    fn malformed_committed_document_is_an_error() {
        let fresh = series(&["1p x 2w"], &[("WW", &[1.0])]);
        assert!(regression_gate("{not json", &[("slo_max_load", &fresh)], 0.3).is_err());
        assert!(regression_gate("{}", &[("slo_max_load", &fresh)], 0.3).is_err());
    }
}
