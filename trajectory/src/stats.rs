//! Percentiles with the omission rule, and the small JSON value the
//! benchmark prints and `compare` reads back (the container has no
//! serde; see `vendor/README.md`).

use std::fmt;

/// Samples that must lie beyond a reported percentile. With fewer, the
/// percentile is one slow reply away from moving and is omitted instead.
pub const SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 1)`) of `samples`, or `None`
/// when it would not leave [`SAMPLES_BEYOND`] samples above it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < SAMPLES_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The plain median of a handful of repeated measurements (set-up
/// times, micro-measures, medians across runs) — no omission rule.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with quartiles as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the spread the driver computes.
pub fn iqr_share(values: &[f64]) -> f64 {
    let n = values.len();
    let m = median(values);
    if n < 2 || m == 0.0 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + frac * (sorted[j] - sorted[j - 1])
    };
    (quartile(3) - quartile(1)) / m
}

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            src: src.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            // `{}` prints the shortest digits that read back exactly; JSON
            // has no NaN or infinity, so those print as 0.
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Num(_) => write!(f, "0"),
            Json::Str(s) => {
                write!(f, "\"")?;
                for c in s.chars() {
                    match c {
                        '"' => write!(f, "\\\"")?,
                        '\\' => write!(f, "\\\\")?,
                        '\n' => write!(f, "\\n")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                write!(f, "\"")
            }
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Json::Obj(pairs) => {
                write!(f, "{{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}: {v}", Json::Str(k.clone()))?;
                }
                write!(f, "}}")
            }
        }
    }
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.src.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.src[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let at = self.pos;
        match self.src.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                loop {
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(pairs));
                    }
                    if !pairs.is_empty() && !self.eat(",") {
                        return Err(format!("expected , or }} at byte {}", self.pos));
                    }
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(format!("expected : at byte {}", self.pos));
                    }
                    pairs.push((key, self.value()?));
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() && !self.eat(",") {
                        return Err(format!("expected , or ] at byte {}", self.pos));
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                while self
                    .src
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.src[at..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {at}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected a string at byte {}", self.pos));
        }
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.src.get(self.pos) else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let Some(&esc) = self.src.get(self.pos) else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self
                                .src
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            out.extend_from_slice(hex.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_obey_the_ten_beyond_rule() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(50.0));
        assert_eq!(percentile(&v, 0.90), Some(90.0));
        // p99 of 100 samples leaves one sample beyond it: omitted.
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // The median needs twenty samples to leave ten above it.
        assert_eq!(percentile(&v[..19], 0.50), None);
        assert_eq!(percentile(&v[..20], 0.50), Some(10.0));
        assert_eq!(percentile(&[], 0.50), None);
    }

    #[test]
    fn percentile_does_not_depend_on_sample_order() {
        let mut v: Vec<f64> = (1..=40).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&v, 0.50), Some(20.0));
    }

    #[test]
    fn iqr_share_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_round_trips() {
        let doc = Json::obj([
            ("name", Json::str("a \"quoted\"\nline")),
            ("n", Json::Num(1.25)),
            ("big", Json::Num(49500.0)),
            (
                "list",
                Json::Arr(vec![Json::Bool(true), Json::Null, Json::Num(-3e-7)]),
            ),
            ("nested", Json::obj([("k", Json::Num(0.0))])),
        ]);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        assert_eq!(
            doc.get("nested")
                .and_then(|n| n.get("k"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert_eq!(Json::Num(f64::NAN).to_string(), "0");
    }
}
