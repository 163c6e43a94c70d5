//! The JSON-lines wire format.
//!
//! Hand-rolled for the same reason the store's binary codec is (see
//! `semitri-store`): the schema is small and fixed, crates.io is out of
//! reach, and keeping the format inspectable beats pulling a JSON stack.
//! One JSON object per line, flat scalar fields only on input.
//!
//! **Request body** (`POST /annotate`, `POST /session/{user}/push`):
//!
//! ```text
//! {"object_id":7,"trajectory_id":1}      <- optional header, first line
//! {"x":1200.0,"y":1400.0,"t":28800.0}    <- one line per GPS fix
//! ```
//!
//! Coordinates are meters in the city's local projection, `t` is unix
//! seconds — the same convention as the CSV reader in `semitri-data`.
//!
//! **Response body**: one `{"type":...}` object per line; `summary` +
//! `tuple` lines for a full annotation, `move`/`stop` event lines for
//! streaming pushes, `cleaning` + `end` for a flush. Everything the
//! server emits goes through [`encode_output`] / [`encode_events`] /
//! [`encode_flush`], and the CLI `annotate` subcommand prints through
//! the same functions — byte-identical output is a design invariant the
//! integration suite asserts, not an accident.

use semitri_core::streaming::StreamEvent;
use semitri_core::{Mutation, PipelineOutput};
use semitri_data::{GpsFeed, GpsRecord, LanduseCategory, PoiCategory, RegionKind, RoadClass};
use semitri_geo::{Point, Rect, Timestamp};
use semitri_obs::CleaningReport;
use std::fmt;

/// A malformed request body.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub msg: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for WireError {}

fn err(line: usize, msg: impl Into<String>) -> WireError {
    WireError {
        line,
        msg: msg.into(),
    }
}

/// Walks one flat JSON object, handing each `(key, raw value token)` pair
/// to `field` in line order. Accepts exactly the subset the wire format
/// uses: string keys without escapes, scalar values (numbers,
/// `true`/`false`/`null`, escape-free strings). Anything nested is a
/// syntax error.
fn scan_flat_object<'a>(
    line: &'a str,
    mut field: impl FnMut(&'a str, &'a str),
) -> Result<(), String> {
    let s = line.trim();
    let inner = s
        .strip_prefix('{')
        .and_then(|r| r.strip_suffix('}'))
        .ok_or("expected a {...} object")?;
    let mut rest = inner.trim();
    while !rest.is_empty() {
        // key
        rest = rest.strip_prefix('"').ok_or("expected a quoted key")?;
        let kq = rest.find('"').ok_or("unterminated key")?;
        let key = &rest[..kq];
        rest = rest[kq + 1..].trim_start();
        rest = rest.strip_prefix(':').ok_or("expected ':' after key")?;
        rest = rest.trim_start();
        // value token: a quoted string or a bare scalar up to ',' / end
        let value;
        if let Some(vr) = rest.strip_prefix('"') {
            let vq = vr.find('"').ok_or("unterminated string value")?;
            value = &vr[..vq];
            rest = vr[vq + 1..].trim_start();
        } else {
            let end = rest.find(',').unwrap_or(rest.len());
            value = rest[..end].trim();
            if value.is_empty() {
                return Err("empty value".to_string());
            }
            if value.contains(['{', '[', '"']) {
                return Err("nested values are not part of the wire format".to_string());
            }
            rest = &rest[end..];
        }
        field(key, value);
        rest = rest.trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
            if rest.is_empty() {
                return Err("trailing comma".to_string());
            }
        } else if !rest.is_empty() {
            return Err("expected ',' between fields".to_string());
        }
    }
    Ok(())
}

/// [`scan_flat_object`] collected into a pair list, for bodies whose
/// lines carry many optional fields (mutations).
fn parse_flat_object(line: &str) -> Result<Vec<(&str, &str)>, String> {
    let mut pairs = Vec::new();
    scan_flat_object(line, |k, v| pairs.push((k, v)))?;
    Ok(pairs)
}

fn token_f64(key: &str, v: &str) -> Result<f64, String> {
    v.parse::<f64>()
        .map_err(|_| format!("field '{key}' is not a number: {v:?}"))
}

fn token_u64(key: &str, v: &str) -> Result<u64, String> {
    v.parse::<u64>()
        .map_err(|_| format!("field '{key}' is not an unsigned integer: {v:?}"))
}

fn field_f64(pairs: &[(&str, &str)], key: &str) -> Option<Result<f64, String>> {
    field_str(pairs, key).map(|v| token_f64(key, v))
}

/// `10^k` for every fraction length a fast-path number can have. Each is
/// exact in `f64`: `10^k = 2^k · 5^k` and `5^19 < 2^53`.
const POW10: [f64; 20] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19,
];

/// One number of a canonical fix line, `-?digits(.digits)?`, directly
/// followed by `end`. Returns the value and the bytes after `end`.
///
/// With at most 19 digits the mantissa `m` cannot overflow; with
/// `m ≤ 2^53` as well, `m` and `10^frac` are both exact in `f64` and the
/// one division rounds correctly (Clinger), so the result is bit-identical
/// to `str::parse`. Any other number falls back to `str::parse` on the
/// token already cut out.
fn canonical_number(s: &[u8], end: u8) -> Option<(f64, &[u8])> {
    let neg = s.first() == Some(&b'-');
    let start = usize::from(neg);
    let mut i = start;
    let mut m = 0u64;
    let mut dot = None;
    loop {
        match *s.get(i)? {
            d @ b'0'..=b'9' => m = m.wrapping_mul(10).wrapping_add(u64::from(d - b'0')),
            b'.' if dot.is_none() && i > start => dot = Some(i),
            b if b == end => break,
            _ => return None,
        }
        i += 1;
    }
    let frac = match dot {
        Some(d) if d + 1 == i => return None,
        Some(d) => i - d - 1,
        None => 0,
    };
    let digits = i - start - usize::from(dot.is_some());
    if digits == 0 {
        return None;
    }
    let value = if digits <= 19 && m <= 1 << 53 {
        let v = m as f64 / POW10[frac];
        if neg {
            -v
        } else {
            v
        }
    } else {
        std::str::from_utf8(&s[..i]).ok()?.parse().ok()?
    };
    Some((value, &s[i + 1..]))
}

/// The fast path for a fix line spelled exactly `{"x":N,"y":N,"t":N}` —
/// what printing three finite `f64`s with `{}` gives — in one forward pass
/// over the bytes. Any other spelling — whitespace, another key order, extra
/// keys, a header, `+7`, `.5`, `12.`, exponents, `NaN` — returns `None` and
/// takes the general path, which owns every [`WireError`].
fn canonical_fix(line: &[u8]) -> Option<[f64; 3]> {
    let rest = line.strip_prefix(b"{\"x\":")?;
    let (x, rest) = canonical_number(rest, b',')?;
    let rest = rest.strip_prefix(b"\"y\":")?;
    let (y, rest) = canonical_number(rest, b',')?;
    let rest = rest.strip_prefix(b"\"t\":")?;
    let (t, rest) = canonical_number(rest, b'}')?;
    rest.is_empty().then_some([x, y, t])
}

/// Parses a feed body: an optional `object_id`/`trajectory_id` header
/// line followed by one fix per line. Blank lines are ignored.
///
/// A canonical fix line goes through [`canonical_fix`]. Any other line is
/// scanned once, straight into the five fields a feed line can carry — no
/// pair list, no lookups. Of a repeated key the first occurrence counts;
/// unknown keys are skipped.
pub fn parse_feed(body: &str) -> Result<GpsFeed, WireError> {
    let mut object_id = 0u64;
    let mut trajectory_id = 0u64;
    let mut records = Vec::new();
    let mut saw_any = false;
    for (i, raw) in body.lines().enumerate() {
        if let Some([x, y, t]) = canonical_fix(raw.as_bytes()) {
            records.push(GpsRecord::new(Point::new(x, y), Timestamp(t)));
            saw_any = true;
            continue;
        }
        let line_no = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let (mut x, mut y, mut t, mut object, mut trajectory) = (None, None, None, None, None);
        scan_flat_object(raw, |key, value| {
            let slot = match key {
                "x" => &mut x,
                "y" => &mut y,
                "t" => &mut t,
                "object_id" => &mut object,
                "trajectory_id" => &mut trajectory,
                _ => return,
            };
            slot.get_or_insert(value);
        })
        .map_err(|m| err(line_no, m))?;
        if object.is_some() || trajectory.is_some() {
            if saw_any {
                return Err(err(line_no, "header must be the first line"));
            }
            if let Some(v) = object {
                object_id = token_u64("object_id", v).map_err(|m| err(line_no, m))?;
            }
            if let Some(v) = trajectory {
                trajectory_id = token_u64("trajectory_id", v).map_err(|m| err(line_no, m))?;
            }
        } else {
            let get = |key: &str, v: Option<&str>| -> Result<f64, WireError> {
                let v = v.ok_or_else(|| err(line_no, format!("fix is missing field '{key}'")))?;
                token_f64(key, v).map_err(|m| err(line_no, m))
            };
            let point = Point::new(get("x", x)?, get("y", y)?);
            records.push(GpsRecord::new(point, Timestamp(get("t", t)?)));
        }
        saw_any = true;
    }
    if !saw_any {
        return Err(err(1, "empty body"));
    }
    Ok(GpsFeed::new(object_id, trajectory_id, records))
}

/// Parses a push body: fixes only (a header line, if present, is
/// validated and ignored — the session identity lives in the URL).
pub fn parse_records(body: &str) -> Result<Vec<GpsRecord>, WireError> {
    Ok(parse_feed(body)?.records)
}

fn field_str<'a>(pairs: &[(&'a str, &'a str)], key: &str) -> Option<&'a str> {
    pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

fn road_class(label: &str) -> Option<RoadClass> {
    [
        RoadClass::Highway,
        RoadClass::Street,
        RoadClass::Path,
        RoadClass::Rail,
    ]
    .into_iter()
    .find(|c| c.label() == label)
}

fn region_kind(label: &str) -> Option<RegionKind> {
    [
        RegionKind::Campus,
        RegionKind::Recreation,
        RegionKind::Market,
        RegionKind::Residential,
    ]
    .into_iter()
    .find(|k| k.label() == label)
}

/// Parses a `POST /admin/update` body: one mutation per line, each a
/// flat JSON object selected by its `op` field.
///
/// ```text
/// {"op":"add_road","x1":100,"y1":100,"x2":300,"y2":100,"class":"street","bus":false,"name":"New St"}
/// {"op":"add_poi","x":150,"y":150,"category":"feedings","name":"New Cafe"}
/// {"op":"set_landuse","x":50,"y":50,"category":"lake"}
/// {"op":"add_region","name":"New Campus","kind":"campus","min_x":0,"min_y":0,"max_x":500,"max_y":500}
/// ```
///
/// `class` defaults to `street`, `bus` to `false`, names to `""`;
/// category/kind labels are the same strings the annotation output uses.
pub fn parse_mutations(body: &str) -> Result<Vec<Mutation>, WireError> {
    let mut out = Vec::new();
    for (i, raw) in body.lines().enumerate() {
        let line_no = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let pairs = parse_flat_object(raw).map_err(|m| err(line_no, m))?;
        let get = |key: &str| -> Result<f64, WireError> {
            field_f64(&pairs, key)
                .ok_or_else(|| err(line_no, format!("mutation is missing field '{key}'")))?
                .map_err(|m| err(line_no, m))
        };
        let op = field_str(&pairs, "op")
            .ok_or_else(|| err(line_no, "mutation is missing field 'op'"))?;
        let mutation = match op {
            "add_road" => {
                let class_label = field_str(&pairs, "class").unwrap_or("street");
                let class = road_class(class_label)
                    .ok_or_else(|| err(line_no, format!("unknown road class {class_label:?}")))?;
                let bus_route = matches!(field_str(&pairs, "bus"), Some("true"));
                Mutation::AddRoad {
                    from: Point::new(get("x1")?, get("y1")?),
                    to: Point::new(get("x2")?, get("y2")?),
                    class,
                    bus_route,
                    name: field_str(&pairs, "name").unwrap_or("").to_string(),
                }
            }
            "add_poi" => {
                let label = field_str(&pairs, "category").unwrap_or("unknown");
                let category = PoiCategory::ALL
                    .into_iter()
                    .find(|c| c.label() == label)
                    .ok_or_else(|| err(line_no, format!("unknown poi category {label:?}")))?;
                Mutation::AddPoi {
                    point: Point::new(get("x")?, get("y")?),
                    category,
                    name: field_str(&pairs, "name").unwrap_or("").to_string(),
                }
            }
            "set_landuse" => {
                let label = field_str(&pairs, "category")
                    .ok_or_else(|| err(line_no, "mutation is missing field 'category'"))?;
                let category = LanduseCategory::ALL
                    .into_iter()
                    .find(|c| c.label() == label || c.code() == label)
                    .ok_or_else(|| err(line_no, format!("unknown landuse category {label:?}")))?;
                Mutation::SetLanduse {
                    at: Point::new(get("x")?, get("y")?),
                    category,
                }
            }
            "add_region" => {
                let kind_label = field_str(&pairs, "kind").unwrap_or("campus");
                let kind = region_kind(kind_label)
                    .ok_or_else(|| err(line_no, format!("unknown region kind {kind_label:?}")))?;
                Mutation::AddRegion {
                    name: field_str(&pairs, "name").unwrap_or("").to_string(),
                    kind,
                    bounds: Rect::new(get("min_x")?, get("min_y")?, get("max_x")?, get("max_y")?),
                }
            }
            other => return Err(err(line_no, format!("unknown mutation op {other:?}"))),
        };
        mutation.validate().map_err(|m| err(line_no, m))?;
        out.push(mutation);
    }
    if out.is_empty() {
        return Err(err(1, "empty update body"));
    }
    Ok(out)
}

/// Escapes a string for inclusion in a JSON string literal.
pub(crate) fn push_json_str(out: &mut String, s: &str) {
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

/// JSON-safe float rendering (JSON has no Infinity/NaN literals; the
/// pipeline never emits them, but the encoder must not either).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn push_cleaning(out: &mut String, c: &CleaningReport) {
    out.push_str(&format!(
        "\"input\":{},\"kept\":{},\"dropped\":{},\"reordered\":{},\"deduped\":{}",
        c.input,
        c.kept,
        c.dropped(),
        c.reordered,
        c.deduped
    ));
}

/// Renders a full pipeline output (`POST /annotate` and the CLI
/// `annotate` subcommand) as JSON lines: one `summary` line, then one
/// `tuple` line per SST tuple.
pub fn encode_output(out: &PipelineOutput) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{{\"type\":\"summary\",\"object_id\":{},\"trajectory_id\":{},",
        out.sst.object_id, out.sst.trajectory_id
    ));
    push_cleaning(&mut s, &out.cleaning);
    s.push_str(&format!(
        ",\"episodes\":{},\"tuples\":{}}}\n",
        out.episodes.len(),
        out.sst.len()
    ));
    for tuple in &out.sst.tuples {
        s.push_str("{\"type\":\"tuple\",\"place\":");
        match &tuple.place {
            Some(p) => {
                push_json_str(&mut s, &p.label);
                s.push_str(&format!(",\"place_kind\":\"{}\"", p.kind.label()));
                s.push_str(&format!(",\"place_id\":{}", p.id));
            }
            None => s.push_str("null,\"place_kind\":null,\"place_id\":null"),
        }
        s.push_str(&format!(
            ",\"t_in\":{},\"t_out\":{},\"annotations\":[",
            json_f64(tuple.span.start.0),
            json_f64(tuple.span.end.0)
        ));
        for (i, a) in tuple.annotations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"key\":");
            push_json_str(&mut s, &a.key);
            s.push_str(",\"value\":");
            match &a.value {
                semitri_core::AnnotationValue::Mode(m) => push_json_str(&mut s, m.label()),
                semitri_core::AnnotationValue::Activity(c) => push_json_str(&mut s, c.label()),
                semitri_core::AnnotationValue::Text(t) => push_json_str(&mut s, t),
                semitri_core::AnnotationValue::Number(n) => s.push_str(&json_f64(*n)),
            }
            s.push('}');
        }
        s.push_str("]}\n");
    }
    s
}

/// Renders streaming events (`POST /session/{user}/push` responses).
pub fn encode_events(events: &[StreamEvent]) -> String {
    let mut s = String::new();
    for e in events {
        match e {
            StreamEvent::Move { episode, route } => {
                s.push_str(&format!(
                    "{{\"type\":\"move\",\"start\":{},\"end\":{},\"t_in\":{},\"t_out\":{},\"entries\":{}}}\n",
                    episode.start,
                    episode.end,
                    json_f64(episode.span.start.0),
                    json_f64(episode.span.end.0),
                    route.len()
                ));
            }
            StreamEvent::Stop {
                episode,
                annotation,
                region,
            } => {
                s.push_str(&format!(
                    "{{\"type\":\"stop\",\"start\":{},\"end\":{},\"t_in\":{},\"t_out\":{},\"category\":",
                    episode.start,
                    episode.end,
                    json_f64(episode.span.start.0),
                    json_f64(episode.span.end.0)
                ));
                push_json_str(&mut s, annotation.category.label());
                s.push_str(",\"region\":");
                match region {
                    Some(r) => push_json_str(&mut s, &r.label),
                    None => s.push_str("null"),
                }
                s.push_str("}\n");
            }
        }
    }
    s
}

/// Renders a flush response: the final events, the session's cumulative
/// cleaning report, and a terminal `end` line.
pub fn encode_flush(events: &[StreamEvent], cleaning: &CleaningReport, records: usize) -> String {
    let mut s = encode_events(events);
    s.push_str("{\"type\":\"cleaning\",");
    push_cleaning(&mut s, cleaning);
    s.push_str("}\n");
    s.push_str(&format!("{{\"type\":\"end\",\"records\":{records}}}\n"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feed_roundtrip_with_header() {
        let body = "{\"object_id\":7,\"trajectory_id\":3}\n\
                    {\"x\":1.5,\"y\":-2.25,\"t\":100}\n\
                    \n\
                    {\"x\":2.5, \"y\":0, \"t\":108.5}\n";
        let feed = parse_feed(body).unwrap();
        assert_eq!(feed.object_id, 7);
        assert_eq!(feed.trajectory_id, 3);
        assert_eq!(feed.records.len(), 2);
        assert_eq!(feed.records[0].point, Point::new(1.5, -2.25));
        assert_eq!(feed.records[1].t.0, 108.5);
    }

    #[test]
    fn feed_without_header_defaults_ids() {
        let feed = parse_feed("{\"x\":0,\"y\":0,\"t\":1}\n").unwrap();
        assert_eq!(feed.object_id, 0);
        assert_eq!(feed.trajectory_id, 0);
        assert_eq!(feed.records.len(), 1);
    }

    const MALFORMED: [(&str, usize); 9] = [
        ("", 1),
        ("not json", 1),
        ("{\"x\":0,\"y\":0,\"t\":1}\n{\"x\":}", 2),
        ("{\"x\":0,\"y\":0}\n", 1),                          // missing t
        ("{\"x\":0,\"y\":0,\"t\":\"noon\"}\n", 1),           // t not a number
        ("{\"x\":0,\"y\":0,\"t\":1}\n{\"object_id\":1}", 2), // late header
        ("{\"object_id\":-1}", 1),                           // negative id
        ("{\"x\":[1],\"y\":0,\"t\":1}", 1),                  // nested value
        ("{\"x\":0,\"y\":0,\"t\":1,}", 1),                   // trailing comma
    ];

    #[test]
    fn malformed_bodies_are_rejected_with_line_numbers() {
        for (body, want_line) in MALFORMED {
            let e = parse_feed(body).unwrap_err();
            assert_eq!(e.line, want_line, "{body:?} -> {e}");
        }
    }

    /// `parse_feed` as it was before the one-pass rewrite — tokenizer, pair
    /// list and per-field lookups, verbatim — kept as the reference the new
    /// body is held to.
    mod pairwise {
        use super::super::{err, WireError};
        use semitri_data::{GpsFeed, GpsRecord};
        use semitri_geo::{Point, Timestamp};

        /// Splits one flat JSON object into `(key, raw value token)` pairs.
        /// Accepts exactly the subset the wire format uses: string keys without
        /// escapes, scalar values (numbers, `true`/`false`/`null`, escape-free
        /// strings). Anything nested is a syntax error.
        fn parse_flat_object(line: &str) -> Result<Vec<(&str, &str)>, String> {
            let s = line.trim();
            let inner = s
                .strip_prefix('{')
                .and_then(|r| r.strip_suffix('}'))
                .ok_or("expected a {...} object")?;
            let mut pairs = Vec::new();
            let mut rest = inner.trim();
            while !rest.is_empty() {
                // key
                rest = rest.strip_prefix('"').ok_or("expected a quoted key")?;
                let kq = rest.find('"').ok_or("unterminated key")?;
                let key = &rest[..kq];
                rest = rest[kq + 1..].trim_start();
                rest = rest.strip_prefix(':').ok_or("expected ':' after key")?;
                rest = rest.trim_start();
                // value token: a quoted string or a bare scalar up to ',' / end
                let value;
                if let Some(vr) = rest.strip_prefix('"') {
                    let vq = vr.find('"').ok_or("unterminated string value")?;
                    value = &vr[..vq];
                    rest = vr[vq + 1..].trim_start();
                } else {
                    let end = rest.find(',').unwrap_or(rest.len());
                    value = rest[..end].trim();
                    if value.is_empty() {
                        return Err("empty value".to_string());
                    }
                    if value.contains(['{', '[', '"']) {
                        return Err("nested values are not part of the wire format".to_string());
                    }
                    rest = &rest[end..];
                }
                pairs.push((key, value));
                rest = rest.trim_start();
                if let Some(r) = rest.strip_prefix(',') {
                    rest = r.trim_start();
                    if rest.is_empty() {
                        return Err("trailing comma".to_string());
                    }
                } else if !rest.is_empty() {
                    return Err("expected ',' between fields".to_string());
                }
            }
            Ok(pairs)
        }

        fn field_f64(pairs: &[(&str, &str)], key: &str) -> Option<Result<f64, String>> {
            pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| {
                v.parse::<f64>()
                    .map_err(|_| format!("field '{key}' is not a number: {v:?}"))
            })
        }

        fn field_u64(pairs: &[(&str, &str)], key: &str) -> Option<Result<u64, String>> {
            pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| {
                v.parse::<u64>()
                    .map_err(|_| format!("field '{key}' is not an unsigned integer: {v:?}"))
            })
        }

        fn parse_fix(pairs: &[(&str, &str)], line_no: usize) -> Result<GpsRecord, WireError> {
            let get = |key: &str| -> Result<f64, WireError> {
                field_f64(pairs, key)
                    .ok_or_else(|| err(line_no, format!("fix is missing field '{key}'")))?
                    .map_err(|m| err(line_no, m))
            };
            let x = get("x")?;
            let y = get("y")?;
            let t = get("t")?;
            Ok(GpsRecord::new(Point::new(x, y), Timestamp(t)))
        }

        /// Parses a feed body: an optional `object_id`/`trajectory_id` header
        /// line followed by one fix per line. Blank lines are ignored.
        pub fn parse_feed(body: &str) -> Result<GpsFeed, WireError> {
            let mut object_id = 0u64;
            let mut trajectory_id = 0u64;
            let mut records = Vec::new();
            let mut saw_any = false;
            for (i, raw) in body.lines().enumerate() {
                let line_no = i + 1;
                if raw.trim().is_empty() {
                    continue;
                }
                let pairs = parse_flat_object(raw).map_err(|m| err(line_no, m))?;
                let is_header = pairs
                    .iter()
                    .any(|(k, _)| *k == "object_id" || *k == "trajectory_id");
                if is_header {
                    if saw_any {
                        return Err(err(line_no, "header must be the first line"));
                    }
                    if let Some(v) = field_u64(&pairs, "object_id") {
                        object_id = v.map_err(|m| err(line_no, m))?;
                    }
                    if let Some(v) = field_u64(&pairs, "trajectory_id") {
                        trajectory_id = v.map_err(|m| err(line_no, m))?;
                    }
                    saw_any = true;
                    continue;
                }
                records.push(parse_fix(&pairs, line_no)?);
                saw_any = true;
            }
            if !saw_any {
                return Err(err(1, "empty body"));
            }
            Ok(GpsFeed::new(object_id, trajectory_id, records))
        }
    }

    /// Records compared by bit pattern: `NaN` is a value the grammar
    /// accepts and `==` does not.
    fn bits(r: Result<GpsFeed, WireError>) -> Result<(u64, u64, Vec<[u64; 3]>), WireError> {
        r.map(|f| {
            let fixes = f
                .records
                .iter()
                .map(|r| [r.point.x, r.point.y, r.t.0].map(f64::to_bits));
            (f.object_id, f.trajectory_id, fixes.collect())
        })
    }

    /// A feed body drawn from the grammar's corner cases: any key order,
    /// repeated and unknown keys, every float spelling, stray whitespace,
    /// headers early and late — and a share of lines broken on purpose.
    fn generated_body(seed: u64) -> String {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut pick = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 33) as usize % n
        };
        const KEYS: [&str; 7] = ["x", "y", "t", "x", "object_id", "trajectory_id", "speed"];
        const VALUES: [&str; 16] = [
            // four that are ids and floats, four more floats, eight that are trouble
            "0",
            "+7",
            "\"7\"",
            "18446744073709551615",
            "12.",
            "1e3",
            ".5",
            "-1.5",
            "NaN",
            "inf",
            "-infinity",
            "1_0",
            "\"noon\"",
            "true",
            "null",
            "0x10",
        ];
        const BREAKS: [&str; 8] = ["{", "}", "[1]", "\"", ",", ":", "x", ""];
        const SPACE: [&str; 4] = ["", "", " ", "\t "];
        const ENDS: [&str; 6] = ["\n", "\n", "\n", "\r\n", "\r\n", ""];
        let mut body = String::new();
        for line in 0..pick(7) {
            if pick(8) == 0 {
                body.push_str(["", "  ", "\r"][pick(3)]);
                body.push('\n');
                continue;
            }
            // the canonical spelling, mostly with numbers the fast path takes
            if pick(3) == 0 {
                let mut number = || {
                    if pick(5) == 0 {
                        VALUES[pick(VALUES.len())].to_string()
                    } else {
                        let v =
                            (pick(1 << 30) as f64 - (1 << 29) as f64) / [1.0, 4.0, 1e3][pick(3)];
                        format!("{v}")
                    }
                };
                let (x, y, t) = (number(), number(), number());
                body.push_str(&format!("{{\"x\":{x},\"y\":{y},\"t\":{t}}}"));
                body.push_str(ENDS[pick(6)]);
                continue;
            }
            // a whole fix or header in some order, or a random pick of fields
            let mut keys: Vec<&str> = match pick(12) {
                0 => (0..pick(5)).map(|_| KEYS[pick(KEYS.len())]).collect(),
                1 => vec!["object_id", "trajectory_id"][pick(2)..].to_vec(),
                _ if line == 0 && pick(2) == 0 => vec!["object_id", "trajectory_id"],
                _ => vec!["x", "y", "t"],
            };
            let turn = pick(3).min(keys.len());
            keys.rotate_left(turn);
            if pick(6) == 0 {
                keys.push(KEYS[pick(KEYS.len())]);
            }
            body.push_str(SPACE[pick(4)]);
            body.push('{');
            for (i, key) in keys.iter().enumerate() {
                let usual = if key.ends_with("_id") { 4 } else { 8 };
                let value = VALUES[if pick(16) == 0 {
                    pick(VALUES.len())
                } else {
                    pick(usual)
                }];
                let sep = if i > 0 { "," } else { "" };
                body.push_str(&format!(
                    "{sep}{}\"{key}\"{}:{}{value}{}",
                    SPACE[pick(4)],
                    SPACE[pick(4)],
                    SPACE[pick(4)],
                    SPACE[pick(4)]
                ));
                if pick(80) == 0 {
                    body.push_str(BREAKS[pick(BREAKS.len())]);
                }
            }
            body.push_str(if pick(80) == 0 {
                BREAKS[pick(BREAKS.len())]
            } else {
                "}"
            });
            body.push_str(SPACE[pick(4)]);
            body.push_str(ENDS[pick(6)]);
        }
        body
    }

    #[test]
    fn one_pass_parse_equals_the_pairwise_parse() {
        for (body, _) in MALFORMED {
            assert_eq!(parse_feed(body), pairwise::parse_feed(body), "{body:?}");
        }
        let (mut accepted, mut rejected) = (0, 0);
        for seed in 0..20_000 {
            let body = generated_body(seed);
            let (new, old) = (parse_feed(&body), pairwise::parse_feed(&body));
            assert_eq!(bits(new.clone()), bits(old), "{body:?}");
            match new {
                Ok(_) => accepted += 1,
                Err(_) => rejected += 1,
            }
        }
        // the generator exercises both outcomes, neither as a rarity
        assert!(
            accepted > 4_000 && rejected > 4_000,
            "{accepted} ok, {rejected} rejected"
        );
    }

    #[test]
    fn generated_bodies_take_both_parse_paths() {
        let (mut fast, mut general) = (0, 0);
        for seed in 0..20_000 {
            let body = generated_body(seed);
            if parse_feed(&body).is_ok() {
                for line in body.lines().filter(|l| !l.trim().is_empty()) {
                    match canonical_fix(line.as_bytes()) {
                        Some(_) => fast += 1,
                        None => general += 1,
                    }
                }
            }
        }
        assert!(
            fast > 2_500 && general > 2_500,
            "{fast} fast, {general} general"
        );
    }

    /// A canonical line with `token` in each of the three places, parsed
    /// by both paths and compared bit for bit.
    fn assert_token_agrees(token: &str) {
        for line in [
            format!("{{\"x\":{token},\"y\":1,\"t\":2}}"),
            format!("{{\"x\":1,\"y\":{token},\"t\":2}}"),
            format!("{{\"x\":1,\"y\":2,\"t\":{token}}}"),
        ] {
            let (new, old) = (parse_feed(&line), pairwise::parse_feed(&line));
            assert_eq!(bits(new), bits(old), "{line}");
        }
    }

    #[test]
    fn fast_path_boundary_tokens_match_the_pairwise_parse() {
        // (token, whether the fast path takes the line at all)
        const TOKENS: [(&str, bool); 31] = [
            ("9007199254740992", true),          // 2^53: the last exact mantissa
            ("9007199254740993", true),          // 2^53 + 1: str::parse
            ("-9007199254740993", true),         //
            ("900719925474099.3", true),         // same digits, one a fraction
            ("900719925474099.25", true),        // 2^53 < m: str::parse
            ("1234567890123456789", true),       // 19 digits
            ("0.000000000000000005", true),      // 19 digits, m = 5
            ("12345678901234567890", true),      // 20 digits
            ("18446744073709551617", true),      // 20 digits, wraps to m = 1
            ("0.0000000000000000005", true),     // 20 digits, m = 5
            ("0.0000000000000000000001", true),  // 22 fraction digits
            ("0.00000000000000000000001", true), // 23 fraction digits
            ("0.30000000000000004", true),
            ("-0.20221894534048165", true), // m / 10^17 for this m rounds twice
            ("-1.5", true),
            ("28800", true),
            ("-0", true),
            ("-0.0", true),
            ("007.5", true),
            ("0", true),
            ("12.", false),
            (".5", false),
            ("-.5", false),
            ("+7", false),
            ("1e3", false),
            ("1.5E-3", false),
            ("NaN", false),
            ("inf", false),
            ("-", false),
            ("1.2.3", false),
            ("--1", false),
        ];
        for (token, fast) in TOKENS {
            assert_token_agrees(token);
            let line = format!("{{\"x\":{token},\"y\":1,\"t\":2}}");
            assert_eq!(canonical_fix(line.as_bytes()).is_some(), fast, "{token}");
        }
    }

    #[test]
    fn fast_path_matches_the_pairwise_parse_on_random_floats() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut fast = 0;
        for i in 0..21_000u32 {
            let bits = next();
            let v = match i % 3 {
                // any pattern: huge, tiny, NaN and infinities among them
                0 => f64::from_bits(bits),
                // subnormal, either sign
                1 => f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF),
                // a short decimal, the spelling the fast division serves
                _ => {
                    (bits >> 11) as f64 / POW10[(bits % 20) as usize] * [1.0, -1.0][i as usize % 2]
                }
            };
            let token = format!("{v}");
            assert_token_agrees(&token);
            let line = format!("{{\"x\":{token},\"y\":{token},\"t\":{token}}}");
            fast += usize::from(canonical_fix(line.as_bytes()).is_some());
        }
        // every finite value printed with `{}` is canonical
        assert!(fast > 20_000, "{fast}");
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn encoded_lines_are_json_objects() {
        use semitri_core::point::StopAnnotation;
        use semitri_core::streaming::StreamEvent;
        use semitri_data::PoiCategory;
        use semitri_episodes::{Episode, EpisodeKind};
        use semitri_geo::{Rect, TimeSpan};
        let episode = Episode {
            kind: EpisodeKind::Stop,
            start: 0,
            end: 4,
            span: TimeSpan::new(Timestamp(0.0), Timestamp(30.0)),
            bbox: Rect::new(0.0, 0.0, 1.0, 1.0),
            center: Point::new(0.5, 0.5),
        };
        let events = vec![StreamEvent::Stop {
            episode,
            annotation: StopAnnotation {
                category: PoiCategory::Services,
                poi: None,
            },
            region: None,
        }];
        let body = encode_flush(&events, &CleaningReport::default(), 4);
        assert_eq!(body.lines().count(), 3);
        for line in body.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(body.contains("\"type\":\"stop\""));
        assert!(body.contains("\"type\":\"cleaning\""));
        assert!(body.ends_with("{\"type\":\"end\",\"records\":4}\n"));
    }

    #[test]
    fn mutation_batches_parse_with_defaults() {
        let body = concat!(
            "{\"op\":\"add_road\",\"x1\":0,\"y1\":0,\"x2\":100,\"y2\":0}\n",
            "{\"op\":\"add_poi\",\"x\":5,\"y\":5,\"category\":\"item sale\",\"name\":\"kiosk\"}\n",
            "{\"op\":\"set_landuse\",\"x\":1,\"y\":1,\"category\":\"4.13\"}\n",
            "{\"op\":\"add_region\",\"name\":\"yard\",\"kind\":\"market\",",
            "\"min_x\":0,\"min_y\":0,\"max_x\":50,\"max_y\":50}\n",
        );
        let muts = parse_mutations(body).unwrap();
        assert_eq!(muts.len(), 4);
        assert!(matches!(
            &muts[0],
            Mutation::AddRoad {
                class: semitri_data::RoadClass::Street,
                bus_route: false,
                ..
            }
        ));
        assert!(matches!(
            &muts[1],
            Mutation::AddPoi {
                category: semitri_data::PoiCategory::ItemSale,
                ..
            }
        ));
        assert!(matches!(
            &muts[2],
            Mutation::SetLanduse {
                category: semitri_data::LanduseCategory::Lake,
                ..
            }
        ));
        assert!(matches!(
            &muts[3],
            Mutation::AddRegion {
                kind: semitri_data::RegionKind::Market,
                ..
            }
        ));
    }

    #[test]
    fn hostile_mutation_bodies_are_rejected_whole() {
        assert!(parse_mutations("").is_err());
        assert!(parse_mutations("{\"op\":\"drop_tables\"}\n").is_err());
        // a degenerate road fails validation at parse time
        assert!(
            parse_mutations("{\"op\":\"add_road\",\"x1\":1,\"y1\":1,\"x2\":1,\"y2\":1}\n").is_err()
        );
        // non-finite coordinates are rejected
        assert!(parse_mutations("{\"op\":\"add_poi\",\"x\":\"nan\",\"y\":0}\n").is_err());
        // one bad line poisons the batch even when others are fine
        let mixed = concat!(
            "{\"op\":\"add_poi\",\"x\":5,\"y\":5}\n",
            "{\"op\":\"set_landuse\",\"x\":1,\"y\":1,\"category\":\"no such\"}\n",
        );
        assert!(parse_mutations(mixed).is_err());
    }
}
