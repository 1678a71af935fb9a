//! The driver's checkpoint journal: a JSONL file of completed job results.
//!
//! Line 1 is a meta record pinning the journal format version and the
//! [`ExperimentSize`] the run was started with (resuming a `--quick`
//! journal under a Full run would silently mix workloads — it is rejected
//! instead). Every following line is one completed job:
//!
//! ```text
//! {"journal":"treelocal-experiments","version":1,"size":"quick"}
//! {"run":"e6","job":0,"holds":true,"metric":null,"samples":[[9.96,12]],"rows":[["random","1000",...]]}
//! ```
//!
//! Records are keyed by `(run, job)` — the order of lines is irrelevant
//! (parallel workers append as they finish) — and appended with one
//! `write + flush` per job, so a crash can only tear the *final* line.
//! [`Journal::resume`] therefore treats an unparseable **trailing** line
//! as the signature of a mid-write crash: it is discarded (with a stderr
//! warning) and physically truncated away so future appends start from the
//! last complete record. An unparseable line *before* the end has no such
//! excuse and fails the resume.
//!
//! There is no serde in the vendored dependency set, so this module
//! carries a minimal JSON encoder/parser for exactly the value shapes the
//! journal uses. Floats round-trip exactly (shortest-roundtrip formatting,
//! which `str::parse::<f64>` inverts bit-for-bit); integers stay exact up
//! to 2^53, far above any round count.

use crate::driver::JobOutput;
use crate::ExperimentSize;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;
use treelocal_graph::OrInvariant;

/// The version stamped into (and required of) every journal meta line.
const FORMAT_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// JSON values
// ---------------------------------------------------------------------------

/// A JSON value (the subset journal records use).
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered; journal objects have few keys).
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0).then_some(n as u64)
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn write_json(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => write_number(out, *n),
        Json::Str(s) => write_string(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(out, item);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, k);
                out.push(':');
                write_json(out, val);
            }
            out.push('}');
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    assert!(n.is_finite(), "journal numbers must be finite, got {n}");
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{n:.0}");
    } else {
        // Rust's shortest-roundtrip float formatting; `str::parse::<f64>`
        // recovers the exact bits, which is what keeps resumed fit notes
        // byte-identical.
        let _ = write!(out, "{n:?}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document (a full line). Errors carry a short reason.
pub(crate) fn parse_json(input: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

/// Deepest array/object nesting the parser accepts. Journal records nest
/// three deep; the bound keeps a corrupt line from overflowing the stack
/// of the recursive descent.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting too deep at offset {} (limit {MAX_DEPTH})",
                        self.pos
                    ));
                }
                self.pos += 1;
                self.depth += 1;
                let v = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at offset {}", self.pos)),
        }
    }

    /// The rest of an array whose `[` was consumed.
    fn array(&mut self) -> Result<Json, String> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    /// The rest of an object whose `{` was consumed.
    fn object(&mut self) -> Result<Json, String> {
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E') | Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .or_invariant("number bytes are ASCII by construction");
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number {text:?}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            s.push(
                                char::from_u32(code).ok_or(format!("bad code point {code:#x}"))?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let c = rest.chars().next().or_invariant("peeked a byte");
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Record encoding
// ---------------------------------------------------------------------------

fn size_tag(size: ExperimentSize) -> &'static str {
    match size {
        ExperimentSize::Quick => "quick",
        ExperimentSize::Full => "full",
    }
}

fn encode_meta(size: ExperimentSize) -> String {
    let meta = Json::Obj(vec![
        ("journal".to_string(), Json::Str("treelocal-experiments".to_string())),
        ("version".to_string(), Json::Num(FORMAT_VERSION as f64)),
        ("size".to_string(), Json::Str(size_tag(size).to_string())),
    ]);
    let mut out = String::new();
    write_json(&mut out, &meta);
    out
}

fn check_meta(line: &str, size: ExperimentSize) -> Result<(), String> {
    let v = parse_json(line).map_err(|e| format!("journal meta line is not valid JSON ({e})"))?;
    if v.get("journal").and_then(Json::as_str) != Some("treelocal-experiments") {
        return Err("not a treelocal experiment journal (missing meta line)".to_string());
    }
    match v.get("version").and_then(Json::as_u64) {
        Some(FORMAT_VERSION) => {}
        other => return Err(format!("unsupported journal version {other:?}")),
    }
    let recorded = v.get("size").and_then(Json::as_str).unwrap_or("?");
    if recorded != size_tag(size) {
        return Err(format!(
            "journal was recorded with --{recorded} workloads but this run uses \
             --{}; resuming would mix instance sizes",
            size_tag(size)
        ));
    }
    Ok(())
}

pub(crate) fn encode_record(run: &str, job: usize, out: &JobOutput) -> String {
    let rows = Json::Arr(
        out.rows
            .iter()
            .map(|row| Json::Arr(row.iter().map(|c| Json::Str(c.clone())).collect()))
            .collect(),
    );
    let samples = Json::Arr(
        out.samples.iter().map(|&(x, y)| Json::Arr(vec![Json::Num(x), Json::Num(y)])).collect(),
    );
    let metric = out.metric.map_or(Json::Null, |m| Json::Num(m as f64));
    let record = Json::Obj(vec![
        ("run".to_string(), Json::Str(run.to_string())),
        ("job".to_string(), Json::Num(job as f64)),
        ("holds".to_string(), Json::Bool(out.holds)),
        ("metric".to_string(), metric),
        ("samples".to_string(), samples),
        ("rows".to_string(), rows),
    ]);
    let mut line = String::new();
    write_json(&mut line, &record);
    line
}

fn decode_record(line: &str) -> Result<(String, usize, JobOutput), String> {
    let v = parse_json(line)?;
    let run = v.get("run").and_then(Json::as_str).ok_or("record missing \"run\"")?.to_string();
    let job = v
        .get("job")
        .and_then(Json::as_u64)
        .and_then(|j| usize::try_from(j).ok())
        .ok_or("record missing \"job\"")?;
    let holds = v.get("holds").and_then(Json::as_bool).ok_or("record missing \"holds\"")?;
    let metric = match v.get("metric") {
        None | Some(Json::Null) => None,
        Some(m) => Some(m.as_u64().ok_or("bad \"metric\"")?),
    };
    let samples = v
        .get("samples")
        .and_then(Json::as_arr)
        .ok_or("record missing \"samples\"")?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr().filter(|p| p.len() == 2).ok_or("bad sample pair")?;
            Ok((pair[0].as_f64().ok_or("bad sample x")?, pair[1].as_f64().ok_or("bad sample y")?))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let rows = v
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("record missing \"rows\"")?
        .iter()
        .map(|row| {
            row.as_arr()
                .ok_or("bad row")?
                .iter()
                .map(|c| c.as_str().map(str::to_string).ok_or_else(|| "bad cell".to_string()))
                .collect::<Result<Vec<_>, String>>()
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((run, job, JobOutput { rows, holds, samples, metric }))
}

// ---------------------------------------------------------------------------
// The journal file
// ---------------------------------------------------------------------------

/// Results already present in a resumed journal, keyed by `(run, job)`.
pub(crate) type CompletedMap = HashMap<(String, usize), JobOutput>;

/// An open checkpoint journal in append mode.
#[derive(Debug)]
pub(crate) struct Journal {
    writer: BufWriter<fs::File>,
}

impl Journal {
    /// Creates a fresh journal at `path` (truncating any previous file) and
    /// writes the meta line.
    pub(crate) fn create(path: &Path, size: ExperimentSize) -> Result<Journal, String> {
        let file = fs::File::create(path)
            .map_err(|e| format!("cannot create journal {}: {e}", path.display()))?;
        let mut journal = Journal { writer: BufWriter::new(file) };
        journal.append_line(&encode_meta(size))?;
        Ok(journal)
    }

    /// Opens `path` for resume: validates the meta line, loads every
    /// complete record, discards (and truncates away) a torn trailing
    /// line, and returns the journal positioned for appending.
    pub(crate) fn resume(
        path: &Path,
        size: ExperimentSize,
    ) -> Result<(Journal, CompletedMap), String> {
        let bytes =
            fs::read(path).map_err(|e| format!("cannot resume journal {}: {e}", path.display()))?;
        // Split into (byte offset, line) pairs so a torn tail can be
        // truncated at an exact offset.
        let mut lines: Vec<(usize, &[u8])> = Vec::new();
        let mut start = 0usize;
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'\n' {
                lines.push((start, &bytes[start..i]));
                start = i + 1;
            }
        }
        let mut unterminated_tail = false;
        if start < bytes.len() {
            // No trailing newline: the flush-per-line discipline means this
            // can only be a mid-write crash. The tail is torn even when its
            // prefix happens to parse (a write cut exactly before the
            // newline) — appending after an unterminated line would fuse
            // two records into one physical line.
            lines.push((start, &bytes[start..]));
            unterminated_tail = true;
        }
        let last = lines.len().saturating_sub(1);
        let mut completed = CompletedMap::new();
        let mut valid_end = 0usize;
        let mut wrote_meta = false;
        for (idx, (offset, raw)) in lines.iter().enumerate() {
            let line = String::from_utf8_lossy(raw);
            let parsed: Result<(), String> = if idx == last && unterminated_tail {
                Err("no trailing newline".to_string())
            } else if idx == 0 {
                check_meta(&line, size)
            } else {
                decode_record(&line).map(|(run, job, out)| {
                    completed.insert((run, job), out);
                })
            };
            match parsed {
                Ok(()) => {
                    if idx == 0 {
                        wrote_meta = true;
                    }
                    valid_end = offset + raw.len() + 1; // include the newline
                }
                Err(e) if idx == last => {
                    // The signature of a crash mid-append: warn, drop the
                    // torn line, and resume from the last complete record.
                    eprintln!(
                        "journal {}: discarding torn trailing line {} ({e})",
                        path.display(),
                        idx + 1
                    );
                    if idx == 0 {
                        // Even the meta line was torn; size compatibility
                        // cannot be checked against a half-written line, so
                        // the journal restarts from scratch.
                        completed.clear();
                    }
                    break;
                }
                Err(e) => {
                    return Err(format!(
                        "journal {} is corrupt at line {}: {e} (only the final line may be torn)",
                        path.display(),
                        idx + 1
                    ));
                }
            }
        }
        let mut file = fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| format!("cannot open journal {} for append: {e}", path.display()))?;
        file.set_len(valid_end as u64)
            .map_err(|e| format!("cannot truncate torn journal tail: {e}"))?;
        file.seek(SeekFrom::End(0)).map_err(|e| format!("cannot seek journal: {e}"))?;
        let mut journal = Journal { writer: BufWriter::new(file) };
        if !wrote_meta {
            journal.append_line(&encode_meta(size))?;
        }
        Ok((journal, completed))
    }

    /// Appends one completed job and flushes, so a crash can tear at most
    /// the line being written.
    pub(crate) fn append(&mut self, run: &str, job: usize, out: &JobOutput) -> Result<(), String> {
        self.append_line(&encode_record(run, job, out))
    }

    fn append_line(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.writer, "{line}")
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("journal write failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_output() -> JobOutput {
        JobOutput {
            rows: vec![
                vec!["random/1000".to_string(), "1.235e6".to_string()],
                vec!["with \"quotes\" \\ and\nnewline".to_string(), String::new()],
            ],
            holds: false,
            samples: vec![(19.931_568_569_324_174, 123.0), (0.1 + 0.2, -7.5)],
            metric: Some(u64::from(u32::MAX)),
        }
    }

    #[test]
    fn records_round_trip_exactly() {
        let out = sample_output();
        let line = encode_record("e6", 3, &out);
        let (run, job, decoded) = decode_record(&line).unwrap();
        assert_eq!(run, "e6");
        assert_eq!(job, 3);
        assert_eq!(decoded, out);
    }

    #[test]
    fn float_bits_survive_the_round_trip() {
        let out = JobOutput {
            samples: vec![(f64::MIN_POSITIVE, 1.0e-300), (std::f64::consts::PI, -0.0)],
            ..JobOutput::default()
        };
        let (_, _, decoded) = decode_record(&encode_record("r", 0, &out)).unwrap();
        for (orig, got) in out.samples.iter().zip(&decoded.samples) {
            assert_eq!(orig.0.to_bits(), got.0.to_bits());
            assert_eq!(orig.1.to_bits(), got.1.to_bits());
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in ["", "{", "{\"run\":", "{\"a\":1}trailing", "nul", "\"open"] {
            assert!(parse_json(bad).is_err(), "{bad:?} parsed");
        }
        assert!(decode_record("{\"run\":\"e1\"}").is_err(), "incomplete record decoded");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let err = parse_json(&deep).unwrap_err();
        assert!(err.contains("nesting too deep"), "{err}");
        assert!(check_meta(&deep, ExperimentSize::Quick).is_err());
        assert!(decode_record(&"{\"run\":".repeat(100_000)).is_err());
        // The limit itself still parses.
        let at_limit = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse_json(&at_limit).is_ok());
        let over = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse_json(&over).is_err());
    }

    #[test]
    fn meta_size_mismatch_is_rejected() {
        let meta = encode_meta(ExperimentSize::Quick);
        assert!(check_meta(&meta, ExperimentSize::Quick).is_ok());
        let err = check_meta(&meta, ExperimentSize::Full).unwrap_err();
        assert!(err.contains("mix instance sizes"), "{err}");
    }

    #[test]
    fn create_resume_append_cycle() {
        let dir = std::env::temp_dir().join(format!("treelocal-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cycle.jsonl");
        {
            let mut j = Journal::create(&path, ExperimentSize::Quick).unwrap();
            j.append("e1", 0, &sample_output()).unwrap();
        }
        let (mut j, completed) = Journal::resume(&path, ExperimentSize::Quick).unwrap();
        assert_eq!(completed.len(), 1);
        assert_eq!(completed[&("e1".to_string(), 0)], sample_output());
        j.append("e1", 1, &sample_output()).unwrap();
        drop(j);
        let (_, completed) = Journal::resume(&path, ExperimentSize::Quick).unwrap();
        assert_eq!(completed.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_trailing_line_is_discarded_and_truncated() {
        let dir = std::env::temp_dir().join(format!("treelocal-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        {
            let mut j = Journal::create(&path, ExperimentSize::Quick).unwrap();
            j.append("e1", 0, &sample_output()).unwrap();
        }
        let intact = std::fs::read(&path).unwrap();
        let mut torn = intact.clone();
        torn.extend_from_slice(b"{\"run\":\"e1\",\"job\":1,\"hol");
        std::fs::write(&path, &torn).unwrap();
        let (_, completed) = Journal::resume(&path, ExperimentSize::Quick).unwrap();
        assert_eq!(completed.len(), 1, "torn record must not be loaded");
        // The torn tail was physically removed, so the next resume is clean.
        assert_eq!(std::fs::read(&path).unwrap(), intact);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unterminated_final_line_is_torn_even_when_it_parses() {
        // A crash can cut the append exactly before the newline, leaving a
        // record whose JSON is complete on disk. It must still count as
        // torn: truncating (not extending!) the file and re-running the
        // job, because appending after an unterminated line would fuse two
        // records into one physical line.
        let dir = std::env::temp_dir().join(format!("treelocal-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("no-newline.jsonl");
        {
            let mut j = Journal::create(&path, ExperimentSize::Quick).unwrap();
            j.append("e1", 0, &sample_output()).unwrap();
            j.append("e1", 1, &sample_output()).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.pop(), Some(b'\n'));
        std::fs::write(&path, &bytes).unwrap();
        let (mut j, completed) = Journal::resume(&path, ExperimentSize::Quick).unwrap();
        assert_eq!(completed.len(), 1, "the unterminated record must not be loaded");
        j.append("e1", 1, &sample_output()).unwrap();
        drop(j);
        // The re-appended record lands on its own line: the next resume
        // sees two complete records and no corruption.
        let (_, completed) = Journal::resume(&path, ExperimentSize::Quick).unwrap();
        assert_eq!(completed.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_file_corruption_is_an_error() {
        let dir = std::env::temp_dir().join(format!("treelocal-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.jsonl");
        {
            let mut j = Journal::create(&path, ExperimentSize::Quick).unwrap();
            j.append("e1", 0, &sample_output()).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"garbage line\n");
        let tail = encode_record("e1", 1, &sample_output());
        bytes.extend_from_slice(tail.as_bytes());
        bytes.push(b'\n');
        std::fs::write(&path, &bytes).unwrap();
        let err = Journal::resume(&path, ExperimentSize::Quick).unwrap_err();
        assert!(err.contains("corrupt at line 3"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
