//! The CI counter gate: writing and diffing `BENCH_solver.json`
//! artifacts (DESIGN.md §9).
//!
//! A row of the artifact is one bench × configuration and holds every
//! **deterministic** metric of [`RunStats::SCHEMA`] — every row whose unit
//! is not host-clock time. Those are bit-reproducible for a given
//! configuration (virtual-time simulation, seeded synthesis), so any drift
//! is a behaviour change and the diff gates them with **exact equality**.
//! Wall time is the frozen `benchmark/` crate's subject, not this one's.
//! Which keys are written ([`row_json`]) and which are gated
//! ([`gated_fields`]) are both read off the schema: a new metric is in
//! the artifact and under the gate the moment it is declared.
//!
//! The parser is a ~hundred-line recursive-descent JSON reader: the
//! artifact is hand-rendered (no serde anywhere in the workspace) so the
//! diff side stays dependency-free too. Numeric scalars are kept as raw
//! token text, which makes the exact-equality gate a string compare — no
//! float round-tripping can mask or invent a drift.

use parcfl_runtime::RunStats;
use std::fmt::Write as _;

/// The artifact's `schema` tag.
pub const SCHEMA_TAG: &str = "parcfl-bench-solver/8";

/// The per-row keys that must be **bit-identical** between two runs of
/// the same configuration: every deterministic [`RunStats::SCHEMA`] row.
pub fn gated_fields() -> impl Iterator<Item = &'static str> {
    RunStats::SCHEMA
        .iter()
        .filter(|m| m.is_deterministic())
        .map(|m| m.name)
}

/// One artifact record: `row` labels the configuration measured (state ×
/// dispatch), followed by every deterministic metric of `stats`.
pub fn row_json(bench: &str, row: &str, state: &str, stats: &RunStats) -> String {
    let mut out = format!("{{\"bench\":\"{bench}\",\"row\":\"{row}\",\"state\":\"{state}\"");
    for (m, value) in stats.scalars().filter(|(m, _)| m.is_deterministic()) {
        let _ = write!(out, ",\"{}\":{value}", m.name);
    }
    out.push('}');
    out
}

/// One scalar field of a bench row: strings keep their decoded text,
/// every other JSON scalar (number, bool, null) keeps its **raw token
/// text** so equality is exact by construction.
#[derive(Clone, Debug, PartialEq)]
pub enum Scalar {
    /// A JSON string (decoded).
    Str(String),
    /// A number/bool/null, as it appeared in the artifact.
    Raw(String),
}

impl Scalar {
    fn render(&self) -> &str {
        match self {
            Scalar::Str(s) => s,
            Scalar::Raw(r) => r,
        }
    }
}

/// One record of the artifact's `benches` array: a bench × row
/// configuration and its flat scalar fields in artifact order.
#[derive(Clone, Debug)]
pub struct RowRecord {
    /// Benchmark name (`"bench"` field).
    pub bench: String,
    /// Row label, e.g. `"seq-dense"` (`"row"` field).
    pub row: String,
    /// Every scalar field of the record, including `bench`/`row`.
    pub fields: Vec<(String, Scalar)>,
}

impl RowRecord {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&Scalar> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    fn key(&self) -> String {
        format!("{}/{}", self.bench, self.row)
    }
}

/// A parsed `BENCH_solver.json` artifact.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// The artifact's `schema` tag (see [`SCHEMA_TAG`]).
    pub schema: String,
    /// Every bench × row record, in artifact order.
    pub rows: Vec<RowRecord>,
}

impl Artifact {
    /// Parses an artifact from its JSON text.
    pub fn parse(text: &str) -> Result<Artifact, String> {
        let top = Parser::new(text).parse_document()?;
        let Val::Obj(top) = top else {
            return Err("artifact root is not a JSON object".into());
        };
        let schema = match top.iter().find(|(k, _)| k == "schema") {
            Some((_, Val::Scalar(Scalar::Str(s)))) => s.clone(),
            _ => return Err("artifact has no string `schema` field".into()),
        };
        let benches = match top.into_iter().find(|(k, _)| k == "benches") {
            Some((_, Val::Arr(rows))) => rows,
            _ => return Err("artifact has no `benches` array".into()),
        };
        let mut rows = Vec::with_capacity(benches.len());
        for (i, rec) in benches.into_iter().enumerate() {
            let Val::Obj(entries) = rec else {
                return Err(format!("benches[{i}] is not an object"));
            };
            let mut fields = Vec::with_capacity(entries.len());
            for (k, v) in entries {
                let Val::Scalar(s) = v else {
                    return Err(format!("benches[{i}].{k} is not a scalar"));
                };
                fields.push((k, s));
            }
            let get = |name: &str| {
                fields.iter().find_map(|(k, v)| match v {
                    Scalar::Str(s) if k == name => Some(s.clone()),
                    _ => None,
                })
            };
            let bench = get("bench").ok_or_else(|| format!("benches[{i}] has no `bench`"))?;
            let row = get("row").ok_or_else(|| format!("benches[{i}] has no `row`"))?;
            rows.push(RowRecord { bench, row, fields });
        }
        Ok(Artifact { schema, rows })
    }
}

/// A parsed JSON value — only the shapes the artifact uses.
enum Val {
    Scalar(Scalar),
    Arr(Vec<Val>),
    Obj(Vec<(String, Val)>),
}

/// Minimal recursive-descent JSON parser over the artifact grammar.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn parse_document(&mut self) -> Result<Val, String> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing content after document"));
        }
        Ok(v)
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Val, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.parse_obj(),
            Some(b'[') => self.parse_arr(),
            Some(b'"') => Ok(Val::Scalar(Scalar::Str(self.parse_string()?))),
            Some(_) => self.parse_raw(),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_obj(&mut self) -> Result<Val, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Val::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            entries.push((key, self.parse_value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Val::Obj(entries));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_arr(&mut self) -> Result<Val, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Val::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Val::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.err("expected string"));
        }
        self.pos += 1;
        let start = self.pos;
        let mut out = String::new();
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'"' => {
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid utf-8 in string"))?,
                    );
                    self.pos += 1;
                    return Ok(out);
                }
                // The artifact renderer never escapes anything, but be
                // tolerant of the basic escapes a hand edit could add.
                b'\\' => return Err(self.err("escape sequences are not supported")),
                _ => self.pos += 1,
            }
        }
        Err(self.err("unterminated string"))
    }

    /// A number, `true`, `false`, or `null` — kept as raw token text.
    fn parse_raw(&mut self) -> Result<Val, String> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b',' | b'}' | b']' | b' ' | b'\t' | b'\n' | b'\r') {
                break;
            }
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("empty scalar"));
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in scalar"))?;
        Ok(Val::Scalar(Scalar::Raw(raw.to_string())))
    }
}

/// The outcome of diffing two artifacts.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Rows matched between the two artifacts.
    pub compared: usize,
    /// Counter drift, gated keys missing from the current artifact and
    /// missing rows — any of them fails the diff.
    pub regressions: Vec<String>,
    /// Informational findings (schema drift, new rows).
    pub notes: Vec<String>,
}

impl DiffReport {
    /// Whether the diff fails (→ non-zero exit).
    pub fn failed(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// Human-readable report, one finding per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "bench-diff: {} rows compared", self.compared);
        for r in &self.regressions {
            let _ = writeln!(out, "  REGRESSION {r}");
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note       {n}");
        }
        if self.regressions.is_empty() {
            let _ = writeln!(out, "  deterministic counters identical");
        }
        out
    }
}

/// Diffs `current` against `baseline`: exact equality on the
/// [`gated_fields`] of every row present in both artifacts, missing-row
/// detection.
pub fn diff_artifacts(baseline: &Artifact, current: &Artifact) -> DiffReport {
    let mut report = DiffReport::default();
    if baseline.schema != current.schema {
        report.notes.push(format!(
            "schema drift: baseline {} vs current {} (keys absent from the baseline are skipped)",
            baseline.schema, current.schema
        ));
    }
    for base_row in &baseline.rows {
        let key = base_row.key();
        let Some(cur_row) = current
            .rows
            .iter()
            .find(|r| r.bench == base_row.bench && r.row == base_row.row)
        else {
            report.regressions.push(format!(
                "{key}: row present in baseline, missing in current"
            ));
            continue;
        };
        report.compared += 1;
        for field in gated_fields() {
            match (base_row.field(field), cur_row.field(field)) {
                (Some(b), Some(c)) => {
                    if b != c {
                        report.regressions.push(format!(
                            "{key}: {field} drifted {} -> {}",
                            b.render(),
                            c.render()
                        ));
                    }
                }
                (Some(b), None) => report.regressions.push(format!(
                    "{key}: deterministic field {field} (baseline {}) missing in current",
                    b.render()
                )),
                // Absent in the baseline: an older schema — nothing to gate.
                (None, _) => {}
            }
        }
    }
    for cur_row in &current.rows {
        if !baseline
            .rows
            .iter()
            .any(|r| r.bench == cur_row.bench && r.row == cur_row.row)
        {
            report.notes.push(format!(
                "{}: new row not in baseline (not gated)",
                cur_row.key()
            ));
        }
    }
    report
}

/// Loads both artifacts from disk and diffs them. Errors name the
/// offending path.
pub fn diff_files(baseline: &str, current: &str) -> Result<DiffReport, String> {
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let base = Artifact::parse(&read(baseline)?).map_err(|e| format!("{baseline}: {e}"))?;
    let cur = Artifact::parse(&read(current)?).map_err(|e| format!("{current}: {e}"))?;
    Ok(diff_artifacts(&base, &cur))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An artifact whose rows differ only in their traversed steps.
    fn artifact(rows: &[(&str, &str, u64)]) -> String {
        let recs: Vec<String> = rows
            .iter()
            .map(|&(bench, row, traversed_steps)| {
                let stats = RunStats {
                    queries: 10,
                    traversed_steps,
                    interner_ctxs: 4,
                    ..RunStats::default()
                };
                row_json(bench, row, "dense", &stats)
            })
            .collect();
        format!(
            "{{\"schema\":\"{SCHEMA_TAG}\",\"threads\":8,\"benches\":[\n  {}\n]}}\n",
            recs.join(",\n  ")
        )
    }

    #[test]
    fn parses_rows_and_fields() {
        let a = Artifact::parse(&artifact(&[("jess", "dq-sim", 1234)])).unwrap();
        assert_eq!(a.schema, SCHEMA_TAG);
        assert_eq!(a.rows.len(), 1);
        let r = &a.rows[0];
        assert_eq!((r.bench.as_str(), r.row.as_str()), ("jess", "dq-sim"));
        assert_eq!(
            r.field("traversed_steps"),
            Some(&Scalar::Raw("1234".into()))
        );
        assert_eq!(r.field("state"), Some(&Scalar::Str("dense".into())));
        assert!(r.field("nope").is_none());
    }

    /// The artifact and the gate list are both the schema's deterministic
    /// rows: every metric whose unit is not time is written and gated, and
    /// host-clock time is neither.
    #[test]
    fn every_schema_row_is_written_and_gated_iff_not_time() {
        let a = Artifact::parse(&artifact(&[("jess", "dq-sim", 1)])).unwrap();
        let gated: Vec<&str> = gated_fields().collect();
        for m in RunStats::SCHEMA {
            let timed = m.unit == parcfl_runtime::Unit::Seconds;
            assert_eq!(a.rows[0].field(m.name).is_none(), timed, "{}", m.name);
            assert_eq!(!gated.contains(&m.name), timed, "{}", m.name);
        }
        assert!(gated.contains(&"makespan"), "virtual time is deterministic");
        assert!(!gated.contains(&"wall"));
    }

    #[test]
    fn parse_rejects_malformed_artifacts() {
        assert!(Artifact::parse("[1,2]").is_err(), "root must be an object");
        assert!(
            Artifact::parse("{\"schema\":\"s\"}").is_err(),
            "benches required"
        );
        assert!(Artifact::parse("{\"schema\":\"s\",\"benches\":[{\"row\":\"x\"}]}").is_err());
        assert!(Artifact::parse("{\"schema\":\"s\",\"benches\":[]}")
            .unwrap()
            .rows
            .is_empty());
        assert!(Artifact::parse("{\"schema\":\"s\",\"benches\":[]} junk").is_err());
    }

    #[test]
    fn identical_artifacts_pass() {
        let text = artifact(&[("jess", "dq-sim", 1234), ("jess", "seq-hash", 99)]);
        let a = Artifact::parse(&text).unwrap();
        let report = diff_artifacts(&a, &a);
        assert_eq!(report.compared, 2);
        assert!(report.regressions.is_empty(), "{report:?}");
        assert!(!report.failed());
        assert!(report.render().contains("identical"));
    }

    #[test]
    fn counter_drift_fails_the_diff() {
        let base = Artifact::parse(&artifact(&[("jess", "dq-sim", 1234)])).unwrap();
        let cur = Artifact::parse(&artifact(&[("jess", "dq-sim", 1235)])).unwrap();
        let report = diff_artifacts(&base, &cur);
        assert_eq!(report.regressions.len(), 1);
        assert!(report.regressions[0].contains("traversed_steps drifted 1234 -> 1235"));
        assert!(report.failed());
    }

    #[test]
    fn missing_row_is_a_regression_and_new_row_is_a_note() {
        let base = Artifact::parse(&artifact(&[("jess", "dq-sim", 1)])).unwrap();
        let cur = Artifact::parse(&artifact(&[("jess", "seq-hash", 1)])).unwrap();
        let report = diff_artifacts(&base, &cur);
        assert_eq!(report.compared, 0);
        assert!(report.regressions[0].contains("jess/dq-sim"), "{report:?}");
        assert!(report.notes.iter().any(|n| n.contains("jess/seq-hash")));
        assert!(report.failed());
    }

    /// A key the table gates but the current artifact lacks fails the
    /// diff, whichever key it is — a writer that drops a metric cannot
    /// slip it past the gate.
    #[test]
    fn a_gated_key_missing_from_current_fails_the_diff() {
        let base = Artifact::parse(&artifact(&[("jess", "dq-sim", 1)])).unwrap();
        for field in gated_fields() {
            let mut cur = base.clone();
            cur.rows[0].fields.retain(|(k, _)| k != field);
            let report = diff_artifacts(&base, &cur);
            assert!(report.failed(), "{field}");
            assert!(report.regressions[0].contains(field), "{report:?}");
            // The other direction (key only in current) is schema growth,
            // not a failure.
            let report = diff_artifacts(&cur, &base);
            assert!(!report.failed(), "{field}: {report:?}");
        }
    }
}
