//! The bench registry: every benchmark cell the repository gates, one
//! recording (`BENCH.json`), one gate.
//!
//! A [`Cell`] is an id such as `scale/det-small/rr8-1e5/seq` plus the
//! function that runs it. Running a cell yields a flat [`Record`] of
//! named fields, each either *exact* — rounds, messages, bit totals,
//! palettes, stepped nodes, fault, churn and kill counters, validity and
//! identity flags: everything is seeded, so these reproduce bit for bit —
//! or *measured* — wall and build milliseconds, peak RSS, allocations per
//! round: host-dependent, never compared for equality. Every acceptance
//! rule is a named [`Predicate`] over one or more cells, evaluated once
//! per run.
//!
//! `harness bench <glob> --check BENCH.json` runs the cells whose ids
//! match `<glob>` (`*` matches any run of characters) in registry order,
//! and fails on any drift of an exact field from the recording, on a
//! recorded cell the run did not produce, and on any failed predicate.
//! `--write BENCH.json` re-records the selected cells once their
//! predicates pass. The groups are `small/` (in-process runs at
//! n ≤ 3000: runtime and drop-plane identity), `scale/` (n = 10⁴ … 10⁶
//! builds and colorings, churn repair) and `net/` (multi-process netplane
//! runs and chaos recovery). Timing is `perfbench`'s job: measured fields
//! exist here only for the predicates that bound them.

mod cells;

pub use cells::{mesh_record, registry, Ctx};

use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// An exact field value, compared bit for bit against the recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exact {
    /// A count.
    Int(u64),
    /// A validity or identity flag.
    Bool(bool),
}

impl fmt::Display for Exact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Exact::Int(v) => write!(f, "{v}"),
            Exact::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// What one cell run produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    /// Seeded facts that must reproduce exactly.
    pub exact: BTreeMap<String, Exact>,
    /// Host-dependent measurements (ms, MiB, allocations per round).
    pub measured: BTreeMap<String, f64>,
}

impl Record {
    /// Adds an exact count.
    #[must_use]
    pub fn int(mut self, key: &str, v: u64) -> Self {
        self.exact.insert(key.into(), Exact::Int(v));
        self
    }

    /// Adds an exact flag.
    #[must_use]
    pub fn flag(mut self, key: &str, v: bool) -> Self {
        self.exact.insert(key.into(), Exact::Bool(v));
        self
    }

    /// Adds a measurement.
    #[must_use]
    pub fn measure(mut self, key: &str, v: f64) -> Self {
        self.measured.insert(key.into(), v);
        self
    }

    /// An exact count or a measurement, as `f64`.
    ///
    /// # Errors
    ///
    /// Names the field when the record has no number under `key`.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        match (self.exact.get(key), self.measured.get(key)) {
            (Some(Exact::Int(v)), _) => Ok(*v as f64),
            (_, Some(v)) => Ok(*v),
            _ => Err(format!("no numeric field {key}")),
        }
    }

    fn to_json(&self) -> Json {
        let exact = self.exact.iter().map(|(k, v)| {
            let v = match v {
                Exact::Int(x) => Json::int(*x),
                Exact::Bool(b) => Json::Bool(*b),
            };
            (k.clone(), v)
        });
        let measured = self
            .measured
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num((v * 1000.0).round() / 1000.0)));
        Json::obj(vec![
            ("exact", Json::Obj(exact.collect())),
            ("measured", Json::Obj(measured.collect())),
        ])
    }

    fn from_json(j: &Json) -> Result<Record, String> {
        let fields = |section: &str| match j.get(section) {
            Some(Json::Obj(pairs)) => Ok(pairs.clone()),
            None => Ok(Vec::new()),
            Some(_) => Err(format!("{section} is not an object")),
        };
        let mut r = Record::default();
        for (k, v) in fields("exact")? {
            let v = match v {
                Json::Bool(b) => Exact::Bool(b),
                Json::Num(x) if x >= 0.0 && x.fract() == 0.0 => Exact::Int(x as u64),
                other => return Err(format!("exact field {k} is {other:?}")),
            };
            r.exact.insert(k, v);
        }
        for (k, v) in fields("measured")? {
            match v {
                Json::Num(x) => r.measured.insert(k, x),
                other => return Err(format!("measured field {k} is {other:?}")),
            };
        }
        Ok(r)
    }
}

/// Recorded cells by id (the contents of `BENCH.json`).
pub type Recording = BTreeMap<String, Record>;

/// Parses a recording.
///
/// # Errors
///
/// Returns a description of the first malformed entry.
pub fn parse_recording(text: &str) -> Result<Recording, String> {
    match Json::parse(text)? {
        Json::Obj(cells) => cells
            .into_iter()
            .map(|(id, r)| match Record::from_json(&r) {
                Ok(r) => Ok((id, r)),
                Err(e) => Err(format!("{id}: {e}")),
            })
            .collect(),
        _ => Err("a recording is an object keyed by cell id".into()),
    }
}

/// Renders the records of `recs` that are registry cells, in registry
/// order.
#[must_use]
pub fn render_recording(reg: &Registry, recs: &Recording) -> String {
    let cells = reg
        .cells
        .iter()
        .filter_map(|c| recs.get(&c.id).map(|r| (c.id.clone(), r.to_json())));
    Json::Obj(cells.collect()).pretty()
}

type Run = Box<dyn Fn(&mut Ctx) -> Record>;
type Rule = Box<dyn Fn(&[&Record], &[Option<&Record>]) -> Result<String, String>>;

/// One benchmark cell.
pub struct Cell {
    /// `group/algorithm/workload/engine`.
    pub id: String,
    run: Run,
}

/// A named acceptance rule. Its rule sees the fresh records of
/// [`Predicate::cells`] (in that order) and their recorded counterparts,
/// and returns a one-line verdict.
pub struct Predicate {
    /// What the rule asserts.
    pub name: String,
    /// The cells it reads.
    pub cells: Vec<String>,
    rule: Rule,
}

/// Every cell and every predicate.
#[derive(Default)]
pub struct Registry {
    /// Cells, in run order.
    pub cells: Vec<Cell>,
    /// Acceptance rules.
    pub predicates: Vec<Predicate>,
}

impl Registry {
    fn cell(&mut self, id: &str, run: impl Fn(&mut Ctx) -> Record + 'static) {
        self.cells.push(Cell {
            id: id.into(),
            run: Box::new(run),
        });
    }

    fn rule(
        &mut self,
        name: &str,
        cells: &[&str],
        rule: impl Fn(&[&Record], &[Option<&Record>]) -> Result<String, String> + 'static,
    ) {
        self.predicates.push(Predicate {
            name: name.into(),
            cells: cells.iter().map(|c| (*c).to_string()).collect(),
            rule: Box::new(rule),
        });
    }

    /// One predicate per flag: the flag, and every `*.flag` field (the
    /// per-batch flags of a churn cell), must be recorded and true.
    fn flags(&mut self, id: &str, names: &[&'static str]) {
        for &name in names {
            self.rule(name, &[id], move |f, _| {
                let suffix = format!(".{name}");
                let mut seen = 0;
                for (k, v) in &f[0].exact {
                    if k == name || k.ends_with(&suffix) {
                        if *v != Exact::Bool(true) {
                            return Err(format!("{k} is {v}"));
                        }
                        seen += 1;
                    }
                }
                match seen {
                    0 => Err(format!("no {name} field")),
                    _ => Ok(format!("{seen} field(s) true")),
                }
            });
        }
    }

    /// The cells agree on every one of `keys`.
    fn same(&mut self, name: &str, ids: &[&str], keys: &'static [&'static str]) {
        self.rule(name, ids, move |f, _| {
            for k in keys {
                let first = f[0].exact.get(*k).ok_or_else(|| format!("no field {k}"))?;
                if let Some(r) = f.iter().find(|r| r.exact.get(*k) != Some(first)) {
                    return Err(format!("{k}: {first} vs {:?}", r.exact.get(*k)));
                }
            }
            Ok(format!("{} cells agree on {}", f.len(), keys.join("/")))
        });
    }
}

/// `*` matches any run of characters; everything else matches itself.
#[must_use]
pub fn glob_match(glob: &str, id: &str) -> bool {
    fn go(g: &[u8], s: &[u8]) -> bool {
        match g.iter().position(|&c| c == b'*') {
            None => g == s,
            Some(i) => s.starts_with(&g[..i]) && (i..=s.len()).any(|j| go(&g[i + 1..], &s[j..])),
        }
    }
    go(glob.as_bytes(), id.as_bytes())
}

/// What gating one run found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Violations, each naming the cell and the field or predicate.
    pub failures: Vec<String>,
    /// One line per evaluated or skipped predicate.
    pub notes: Vec<String>,
}

/// Gates the fresh records of a run over `glob`.
///
/// With `drift`, every recorded cell the glob selects must have been run
/// and every fresh cell must reproduce its recorded exact fields, no more
/// and no fewer. Every predicate whose cells all ran is then evaluated
/// (the recording supplies the baselines of the measured bounds); one
/// whose cells ran only in part is skipped with a note.
#[must_use]
pub fn gate(
    reg: &Registry,
    glob: &str,
    fresh: &Recording,
    recorded: &Recording,
    drift: bool,
) -> Verdict {
    let mut v = Verdict::default();
    if drift {
        for id in recorded.keys() {
            if glob_match(glob, id) && !fresh.contains_key(id) {
                v.failures
                    .push(format!("{id}: recorded, but this run did not produce it"));
            }
        }
        for (id, f) in fresh {
            let Some(rec) = recorded.get(id) else {
                v.failures
                    .push(format!("{id}: not recorded (re-record with --write)"));
                continue;
            };
            for (k, want) in &rec.exact {
                match f.exact.get(k) {
                    Some(got) if got == want => {}
                    Some(got) => v
                        .failures
                        .push(format!("{id}: {k} drifted {want} -> {got}")),
                    None => v
                        .failures
                        .push(format!("{id}: {k} missing (recorded {want})")),
                }
            }
            for k in f.exact.keys().filter(|k| !rec.exact.contains_key(*k)) {
                v.failures.push(format!("{id}: {k} not recorded"));
            }
        }
    }
    for p in &reg.predicates {
        let got: Vec<Option<&Record>> = p.cells.iter().map(|c| fresh.get(c)).collect();
        let label = format!("{} [{}]", p.name, p.cells.join(", "));
        if got.iter().all(Option::is_none) {
            continue;
        }
        if got.iter().any(Option::is_none) {
            v.notes.push(format!("skip {label}: not every cell ran"));
            continue;
        }
        let f: Vec<&Record> = got.into_iter().flatten().collect();
        let r: Vec<Option<&Record>> = p.cells.iter().map(|c| recorded.get(c)).collect();
        match (p.rule)(&f, &r) {
            Ok(note) => v.notes.push(format!("ok   {label}: {note}")),
            Err(e) => v.failures.push(format!("{label}: {e}")),
        }
    }
    v
}

const USAGE: &str = "usage: harness bench <glob> [--check <BENCH.json> | --write <BENCH.json>] \
                     [--out <fresh.json>]\n  e.g.: harness bench 'net/*' --check BENCH.json";

/// `harness bench`: runs the cells matching a glob, gates them, and
/// returns the process exit code (0 pass, 1 gate failure, 2 usage).
#[must_use]
pub fn cli(args: &[String], ctx: &mut Ctx) -> i32 {
    let Some((glob, flags)) = args.split_first() else {
        eprintln!("{USAGE}");
        return 2;
    };
    let (mut check, mut write, mut out) = (None, None, None);
    for pair in flags.chunks(2) {
        match pair {
            [f, path] if f == "--check" && write.is_none() => check = Some(path),
            [f, path] if f == "--write" && check.is_none() => write = Some(path),
            [f, path] if f == "--out" => out = Some(path),
            _ => {
                eprintln!("{USAGE}");
                return 2;
            }
        }
    }
    let reg = registry();
    let selected: Vec<&Cell> = reg
        .cells
        .iter()
        .filter(|c| glob_match(glob, &c.id))
        .collect();
    if selected.is_empty() {
        eprintln!("no cell matches {glob:?}\n{USAGE}");
        return 2;
    }
    let recorded = match check.or(write).map(std::fs::read_to_string) {
        None => Recording::new(),
        Some(Err(_)) if write.is_some() => Recording::new(),
        Some(Err(e)) => {
            eprintln!("cannot read the recording: {e}");
            return 2;
        }
        Some(Ok(text)) => match parse_recording(&text) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("malformed recording: {e}");
                return 2;
            }
        },
    };
    let mut fresh = Recording::new();
    let mut failures = Vec::new();
    // Create the report before the first cell runs: a path that cannot be
    // written is a usage error, not a report silently lost at the end.
    if let Some(path) = out {
        if let Err(e) = std::fs::write(path, render_recording(&reg, &fresh)) {
            eprintln!("cannot write {path}: {e}");
            return 2;
        }
    }
    let started = Instant::now();
    for (i, cell) in selected.iter().enumerate() {
        let t0 = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| (cell.run)(ctx))) {
            Ok(rec) => {
                let exact = rec.exact.iter().map(|(k, v)| format!("{k}={v}"));
                let measured = rec.measured.iter().map(|(k, v)| format!("{k}={v:.1}"));
                println!(
                    "[{}/{}] {} ({:.1} s)\n    {}\n    {}",
                    i + 1,
                    selected.len(),
                    cell.id,
                    t0.elapsed().as_secs_f64(),
                    exact.collect::<Vec<_>>().join(" "),
                    measured.collect::<Vec<_>>().join(" "),
                );
                fresh.insert(cell.id.clone(), rec);
            }
            Err(_) => failures.push(format!("{}: the run panicked", cell.id)),
        }
        if let Some(path) = out {
            if let Err(e) = std::fs::write(path, render_recording(&reg, &fresh)) {
                failures.push(format!("cannot write {path}: {e}"));
            }
        }
    }
    let verdict = gate(&reg, glob, &fresh, &recorded, check.is_some());
    for note in &verdict.notes {
        println!("{note}");
    }
    failures.extend(verdict.failures);
    if !failures.is_empty() {
        eprintln!("BENCH GATE FAILED ({} violations):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        return 1;
    }
    if let Some(path) = write {
        let mut merged = recorded;
        merged.extend(fresh.clone());
        if let Err(e) = std::fs::write(path, render_recording(&reg, &merged)) {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
        println!("recorded {} cells into {path}", fresh.len());
    }
    println!(
        "bench OK: {} cells, {} predicates held, {:.1} s",
        fresh.len(),
        verdict.notes.iter().filter(|n| n.starts_with("ok")).count(),
        started.elapsed().as_secs_f64()
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recording() -> Recording {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH.json");
        let text = std::fs::read_to_string(path).expect("read BENCH.json");
        parse_recording(&text).expect("parse BENCH.json")
    }

    fn failures(fresh: &Recording, glob: &str) -> Vec<String> {
        gate(&registry(), glob, fresh, &recording(), true).failures
    }

    #[test]
    fn cell_ids_are_unique() {
        let reg = registry();
        let mut ids: Vec<&str> = reg.cells.iter().map(|c| c.id.as_str()).collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate cell ids");
    }

    #[test]
    fn recording_covers_the_registry_exactly() {
        let reg = registry();
        let rec = recording();
        for c in &reg.cells {
            assert!(rec.contains_key(&c.id), "{} is not recorded", c.id);
        }
        for id in rec.keys() {
            assert!(
                reg.cells.iter().any(|c| &c.id == id),
                "{id} is not a registry cell"
            );
        }
    }

    #[test]
    fn predicates_name_existing_cells() {
        let reg = registry();
        for p in &reg.predicates {
            for c in &p.cells {
                assert!(
                    reg.cells.iter().any(|x| &x.id == c),
                    "{}: no cell {c}",
                    p.name
                );
            }
        }
    }

    #[test]
    fn recording_is_canonical_and_satisfies_every_predicate() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH.json");
        let text = std::fs::read_to_string(path).expect("read BENCH.json");
        let rec = recording();
        assert_eq!(
            render_recording(&registry(), &rec),
            text,
            "BENCH.json is not in registry order"
        );
        assert!(failures(&rec, "*").is_empty(), "{:?}", failures(&rec, "*"));
    }

    #[test]
    fn gate_names_the_cell_and_field_of_an_exact_drift() {
        let mut fresh = recording();
        let id = "scale/det-small/rr8-1e5/seq";
        let r = fresh.get_mut(id).expect("cell");
        r.exact.insert("delta".into(), Exact::Int(9));
        assert_eq!(
            failures(&fresh, "*"),
            [format!("{id}: delta drifted 8 -> 9")]
        );
    }

    #[test]
    fn gate_fails_on_a_selected_recorded_cell_the_run_did_not_produce() {
        let mut fresh = recording();
        fresh.retain(|id, _| glob_match("net/*", id));
        let id = "net/det-small/gnp-n200-d5-g11-s42/x2";
        fresh.remove(id);
        assert_eq!(
            failures(&fresh, "net/*"),
            [format!("{id}: recorded, but this run did not produce it")]
        );
        // Cells outside the glob are not expected.
        fresh.retain(|id, _| glob_match("net/rand-improved/*", id));
        assert!(failures(&fresh, "net/rand-improved/*").is_empty());
    }

    #[test]
    fn gate_fails_a_broken_predicate_by_name() {
        let mut fresh = recording();
        let id = "scale/build/rr8-1e6";
        fresh
            .get_mut(id)
            .expect("cell")
            .measured
            .insert("build_ms".into(), 12_000.0);
        let got = failures(&fresh, "*");
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(
            got[0].starts_with(&format!("1e6 build under 10 s [{id}]")),
            "{got:?}"
        );
    }

    #[test]
    fn measured_fields_alone_may_move() {
        let mut fresh = recording();
        for r in fresh.values_mut() {
            for v in r.measured.values_mut() {
                *v *= 0.5;
            }
        }
        assert!(
            failures(&fresh, "*").is_empty(),
            "{:?}",
            failures(&fresh, "*")
        );
    }

    fn bench(args: &[&str]) -> i32 {
        let args: Vec<String> = args.iter().map(|&a| a.into()).collect();
        cli(
            &args,
            &mut Ctx::new(d2color::netharness::ShardCommand::current_exe("net-shard")),
        )
    }

    #[test]
    fn an_unwritable_report_is_a_usage_error() {
        // Nothing can be created below a regular file.
        let out = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/fresh.json");
        let cell = "small/det-small/gnp-n2000-cap8/drops-50000ppm";
        assert_eq!(bench(&[cell, "--out", out]), 2);
    }

    #[test]
    fn the_report_holds_every_cell_that_ran() {
        let out = std::env::temp_dir().join(format!("bench-out-{}.json", std::process::id()));
        let cell = "small/det-small/torus-20x20/seq";
        let code = bench(&[cell, "--out", out.to_str().expect("utf-8 path")]);
        let text = std::fs::read_to_string(&out).expect("report written");
        std::fs::remove_file(&out).expect("remove report");
        assert_eq!(code, 0);
        let report = parse_recording(&text).expect("parse report");
        assert_eq!(report.keys().collect::<Vec<_>>(), [cell]);
    }

    #[test]
    fn glob_matches_prefixes_infixes_and_exact_ids() {
        assert!(glob_match("*", "small/det-small/torus-20x20/seq"));
        assert!(glob_match("small/*", "small/det-small/torus-20x20/seq"));
        assert!(glob_match(
            "*/torus-*/seq",
            "small/det-small/torus-20x20/seq"
        ));
        assert!(glob_match("net/x", "net/x"));
        assert!(!glob_match("net/x", "net/x2"));
        assert!(!glob_match("scale/*", "small/det-small/torus-20x20/seq"));
    }

    #[test]
    fn records_round_trip_through_json() {
        let r = Record::default()
            .int("rounds", 1170)
            .flag("valid", true)
            .measure("wall_ms", 5407.038);
        let text = Json::Obj(vec![("a/b".into(), r.to_json())]).pretty();
        let back = parse_recording(&text).expect("parse");
        assert_eq!(back.get("a/b"), Some(&r));
        assert!(parse_recording("[1]").is_err());
        assert!(parse_recording("{\"a\": {\"exact\": {\"x\": -1}}}").is_err());
    }
}
