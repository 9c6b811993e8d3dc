//! The committed documents against today's code.
//!
//! The two committed JSON documents, `results/REPORT_hotpath_quick.json`
//! and `results/SHOOTOUT_quick.json`, against today's writers and
//! reader: whatever a writer prints must carry every field the file
//! carries, under the same name and in the same place, so a writer that
//! drops or renames one fails here rather than in `report diff` or
//! `--expect`; and no truncation, bit flip or random text makes the
//! reader panic.
//!
//! The design document against the sections it is cited by: it is
//! organised by topic, so no heading names a pull request, and every
//! section title quoted after a mention of it resolves to a heading.

use hypersub_core::report::{Json, Report};
use hypersub_shootout::{all_systems, run_rung, shootout_json};
use std::path::{Path, PathBuf};

/// The design document's file name.
const DESIGN: &str = concat!("DESIGN", ".md");

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn committed(name: &str) -> String {
    read(&root().join("results").join(name))
}

/// A document's keys, in order and at every depth, with each scalar
/// reduced to its kind and each array to its first element.
fn shape(v: &Json) -> Json {
    match v {
        Json::Obj(o) => Json::Obj(o.iter().map(|(k, v)| (k.clone(), shape(v))).collect()),
        Json::Arr(a) => Json::Arr(a.iter().take(1).map(shape).collect()),
        Json::Num(_) => "num".into(),
        Json::Dec(_) => "dec".into(),
        Json::Str(_) => "str".into(),
        Json::Bool(_) => "bool".into(),
        Json::Null => Json::Null,
    }
}

#[test]
fn rewriting_the_committed_report_reproduces_it() {
    let text = committed("REPORT_hotpath_quick.json");
    let report = Report::from_json(&text).expect("the committed report parses");
    assert_eq!(Json::parse(&report.to_json()), Json::parse(&text));
}

#[test]
fn the_shootout_writer_writes_every_committed_field() {
    let file = Json::parse(&committed("SHOOTOUT_quick.json")).expect("it parses");
    let outcome = run_rung(&all_systems(), (24, 2, 6), 3).expect("tiny rung runs");
    let doc = Json::parse(&shootout_json(7, "quick", &[outcome])).expect("ours parses");
    assert_eq!(shape(&doc), shape(&file));
}

/// Every truncation and every single-bit flip of both documents goes
/// to the parser, and each that parses to the report reader too (which
/// parses first, so it would refuse the rest just as the parser did);
/// either may refuse it, and neither panics. Two threads share the
/// cases.
#[test]
fn truncated_or_flipped_documents_never_panic() {
    for name in ["REPORT_hotpath_quick.json", "SHOOTOUT_quick.json"] {
        let bytes = committed(name).into_bytes();
        // Case `i` is a truncation to `i` bytes, then a flip of bit
        // `i - len`.
        let case = |i: usize| match i.checked_sub(bytes.len()) {
            None => bytes[..i].to_vec(),
            Some(bit) => {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                flipped
            }
        };
        let cases = bytes.len() * 9;
        std::thread::scope(|s| {
            for first in 0..2 {
                s.spawn(move || {
                    for i in (first..cases).step_by(2) {
                        let text = String::from_utf8_lossy(&case(i)).into_owned();
                        if Json::parse(&text).is_ok() {
                            let _ = Report::from_json(&text);
                        }
                    }
                });
            }
        });
    }
}

/// Arbitrary text from a fixed seed goes to the parser and the report
/// reader: random strings over the characters JSON is made of, and each
/// document's prefix followed by such a string, so the reader sees text
/// that parses. Either may refuse it, and neither panics.
#[test]
fn random_documents_never_panic() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    const ALPHABET: &[u8] = b"{}[]:,\"\\ -+.0123456789eEtrufalsn\nx";
    let mut rng = SmallRng::seed_from_u64(0x0d0c_5eed);
    let random = |rng: &mut SmallRng, len: usize| -> String {
        (0..len)
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
            .collect()
    };
    let feed = |text: &str| {
        if Json::parse(text).is_ok() {
            let _ = Report::from_json(text);
        }
    };
    for _ in 0..100_000 {
        let len = rng.gen_range(0..64);
        feed(&random(&mut rng, len));
    }
    for name in ["REPORT_hotpath_quick.json", "SHOOTOUT_quick.json"] {
        let bytes = committed(name).into_bytes();
        for _ in 0..2_000 {
            let cut = rng.gen_range(0..bytes.len());
            let len = rng.gen_range(1..32);
            let mut mixed = String::from_utf8_lossy(&bytes[..cut]).into_owned();
            mixed.push_str(&random(&mut rng, len));
            feed(&mixed);
        }
    }
}

/// The design document's headings, without their `#` marks; lines
/// inside code fences are not headings.
fn headings(design: &str) -> Vec<&str> {
    let mut fenced = false;
    design
        .lines()
        .filter_map(|line| {
            if line.starts_with("```") {
                fenced = !fenced;
            }
            let heading = line.strip_prefix('#').filter(|_| !fenced)?;
            Some(heading.trim_start_matches('#').trim())
        })
        .collect()
}

/// `text` on one line, with each line's leading comment markers
/// dropped, so that a citation may continue across comment lines.
fn flatten(text: &str) -> String {
    let unmarked = text.lines().map(|line| {
        let line = line.trim_start();
        line.trim_start_matches('/').trim_start_matches('!').trim()
    });
    unmarked.collect::<Vec<_>>().join(" ")
}

/// The titles `text` quotes right after `mention`: `"…"`, `§ "…"` or
/// `, "…"`, with any closing backtick of the mention skipped.
fn quoted_after(text: &str, mention: &str) -> Vec<String> {
    let mut titles = Vec::new();
    for (at, _) in text.match_indices(mention) {
        let rest = text[at + mention.len()..]
            .trim_start_matches('`')
            .trim_start();
        let rest = rest.strip_prefix(['§', ',']).unwrap_or(rest).trim_start();
        if let Some((title, _)) = rest.strip_prefix('"').and_then(|q| q.split_once('"')) {
            titles.push(title.to_string());
        }
    }
    titles
}

/// A title resolves to a heading it spells out, alone or followed by a
/// parenthesised gloss.
fn resolves(title: &str, headings: &[&str]) -> bool {
    headings.iter().any(|h| {
        h.strip_prefix(title)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with(" ("))
    })
}

/// Every `.rs` file under `dir`, at any depth.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_design_heading_names_a_pull_request() {
    let design = read(&root().join(DESIGN));
    let naming: Vec<&str> = headings(&design)
        .into_iter()
        .filter(|h| {
            h.match_indices("PR ")
                .any(|(at, _)| h[at + 3..].starts_with(|c: char| c.is_ascii_digit()))
        })
        .collect();
    assert!(naming.is_empty(), "headings name a PR: {naming:?}");
}

#[test]
fn every_cited_design_section_exists() {
    let root = root();
    let design = read(&root.join(DESIGN));
    let headings = headings(&design);
    let mut sources: Vec<PathBuf> = [
        "README.md",
        "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md",
    ]
    .iter()
    .map(|f| root.join(f))
    .collect();
    rust_files(&root.join("crates"), &mut sources);
    for entry in std::fs::read_dir(root.join("tests")).expect("the tests directory") {
        let path = entry.expect("a directory entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            sources.push(path);
        }
    }
    let mut dangling = Vec::new();
    for path in &sources {
        for title in quoted_after(&flatten(&read(path)), DESIGN) {
            if !resolves(&title, &headings) {
                dangling.push(format!("{}: {title:?}", path.display()));
            }
        }
    }
    let design_text = flatten(&design);
    for title in quoted_after(&design_text, "see ")
        .into_iter()
        .chain(quoted_after(&design_text, "See "))
    {
        if !resolves(&title, &headings) {
            dangling.push(format!("{DESIGN}: {title:?}"));
        }
    }
    assert!(
        dangling.is_empty(),
        "cited sections with no heading: {dangling:#?}"
    );
}
