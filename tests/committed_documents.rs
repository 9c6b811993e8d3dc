//! The two committed JSON documents against today's writers:
//! `results/REPORT_hotpath_quick.json` and `results/SHOOTOUT_quick.json`.
//! Whatever a writer prints must carry every field the file carries,
//! under the same name and in the same place, so a writer that drops or
//! renames one fails here rather than in `report diff` or `--expect`.

use hypersub_core::report::{Json, Report};
use hypersub_shootout::{all_systems, run_rung, shootout_json};

fn committed(name: &str) -> String {
    let path = format!("{}/../results/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
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
