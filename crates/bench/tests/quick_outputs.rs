//! Every table, figure and ablation binary's `--quick` stdout, byte for
//! byte, against its committed copy `tests/golden/<binary>_quick.txt`.
//! The runs are deterministic, so a difference is a change of behaviour:
//! fix it, or regenerate the golden by redirecting the binary's stdout
//! into it (`target/release/fig5 --quick > tests/golden/fig5_quick.txt`)
//! and say why in the commit.

use std::process::Command;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");

#[test]
fn quick_outputs_match_their_goldens() {
    let bins = [
        ("fig2to4", env!("CARGO_BIN_EXE_fig2to4")),
        ("fig5", env!("CARGO_BIN_EXE_fig5")),
        ("table1", env!("CARGO_BIN_EXE_table1")),
        ("table2", env!("CARGO_BIN_EXE_table2")),
        ("ablation_base", env!("CARGO_BIN_EXE_ablation_base")),
        (
            "ablation_subscheme",
            env!("CARGO_BIN_EXE_ablation_subscheme"),
        ),
        ("ablation_rotation", env!("CARGO_BIN_EXE_ablation_rotation")),
    ];
    // One thread each: the slowest binary, not the sum, sets the time.
    std::thread::scope(|s| {
        for (name, exe) in bins {
            s.spawn(move || {
                let out = Command::new(exe).arg("--quick").output().expect("it runs");
                let golden = format!("{GOLDEN}/{name}_quick.txt");
                let want = std::fs::read_to_string(&golden).expect("a committed golden");
                let got = String::from_utf8_lossy(&out.stdout);
                let same = got.lines().zip(want.lines()).take_while(|(g, w)| g == w);
                let line = same.count() + 1;
                assert!(out.status.success(), "{name} --quick failed");
                assert!(got == want, "{name}: {golden} differs at line {line}");
            });
        }
    });
}
