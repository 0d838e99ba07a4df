//! Every paper table, regenerated and diffed against its committed
//! golden: `golden/<name>.txt` holds exactly what `cargo bench --bench
//! <name>` prints. `SABER_BLESS=1 cargo test -p saber-bench --test
//! paper_goldens` rewrites the files; review the diff before committing,
//! and update the EXPERIMENTS.md rows that quote a moved number.

use std::path::Path;

use saber_bench::paper::ALL;
use saber_testkit::golden;

#[test]
fn every_paper_table_matches_its_golden() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
    let file = |name: &str| format!("{name}.txt");
    let mut drifted: Vec<String> = ALL
        .iter()
        .filter_map(|artifact| {
            let text = (artifact.write)();
            golden::check(&dir.join(file(artifact.name)), &text)
                .err()
                .map(|diff| format!("{} ({}): {diff}", artifact.name, artifact.title))
        })
        .collect();
    for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let name = entry.expect("readable folder entry").file_name();
        let name = name.to_string_lossy();
        if !ALL.iter().any(|artifact| file(artifact.name) == name) {
            drifted.push(format!("{name}: no paper::ALL entry writes it"));
        }
    }
    assert!(
        drifted.is_empty(),
        "{} golden files drifted:\n\n{}",
        drifted.len(),
        drifted.join("\n\n")
    );
}
