//! Doc-drift guard: the experiment tables in `docs/EXPERIMENTS.md` must
//! match the experiment registry in `paco_bench::experiments`.
//!
//! Mirrors `crates/corpus/tests/doc_drift.rs` (which pins WORKLOADS.md
//! to the corpus registry): every experiment `paco-bench list` shows has
//! a row, and every row names an experiment `paco-bench run` accepts, so
//! an experiment can neither ship undocumented nor linger in the docs
//! after it is deleted.

use std::path::Path;

use paco_bench::experiments::{ExperimentId, ALL_EXPERIMENTS};

fn experiments_md() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/EXPERIMENTS.md");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Splits a markdown table row into trimmed cells (empty edge cells
/// from the leading/trailing `|` removed).
fn row_cells(line: &str) -> Option<Vec<String>> {
    let line = line.trim();
    if !line.starts_with('|') || !line.ends_with('|') || line.len() < 2 {
        return None;
    }
    Some(
        line[1..line.len() - 1]
            .split('|')
            .map(|c| c.trim().to_string())
            .collect(),
    )
}

fn is_separator(cells: &[String]) -> bool {
    cells
        .iter()
        .all(|c| !c.is_empty() && c.chars().all(|ch| ch == '-' || ch == ':'))
}

/// The first-column cells of every table whose header's first column is
/// `experiment`, in document order.
fn experiment_rows(doc: &str) -> Vec<String> {
    let mut rows = Vec::new();
    let mut in_experiment_table = false;
    let mut header_seen = false;
    for line in doc.lines() {
        let Some(cells) = row_cells(line) else {
            in_experiment_table = false;
            header_seen = false;
            continue;
        };
        if !header_seen {
            header_seen = true;
            in_experiment_table = cells[0] == "experiment";
            continue;
        }
        if in_experiment_table && !is_separator(&cells) {
            rows.push(cells[0].clone());
        }
    }
    rows
}

#[test]
fn every_experiment_has_a_row() {
    let rows = experiment_rows(&experiments_md());
    for id in ALL_EXPERIMENTS {
        let cell = format!("`{}`", id.name());
        assert!(
            rows.contains(&cell),
            "docs/EXPERIMENTS.md has no experiment-table row for {cell}; rows: {rows:?}"
        );
    }
}

#[test]
fn every_row_names_a_runnable_experiment() {
    let rows = experiment_rows(&experiments_md());
    assert!(!rows.is_empty(), "no experiment tables found");
    for cell in &rows {
        let name = cell
            .strip_prefix('`')
            .and_then(|c| c.strip_suffix('`'))
            .unwrap_or_else(|| panic!("experiment cell {cell:?} is not a backticked name"));
        assert!(
            ExperimentId::from_name(name).is_some(),
            "docs/EXPERIMENTS.md documents `{name}`, which `paco-bench run` does not accept"
        );
    }
}
