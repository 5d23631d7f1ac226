//! Experiment implementations E1–E19 (see DESIGN.md §5 for the mapping
//! to paper claims, and EXPERIMENTS.md for recorded results).
//!
//! Each experiment exposes `run(scale) -> Table`: `Scale::Quick` for CI
//! and tests, `Scale::Full` for the numbers recorded in EXPERIMENTS.md.

pub mod e01_capture;
pub mod e02_queue;
pub mod e03_rules;
pub mod e04_churn;
pub mod e05_cq;
pub mod e06_pattern;
pub mod e07_internal;
pub mod e08_analytics;
pub mod e09_usecases;
pub mod e10_recovery;
pub mod e11_parallel;
pub mod e12_torture;
pub mod e13_observability;
pub mod e14_overload;
pub mod e15_compiled;
pub mod e16_retraction;
pub mod e17_server;
pub mod e18_history;
pub mod e19_batch;

/// Workload size preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small: seconds per experiment; used by tests.
    Quick,
    /// Full: the EXPERIMENTS.md numbers.
    Full,
}

impl Scale {
    /// Pick a size by scale.
    pub fn pick(self, quick: usize, full: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// A printable result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id + title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (expected shape, caveats).
    pub notes: Vec<String>,
}

impl Table {
    /// Start a table.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                s.push_str(&format!("{:>width$}", c, width = widths[i]));
            }
            s.push('\n');
            s
        };
        out.push_str(&line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }
}

/// Run every experiment at the given scale and render all tables.
pub fn run_all(scale: Scale) -> String {
    let mut out = String::new();
    let tables = vec![
        e01_capture::run(scale),
        e02_queue::run(scale),
        e03_rules::run(scale),
        e04_churn::run(scale),
        e05_cq::run(scale),
        e05_cq::run_sharing(scale),
        e06_pattern::run(scale),
        e07_internal::run(scale),
        e08_analytics::run(scale),
        e09_usecases::run(scale),
        e10_recovery::run(scale),
        e11_parallel::run(scale),
        e12_torture::run(scale),
        e13_observability::run(scale),
        e14_overload::run(scale),
        e15_compiled::run(scale),
        e16_retraction::run(scale),
        e17_server::run(scale),
        e18_history::run(scale),
        e19_batch::run(scale),
    ];
    for t in tables {
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Fresh unique temp dir for durable-database experiments.
pub fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "evdb-bench-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&d).expect("create tmpdir");
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("T", &["a", "long_header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("shape holds");
        let s = t.render();
        assert!(s.contains("== T =="));
        assert!(s.contains("long_header"));
        assert!(s.contains("note: shape holds"));
    }

    #[test]
    #[should_panic]
    fn row_arity_checked() {
        let mut t = Table::new("T", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }
}
