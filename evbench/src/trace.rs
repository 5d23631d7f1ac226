//! Bench-side spans and the layer budget.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (the engine is not instrumented), kept in memory, and written to
//! `evbench-trace.json` when a traced run ends. The budget turns the
//! probes' per-event times into self times by subtracting from each layer
//! the separately probed children it calls.

use std::collections::BTreeMap;
use std::io::Write;

use crate::json::quote;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The input event (or first event of a probed chunk) it belongs to.
    pub event: u64,
}

#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn add(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        event: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            event,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn write_json(&self, mut out: impl Write, workload: &str) -> std::io::Result<()> {
        write!(
            out,
            "{{\"workload\":{},\"unit\":\"ns\",\"spans\":[",
            quote(workload)
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}\n{{\"id\":{i},\"name\":{},\"start\":{},\"end\":{},\"parent\":{parent},\"event\":{}}}",
                if i == 0 { "" } else { "," },
                quote(s.name),
                s.start_ns,
                s.end_ns,
                s.event
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

/// Self time of each layer: its probed time minus the probed time of the
/// children it calls, floored at zero. `calls` lists `(parent, child)`;
/// all times are per input event, so they subtract directly.
pub fn self_times(
    probed: &BTreeMap<&'static str, f64>,
    calls: &[(&'static str, &'static str)],
) -> BTreeMap<&'static str, f64> {
    probed
        .iter()
        .map(|(&name, &total)| {
            let children: f64 = calls
                .iter()
                .filter(|(parent, _)| *parent == name)
                .filter_map(|(_, child)| probed.get(child))
                .sum();
            (name, (total - children).max(0.0))
        })
        .collect()
}

/// The budget of one workload: self times summed per layer (the part of
/// a probe name before the dot), their total, and the dominant share.
pub struct Budget {
    pub by_layer: BTreeMap<&'static str, f64>,
    pub busy_ns: f64,
}

impl Budget {
    pub fn of(selfs: &BTreeMap<&'static str, f64>) -> Budget {
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (name, ns) in selfs {
            let layer = name.split('.').next().expect("split yields one item");
            *by_layer.entry(layer).or_default() += ns;
        }
        let busy_ns = by_layer.values().sum();
        Budget { by_layer, busy_ns }
    }

    /// Share of the busy time spent in `layers`.
    pub fn share(&self, layers: &[&str]) -> f64 {
        if self.busy_ns <= 0.0 {
            return 0.0;
        }
        layers
            .iter()
            .filter_map(|l| self.by_layer.get(l))
            .sum::<f64>()
            / self.busy_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_probed_children_only() {
        let probed = BTreeMap::from([
            ("core.pump", 1_000.0),
            ("rules.match_record", 600.0),
            ("expr.eval", 450.0),
            ("cq.push_event", 100.0),
            ("core.ingest_async", 50.0),
        ]);
        let calls = [
            ("core.pump", "rules.match_record"),
            ("core.pump", "cq.push_event"),
            ("core.pump", "storage.segment_append"), // not probed here: subtracts nothing
            ("rules.match_record", "expr.eval"),
        ];
        let selfs = self_times(&probed, &calls);
        assert_eq!(selfs["core.pump"], 300.0);
        assert_eq!(selfs["rules.match_record"], 150.0);
        assert_eq!(selfs["expr.eval"], 450.0);
        assert_eq!(selfs["core.ingest_async"], 50.0);
        // Self times partition the path: they add back up to the roots.
        let total: f64 = selfs.values().sum();
        assert_eq!(total, 1_000.0 + 50.0);

        let budget = Budget::of(&selfs);
        assert_eq!(budget.busy_ns, 1_050.0);
        assert_eq!(budget.by_layer["core"], 350.0);
        assert!((budget.share(&["rules", "expr"]) - 600.0 / 1_050.0).abs() < 1e-12);
    }

    #[test]
    fn a_child_slower_in_isolation_than_inside_its_parent_floors_at_zero() {
        let probed = BTreeMap::from([("core.pump", 100.0), ("cq.push_event", 130.0)]);
        let selfs = self_times(&probed, &[("core.pump", "cq.push_event")]);
        assert_eq!(selfs["core.pump"], 0.0);
        assert_eq!(Budget::of(&BTreeMap::new()).share(&["core"]), 0.0);
    }

    #[test]
    fn trace_file_keeps_parents_and_events() {
        let mut t = Trace::default();
        let root = t.add("event", 10, 90, None, 7);
        t.add("send", 10, 20, Some(root), 7);
        let mut file = Vec::new();
        t.write_json(&mut file, "unit").unwrap();
        let doc = crate::json::parse(std::str::from_utf8(&file).unwrap()).unwrap();
        let spans = doc
            .get("spans")
            .and_then(crate::json::Json::as_arr)
            .unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("parent"), Some(&crate::json::Json::Null));
        assert_eq!(
            spans[1].get("parent").and_then(crate::json::Json::as_f64),
            Some(0.0)
        );
        assert_eq!(
            spans[1].get("event").and_then(crate::json::Json::as_f64),
            Some(7.0)
        );
    }
}
