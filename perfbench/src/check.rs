//! Correctness checks shared by the timed runs, the traced run and the
//! self-test.

use std::path::Path;

use crate::record::PassRecord;

/// Compares the `<id>.json` and `<id>.csv` artefacts a pass wrote to
/// `out` against `reference` byte for byte. Returns one line per
/// mismatching or unreadable file.
pub fn compare_artefacts(out: &Path, reference: &Path, ids: &[String]) -> Vec<String> {
    let mut bad = Vec::new();
    for id in ids {
        for ext in ["json", "csv"] {
            let name = format!("{id}.{ext}");
            match (
                std::fs::read(out.join(&name)),
                std::fs::read(reference.join(&name)),
            ) {
                (Ok(a), Ok(b)) if a == b => {}
                (Ok(_), Ok(_)) => bad.push(format!("{name} differs from {}", reference.display())),
                (Err(e), _) => bad.push(format!("{name} not written: {e}")),
                (_, Err(e)) => bad.push(format!("{name} has no reference: {e}")),
            }
        }
    }
    bad
}

/// Names of the exact counts that differ between `records` (all passes
/// of one workload with one seed), or that some record lacks.
pub fn count_drift(records: &[PassRecord]) -> Vec<String> {
    let Some(first) = records.first() else {
        return Vec::new();
    };
    let mut drift = Vec::new();
    for (name, value) in &first.counts {
        for r in &records[1..] {
            let other = r.counts.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            if other != Some(*value) {
                drift.push(format!("{name}: {value} vs {other:?}"));
                break;
            }
        }
    }
    for r in &records[1..] {
        if r.counts.len() != first.counts.len() {
            drift.push(format!(
                "count sets differ: {} vs {} names",
                first.counts.len(),
                r.counts.len()
            ));
            break;
        }
    }
    drift
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_names_the_changed_count() {
        let mut a = PassRecord::default();
        a.count("engine.events", 10.0);
        a.count("xenstore.requests", 5.0);
        let mut b = a.clone();
        assert!(count_drift(&[a.clone(), b.clone()]).is_empty());
        b.counts[1].1 = 6.0;
        let d = count_drift(&[a, b]);
        assert_eq!(d.len(), 1);
        assert!(d[0].starts_with("xenstore.requests"));
    }
}
