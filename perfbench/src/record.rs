//! The one-line JSON record a pass process hands back to the harness.

use metrics::Json;

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// What one pass measured and checked.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PassRecord {
    /// Host seconds of the pass's fixed work.
    pub wall_s: f64,
    /// Host seconds from process start to the first timed operation.
    pub setup_s: f64,
    /// Peak resident memory of the pass process, in MB.
    pub rss_mb: f64,
    /// Operations and checks attempted, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Simulator counts that must repeat exactly in every pass of the
    /// same workload and seed.
    pub counts: Vec<(String, f64)>,
    /// Per-layer metrics (traced passes only).
    pub layers: Vec<Metric>,
}

impl PassRecord {
    pub fn count(&mut self, name: &str, value: f64) {
        self.counts.push((name.to_string(), value));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &str) {
        self.layers.push(Metric::new(name, value, unit));
    }

    /// Records the outcome of one check; `what` names it in the log.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }

    pub fn layer_value(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn to_json(&self) -> Json {
        let num = |v: f64| Json::Num(v);
        Json::obj([
            ("wall_s".to_string(), num(self.wall_s)),
            ("setup_s".to_string(), num(self.setup_s)),
            ("rss_mb".to_string(), num(self.rss_mb)),
            ("attempted".to_string(), num(self.attempted as f64)),
            ("failed".to_string(), num(self.failed as f64)),
            (
                "counts".to_string(),
                Json::obj(self.counts.iter().map(|(k, v)| (k.clone(), num(*v)))),
            ),
            (
                "layers".to_string(),
                Json::Arr(
                    self.layers
                        .iter()
                        .map(|m| {
                            Json::obj([
                                ("name".to_string(), Json::Str(m.name.clone())),
                                ("value".to_string(), num(m.value)),
                                ("unit".to_string(), Json::Str(m.unit.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Option<PassRecord> {
        let f = |k: &str| j.get(k).and_then(Json::as_f64);
        let counts = j
            .get("counts")?
            .as_obj()?
            .iter()
            .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect::<Option<Vec<_>>>()?;
        let layers = j
            .get("layers")?
            .as_arr()?
            .iter()
            .map(|m| {
                Some(Metric {
                    name: m.get("name")?.as_str()?.to_string(),
                    value: m.get("value")?.as_f64()?,
                    unit: m.get("unit")?.as_str()?.to_string(),
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(PassRecord {
            wall_s: f("wall_s")?,
            setup_s: f("setup_s")?,
            rss_mb: f("rss_mb")?,
            attempted: f("attempted")? as u64,
            failed: f("failed")? as u64,
            counts,
            layers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_through_json() {
        let mut r = PassRecord {
            wall_s: 1.25,
            setup_s: 0.125,
            rss_mb: 300.5,
            ..PassRecord::default()
        };
        r.check(true, "ok");
        r.count("engine.events", 12345.0);
        r.layer("plane.boot_vm_us_p50", 17.5, "us");
        let text = r.to_json().compact();
        let back = PassRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }
}
