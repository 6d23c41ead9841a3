//! What one child process measured, and the line protocol that carries
//! it to the parent over the child's standard output.

use crate::json::Json;
use crate::stats::Spread;
use std::fmt::Display;

/// Per-slice samples of one timing and the clock they were taken on.
pub struct Timing {
    pub name: String,
    pub clock: String,
    pub spread: Spread,
}

impl Timing {
    pub fn new(name: &str, clock: &str, mut samples: Vec<f64>) -> Timing {
        Timing { name: name.into(), clock: clock.into(), spread: Spread::of(&mut samples) }
    }
}

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<(String, f64)>,
    pub timings: Vec<Timing>,
    pub info: Vec<(String, String)>,
    /// Spans of the traced run, written to the trace file by the child.
    pub trace: Option<Json>,
    /// Best-slice ns per message of the untraced slices, for the
    /// derived `lci.upper_ns_per_msg.*`.
    pub ns_per_msg: Option<f64>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.into(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn timing(&mut self, t: Timing) {
        self.timings.push(t);
    }

    pub fn info(&mut self, key: &str, value: impl Display) {
        self.info.push((key.into(), value.to_string()));
    }

    /// The workload could not finish: whatever it had not delivered is
    /// failed, and at least one operation is.
    pub fn abort(&mut self, why: String) {
        self.errors.push(why);
        if self.failed == 0 {
            self.failed = 1;
            self.attempted = self.attempted.max(1);
        }
    }

    /// A timing whose fastest quarter took twice its best slice.
    pub fn noisy(&self) -> bool {
        self.timings.iter().any(|t| t.spread.noisy())
    }

    /// One line per fact; values never contain spaces except the last
    /// field of `E` and `I` lines.
    pub fn print(&self) {
        println!("@A {} {}", self.attempted, self.failed);
        for e in &self.errors {
            println!("@E {}", e.replace('\n', " "));
        }
        for (n, v) in &self.metrics {
            println!("@M {n} {v:e}");
        }
        for t in &self.timings {
            let s = &t.spread;
            println!("@T {} {} {:e} {:e} {:e} {}", t.name, t.clock, s.min, s.p25, s.p50, s.n);
        }
        for (k, v) in &self.info {
            println!("@I {k} {v}");
        }
    }

    /// Parses what [`print`](Self::print) wrote; lines it does not know
    /// (library chatter) are skipped.
    pub fn parse(text: &str) -> Report {
        let mut r = Report::default();
        for line in text.lines() {
            let Some((kind, rest)) = line.split_once(' ') else { continue };
            let f: Vec<&str> = rest.split_whitespace().collect();
            let num = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok());
            match kind {
                "@A" => {
                    r.attempted = num(0).unwrap_or(0.0) as u64;
                    r.failed = num(1).unwrap_or(0.0) as u64;
                }
                "@E" => r.errors.push(rest.to_string()),
                "@M" => {
                    if let (Some(n), Some(v)) = (f.first(), num(1)) {
                        r.metrics.push((n.to_string(), v));
                    }
                }
                "@T" => {
                    if let (Some(n), Some(c), Some(min), Some(p25), Some(p50), Some(cnt)) =
                        (f.first(), f.get(1), num(2), num(3), num(4), num(5))
                    {
                        r.timings.push(Timing {
                            name: n.to_string(),
                            clock: c.to_string(),
                            spread: Spread { min, p25, p50, n: cnt as usize },
                        });
                    }
                }
                "@I" => {
                    if let Some((k, v)) = rest.split_once(' ') {
                        r.info.push((k.to_string(), v.to_string()));
                    }
                }
                _ => {}
            }
        }
        r
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("noisy", Json::Bool(self.noisy())),
            ("errors", Json::Arr(self.errors.iter().map(Json::str).collect())),
            ("metrics", Json::obj(self.metrics.iter().map(|(n, v)| (n.clone(), Json::Num(*v))))),
            (
                "timings",
                Json::obj(self.timings.iter().map(|t| {
                    (
                        t.name.clone(),
                        Json::obj([
                            ("clock", Json::str(&t.clock)),
                            ("min", Json::Num(t.spread.min)),
                            ("p25", Json::Num(t.spread.p25)),
                            ("p50", Json::Num(t.spread.p50)),
                            ("slices", Json::Int(t.spread.n as u64)),
                        ]),
                    )
                })),
            ),
            ("info", Json::obj(self.info.iter().map(|(k, v)| (k.clone(), Json::str(v))))),
        ])
    }
}
