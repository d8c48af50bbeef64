//! The benchmark's span recorder.
//!
//! Spans are two levels deep: a *phase* (one end-to-end operation such
//! as `report`) and the *layer* calls the benchmark makes inside it
//! (`ir` for `parse_program`, `core.csr` for a CSR build, ...). A phase's
//! self time is its duration minus the layer spans inside it; that
//! remainder is the benchmark's own glue. Phase spans are always timed,
//! since they are the end-to-end numbers. Layer spans are timed only
//! when tracing is on, so an untraced run pays one `Instant` pair per
//! phase and nothing per layer.
//!
//! Values accumulate per pass. Phase times, and values added with
//! [`Recorder::add_per_input`], are also kept per input program; an
//! end-to-end timing is the sum over inputs of each input's median over
//! the passes ([`Recorder::input_medians`]). On the machines this runs on
//! CPU speed drops by up to 1.7x for stretches of a second or more, and
//! a few passes that hit such stretches move the mean of the passes,
//! while each input's median ignores them unless they are the majority.
//! In six 50 s `suite` runs the spread of `report_s` across runs was
//! 0.101 as the mean of whole-pass totals, 0.070 as their median, and
//! 0.050 as summed per-input medians. Per-layer values are means over
//! passes.

use std::collections::BTreeMap;
use std::time::Instant;

pub type Pass = BTreeMap<String, f64>;

#[derive(Debug, Default)]
pub struct Recorder {
    pub on: bool,
    phase: &'static str,
    input: String,
    cur: Pass,
    passes: Vec<Pass>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            ..Recorder::default()
        }
    }

    /// Times `f` as phase `name`; layer spans inside it are charged to
    /// the phase.
    pub fn phase<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let prev = std::mem::replace(&mut self.phase, name);
        let t = Instant::now();
        let r = f(self);
        let secs = t.elapsed().as_secs_f64();
        self.add(name, secs);
        self.add_per_input(name, secs);
        self.phase = prev;
        r
    }

    /// Times `f` as layer `layer` of the current phase (when tracing).
    pub fn layer<R>(&mut self, layer: &str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.charge(layer, t.elapsed().as_secs_f64());
        r
    }

    /// Charges `secs` to `layer` of the current phase. Used to split one
    /// measured call between two layers that share it, such as the VM
    /// and the cost-graph builder in a profiled run.
    pub fn charge(&mut self, layer: &str, secs: f64) {
        let key = format!("{}:{layer}", self.phase);
        self.add(&key, secs);
    }

    /// Replaces layer `layer` of phase `phase` in the current pass with
    /// `parts`, dividing its time in proportion to their weights. Used
    /// when one call serves several layers and a separate measurement of
    /// each part gives the proportions. Does nothing without weights.
    pub fn split(&mut self, phase: &str, layer: &str, parts: &[(&str, f64)]) {
        let weight: f64 = parts.iter().map(|p| p.1).sum();
        if weight <= 0.0 {
            return;
        }
        let Some(secs) = self.cur.remove(&format!("{phase}:{layer}")) else {
            return;
        };
        for (part, w) in parts {
            self.add(&format!("{phase}:{part}"), secs * w / weight);
        }
    }

    /// Names the input program that the next phases run on.
    pub fn set_input(&mut self, name: &str) {
        self.input = name.to_string();
    }

    /// Adds `v` to per-pass counter `key` of the current input.
    pub fn add_per_input(&mut self, key: &str, v: f64) {
        let key = format!("{key}@{}", self.input);
        self.add(&key, v);
    }

    /// Adds `v` to per-pass counter `key`.
    pub fn add(&mut self, key: &str, v: f64) {
        *self.cur.entry(key.to_string()).or_insert(0.0) += v;
    }

    pub fn end_pass(&mut self) {
        self.passes.push(std::mem::take(&mut self.cur));
    }

    pub fn passes(&self) -> usize {
        self.passes.len()
    }

    /// Mean over passes of `f(pass)`.
    pub fn mean_of(&self, f: impl Fn(&Pass) -> f64) -> f64 {
        let n = self.passes.len().max(1) as f64;
        self.passes.iter().map(f).sum::<f64>() / n
    }

    /// Sum over inputs of each input's median over passes of per-input
    /// counter `key`.
    pub fn input_medians(&self, key: &str) -> f64 {
        let prefix = format!("{key}@");
        let mut by_input: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for p in &self.passes {
            for (k, v) in p {
                if let Some(input) = k.strip_prefix(&prefix) {
                    by_input.entry(input).or_default().push(*v);
                }
            }
        }
        by_input
            .values()
            .filter_map(|v| crate::stats::median(v))
            .sum()
    }

    /// Mean over passes of counter `key` (0 where a pass lacks it).
    pub fn mean(&self, key: &str) -> f64 {
        self.mean_of(|p| get(p, key))
    }

    /// Per-phase self-time table: for every phase, the mean share of
    /// its duration spent in each layer, plus the remainder (`bench`).
    pub fn breakdown(&self) -> Vec<(String, String, f64)> {
        let mut layers: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for p in &self.passes {
            for k in p.keys() {
                if let Some((phase, layer)) = k.split_once(':') {
                    let v = layers.entry(phase.to_string()).or_default();
                    if !v.iter().any(|l| l == layer) {
                        v.push(layer.to_string());
                    }
                }
            }
        }
        let mut out = Vec::new();
        for (phase, ls) in layers {
            let total = self.mean(&phase);
            for l in &ls {
                out.push((
                    phase.clone(),
                    l.clone(),
                    self.mean_of(|p| share(p, &phase, l)),
                ));
            }
            let glue = self.mean_of(|p| {
                let t = get(p, &phase);
                let inner: f64 = ls.iter().map(|l| get(p, &format!("{phase}:{l}"))).sum();
                if t > 0.0 {
                    (t - inner) / t
                } else {
                    0.0
                }
            });
            out.push((phase.clone(), "bench".to_string(), glue));
            out.push((phase, "total_s".to_string(), total));
        }
        out
    }
}

pub fn get(p: &Pass, key: &str) -> f64 {
    p.get(key).copied().unwrap_or(0.0)
}

/// Share of phase `phase` spent in `layer` within one pass.
pub fn share(p: &Pass, phase: &str, layer: &str) -> f64 {
    let t = get(p, phase);
    if t > 0.0 {
        get(p, &format!("{phase}:{layer}")) / t
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_are_charged_to_their_phase_and_glue_is_the_rest() {
        let mut r = Recorder::new(true);
        r.phase("report", |r| {
            r.layer("ir", || {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
            r.charge("vm.interp", 0.0);
        });
        r.end_pass();
        let b = r.breakdown();
        let ir = b
            .iter()
            .find(|(p, l, _)| p == "report" && l == "ir")
            .unwrap()
            .2;
        let glue = b
            .iter()
            .find(|(p, l, _)| p == "report" && l == "bench")
            .unwrap()
            .2;
        assert!(ir > 0.5 && ir <= 1.0, "{ir}");
        assert!((ir + glue - 1.0).abs() < 1e-9);
    }

    #[test]
    fn split_divides_a_layer_in_proportion_and_keeps_its_total() {
        let mut r = Recorder::new(true);
        r.phase("report", |r| r.charge("analyses", 0.4));
        r.split(
            "report",
            "analyses",
            &[("core.csr", 1.0), ("analyses.rank", 3.0)],
        );
        r.split("report", "missing", &[("x", 1.0)]);
        r.end_pass();
        assert_eq!(r.mean("report:analyses"), 0.0);
        assert!((r.mean("report:core.csr") - 0.1).abs() < 1e-12);
        assert!((r.mean("report:analyses.rank") - 0.3).abs() < 1e-12);
        assert_eq!(r.mean("report:x"), 0.0);
    }

    #[test]
    fn input_medians_sum_each_inputs_median_over_passes() {
        let mut r = Recorder::new(false);
        for (a, b) in [(1.0, 10.0), (9.0, 20.0), (2.0, 30.0)] {
            r.set_input("a");
            r.add_per_input("save", a);
            r.set_input("b");
            r.add_per_input("save", b);
            r.add("save", 100.0);
            r.end_pass();
        }
        assert_eq!(r.input_medians("save"), 2.0 + 20.0);
        assert_eq!(r.input_medians("missing"), 0.0);
    }

    #[test]
    fn untraced_recorder_skips_layers_but_times_phases() {
        let mut r = Recorder::new(false);
        r.phase("record", |r| r.layer("vm.trace", || 1 + 1));
        r.end_pass();
        assert!(r.mean("record") > 0.0);
        assert_eq!(r.mean("record:vm.trace"), 0.0);
    }
}
