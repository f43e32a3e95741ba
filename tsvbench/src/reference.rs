//! Stored reference values, one line per (workload, input variant).
//!
//! The file format is plain text: `#` starts a comment line, every other
//! line is `<workload> <variant> <value> <value> ...` with each value in
//! Rust's shortest round-trip notation, so a reference written on one run
//! reads back bit for bit.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Relative tolerance of the per-value comparison.
pub const RELATIVE_TOLERANCE: f64 = 1.0e-6;

/// The reference shipped with the benchmark.
pub const BUILT_IN: &str = include_str!("../reference.txt");

#[derive(Debug, Default)]
pub struct Reference {
    values: BTreeMap<(String, usize), Vec<f64>>,
}

impl Reference {
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut values = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split_whitespace();
            let bad = |what: &str| format!("reference line {}: {what}", n + 1);
            let workload = fields.next().ok_or_else(|| bad("missing workload"))?;
            let variant = fields
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad("missing or invalid variant"))?;
            let row = fields
                .map(|v| {
                    v.parse::<f64>()
                        .map_err(|_| bad(&format!("invalid value {v:?}")))
                })
                .collect::<Result<Vec<f64>, String>>()?;
            values.insert((workload.to_string(), variant), row);
        }
        Ok(Self { values })
    }

    pub fn insert(&mut self, workload: &str, variant: usize, values: Vec<f64>) {
        self.values.insert((workload.to_string(), variant), values);
    }

    pub fn render(&self) -> String {
        let mut out = String::from(
            "# tsvbench reference values: <workload> <variant> <values...>\n\
             # Regenerate from the repository root with: cargo run --release --manifest-path tsvbench/Cargo.toml -- --write-reference tsvbench/reference.txt\n",
        );
        for ((workload, variant), row) in &self.values {
            let _ = write!(out, "{workload} {variant}");
            for v in row {
                let _ = write!(out, " {v:e}");
            }
            out.push('\n');
        }
        out
    }

    /// Compares an operation's values with the stored reference.
    pub fn check(&self, workload: &str, variant: usize, values: &[f64]) -> Result<(), String> {
        let expected = self
            .values
            .get(&(workload.to_string(), variant))
            .ok_or_else(|| format!("no reference for {workload} variant {variant}"))?;
        if expected.len() != values.len() {
            return Err(format!(
                "{} values, reference has {}",
                values.len(),
                expected.len()
            ));
        }
        for (i, (&got, &want)) in values.iter().zip(expected).enumerate() {
            if (got - want).abs() > RELATIVE_TOLERANCE * got.abs().max(want.abs()) {
                return Err(format!("value {i} is {got:e}, reference {want:e}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip_and_tolerance() {
        let mut r = Reference::default();
        r.insert("w", 3, vec![1.0 / 3.0, -2.5e-17, 0.0]);
        let back = Reference::parse(&r.render()).unwrap();
        assert!(back.check("w", 3, &[1.0 / 3.0, -2.5e-17, 0.0]).is_ok());
        assert!(back
            .check("w", 3, &[1.0 / 3.0 * (1.0 + 1e-7), -2.5e-17, 0.0])
            .is_ok());
        assert!(back
            .check("w", 3, &[1.0 / 3.0 * (1.0 + 1e-5), -2.5e-17, 0.0])
            .is_err());
        assert!(back.check("w", 3, &[1.0 / 3.0, -2.5e-17]).is_err());
        assert!(back.check("w", 4, &[]).is_err());
    }
}
