//! Sample statistics and the metric-name grammar the result line obeys.

use serde::Value;

/// Order statistics of one metric over a run's samples. Quartiles use the
/// same "exclusive" method as Python's `statistics.quantiles(n=4)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// `None` for an empty sample.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut s: Vec<f64> = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let (&min, &max) = (s.first()?, s.last()?);
        let (q1, median, q3) = match s.len() {
            1 => (min, min, min),
            _ => (quantile4(&s, 1), quantile4(&s, 2), quantile4(&s, 3)),
        };
        Some(Summary { median, q1, q3, min, max, n: s.len() })
    }

    pub fn to_value(&self) -> Value {
        obj(vec![
            ("median", Value::Float(self.median)),
            ("q1", Value::Float(self.q1)),
            ("q3", Value::Float(self.q3)),
            ("min", Value::Float(self.min)),
            ("max", Value::Float(self.max)),
            ("n", Value::Int(self.n as i64)),
        ])
    }
}

/// The `i`-th of three cut points dividing sorted `s` (len ≥ 2) into
/// quarters, interpolated exactly as `statistics.quantiles` does.
fn quantile4(s: &[f64], i: usize) -> f64 {
    let m = s.len() as i64;
    let i = i as i64;
    let j = (i * (m + 1) / 4).clamp(1, m - 1);
    let delta = (i * (m + 1) - j * 4) as f64;
    let j = j as usize;
    (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
}

/// A metric name as the result line allows it: starts with a letter or
/// digit, at most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// A unit: 1 to 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

/// An insertion-ordered JSON object.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let s = Summary::of(&[3.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (0.5, 2.0, 3.5, 2));
        // statistics.quantiles([5, 1, 2], n=4) == [1.0, 2.0, 5.0]
        let s = Summary::of(&[5.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 5.0));
        assert_eq!(Summary::of(&[4.0]).unwrap().median, 4.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn name_and_unit_grammar() {
        for good in ["wall_s", "ross.queue_ns_per_op", "handler.net_s", "9lives", "a-b.c_d"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ä", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["s", "ms", "1/s", "count", "%", "MB", "ns/op"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "a b", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
