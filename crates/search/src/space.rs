//! Typed parameter spaces mapped to/from the unit cube.

use crate::{Result, SearchError};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::BTreeMap;

/// One searchable parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum Param {
    /// Continuous in `[lo, hi]`; `log` searches in log10 space (learning
    /// rates, weight decays).
    Float {
        name: String,
        lo: f64,
        hi: f64,
        log: bool,
    },
    /// Integer-valued in `[lo, hi]` inclusive.
    Int { name: String, lo: i64, hi: i64 },
    /// One of an explicit list of values (e.g. Table IV's 64,128,...,4096).
    Choice { name: String, options: Vec<f64> },
}

impl Param {
    pub fn name(&self) -> &str {
        match self {
            Param::Float { name, .. } | Param::Choice { name, .. } => name,
            Param::Int { name, .. } => name,
        }
    }

    /// Decode a unit-cube coordinate into a concrete value.
    pub fn decode(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        match self {
            Param::Float { lo, hi, log, .. } => {
                if *log {
                    let (llo, lhi) = (lo.log10(), hi.log10());
                    10f64.powf(llo + u * (lhi - llo))
                } else {
                    lo + u * (hi - lo)
                }
            }
            Param::Int { lo, hi, .. } => {
                let span = (hi - lo) as f64 + 1.0;
                (*lo + (u * span).floor().min(span - 1.0) as i64) as f64
            }
            Param::Choice { options, .. } => {
                let idx = ((u * options.len() as f64).floor() as usize).min(options.len() - 1);
                options[idx]
            }
        }
    }
}

/// A named set of parameters.
#[derive(Debug, Clone, Default)]
pub struct Space {
    params: Vec<Param>,
}

/// A decoded configuration: parameter name → concrete value.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Config(pub BTreeMap<String, f64>);

impl Config {
    pub fn get(&self, name: &str) -> Result<f64> {
        self.0
            .get(name)
            .copied()
            .ok_or_else(|| SearchError::Space(format!("missing parameter `{name}`")))
    }

    pub fn get_usize(&self, name: &str) -> Result<usize> {
        Ok(self.get(name)?.round().max(0.0) as usize)
    }
}

impl Space {
    pub fn new() -> Self {
        Space::default()
    }

    pub(crate) fn float(mut self, name: &str, lo: f64, hi: f64) -> Self {
        self.params.push(Param::Float {
            name: name.into(),
            lo,
            hi,
            log: false,
        });
        self
    }

    pub(crate) fn log_float(mut self, name: &str, lo: f64, hi: f64) -> Self {
        self.params.push(Param::Float {
            name: name.into(),
            lo,
            hi,
            log: true,
        });
        self
    }

    pub fn int(mut self, name: &str, lo: i64, hi: i64) -> Self {
        self.params.push(Param::Int {
            name: name.into(),
            lo,
            hi,
        });
        self
    }

    pub(crate) fn choice(mut self, name: &str, options: &[f64]) -> Self {
        self.params.push(Param::Choice {
            name: name.into(),
            options: options.to_vec(),
        });
        self
    }

    pub fn dim(&self) -> usize {
        self.params.len()
    }

    pub fn params(&self) -> &[Param] {
        &self.params
    }

    /// Uniform sample of the unit cube.
    pub fn sample_unit(&self, rng: &mut SmallRng) -> Vec<f64> {
        (0..self.dim()).map(|_| rng.gen::<f64>()).collect()
    }

    /// Decode a unit-cube point to a configuration.
    pub fn decode(&self, unit: &[f64]) -> Result<Config> {
        if unit.len() != self.dim() {
            return Err(SearchError::Space(format!(
                "unit point has {} coordinates for a {}-dim space",
                unit.len(),
                self.dim()
            )));
        }
        let mut map = BTreeMap::new();
        for (p, u) in self.params.iter().zip(unit) {
            map.insert(p.name().to_string(), p.decode(*u));
        }
        Ok(Config(map))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    #[test]
    fn float_decode_bounds() {
        let p = Param::Float {
            name: "x".into(),
            lo: 2.0,
            hi: 10.0,
            log: false,
        };
        assert_eq!(p.decode(0.0), 2.0);
        assert_eq!(p.decode(1.0), 10.0);
        assert_eq!(p.decode(0.5), 6.0);
        assert_eq!(p.decode(-3.0), 2.0); // clamped
    }

    #[test]
    fn log_float_decode() {
        let p = Param::Float {
            name: "lr".into(),
            lo: 1e-4,
            hi: 1e-2,
            log: true,
        };
        assert!((p.decode(0.0) - 1e-4).abs() < 1e-12);
        assert!((p.decode(1.0) - 1e-2).abs() < 1e-10);
        assert!((p.decode(0.5) - 1e-3).abs() < 1e-10);
    }

    #[test]
    fn int_decode_covers_range_inclusively() {
        let p = Param::Int {
            name: "n".into(),
            lo: 2,
            hi: 5,
        };
        assert_eq!(p.decode(0.0), 2.0);
        assert_eq!(p.decode(0.999), 5.0);
        assert_eq!(p.decode(1.0), 5.0);
        // All values reachable.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..100 {
            seen.insert(p.decode(i as f64 / 99.0) as i64);
        }
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn choice_decode() {
        let p = Param::Choice {
            name: "h".into(),
            options: vec![64.0, 128.0, 256.0],
        };
        assert_eq!(p.decode(0.0), 64.0);
        assert_eq!(p.decode(0.5), 128.0);
        assert_eq!(p.decode(1.0), 256.0);
    }

    #[test]
    fn space_roundtrip_and_config_access() {
        let space = Space::new()
            .log_float("lr", 1e-4, 1e-2)
            .int("layers", 2, 12)
            .choice("width", &[64.0, 128.0]);
        assert_eq!(space.dim(), 3);
        let mut r = rng();
        let u = space.sample_unit(&mut r);
        let cfg = space.decode(&u).unwrap();
        let lr = cfg.get("lr").unwrap();
        assert!((1e-4..=1e-2).contains(&lr));
        let layers = cfg.get_usize("layers").unwrap();
        assert!((2..=12).contains(&layers));
        assert!(cfg.get("nope").is_err());
        assert!(space.decode(&[0.5]).is_err());
    }
}
