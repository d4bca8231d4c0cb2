//! Named scalar measurement sets.

/// An insertion-ordered set of named `f64` metrics — the flat result
/// record of one simulation run or sweep-point evaluation.
///
/// Producers (e.g. a simulator report) flatten themselves into one of
/// these; consumers (e.g. the `qic-sweep` campaign engine, which
/// re-exports this type) aggregate them name-by-name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Metrics {
    entries: Vec<(String, f64)>,
}

impl Metrics {
    /// An empty metric set.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records a metric (builder style).
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name — metric sets are flat, not multi-maps.
    pub fn with(mut self, name: impl Into<String>, value: f64) -> Metrics {
        self.push(name, value);
        self
    }

    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name.
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        if let Some(existing) = self.get(&name) {
            panic!(
                "duplicate metric name {name:?}: already recorded as {existing}, \
                 attempted to record {value}"
            );
        }
        self.entries.push((name, value));
    }

    /// Merges every metric of `other` under a dotted namespace:
    /// `extend("trace", m)` records `m`'s `"bins"` as `"trace.bins"`.
    /// Namespacing is what makes merging safe — two reports can both
    /// have a `"bins"` as long as their prefixes differ.
    ///
    /// # Panics
    ///
    /// Panics if a prefixed name still collides with an existing metric.
    pub fn extend(&mut self, prefix: &str, other: &Metrics) {
        for (name, value) in other.iter() {
            self.push(format!("{prefix}.{name}"), value);
        }
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Metric names in insertion order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _)| n.as_str())
    }

    /// `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Number of metrics recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no metrics were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_order() {
        let m = Metrics::new().with("b", 2.0).with("a", 1.0);
        assert_eq!(m.get("a"), Some(1.0));
        assert_eq!(m.get("b"), Some(2.0));
        assert_eq!(m.get("c"), None);
        assert_eq!(m.names().collect::<Vec<_>>(), vec!["b", "a"]);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
        assert_eq!(m.iter().next(), Some(("b", 2.0)));
    }

    #[test]
    #[should_panic(
        expected = "duplicate metric name \"x\": already recorded as 1, attempted to record 2"
    )]
    fn duplicate_name_rejected_with_both_values() {
        let _ = Metrics::new().with("x", 1.0).with("x", 2.0);
    }

    #[test]
    fn extend_namespaces_the_merged_set() {
        let inner = Metrics::new().with("bins", 64.0).with("peak", 0.5);
        let mut m = Metrics::new().with("bins", 1.0);
        m.extend("trace", &inner);
        assert_eq!(m.get("bins"), Some(1.0));
        assert_eq!(m.get("trace.bins"), Some(64.0));
        assert_eq!(m.get("trace.peak"), Some(0.5));
        assert_eq!(
            m.names().collect::<Vec<_>>(),
            vec!["bins", "trace.bins", "trace.peak"]
        );
    }

    #[test]
    #[should_panic(expected = "duplicate metric name \"trace.bins\"")]
    fn extend_still_rejects_prefixed_collisions() {
        let inner = Metrics::new().with("bins", 64.0);
        let mut m = Metrics::new().with("trace.bins", 1.0);
        m.extend("trace", &inner);
    }
}
