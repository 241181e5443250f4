//! Labelled multivariate time series containers.

/// One multivariate series with point-wise anomaly labels.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledSeries {
    /// Series identifier (e.g. `"S03R01E0-like"`).
    pub name: String,
    /// `data[t]` is the stream vector `s_t ∈ R^N`.
    pub data: Vec<Vec<f64>>,
    /// `labels[t]` is `true` inside an anomaly.
    pub labels: Vec<bool>,
}

impl LabeledSeries {
    /// Creates a series, validating shape consistency.
    ///
    /// # Panics
    /// Panics if lengths mismatch or channel counts are ragged.
    pub fn new(name: impl Into<String>, data: Vec<Vec<f64>>, labels: Vec<bool>) -> Self {
        assert_eq!(data.len(), labels.len(), "data/labels length mismatch");
        if let Some(first) = data.first() {
            let n = first.len();
            assert!(n > 0, "series must have at least one channel");
            assert!(data.iter().all(|s| s.len() == n), "ragged channel counts");
        }
        Self { name: name.into(), data, labels }
    }

    /// Number of time steps.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the series has no steps.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Channel count `N`.
    pub fn channels(&self) -> usize {
        self.data.first().map_or(0, Vec::len)
    }

    /// Number of anomalous time steps.
    pub fn anomaly_points(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }

    /// Anomaly intervals as `(start, end)` half-open pairs.
    pub fn anomaly_intervals(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut start = None;
        for (t, &l) in self.labels.iter().enumerate() {
            match (l, start) {
                (true, None) => start = Some(t),
                (false, Some(s)) => {
                    out.push((s, t));
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            out.push((s, self.labels.len()));
        }
        out
    }

    /// `true` if all values are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|s| s.iter().all(|v| v.is_finite()))
    }
}

/// A named collection of labelled series (one benchmark corpus).
#[derive(Debug, Clone, PartialEq)]
pub struct Corpus {
    /// Corpus name (`"daphnet-like"`, …).
    pub name: String,
    /// Member series.
    pub series: Vec<LabeledSeries>,
}

impl Corpus {
    /// Total time steps across all series.
    pub fn total_steps(&self) -> usize {
        self.series.iter().map(LabeledSeries::len).sum()
    }

    /// Total anomaly intervals across all series.
    pub fn total_anomalies(&self) -> usize {
        self.series.iter().map(|s| s.anomaly_intervals().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let s = LabeledSeries::new(
            "test",
            vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]],
            vec![false, true, false],
        );
        assert_eq!(s.len(), 3);
        assert_eq!(s.channels(), 2);
        assert_eq!(s.anomaly_points(), 1);
        assert_eq!(s.anomaly_intervals(), vec![(1, 2)]);
        assert!(s.is_finite());
    }

    #[test]
    fn trailing_anomaly_interval_is_closed() {
        let s = LabeledSeries::new(
            "t",
            vec![vec![0.0]; 4],
            vec![false, true, true, true],
        );
        assert_eq!(s.anomaly_intervals(), vec![(1, 4)]);
    }

    #[test]
    fn corpus_totals() {
        let s1 = LabeledSeries::new("a", vec![vec![0.0]; 5], vec![false, true, false, false, true]);
        let s2 = LabeledSeries::new("b", vec![vec![0.0]; 3], vec![false; 3]);
        let c = Corpus { name: "c".into(), series: vec![s1, s2] };
        assert_eq!(c.total_steps(), 8);
        assert_eq!(c.total_anomalies(), 2);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_labels_panic() {
        let _ = LabeledSeries::new("t", vec![vec![0.0]; 3], vec![false; 2]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_channels_panic() {
        let _ = LabeledSeries::new("t", vec![vec![0.0], vec![0.0, 1.0]], vec![false; 2]);
    }
}
