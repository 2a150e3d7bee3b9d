//! Reader for the server's `GET /metrics` text exposition, and the counter
//! difference taken around each measured round.

use std::collections::BTreeMap;

/// One scrape: full series text (`name` or `name{label="v",…}`) → value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    series: BTreeMap<String, f64>,
}

impl Scrape {
    /// Parse an exposition. `#` comment lines and blank lines are skipped;
    /// a line that does not end in a number is an error, because a silent
    /// skip would turn a format change into a zero count.
    pub fn parse(text: &str) -> Result<Scrape, String> {
        let mut series = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // label values may hold spaces, the sample value never does
            let (name, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("no value in metrics line: {line}"))?;
            let value: f64 = value
                .parse()
                .map_err(|_| format!("bad value in metrics line: {line}"))?;
            series.insert(name.trim().to_owned(), value);
        }
        Ok(Scrape { series })
    }

    /// Value of an exact series (`0.0` when absent: the registry creates a
    /// counter on first increment, so absent means never incremented).
    pub fn get(&self, series: &str) -> f64 {
        self.series.get(series).copied().unwrap_or(0.0)
    }

    /// `after − self`, series by series. A series absent before counts
    /// from zero. Gauges that fell come out negative, which is what a
    /// level change is.
    pub fn diff(&self, after: &Scrape) -> Scrape {
        let series = after
            .series
            .iter()
            .map(|(name, v)| (name.clone(), v - self.get(name)))
            .collect();
        Scrape { series }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "# TYPE requests_total counter\n\
        requests_total 10\n\
        # TYPE http_responses_total counter\n\
        http_responses_total{status=\"200\"} 9\n\
        http_responses_total{status=\"429\"} 1\n\
        store_bytes_resident 4096\n";
    const AFTER: &str = "requests_total 25\n\
        http_responses_total{status=\"200\"} 24\n\
        http_responses_total{status=\"429\"} 1\n\
        http_responses_total{status=\"404\"} 2\n\
        store_bytes_resident 1024\n\
        queue_wait_ms_bucket{le=\"0.5\"} 7\n\
        queue_wait_ms_sum 3.25\n\
        analyze_diags_total{code=\"E0102 odd label\"} 3\n";

    #[test]
    fn parses_plain_and_labelled_series() {
        let s = Scrape::parse(AFTER).unwrap();
        assert_eq!(s.get("requests_total"), 25.0);
        assert_eq!(s.get("http_responses_total{status=\"200\"}"), 24.0);
        assert_eq!(s.get("queue_wait_ms_sum"), 3.25);
        assert_eq!(s.get("analyze_diags_total{code=\"E0102 odd label\"}"), 3.0);
        assert_eq!(s.get("never_seen"), 0.0);
    }

    #[test]
    fn diff_subtracts_and_counts_new_series_from_zero() {
        let before = Scrape::parse(BEFORE).unwrap();
        let after = Scrape::parse(AFTER).unwrap();
        let d = before.diff(&after);
        assert_eq!(d.get("requests_total"), 15.0);
        assert_eq!(d.get("http_responses_total{status=\"200\"}"), 15.0);
        assert_eq!(d.get("http_responses_total{status=\"429\"}"), 0.0);
        assert_eq!(d.get("http_responses_total{status=\"404\"}"), 2.0);
        assert_eq!(d.get("store_bytes_resident"), -3072.0);
    }

    #[test]
    fn malformed_lines_are_errors() {
        assert!(Scrape::parse("requests_total\n").is_err());
        assert!(Scrape::parse("requests_total ten\n").is_err());
    }
}
