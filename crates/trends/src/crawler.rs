//! The scholar crawler, reproduced.
//!
//! Figure 1's publication counts came from "a custom web crawler for
//! Google Scholar, based on an open source implementation" (the paper's
//! reference 38, `scholar.py`). Scholar is not reachable from a
//! reproduction, so this module builds both halves: a synthetic scholar
//! *service* that renders result pages the way the real one does
//! (including its quirks — thousands separators, "About" prefixes,
//! rate-limiting CAPTCHAs), and the *crawler* that queries it year by
//! year, parses the hit counts and backs off when throttled.
//!
//! The test pins the end-to-end property that matters: the crawler's
//! output equals the ground truth the service was seeded with — which
//! is exactly the assumption Fig. 1 makes about its own data.

use shears_geo::rng::Rng;

use crate::series::{Keyword, Metric, TrendDataset, TrendSeries, FIRST_YEAR, LAST_YEAR};

/// A synthetic scholar service: renders result pages for
/// `"<phrase>" year:Y` queries from a fixed ground-truth table.
pub struct ScholarService {
    cloud_by_year: Vec<u64>,
    edge_by_year: Vec<u64>,
    /// Probability a request is met with a CAPTCHA interstitial.
    throttle_probability: f64,
    rng: Rng,
    requests_served: u64,
}

/// A page returned by the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScholarPage {
    /// A normal result page (HTML).
    Results(String),
    /// The rate-limit interstitial.
    Captcha,
}

impl ScholarService {
    /// Builds the service from a trend dataset's publication series
    /// (the ground truth the crawler should recover).
    pub fn from_dataset(data: &TrendDataset, throttle_probability: f64, seed: u64) -> Self {
        let round = |s: &TrendSeries| s.values.iter().map(|v| v.round() as u64).collect();
        Self {
            cloud_by_year: round(&data.cloud_pubs),
            edge_by_year: round(&data.edge_pubs),
            throttle_probability,
            rng: Rng::seed_from_u64(seed),
            requests_served: 0,
        }
    }

    /// Total requests handled (including throttled ones).
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// Ground-truth count for a query (what the crawler should recover).
    pub fn ground_truth(&self, keyword: Keyword, year: u16) -> Option<u64> {
        if !(FIRST_YEAR..=LAST_YEAR).contains(&year) {
            return None;
        }
        let idx = (year - FIRST_YEAR) as usize;
        match keyword {
            Keyword::CloudComputing => self.cloud_by_year.get(idx).copied(),
            Keyword::EdgeComputing => self.edge_by_year.get(idx).copied(),
        }
    }

    /// Serves one query, possibly throttling.
    pub fn query(&mut self, keyword: Keyword, year: u16) -> ScholarPage {
        self.requests_served += 1;
        if self.rng.uniform() < self.throttle_probability {
            return ScholarPage::Captcha;
        }
        let count = self.ground_truth(keyword, year).unwrap_or(0);
        // Render with the service's real-world formatting quirks:
        // grouped digits and an "About" prefix for larger counts.
        let rendered = if count >= 1000 {
            format!("About {} results", group_thousands(count))
        } else {
            format!("{count} results")
        };
        ScholarPage::Results(format!(
            "<html><head><title>{phrase} - Scholar</title></head><body>\
             <div id=\"gs_ab_md\"><div class=\"gs_ab_mdw\">{rendered} (0.07 sec)</div></div>\
             <div class=\"gs_r\">…</div></body></html>",
            phrase = keyword.phrase(),
        ))
    }
}

fn group_thousands(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Extracts the hit count from a result page ("About 23,400 results
/// (0.07 sec)" → 23400). Returns `None` when the marker is missing.
pub fn parse_result_count(html: &str) -> Option<u64> {
    let marker = html.find("results")?;
    // Walk backwards from "results" collecting the number.
    let head = &html[..marker];
    let digits: String = head
        .chars()
        .rev()
        .skip_while(|c| c.is_whitespace())
        .take_while(|c| c.is_ascii_digit() || *c == ',')
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .filter(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Crawl statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrawlStats {
    /// Successful page fetches.
    pub fetched: u32,
    /// CAPTCHA hits that forced a retry.
    pub throttled: u32,
}

/// Crawls publication counts for a keyword over the figure's year
/// range, retrying throttled requests up to `max_retries` times each.
/// Returns the recovered series plus crawl statistics, or `None` if a
/// year could not be fetched within the retry budget.
pub fn crawl_publications(
    service: &mut ScholarService,
    keyword: Keyword,
    max_retries: u32,
) -> Option<(TrendSeries, CrawlStats)> {
    let mut values = Vec::new();
    let mut stats = CrawlStats::default();
    for year in FIRST_YEAR..=LAST_YEAR {
        let mut got = None;
        for _attempt in 0..=max_retries {
            match service.query(keyword, year) {
                ScholarPage::Results(html) => {
                    got = parse_result_count(&html);
                    stats.fetched += 1;
                    break;
                }
                ScholarPage::Captcha => {
                    stats.throttled += 1;
                }
            }
        }
        values.push(got? as f64);
    }
    Some((
        TrendSeries {
            keyword,
            metric: Metric::Publications,
            values,
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service(throttle: f64) -> ScholarService {
        ScholarService::from_dataset(&TrendDataset::figure1(11), throttle, 5)
    }

    #[test]
    fn parser_handles_the_services_formats() {
        assert_eq!(
            parse_result_count("<div>About 23,400 results (0.07 sec)</div>"),
            Some(23_400)
        );
        assert_eq!(parse_result_count("<div>7 results</div>"), Some(7));
        assert_eq!(
            parse_result_count("About 1,234,567 results"),
            Some(1_234_567)
        );
        assert_eq!(parse_result_count("no counts here"), None);
        assert_eq!(parse_result_count(""), None);
    }

    #[test]
    fn grouping_matches_locale_convention() {
        assert_eq!(group_thousands(7), "7");
        assert_eq!(group_thousands(1000), "1,000");
        assert_eq!(group_thousands(23400), "23,400");
        assert_eq!(group_thousands(1234567), "1,234,567");
    }

    #[test]
    fn crawl_recovers_ground_truth_exactly() {
        let mut svc = service(0.0);
        for keyword in [Keyword::CloudComputing, Keyword::EdgeComputing] {
            let (series, stats) = crawl_publications(&mut svc, keyword, 0).unwrap();
            assert_eq!(stats.throttled, 0);
            assert_eq!(stats.fetched, 16);
            for (i, year) in (FIRST_YEAR..=LAST_YEAR).enumerate() {
                let truth = svc.ground_truth(keyword, year).unwrap();
                assert_eq!(series.values[i] as u64, truth, "{keyword:?} {year}");
            }
        }
    }

    #[test]
    fn crawl_survives_throttling_with_retries() {
        let mut svc = service(0.4);
        let (series, stats) = crawl_publications(&mut svc, Keyword::CloudComputing, 50).unwrap();
        assert!(stats.throttled > 0, "40% throttle must bite");
        assert_eq!(series.values.len(), 16);
        // Recovered counts still match ground truth (retries, not guesses).
        for (i, year) in (FIRST_YEAR..=LAST_YEAR).enumerate() {
            assert_eq!(
                series.values[i] as u64,
                svc.ground_truth(Keyword::CloudComputing, year).unwrap()
            );
        }
    }

    #[test]
    fn crawl_fails_cleanly_when_fully_throttled() {
        let mut svc = service(1.0);
        assert!(crawl_publications(&mut svc, Keyword::EdgeComputing, 3).is_none());
        assert!(svc.requests_served() > 0);
    }

    #[test]
    fn recovered_series_feeds_era_detection() {
        // End-to-end: crawl -> series -> the same era boundaries as the
        // ground-truth dataset.
        let data = TrendDataset::figure1(11);
        let mut svc = ScholarService::from_dataset(&data, 0.1, 9);
        let (cloud, _) = crawl_publications(&mut svc, Keyword::CloudComputing, 20).unwrap();
        let (edge, _) = crawl_publications(&mut svc, Keyword::EdgeComputing, 20).unwrap();
        let crawled = TrendDataset {
            cloud_search: data.cloud_search.clone(),
            edge_search: data.edge_search.clone(),
            cloud_pubs: cloud,
            edge_pubs: edge,
        };
        let a = crate::eras::detect_eras(&data);
        let b = crate::eras::detect_eras(&crawled);
        assert_eq!(a, b, "crawled data must reproduce the era split");
    }

    #[test]
    fn out_of_range_years_have_no_truth() {
        let svc = service(0.0);
        assert!(svc.ground_truth(Keyword::CloudComputing, 2003).is_none());
        assert!(svc.ground_truth(Keyword::CloudComputing, 2020).is_none());
    }
}
