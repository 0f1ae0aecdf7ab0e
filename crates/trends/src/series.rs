//! Synthetic Figure-1 time series.

use shears_geo::rng::Rng;

/// First year of the figure's x-axis.
pub const FIRST_YEAR: u16 = 2004;
/// Last year of the figure's x-axis.
pub const LAST_YEAR: u16 = 2019;

/// Which keyword a series tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Keyword {
    /// "cloud computing".
    CloudComputing,
    /// "edge computing".
    EdgeComputing,
}

impl Keyword {
    /// The literal search phrase.
    pub fn phrase(self) -> &'static str {
        match self {
            Keyword::CloudComputing => "cloud computing",
            Keyword::EdgeComputing => "edge computing",
        }
    }
}

/// Which signal a series measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Google-Trends-style web search interest (0–100 normalised).
    SearchInterest,
    /// Scholar-crawl publication counts per year.
    Publications,
}

/// One yearly series.
#[derive(Debug, Clone)]
pub struct TrendSeries {
    /// The tracked keyword.
    pub keyword: Keyword,
    /// The measured signal.
    pub metric: Metric,
    /// Values for 2004..=2019, in year order.
    pub values: Vec<f64>,
}

impl TrendSeries {
    /// The years axis shared by all series.
    pub fn years() -> impl Iterator<Item = u16> {
        FIRST_YEAR..=LAST_YEAR
    }

    /// Value for a specific year, if within range.
    pub fn at(&self, year: u16) -> Option<f64> {
        if (FIRST_YEAR..=LAST_YEAR).contains(&year) {
            self.values.get((year - FIRST_YEAR) as usize).copied()
        } else {
            None
        }
    }

    /// Year of the series' maximum.
    pub fn peak_year(&self) -> u16 {
        let (idx, _) = self
            .values
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("series is non-empty");
        FIRST_YEAR + idx as u16
    }
}

/// Logistic adoption curve: `scale / (1 + exp(-rate (year - midpoint)))`.
fn logistic(year: f64, midpoint: f64, rate: f64, scale: f64) -> f64 {
    scale / (1.0 + (-(rate) * (year - midpoint)).exp())
}

/// The four series of Figure 1.
#[derive(Debug, Clone)]
pub struct TrendDataset {
    /// Cloud search interest (dashed red in the figure).
    pub cloud_search: TrendSeries,
    /// Edge search interest (solid red).
    pub edge_search: TrendSeries,
    /// Cloud publications (dashed blue).
    pub cloud_pubs: TrendSeries,
    /// Edge publications (solid blue).
    pub edge_pubs: TrendSeries,
}

impl TrendDataset {
    /// Generates the dataset with mild multiplicative noise (`seed`
    /// fixes it). The parameters encode the paper's narrative:
    /// cloud interest takes off ~2008, peaks ~2011 and declines gently
    /// (Trends normalises to the peak); edge interest emerges ~2015 and
    /// is still rising in 2019. Publications lag interest and keep
    /// growing (cumulative research output does not decline).
    pub fn figure1(seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let noisy = |v: f64, rng: &mut Rng| (v * (1.0 + 0.05 * (rng.uniform() - 0.5))).max(0.0);
        let gen = |f: &dyn Fn(f64) -> f64, keyword, metric, rng: &mut Rng| TrendSeries {
            keyword,
            metric,
            values: (FIRST_YEAR..=LAST_YEAR)
                .map(|y| noisy(f(f64::from(y)), rng))
                .collect(),
        };
        let cloud_search = gen(
            &|y| {
                // Ramp to 100 by ~2011, then slow linear decline to ~60:
                // the familiar Google-Trends shape for a matured term.
                let rise = logistic(y, 2009.0, 1.4, 100.0);
                let decline = if y > 2011.0 { (y - 2011.0) * 4.5 } else { 0.0 };
                (rise - decline).max(0.0)
            },
            Keyword::CloudComputing,
            Metric::SearchInterest,
            &mut rng,
        );
        let edge_search = gen(
            &|y| logistic(y, 2018.2, 0.9, 70.0),
            Keyword::EdgeComputing,
            Metric::SearchInterest,
            &mut rng,
        );
        let cloud_pubs = gen(
            &|y| logistic(y, 2012.5, 0.75, 24_000.0),
            Keyword::CloudComputing,
            Metric::Publications,
            &mut rng,
        );
        let edge_pubs = gen(
            &|y| logistic(y, 2018.5, 1.1, 9_000.0),
            Keyword::EdgeComputing,
            Metric::Publications,
            &mut rng,
        );
        Self {
            cloud_search,
            edge_search,
            cloud_pubs,
            edge_pubs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_cover_the_figure_axis() {
        let d = TrendDataset::figure1(1);
        for s in [&d.cloud_search, &d.edge_search, &d.cloud_pubs, &d.edge_pubs] {
            assert_eq!(s.values.len(), 16);
            assert!(s.values.iter().all(|v| *v >= 0.0));
        }
    }

    #[test]
    fn cloud_peaks_before_edge_rises() {
        let d = TrendDataset::figure1(2);
        let cloud_peak = d.cloud_search.peak_year();
        assert!(
            (2010..=2013).contains(&cloud_peak),
            "cloud peak {cloud_peak}"
        );
        // Edge is still climbing at the end of the window.
        assert_eq!(d.edge_search.peak_year(), 2019);
        assert_eq!(d.edge_pubs.peak_year(), 2019);
    }

    #[test]
    fn edge_is_negligible_before_2014() {
        let d = TrendDataset::figure1(3);
        for year in 2004..=2013 {
            let edge = d.edge_search.at(year).unwrap();
            let cloud_peak = 100.0;
            assert!(
                edge < 0.1 * cloud_peak,
                "{year}: edge {edge} not negligible"
            );
        }
    }

    #[test]
    fn publications_lag_and_keep_growing() {
        let d = TrendDataset::figure1(4);
        // Cloud publications never collapse the way search interest does.
        let v2019 = d.cloud_pubs.at(2019).unwrap();
        let peak = d.cloud_pubs.values.iter().fold(0.0_f64, |a, &b| a.max(b));
        assert!(v2019 > 0.85 * peak);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TrendDataset::figure1(9);
        let b = TrendDataset::figure1(9);
        assert_eq!(a.edge_search.values, b.edge_search.values);
        let c = TrendDataset::figure1(10);
        assert_ne!(a.edge_search.values, c.edge_search.values);
    }

    #[test]
    fn at_rejects_out_of_range_years() {
        let d = TrendDataset::figure1(5);
        assert!(d.cloud_search.at(2003).is_none());
        assert!(d.cloud_search.at(2020).is_none());
        assert!(d.cloud_search.at(2010).is_some());
    }
}
