//! Aggregation of the corpus into the paper's survey table.

use std::fmt;

use crate::corpus::{PaperRecord, ReportedAspect, Venue};

/// One row of the survey table: an aspect and how many papers report it,
/// per venue and in total.
#[derive(Debug, Clone, PartialEq)]
pub struct SurveyRow {
    /// The setup aspect.
    pub aspect: ReportedAspect,
    /// Reporting papers per venue, in [`Venue::ALL`] order.
    pub per_venue: [usize; 4],
    /// Reporting papers in total.
    pub total: usize,
    /// `total` as a percentage of the corpus.
    pub percent: f64,
}

/// The tabulated survey.
#[derive(Debug, Clone, PartialEq)]
pub struct SurveyTable {
    /// Papers per venue, in [`Venue::ALL`] order.
    pub venue_counts: [usize; 4],
    /// Total papers.
    pub total_papers: usize,
    /// One row per aspect, in [`ReportedAspect::ALL`] order.
    pub rows: Vec<SurveyRow>,
}

impl SurveyTable {
    /// The row for a given aspect.
    #[must_use]
    pub fn row(&self, aspect: ReportedAspect) -> &SurveyRow {
        self.rows
            .iter()
            .find(|r| r.aspect == aspect)
            .expect("tabulate covers every aspect")
    }
}

/// Tabulates a corpus into the survey table.
#[must_use]
pub fn tabulate(records: &[PaperRecord]) -> SurveyTable {
    let mut venue_counts = [0usize; 4];
    for p in records {
        let vi = Venue::ALL
            .iter()
            .position(|&v| v == p.venue)
            .expect("known venue");
        venue_counts[vi] += 1;
    }
    let rows = ReportedAspect::ALL
        .iter()
        .map(|&aspect| {
            let mut per_venue = [0usize; 4];
            for p in records.iter().filter(|p| p.reports(aspect)) {
                let vi = Venue::ALL
                    .iter()
                    .position(|&v| v == p.venue)
                    .expect("known venue");
                per_venue[vi] += 1;
            }
            let total = per_venue.iter().sum();
            SurveyRow {
                aspect,
                per_venue,
                total,
                percent: 100.0 * total as f64 / records.len().max(1) as f64,
            }
        })
        .collect();
    SurveyTable {
        venue_counts,
        total_papers: records.len(),
        rows,
    }
}

impl fmt::Display for SurveyTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<24} {:>7} {:>6} {:>6} {:>6}  {:>6}  {:>6}",
            "setup aspect", "ASPLOS", "PACT", "PLDI", "CGO", "total", "%"
        )?;
        writeln!(
            f,
            "{:<24} {:>7} {:>6} {:>6} {:>6}  {:>6}  {:>6}",
            "(papers surveyed)",
            self.venue_counts[0],
            self.venue_counts[1],
            self.venue_counts[2],
            self.venue_counts[3],
            self.total_papers,
            "",
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<24} {:>7} {:>6} {:>6} {:>6}  {:>6}  {:>5.1}%",
                row.aspect.label(),
                row.per_venue[0],
                row.per_venue[1],
                row.per_venue[2],
                row.per_venue[3],
                row.total,
                row.percent,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::corpus::{corpus, CORPUS_SIZE};

    use super::*;

    #[test]
    fn table_totals_match_corpus() {
        let t = tabulate(&corpus(0));
        assert_eq!(t.total_papers, CORPUS_SIZE);
        assert_eq!(t.venue_counts.iter().sum::<usize>(), CORPUS_SIZE);
        for row in &t.rows {
            assert_eq!(row.total, row.per_venue.iter().sum::<usize>());
        }
    }

    #[test]
    fn headline_rows_are_zero() {
        let t = tabulate(&corpus(0));
        assert_eq!(t.row(ReportedAspect::EnvironmentSize).total, 0);
        assert_eq!(t.row(ReportedAspect::LinkOrder).total, 0);
    }

    #[test]
    fn rendering_contains_all_venues_and_zero_rows() {
        let text = tabulate(&corpus(0)).to_string();
        for v in ["ASPLOS", "PACT", "PLDI", "CGO"] {
            assert!(text.contains(v), "{v}");
        }
        assert!(text.contains("environment size"));
        assert!(text.contains("link order"));
        assert!(text.contains("133"));
    }

    #[test]
    fn empty_corpus_does_not_panic() {
        let t = tabulate(&[]);
        assert_eq!(t.total_papers, 0);
        assert_eq!(t.rows.len(), ReportedAspect::ALL.len());
    }
}
