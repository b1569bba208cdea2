//! PSNR → Mean Opinion Score mapping (paper Table 1).
//!
//! | MOS        | PSNR range (dB) |
//! |------------|-----------------|
//! | Excellent  | > 37            |
//! | Good       | 31 – 37         |
//! | Fair       | 25 – 31         |
//! | Poor       | 20 – 25         |
//! | Bad        | < 20            |
//!
//! The paper computes per-frame MOS from frame-level ROI PSNR and reports
//! PDFs over the five bands.

/// The five MOS bands.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Mos {
    /// PSNR below 20 dB.
    Bad,
    /// 20–25 dB.
    Poor,
    /// 25–31 dB.
    Fair,
    /// 31–37 dB.
    Good,
    /// Above 37 dB.
    Excellent,
}

impl Mos {
    /// Classify a PSNR value per Table 1.
    pub fn from_psnr(psnr_db: f64) -> Mos {
        if psnr_db > 37.0 {
            Mos::Excellent
        } else if psnr_db > 31.0 {
            Mos::Good
        } else if psnr_db > 25.0 {
            Mos::Fair
        } else if psnr_db > 20.0 {
            Mos::Poor
        } else {
            Mos::Bad
        }
    }

    /// All bands, worst first (the order the paper's PDF plots use).
    pub fn all() -> [Mos; 5] {
        [Mos::Bad, Mos::Poor, Mos::Fair, Mos::Good, Mos::Excellent]
    }
}

/// A PDF over the five MOS bands.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MosPdf {
    counts: [u64; 5],
}

impl MosPdf {
    /// Empty PDF.
    pub fn new() -> MosPdf {
        MosPdf::default()
    }

    /// Build directly from per-frame PSNR samples.
    pub fn from_psnrs(psnrs: impl IntoIterator<Item = f64>) -> MosPdf {
        let mut pdf = MosPdf::new();
        for p in psnrs {
            pdf.add_psnr(p);
        }
        pdf
    }

    /// Record one frame's PSNR.
    pub fn add_psnr(&mut self, psnr_db: f64) {
        self.add(Mos::from_psnr(psnr_db));
    }

    /// Record one frame's band.
    pub fn add(&mut self, mos: Mos) {
        self.counts[mos as usize] += 1;
    }

    /// Total frames recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of frames in a band.
    pub fn fraction(&self, mos: Mos) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.counts[mos as usize] as f64 / total as f64
        }
    }

    /// The full PDF, worst band first.
    pub fn pdf(&self) -> [f64; 5] {
        let mut out = [0.0; 5];
        for (k, m) in Mos::all().iter().enumerate() {
            out[k] = self.fraction(*m);
        }
        out
    }

    /// Fraction of frames at Good or better.
    pub fn good_or_better(&self) -> f64 {
        self.fraction(Mos::Good) + self.fraction(Mos::Excellent)
    }

    /// Merge another PDF into this one (aggregate across sessions).
    pub fn merge(&mut self, other: &MosPdf) {
        for k in 0..5 {
            self.counts[k] += other.counts[k];
        }
    }
}

impl poi360_sim::json::ToJson for MosPdf {
    /// Band counts, worst band first (`[bad, poor, fair, good, excellent]`).
    fn write_json(&self, out: &mut String) {
        poi360_sim::json::ToJson::write_json(self.counts.as_slice(), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_boundaries() {
        assert_eq!(Mos::from_psnr(37.01), Mos::Excellent);
        assert_eq!(Mos::from_psnr(37.0), Mos::Good);
        assert_eq!(Mos::from_psnr(31.01), Mos::Good);
        assert_eq!(Mos::from_psnr(31.0), Mos::Fair);
        assert_eq!(Mos::from_psnr(25.01), Mos::Fair);
        assert_eq!(Mos::from_psnr(25.0), Mos::Poor);
        assert_eq!(Mos::from_psnr(20.01), Mos::Poor);
        assert_eq!(Mos::from_psnr(20.0), Mos::Bad);
        assert_eq!(Mos::from_psnr(5.0), Mos::Bad);
    }

    #[test]
    fn band_order_matches_quality_order() {
        assert!(Mos::Bad < Mos::Poor);
        assert!(Mos::Poor < Mos::Fair);
        assert!(Mos::Fair < Mos::Good);
        assert!(Mos::Good < Mos::Excellent);
    }

    #[test]
    fn pdf_sums_to_one() {
        let pdf = MosPdf::from_psnrs([15.0, 22.0, 28.0, 33.0, 40.0, 41.0]);
        let total: f64 = pdf.pdf().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(pdf.total(), 6);
    }

    #[test]
    fn fractions_count_correctly() {
        let pdf = MosPdf::from_psnrs([40.0, 40.0, 33.0, 10.0]);
        assert_eq!(pdf.fraction(Mos::Excellent), 0.5);
        assert_eq!(pdf.fraction(Mos::Good), 0.25);
        assert_eq!(pdf.fraction(Mos::Bad), 0.25);
        assert_eq!(pdf.fraction(Mos::Fair), 0.0);
        assert_eq!(pdf.good_or_better(), 0.75);
    }

    #[test]
    fn empty_pdf_is_zero() {
        let pdf = MosPdf::new();
        assert_eq!(pdf.total(), 0);
        assert_eq!(pdf.pdf(), [0.0; 5]);
        assert_eq!(pdf.good_or_better(), 0.0);
    }

    #[test]
    fn merge_aggregates_sessions() {
        let mut a = MosPdf::from_psnrs([40.0, 33.0]);
        let b = MosPdf::from_psnrs([40.0, 10.0]);
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.fraction(Mos::Excellent), 0.5);
    }
}
