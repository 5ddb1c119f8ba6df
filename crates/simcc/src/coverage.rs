//! Pass/point coverage accounting for the compiler under test.
//!
//! Stands in for the gcov measurements of the paper's Figure 9: each
//! compiler pass declares a fixed set of *coverage points* (its "lines"),
//! and each pass that runs at all counts as a covered "function". The
//! harness accumulates coverage across many test programs and reports the
//! same two percentages the paper plots.

/// The static universe of passes and their point counts. The exact
/// numbers act as "lines per function"; they only need to be stable.
pub const PASS_POINTS: &[(&str, u32)] = &[
    ("parse", 16),
    ("sema", 18),
    ("fold", 30),
    ("ccp", 16),
    ("dce", 12),
    ("copyprop", 8),
    ("alias", 10),
    ("loop", 16),
    ("lower", 24),
    ("regalloc", 12),
    ("emit", 10),
    // The "GIMPLE canonicalization" pass: one point per distinct
    // (statement kind × operator sequence × variable-usage partition
    // shape) combination. Variable-usage shapes are exactly what SPE
    // enumerates, so this large sparse space models the deep pass paths
    // real compilers key on dependence structure (paper §1, observation
    // 2).
    ("gimple", 4096),
];

/// Bit offset of each pass's first point in the [`Coverage`] bitset.
const OFFSETS: [u32; PASS_POINTS.len()] = {
    let mut offsets = [0; PASS_POINTS.len()];
    let mut i = 1;
    while i < PASS_POINTS.len() {
        offsets[i] = offsets[i - 1] + PASS_POINTS[i - 1].1;
        i += 1;
    }
    offsets
};

/// Total number of coverage points across all passes.
const TOTAL_POINTS: u32 = OFFSETS[PASS_POINTS.len() - 1] + PASS_POINTS[PASS_POINTS.len() - 1].1;

const WORDS: usize = TOTAL_POINTS.div_ceil(64) as usize;

/// A set of hit coverage points: one bit per point of [`PASS_POINTS`],
/// passes laid out in declaration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coverage {
    bits: [u64; WORDS],
}

impl Default for Coverage {
    fn default() -> Coverage {
        Coverage { bits: [0; WORDS] }
    }
}

impl Coverage {
    /// Creates an empty coverage map.
    pub fn new() -> Coverage {
        Coverage::default()
    }

    /// Records that `point` of `pass` executed. Unknown passes or points
    /// beyond the declared count are ignored (defensive).
    pub fn hit(&mut self, pass: &'static str, point: u32) {
        if let Some(i) = PASS_POINTS.iter().position(|&(p, _)| p == pass) {
            if point < PASS_POINTS[i].1 {
                let bit = (OFFSETS[i] + point) as usize;
                self.bits[bit / 64] |= 1 << (bit % 64);
            }
        }
    }

    fn is_hit(&self, bit: u32) -> bool {
        self.bits[bit as usize / 64] & (1 << (bit % 64)) != 0
    }

    /// Merges another run's coverage into this one.
    pub fn merge(&mut self, other: &Coverage) {
        for (w, o) in self.bits.iter_mut().zip(&other.bits) {
            *w |= o;
        }
    }

    /// Number of distinct points hit.
    pub fn points_hit(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of passes with at least one hit — the paper's "function
    /// coverage".
    ///
    /// ```
    /// let mut c = spe_simcc::coverage::Coverage::new();
    /// c.hit("fold", 0);
    /// assert!(c.function_coverage() > 0.0);
    /// ```
    pub fn function_coverage(&self) -> f64 {
        let covered = PASS_POINTS
            .iter()
            .zip(OFFSETS)
            .filter(|&(&(_, n), off)| (off..off + n).any(|bit| self.is_hit(bit)))
            .count();
        covered as f64 / PASS_POINTS.len() as f64
    }

    /// Fraction of all points hit — the paper's "line coverage".
    pub fn line_coverage(&self) -> f64 {
        self.points_hit() as f64 / TOTAL_POINTS as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_coverage_is_zero() {
        let c = Coverage::new();
        assert_eq!(c.function_coverage(), 0.0);
        assert_eq!(c.line_coverage(), 0.0);
    }

    #[test]
    fn hits_accumulate_and_dedup() {
        let mut c = Coverage::new();
        c.hit("fold", 0);
        c.hit("fold", 0);
        c.hit("fold", 1);
        assert_eq!(c.points_hit(), 2);
    }

    #[test]
    fn unknown_points_ignored() {
        let mut c = Coverage::new();
        c.hit("nonexistent", 0);
        c.hit("fold", 9999);
        assert_eq!(c.points_hit(), 0);
    }

    #[test]
    fn merge_unions() {
        let mut a = Coverage::new();
        a.hit("fold", 0);
        let mut b = Coverage::new();
        b.hit("dce", 1);
        b.hit("fold", 0);
        a.merge(&b);
        assert_eq!(a.points_hit(), 2);
    }

    #[test]
    fn empty_merge_equals_new() {
        let mut c = Coverage::new();
        c.merge(&Coverage::new());
        assert_eq!(c, Coverage::new());
        assert_eq!(Coverage::new(), Coverage::default());
    }

    #[test]
    fn equality_ignores_hit_order_and_repeats() {
        let mut a = Coverage::new();
        for (p, n) in [("fold", 3), ("gimple", 4095), ("fold", 3), ("parse", 0)] {
            a.hit(p, n);
        }
        let mut b = Coverage::new();
        for (p, n) in [("parse", 0), ("gimple", 4095), ("fold", 3)] {
            b.hit(p, n);
        }
        assert_eq!(a, b);
        assert_eq!(a.points_hit(), 3);
        b.hit("dce", 0);
        assert_ne!(a, b);
        // Ignored hits leave the set unchanged.
        a.hit("fold", 30);
        a.hit("nonexistent", 0);
        assert_eq!(a.points_hit(), 3);
    }

    #[test]
    fn last_point_of_each_pass_stays_in_its_pass() {
        for (i, &(p, n)) in PASS_POINTS.iter().enumerate() {
            let mut c = Coverage::new();
            c.hit(p, n - 1);
            assert_eq!(c.points_hit(), 1, "{p}");
            assert_eq!(c.function_coverage(), 1.0 / PASS_POINTS.len() as f64, "{p}");
            assert!(c.is_hit(OFFSETS[i] + n - 1));
        }
    }

    #[test]
    fn full_function_coverage_needs_every_pass() {
        let mut c = Coverage::new();
        for &(p, _) in PASS_POINTS {
            c.hit(p, 0);
        }
        assert!((c.function_coverage() - 1.0).abs() < 1e-12);
        assert!(c.line_coverage() < 1.0);
    }
}
