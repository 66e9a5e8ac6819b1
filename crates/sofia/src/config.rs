//! SOFIA hyper-parameters (Table II and §VI-A of the paper).

/// Hyper-parameters of SOFIA.
///
/// Defaults follow the paper's §VI-A: `λ₁ = λ₂ = 10⁻³`, `λ₃ = 10`,
/// `µ = 0.1`, `φ = 0.01`, tolerance `10⁻⁴`, at most 300 ALS iterations,
/// a 3-season start-up window (`t_i = 3m`), and soft-threshold decay
/// `d = 0.85`.
#[derive(Debug, Clone, PartialEq)]
pub struct SofiaConfig {
    /// Rank `R` of the CP factorization.
    pub rank: usize,
    /// Seasonal period `m` of the temporal mode.
    pub period: usize,
    /// Temporal smoothness control `λ₁` (Eq. (10)).
    pub lambda1: f64,
    /// Seasonal smoothness control `λ₂` (Eq. (10)).
    pub lambda2: f64,
    /// Outlier sparsity control `λ₃` (Eq. (10)); also seeds the error-scale
    /// tensor at `λ₃/100` (Algorithm 3, line 1).
    pub lambda3: f64,
    /// Gradient step size `µ` of the dynamic updates (Eqs. (24), (25)).
    pub mu: f64,
    /// Smoothing parameter `φ` of the error-scale tensor update (Eq. (22)).
    pub phi: f64,
    /// Convergence tolerance for the initialization loops.
    pub tol: f64,
    /// Maximum inner ALS iterations (Algorithm 2) when ALS is run to
    /// convergence in isolation.
    pub max_als_iters: usize,
    /// Maximum outer iterations of Algorithm 1.
    pub max_outer_iters: usize,
    /// ALS sweeps per outer iteration of Algorithm 1. Kept small (the
    /// default is one sweep) so that the soft-thresholding step absorbs
    /// large outliers before the warm-started ALS can chase them; this is
    /// what makes the λ₃-decay schedule effective (and what Fig. 2's
    /// hundreds of cheap outer iterations imply about the reference
    /// implementation).
    pub als_sweeps_per_outer: usize,
    /// Number of start-up seasons used for initialization (`t_i = seasons·m`;
    /// the paper uses 3, the Holt-Winters convention).
    pub init_seasons: usize,
    /// Per-round decay `d` of the soft threshold `λ₃` in Algorithm 1.
    pub lambda3_decay: f64,
}

impl SofiaConfig {
    /// Creates a configuration with the paper's default hyper-parameters.
    ///
    /// # Panics
    /// Panics if `rank` or `period` is zero.
    pub fn new(rank: usize, period: usize) -> Self {
        assert!(rank >= 1, "rank must be positive");
        assert!(period >= 1, "seasonal period must be positive");
        Self {
            rank,
            period,
            lambda1: 1e-3,
            lambda2: 1e-3,
            lambda3: 10.0,
            mu: 0.1,
            phi: 0.01,
            tol: 1e-4,
            max_als_iters: 300,
            max_outer_iters: 300,
            init_seasons: 3,
            als_sweeps_per_outer: 1,
            lambda3_decay: 0.85,
        }
    }

    /// Start-up window length `t_i = init_seasons · m`.
    pub fn startup_len(&self) -> usize {
        self.init_seasons * self.period
    }

    /// Builder-style override of `(λ₁, λ₂, λ₃)`.
    pub fn with_lambdas(mut self, l1: f64, l2: f64, l3: f64) -> Self {
        assert!(l1 >= 0.0 && l2 >= 0.0 && l3 >= 0.0, "lambdas must be ≥ 0");
        self.lambda1 = l1;
        self.lambda2 = l2;
        self.lambda3 = l3;
        self
    }

    /// Builder-style override of the ALS tolerance and iteration caps.
    pub fn with_als_limits(mut self, tol: f64, max_als: usize, max_outer: usize) -> Self {
        assert!(tol > 0.0);
        self.tol = tol;
        self.max_als_iters = max_als;
        self.max_outer_iters = max_outer;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SofiaConfig::new(10, 168);
        assert_eq!(c.lambda1, 1e-3);
        assert_eq!(c.lambda2, 1e-3);
        assert_eq!(c.lambda3, 10.0);
        assert_eq!(c.mu, 0.1);
        assert_eq!(c.phi, 0.01);
        assert_eq!(c.tol, 1e-4);
        assert_eq!(c.max_als_iters, 300);
        assert_eq!(c.init_seasons, 3);
        assert_eq!(c.lambda3_decay, 0.85);
        assert_eq!(c.startup_len(), 3 * 168);
    }

    #[test]
    fn builders_override() {
        let c = SofiaConfig::new(4, 24)
            .with_lambdas(0.5, 0.6, 20.0)
            .with_als_limits(1e-6, 100, 10);
        assert_eq!(c.lambda1, 0.5);
        assert_eq!(c.lambda2, 0.6);
        assert_eq!(c.lambda3, 20.0);
        assert_eq!(c.tol, 1e-6);
        assert_eq!(c.max_als_iters, 100);
        assert_eq!(c.max_outer_iters, 10);
    }

    #[test]
    #[should_panic(expected = "rank must be positive")]
    fn zero_rank_rejected() {
        SofiaConfig::new(0, 5);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        SofiaConfig::new(3, 0);
    }
}
