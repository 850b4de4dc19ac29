// Posterior function sampling via random Fourier features (Rahimi-Recht).
//
// The PaRMIS acquisition (paper Sec. IV-B step 1) needs *functions*
// sampled from each objective's GP posterior so that NSGA-II can optimize
// them jointly and produce a sampled Pareto front O*_s.  Thompson-style
// function draws are obtained by:
//   1. approximating the kernel with M cosine features
//        phi_m(x) = sqrt(2 sv / M) cos(omega_m . x + b_m),
//      omega_m from the kernel's spectral density, b_m ~ U[0, 2 pi);
//   2. conditioning the Bayesian linear model f(x) = phi(x)^T w,
//      w ~ N(0, I) on the GP's training data (noise sigma_n^2), giving a
//      Gaussian posterior over w;
//   3. drawing one w from that posterior.  The resulting f is a cheap,
//      deterministic function that can be evaluated millions of times.
#ifndef PARMIS_GP_RFF_HPP
#define PARMIS_GP_RFF_HPP

#include <vector>

#include "common/rng.hpp"
#include "gp/gp.hpp"
#include "numerics/batch.hpp"
#include "numerics/matrix.hpp"
#include "numerics/vec.hpp"

namespace parmis::gp {

/// One sampled posterior function f: R^d -> R (original target units).
class SampledFunction {
 public:
  /// Evaluates the sampled function at x (dimension must match the GP).
  double operator()(const num::Vec& x) const;

  /// Evaluates every point, num::kRffLanes points per kernel block;
  /// out[i] is bitwise identical to (*this)(points[i]).  Throws on a
  /// dimension mismatch.
  num::Vec evaluate_many(const std::vector<num::Vec>& points) const;

  /// The two halves of evaluate_many, for callers that split the
  /// feature loop over threads.  feature_terms writes rows
  /// [m_begin, m_end) of `tile` (num_features() x num::kRffLanes) from
  /// one lane block packed by num::pack_rff_lanes; it allocates nothing.
  void feature_terms(const double* block, std::size_t m_begin,
                     std::size_t m_end, double* tile) const;
  /// The function value at `lane` of a fully written tile: the terms
  /// summed in feature order, as operator() sums them.
  double lane_value(const double* tile, std::size_t lane) const;

  std::size_t input_dim() const { return omega_.cols(); }
  std::size_t num_features() const { return omega_.rows(); }

 private:
  friend SampledFunction sample_posterior_function(const GpRegressor& gp,
                                                   Rng& rng,
                                                   std::size_t num_features);

  num::Matrix omega_;  // M x d spectral frequencies
  num::Vec phase_;     // M phases
  num::Vec coef_;      // M posterior weights times sqrt(2 sv / M)
  double y_mean_ = 0.0;
  double y_scale_ = 1.0;
};

/// Draws one function from the GP posterior.  The GP must have data
/// (throws otherwise).  `num_features` (>= 1) trades approximation
/// quality for speed; 128-256 is plenty for acquisition purposes.
SampledFunction sample_posterior_function(const GpRegressor& gp, Rng& rng,
                                          std::size_t num_features = 128);

/// Approximate posterior *moments* via the same Rahimi-Recht feature
/// map: the large-training-set fast path behind predict_many.  Where
/// exact prediction costs O(n^2) per candidate, this costs O(M^2) with
/// M = num_features, independent of n — a win once n >> M (the
/// gp::kDefaultRffThreshold crossover).
///
/// Built once per sweep from the GP's training data (O(n M^2) via the
/// blocked matmul), then answers whole candidate blocks: mean via one
/// feature-matrix product, variance via one multi-RHS triangular solve
/// against the feature-posterior Cholesky factor.
class RffPredictor {
 public:
  /// `rng` drives the spectral-frequency draw; fix its seed for
  /// deterministic predictions.
  RffPredictor(const GpRegressor& gp, std::size_t num_features, Rng& rng);

  std::size_t num_features() const { return omega_.rows(); }
  std::size_t input_dim() const { return omega_.cols(); }

  /// Approximate posterior moments at every row of Xstar, in original
  /// target units, with the same 1e-12 normalized-variance floor as the
  /// exact path.  Resizes the outputs.
  void predict_many(const num::Matrix& Xstar, num::Vec& mean,
                    num::Vec& variance) const;

 private:
  num::Matrix omega_;        // M x d spectral frequencies
  num::Vec phase_;           // M phases
  num::Matrix chol_lower_;   // Cholesky factor of A = Phi^T Phi/sn2 + I
  num::Vec mean_w_;          // posterior weight mean
  double feat_scale_ = 1.0;  // sqrt(2 sv / M)
  double y_mean_ = 0.0;
  double y_scale_ = 1.0;
};

}  // namespace parmis::gp

#endif  // PARMIS_GP_RFF_HPP
