#include "gp/rff.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "numerics/batch.hpp"
#include "numerics/cholesky.hpp"

namespace parmis::gp {
namespace {

/// Fills `phi` (rows x M) with the cosine feature map of `X` (rows x d)
/// under frequencies `omega` (M x d), phases and scale, kRffLanes
/// training rows per lane block.
void build_feature_matrix(const num::Matrix& X, const num::Matrix& omega,
                          const num::Vec& phase, double feat_scale,
                          num::Matrix& phi) {
  constexpr std::size_t kLanes = num::kRffLanes;
  const std::size_t rows = X.rows(), d = X.cols(), m_count = omega.rows();
  phi = num::Matrix(rows, m_count);
  if (rows == 0) return;
  const num::Vec coef(m_count, feat_scale);
  num::AlignedBuffer block(d * kLanes), tile(m_count * kLanes);
  const auto row = [&X](std::size_t i) { return X.row_view(i).data(); };
  for (std::size_t first = 0; first < rows; first += kLanes) {
    num::pack_rff_lanes(row, rows, first, d, block.data());
    num::rff_lane_terms(block.data(), d, omega.data().data(), phase.data(),
                        coef.data(), 0, m_count, tile.data());
    const std::size_t lanes = std::min(kLanes, rows - first);
    for (std::size_t l = 0; l < lanes; ++l) {
      double* prow = phi.row_view(first + l).data();
      for (std::size_t m = 0; m < m_count; ++m) prow[m] = tile[m * kLanes + l];
    }
  }
}

}  // namespace

double SampledFunction::operator()(const num::Vec& x) const {
  require(x.size() == omega_.cols(), "sampled function: dimension mismatch");
  double f = 0.0;
  for (std::size_t m = 0; m < omega_.rows(); ++m) {
    double dotp = phase_[m];
    const double* wrow = omega_.data().data() + m * omega_.cols();
    for (std::size_t c = 0; c < x.size(); ++c) dotp += wrow[c] * x[c];
    f += coef_[m] * std::cos(dotp);
  }
  return y_mean_ + y_scale_ * f;
}

num::Vec SampledFunction::evaluate_many(
    const std::vector<num::Vec>& points) const {
  const std::size_t n = points.size(), d = input_dim();
  for (const num::Vec& x : points) {
    require(x.size() == d, "sampled function: dimension mismatch");
  }
  num::Vec out(n);
  if (n == 0) return out;
  constexpr std::size_t kLanes = num::kRffLanes;
  num::AlignedBuffer block(d * kLanes), tile(num_features() * kLanes);
  const auto row = [&points](std::size_t i) { return points[i].data(); };
  for (std::size_t first = 0; first < n; first += kLanes) {
    num::pack_rff_lanes(row, n, first, d, block.data());
    feature_terms(block.data(), 0, num_features(), tile.data());
    const std::size_t lanes = std::min(kLanes, n - first);
    for (std::size_t l = 0; l < lanes; ++l) {
      out[first + l] = lane_value(tile.data(), l);
    }
  }
  return out;
}

void SampledFunction::feature_terms(const double* block, std::size_t m_begin,
                                    std::size_t m_end, double* tile) const {
  num::rff_lane_terms(block, input_dim(), omega_.data().data(),
                      phase_.data(), coef_.data(), m_begin, m_end, tile);
}

double SampledFunction::lane_value(const double* tile,
                                   std::size_t lane) const {
  double f = 0.0;
  for (std::size_t m = 0; m < num_features(); ++m) {
    f += tile[m * num::kRffLanes + lane];
  }
  return y_mean_ + y_scale_ * f;
}

SampledFunction sample_posterior_function(const GpRegressor& gp, Rng& rng,
                                          std::size_t num_features) {
  require(num_features > 0, "need at least one Fourier feature");
  require(gp.has_data(), "RFF sampling requires a fitted GP with data");
  const Kernel& kernel = gp.kernel();
  const std::size_t d = gp.input_dim();

  SampledFunction out;
  const double feat_scale = std::sqrt(2.0 * kernel.signal_variance() /
                                      static_cast<double>(num_features));
  out.y_mean_ = gp.target_mean();
  out.y_scale_ = gp.target_scale();

  // Draw the feature map.
  out.omega_ = num::Matrix(num_features, d);
  out.phase_.resize(num_features);
  for (std::size_t m = 0; m < num_features; ++m) {
    const num::Vec omega = kernel.sample_spectral_frequency(rng, d);
    for (std::size_t c = 0; c < d; ++c) out.omega_(m, c) = omega[c];
    out.phase_[m] = rng.uniform(0.0, 2.0 * std::numbers::pi);
  }

  // Feature matrix Phi (n x M) over the training inputs.
  const num::Matrix& X = gp.train_inputs();
  num::Matrix Phi;
  build_feature_matrix(X, out.omega_, out.phase_, feat_scale, Phi);

  // Bayesian linear regression posterior over w (normalized target units):
  //   A = Phi^T Phi / sn2 + I,   mean = A^{-1} Phi^T y / sn2,
  //   cov = A^{-1}  =>  w = mean + L_A^{-T} z,  z ~ N(0, I)
  const double sn2 = gp.noise_variance();
  num::Matrix A = Phi.transposed().matmul(Phi);
  for (auto& v : A.data()) v /= sn2;
  A.add_diagonal(1.0);
  const num::Cholesky chol(std::move(A));

  num::Vec phi_t_y = Phi.matvec_transposed(gp.normalized_targets());
  for (auto& v : phi_t_y) v /= sn2;
  const num::Vec mean_w = chol.solve(phi_t_y);

  num::Vec z(num_features);
  for (auto& v : z) v = rng.normal();
  const num::Vec noise_w = chol.solve_lower_transposed(z);

  out.coef_.resize(num_features);
  for (std::size_t m = 0; m < num_features; ++m) {
    out.coef_[m] = (mean_w[m] + noise_w[m]) * feat_scale;
  }
  return out;
}

RffPredictor::RffPredictor(const GpRegressor& gp, std::size_t num_features,
                           Rng& rng) {
  require(num_features > 0, "RffPredictor: need at least one feature");
  require(gp.has_data(), "RffPredictor requires a fitted GP with data");
  const Kernel& kernel = gp.kernel();
  const std::size_t d = gp.input_dim();

  feat_scale_ = std::sqrt(2.0 * kernel.signal_variance() /
                          static_cast<double>(num_features));
  y_mean_ = gp.target_mean();
  y_scale_ = gp.target_scale();

  omega_ = num::Matrix(num_features, d);
  phase_.resize(num_features);
  for (std::size_t m = 0; m < num_features; ++m) {
    const num::Vec omega = kernel.sample_spectral_frequency(rng, d);
    for (std::size_t c = 0; c < d; ++c) omega_(m, c) = omega[c];
    phase_[m] = rng.uniform(0.0, 2.0 * std::numbers::pi);
  }

  // Feature-space posterior (normalized target units):
  //   A = Phi^T Phi / sn2 + I,  w | D ~ N(A^{-1} Phi^T y / sn2, A^{-1})
  num::Matrix phi;
  build_feature_matrix(gp.train_inputs(), omega_, phase_, feat_scale_, phi);
  const double sn2 = gp.noise_variance();
  num::Matrix a = num::matmul_blocked(phi.transposed(), phi);
  for (auto& v : a.data()) v /= sn2;
  a.add_diagonal(1.0);
  const num::Cholesky chol(std::move(a));
  chol_lower_ = chol.lower();

  num::Vec phi_t_y = phi.matvec_transposed(gp.normalized_targets());
  for (auto& v : phi_t_y) v /= sn2;
  mean_w_ = chol.solve(phi_t_y);
}

void RffPredictor::predict_many(const num::Matrix& Xstar, num::Vec& mean,
                                num::Vec& variance) const {
  require(Xstar.cols() == input_dim(), "RffPredictor: dimension mismatch");
  const std::size_t q_count = Xstar.rows();
  const std::size_t m_count = num_features();
  mean.assign(q_count, 0.0);
  variance.assign(q_count, 0.0);
  if (q_count == 0) return;

  num::Matrix phi_star;
  build_feature_matrix(Xstar, omega_, phase_, feat_scale_, phi_star);

  // Predictive mean phi(x)^T mean_w; predictive variance via one
  // multi-RHS triangular solve: z_q = L^{-1} phi(x_q), var = z^T z.
  const num::Matrix z = num::solve_lower_many(chol_lower_,
                                              phi_star.transposed());
  num::AlignedBuffer ztz(q_count);
  for (std::size_t m = 0; m < m_count; ++m) {
    const double* zrow = z.row_view(m).data();
    for (std::size_t q = 0; q < q_count; ++q) ztz[q] += zrow[q] * zrow[q];
  }
  for (std::size_t q = 0; q < q_count; ++q) {
    const double* prow = phi_star.row_view(q).data();
    double mean_n = 0.0;
    for (std::size_t m = 0; m < m_count; ++m) mean_n += prow[m] * mean_w_[m];
    double var_n = ztz[q];
    if (var_n < 1e-12) var_n = 1e-12;  // same floor as the exact path
    mean[q] = y_mean_ + y_scale_ * mean_n;
    variance[q] = y_scale_ * y_scale_ * var_n;
  }
}

}  // namespace parmis::gp
