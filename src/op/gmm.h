// Diagonal-covariance Gaussian mixture model with EM fitting.
//
// This is the primary learned OP estimator (RQ1): fit on (augmented)
// operational data, then queried for densities by the seed sampler (RQ2),
// for density *gradients* by the naturalness-guided fuzzer (RQ3), and for
// importance weights by the retrainer (RQ4).
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "op/profile.h"

namespace opad {

class SampleStream;

struct GmmConfig {
  std::size_t components = 4;
  std::size_t max_iterations = 100;
  double tolerance = 1e-5;        // relative log-likelihood change
  double variance_floor = 1e-4;   // keeps components from collapsing
  std::size_t kmeans_iterations = 10;
};

/// Optional per-fit diagnostics returned by fit(). The mean-log-likelihood
/// trace (one entry per EM iteration, computed with the parameters that
/// iteration started from) doubles as the bit-identity witness in the
/// cross-thread-count tests: chunk-ordered folding makes every entry a
/// pure function of (data, config, rng), never of OPAD_THREADS.
struct GmmFitTrace {
  std::vector<double> mean_log_likelihood;
};

class GaussianMixtureModel : public OperationalProfile {
 public:
  struct Component {
    double weight = 0.0;
    std::vector<double> mean;
    std::vector<double> variance;
  };

  /// Constructs directly from components (weights normalised internally).
  /// Weights, means and variances must be finite, weights and variances
  /// positive (PreconditionError otherwise).
  explicit GaussianMixtureModel(std::vector<Component> components);

  /// Fits a GMM to the rows of `data` [n, d] with EM (k-means++ init).
  ///
  /// Both overloads run one EM implementation over a row source (see
  /// DESIGN.md "EM sufficient-statistic folding"); this one hands the
  /// tensor over as a single window, without a copy, and keeps the n x k
  /// responsibilities for the variance pass. The E step and both
  /// sufficient-statistic passes of the M step run in parallel over fixed
  /// 32-point chunks; per-chunk partials (responsibility mass, weighted
  /// sums, weighted squared deviations, log-likelihood) are folded in
  /// chunk order, so the fitted parameters are bit-identical for any
  /// OPAD_THREADS value. `trace`, when non-null, receives the
  /// per-iteration mean log-likelihood.
  static GaussianMixtureModel fit(const Tensor& data, const GmmConfig& config,
                                  Rng& rng, GmmFitTrace* trace = nullptr);

  /// Streaming overload: the same EM over a chunked SampleStream at
  /// O(chunk_size) memory, multi-pass (k-means++ makes 2 passes per
  /// centre, each k-means/EM iteration 1-2 passes). Rows are staged into
  /// windows aligned to fixed global offsets, so the chunk decomposition
  /// and every fold order are those of the in-core overload: identical
  /// parameters, trace, and rng consumption for any stream chunk_size and
  /// OPAD_THREADS (see DESIGN.md "Out-of-core streaming"). The variance
  /// pass recomputes responsibilities from the pre-update parameters
  /// instead of storing the O(n k) responsibility matrix.
  static GaussianMixtureModel fit(const SampleStream& stream,
                                  const GmmConfig& config, Rng& rng,
                                  GmmFitTrace* trace = nullptr);

  std::size_t dim() const override;
  double log_density(const Tensor& x) const override;
  Tensor sample(Rng& rng) const override;
  bool has_gradient() const override { return true; }
  Tensor log_density_gradient(const Tensor& x) const override;

  /// Posterior responsibilities p(component | x).
  std::vector<double> responsibilities(const Tensor& x) const;

  /// Mean log-likelihood of the rows of `data`.
  double mean_log_likelihood(const Tensor& data) const;

  const std::vector<Component>& components() const { return components_; }

 private:
  /// The EM body behind both fit overloads. `Rows` is a row source
  /// (gmm.cpp): size(), dim(), row(i), max_window(), for_each_window(fn)
  /// and kStoresResponsibilities, which selects at compile time whether
  /// the variance pass reads stored responsibilities or recomputes them.
  template <typename Rows>
  static GaussianMixtureModel fit_em(const Rows& rows, const GmmConfig& config,
                                     Rng& rng, GmmFitTrace* trace);

  /// Recomputes the evaluation cache from components_. Every code path
  /// that changes components_ (constructor, end of every EM iteration)
  /// calls it.
  void refresh_cache();

  /// The row kernel behind every query: writes
  /// log w_c + log N(x | mean_c, variance_c) for each component c into
  /// `terms` (size k). x has length dim().
  void component_log_terms(std::span<const float> x, double* terms) const;

  /// Posterior p(c | x) into `resp` (size k), from the kernel's terms.
  void posterior(std::span<const float> x, double* resp) const;

  std::vector<Component> components_;
  // Evaluation cache (see DESIGN.md "GMM evaluation kernel"):
  // log_weight_[c] = log w_c; base_[c] = d log(2 pi) + sum_j log var_cj,
  // summed j-ascending; mean_t_ and var_t_ are the means and variances
  // transposed to [d, k'] (k rounded up to whole kernel blocks), so the
  // kernel reads one contiguous block of components per coordinate.
  std::vector<double> log_weight_, base_, mean_t_, var_t_;
};

/// (De)serialisation of a fitted GMM: a learned OP is a deployment
/// artefact that outlives the process that fitted it. Simple tagged
/// binary format; throws IoError on malformed input.
void save_gmm(const GaussianMixtureModel& model, std::ostream& os);
GaussianMixtureModel load_gmm(std::istream& is);
void save_gmm_file(const GaussianMixtureModel& model,
                   const std::string& path);
GaussianMixtureModel load_gmm_file(const std::string& path);

}  // namespace opad
