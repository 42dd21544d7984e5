#include "op/gmm.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>

#include "data/stream.h"
#include "util/parallel.h"
#include "util/special_math.h"

namespace opad {

namespace {

/// Components per kernel block: one 128-bit vector of doubles, the
/// baseline SIMD width of x86-64 and AArch64. Vector arithmetic rounds
/// every lane exactly like the scalar expression.
constexpr std::size_t kBlock = 2;
using Block = double __attribute__((vector_size(kBlock * sizeof(double))));

/// k rounded up to whole kernel blocks.
std::size_t padded(std::size_t k) { return (k + kBlock - 1) / kBlock * kBlock; }

/// Zeroed storage for one row's k component terms: on the stack for the
/// usual handful of components, on the heap beyond that.
class TermBuffer {
 public:
  explicit TermBuffer(std::size_t k) {
    if (k > kInline) heap_.resize(k);
  }
  double* data() { return heap_.empty() ? inline_.data() : heap_.data(); }

 private:
  static constexpr std::size_t kInline = 32;
  std::array<double, kInline> inline_{};
  std::vector<double> heap_;
};

}  // namespace

GaussianMixtureModel::GaussianMixtureModel(std::vector<Component> components)
    : components_(std::move(components)) {
  OPAD_EXPECTS(!components_.empty());
  const std::size_t d = components_.front().mean.size();
  OPAD_EXPECTS(d > 0);
  double total = 0.0;
  for (const auto& c : components_) {
    OPAD_EXPECTS(c.mean.size() == d && c.variance.size() == d);
    OPAD_EXPECTS(std::isfinite(c.weight) && c.weight > 0.0);
    for (double m : c.mean) OPAD_EXPECTS(std::isfinite(m));
    for (double v : c.variance) OPAD_EXPECTS(std::isfinite(v) && v > 0.0);
    total += c.weight;
  }
  OPAD_EXPECTS(std::isfinite(total));
  for (auto& c : components_) c.weight /= total;
  refresh_cache();
}

std::size_t GaussianMixtureModel::dim() const {
  return components_.front().mean.size();
}

void GaussianMixtureModel::refresh_cache() {
  const std::size_t k = components_.size(), d = dim();
  const std::size_t kp = padded(k);
  log_weight_.resize(k);
  base_.resize(k);
  // Padding lanes hold mean 0 and variance 1: finite terms that the
  // kernel computes alongside the real ones and never reports.
  mean_t_.assign(d * kp, 0.0);
  var_t_.assign(d * kp, 1.0);
  for (std::size_t c = 0; c < k; ++c) {
    const auto& comp = components_[c];
    log_weight_[c] = std::log(comp.weight);
    double log_det = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      log_det += std::log(comp.variance[j]);
      mean_t_[j * kp + c] = comp.mean[j];
      var_t_[j * kp + c] = comp.variance[j];
    }
    base_[c] = static_cast<double>(d) * std::log(2.0 * M_PI) + log_det;
  }
}

void GaussianMixtureModel::component_log_terms(std::span<const float> x,
                                               double* terms) const {
  // kBlock components at a time, their Mahalanobis sums quad_c held in
  // one vector register and accumulated j-ascending.
  const std::size_t k = components_.size();
  const std::size_t kp = padded(k);
  for (std::size_t c0 = 0; c0 < kp; c0 += kBlock) {
    Block quad = {};
    const double* mean = mean_t_.data() + c0;
    const double* var = var_t_.data() + c0;
    for (std::size_t j = 0; j < x.size(); ++j, mean += kp, var += kp) {
      Block m{}, v{};
      std::memcpy(&m, mean, sizeof(Block));
      std::memcpy(&v, var, sizeof(Block));
      const Block diff = static_cast<double>(x[j]) - m;
      quad += diff * diff / v;
    }
    for (std::size_t l = 0; l < kBlock && c0 + l < k; ++l) {
      const std::size_t c = c0 + l;
      terms[c] = log_weight_[c] + -0.5 * (base_[c] + quad[l]);
    }
  }
}

void GaussianMixtureModel::posterior(std::span<const float> x,
                                     double* resp) const {
  const std::size_t k = components_.size();
  component_log_terms(x, resp);
  const double log_z = log_sum_exp(std::span<const double>(resp, k));
  for (std::size_t c = 0; c < k; ++c) resp[c] = std::exp(resp[c] - log_z);
}

double GaussianMixtureModel::log_density(const Tensor& x) const {
  OPAD_EXPECTS(x.rank() == 1 && x.dim(0) == dim());
  const std::size_t k = components_.size();
  TermBuffer buffer(k);
  const double* terms = buffer.data();
  component_log_terms(x.data(), buffer.data());
  double acc = -std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < k; ++c) acc = log_add_exp(acc, terms[c]);
  return acc;
}

Tensor GaussianMixtureModel::sample(Rng& rng) const {
  std::vector<double> weights;
  weights.reserve(components_.size());
  for (const auto& c : components_) weights.push_back(c.weight);
  const auto& c = components_[rng.categorical(weights)];
  Tensor x({dim()});
  for (std::size_t j = 0; j < dim(); ++j) {
    x.at(j) = static_cast<float>(rng.normal(c.mean[j], std::sqrt(c.variance[j])));
  }
  return x;
}

std::vector<double> GaussianMixtureModel::responsibilities(
    const Tensor& x) const {
  OPAD_EXPECTS(x.rank() == 1 && x.dim(0) == dim());
  std::vector<double> resp(components_.size());
  posterior(x.data(), resp.data());
  return resp;
}

Tensor GaussianMixtureModel::log_density_gradient(const Tensor& x) const {
  OPAD_EXPECTS(x.rank() == 1 && x.dim(0) == dim());
  const std::size_t k = components_.size(), d = dim();
  const std::size_t kp = padded(k);
  TermBuffer resp(kp);  // padding lanes stay 0
  posterior(x.data(), resp.data());
  Tensor grad({d});
  const std::span<const float> xs = x.data();
  const std::span<float> g = grad.data();
  for (std::size_t j = 0; j < d; ++j) {
    const double xj = static_cast<double>(xs[j]);
    const double* mean = mean_t_.data() + j * kp;
    const double* var = var_t_.data() + j * kp;
    // grad[j] receives its k float additions in ascending component order.
    float gj = 0.0f;
    for (std::size_t c0 = 0; c0 < kp; c0 += kBlock) {
      Block r{}, m{}, v{};
      std::memcpy(&r, resp.data() + c0, sizeof(Block));
      std::memcpy(&m, mean + c0, sizeof(Block));
      std::memcpy(&v, var + c0, sizeof(Block));
      const Block step = r * -(xj - m) / v;
      for (std::size_t l = 0; l < kBlock && c0 + l < k; ++l) {
        gj += static_cast<float>(step[l]);
      }
    }
    g[j] = gj;
  }
  return grad;
}

double GaussianMixtureModel::mean_log_likelihood(const Tensor& data) const {
  OPAD_EXPECTS(data.rank() == 2 && data.dim(1) == dim() && data.dim(0) > 0);
  const std::size_t n = data.dim(0);
  // Per-chunk partial totals folded in chunk order: thread-count
  // invariant (see DESIGN.md "Threading model").
  const std::size_t grain = 64;
  std::vector<double> partial(parallel_chunk_count(0, n, grain), 0.0);
  parallel_for_chunks(0, n, grain,
                      [&](std::size_t c, std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i) {
                          partial[c] += log_density(data.row(i));
                        }
                      });
  double total = 0.0;
  for (double p : partial) total += p;
  return total / static_cast<double>(n);
}

namespace {

/// EM point-chunk grain: every sufficient-statistic partial belongs to one
/// 32-row chunk at a fixed global row offset.
constexpr std::size_t kPointGrain = 32;

/// Staging-window width for streamed rows. A multiple of every parallel
/// grain the fit uses (32-point EM chunks, 64-point k-means assignment,
/// 128-point k-means++ scans), so window-local chunk boundaries land on
/// the same global row offsets whatever the window split — the
/// precondition for bitwise-equal chunk-ordered folds at any stream
/// chunk_size, and for the in-memory source's single window to fold
/// exactly like the staged ones.
constexpr std::size_t kStreamStageRows = 8192;
static_assert(kStreamStageRows % kPointGrain == 0);

/// Row source over an in-memory [n, d] tensor: one window, no copy.
class TensorRows {
 public:
  /// The n x k responsibilities fit in memory next to the data, so the
  /// variance pass reads them back instead of recomputing them.
  static constexpr bool kStoresResponsibilities = true;

  explicit TensorRows(const Tensor& data) : data_(data) {}
  std::size_t size() const { return data_.dim(0); }
  std::size_t dim() const { return data_.dim(1); }
  std::size_t max_window() const { return size(); }
  Tensor row(std::size_t i) const { return data_.row(i); }
  /// fn(start, rows) over the windows in ascending row order; fn may
  /// return bool (false stops early), which one window makes moot.
  template <typename Fn>
  void for_each_window(Fn&& fn) const {
    fn(std::size_t{0}, data_);
  }

 private:
  const Tensor& data_;
};

/// Row source over a SampleStream: fixed-offset staging windows, one
/// pass over the stream per call.
class StreamRows {
 public:
  /// O(n k) responsibilities would break the O(chunk) memory bound; the
  /// variance pass recomputes them instead.
  static constexpr bool kStoresResponsibilities = false;

  explicit StreamRows(const SampleStream& stream) : stream_(stream) {}
  std::size_t size() const { return stream_.size(); }
  std::size_t dim() const { return stream_.dim(); }
  std::size_t max_window() const {
    return std::min(size(), kStreamStageRows);
  }
  Tensor row(std::size_t i) const { return stream_.sample_at(i).x; }
  template <typename Fn>
  void for_each_window(Fn&& fn) const {
    for_each_staged_window(
        stream_, kStreamStageRows,
        [&](std::size_t start, const Tensor& rows, std::span<const int>) {
          return fn(start, rows);
        });
  }

 private:
  const SampleStream& stream_;
};

/// Squared Euclidean distance, j-ascending in double.
template <typename Centre>
double squared_distance(std::span<const float> row, const Centre& centre) {
  double dist = 0.0;
  for (std::size_t j = 0; j < row.size(); ++j) {
    const double diff = static_cast<double>(row[j]) - centre[j];
    dist += diff * diff;
  }
  return dist;
}

}  // namespace

GaussianMixtureModel GaussianMixtureModel::fit(const Tensor& data,
                                               const GmmConfig& config,
                                               Rng& rng, GmmFitTrace* trace) {
  OPAD_EXPECTS(data.rank() == 2);
  return fit_em(TensorRows(data), config, rng, trace);
}

GaussianMixtureModel GaussianMixtureModel::fit(const SampleStream& stream,
                                               const GmmConfig& config,
                                               Rng& rng, GmmFitTrace* trace) {
  return fit_em(StreamRows(stream), config, rng, trace);
}

template <typename Rows>
GaussianMixtureModel GaussianMixtureModel::fit_em(const Rows& rows,
                                                  const GmmConfig& config,
                                                  Rng& rng,
                                                  GmmFitTrace* trace) {
  const std::size_t n = rows.size(), d = rows.dim();
  OPAD_EXPECTS_MSG(n >= config.components,
                   "need at least as many samples as components");
  OPAD_EXPECTS(config.components > 0 && config.max_iterations > 0);
  if (trace) trace->mean_log_likelihood.clear();

  const auto k = config.components;

  // --- k-means++ centres ---
  // Each new centre takes two passes instead of a stored min_dist[n]:
  // the running min over all centres so far equals an incrementally
  // updated min_dist, the flat ascending total equals rng.categorical's
  // internal total, and the ascending subtract-scan with a last-positive
  // fallback replays categorical's selection — one uniform() draw, the
  // same index, the same rng stream.
  std::vector<Tensor> centre_rows;
  centre_rows.push_back(rows.row(rng.uniform_index(n)));
  std::vector<double> win_dist;
  auto window_min_dist = [&](const Tensor& window) {
    const std::size_t m = window.dim(0);
    win_dist.assign(m, 0.0);
    // Disjoint per-point writes: bit-identical for any thread count.
    parallel_for(0, m, 128, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const auto row = window.row_span(i);
        double best = std::numeric_limits<double>::infinity();
        for (const auto& centre : centre_rows) {
          best = std::min(best, squared_distance(row, centre.data()));
        }
        win_dist[i] = best;
      }
    });
  };
  while (centre_rows.size() < k) {
    double total = 0.0;
    rows.for_each_window([&](std::size_t, const Tensor& window) {
      window_min_dist(window);
      for (double dist : win_dist) total += dist;
    });
    if (total <= 0.0) {
      // All points coincide with centres; fill the rest uniformly.
      centre_rows.push_back(rows.row(rng.uniform_index(n)));
      continue;
    }
    double target = rng.uniform() * total;
    std::size_t chosen = n;
    std::size_t last_positive = n;
    rows.for_each_window([&](std::size_t start, const Tensor& window) {
      window_min_dist(window);
      for (std::size_t i = 0; i < window.dim(0); ++i) {
        if (win_dist[i] > 0.0) last_positive = start + i;
        target -= win_dist[i];
        if (target < 0.0) {
          chosen = start + i;
          return false;
        }
      }
      return true;
    });
    // Floating-point slack: fall back to the last positive-weight index,
    // exactly like categorical (total > 0 guarantees one exists).
    if (chosen == n) chosen = last_positive != n ? last_positive : n - 1;
    centre_rows.push_back(rows.row(chosen));
  }

  // --- k-means iterations ---
  std::vector<std::vector<double>> centres(k, std::vector<double>(d));
  for (std::size_t c = 0; c < k; ++c) {
    const auto row = centre_rows[c].data();
    for (std::size_t j = 0; j < d; ++j) centres[c][j] = row[j];
  }
  std::vector<std::size_t> win_assign;
  for (std::size_t iter = 0; iter < config.kmeans_iterations; ++iter) {
    std::vector<std::vector<double>> sum(k, std::vector<double>(d, 0.0));
    std::vector<std::size_t> count(k, 0);
    rows.for_each_window([&](std::size_t, const Tensor& window) {
      const std::size_t m = window.dim(0);
      win_assign.assign(m, 0);
      // Assignment: pure per-point argmin, disjoint writes.
      parallel_for(0, m, 64, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const auto row = window.row_span(i);
          double best = std::numeric_limits<double>::infinity();
          for (std::size_t c = 0; c < k; ++c) {
            const double dist = squared_distance(row, centres[c]);
            if (dist < best) {
              best = dist;
              win_assign[i] = c;
            }
          }
        }
      });
      // Update: contributions fold in ascending global i per cluster.
      for (std::size_t i = 0; i < m; ++i) {
        const auto row = window.row_span(i);
        auto& s = sum[win_assign[i]];
        for (std::size_t j = 0; j < d; ++j) s[j] += row[j];
        ++count[win_assign[i]];
      }
    });
    for (std::size_t c = 0; c < k; ++c) {
      if (count[c] == 0) continue;
      for (std::size_t j = 0; j < d; ++j) {
        centres[c][j] = sum[c][j] / static_cast<double>(count[c]);
      }
    }
  }

  // Global variance, used as the initial spread and as a fallback: two
  // flat ascending passes.
  std::vector<double> global_var(d, config.variance_floor);
  {
    std::vector<double> mean_v(d, 0.0);
    rows.for_each_window([&](std::size_t, const Tensor& window) {
      for (std::size_t i = 0; i < window.dim(0); ++i) {
        const auto row = window.row_span(i);
        for (std::size_t j = 0; j < d; ++j) mean_v[j] += row[j];
      }
    });
    for (double& m : mean_v) m /= static_cast<double>(n);
    rows.for_each_window([&](std::size_t, const Tensor& window) {
      for (std::size_t i = 0; i < window.dim(0); ++i) {
        const auto row = window.row_span(i);
        for (std::size_t j = 0; j < d; ++j) {
          const double diff = static_cast<double>(row[j]) - mean_v[j];
          global_var[j] += diff * diff / static_cast<double>(n);
        }
      }
    });
  }

  std::vector<Component> comps(k);
  for (std::size_t c = 0; c < k; ++c) {
    comps[c].weight = 1.0 / static_cast<double>(k);
    comps[c].mean = centres[c];
    comps[c].variance = global_var;
  }
  GaussianMixtureModel model(comps);

  // --- EM iterations ---
  // Two passes per iteration: the E step fused with the mean statistics,
  // then the variance statistics about the fresh means. Both run over
  // fixed 32-point chunks; every chunk accumulates its own partials
  // (log-likelihood, responsibility mass nk, weighted sums, weighted
  // squared deviations), folded into the totals in global chunk order
  // (windows ascend, chunks inside a window ascend, and window boundaries
  // are chunk-aligned). The decomposition depends only on n, so the
  // fitted parameters are bit-identical for every OPAD_THREADS value and
  // every row source. Responsibilities come from the evaluation kernel,
  // whose cache holds the parameters the iteration started from until
  // the refresh at its end: it is the pre-update snapshot that the
  // variance pass recomputes them against when the source does not
  // store them. Dead-component reseeding stays serial and
  // component-ascending to preserve the rng draw order.
  constexpr bool kStore = Rows::kStoresResponsibilities;
  const std::size_t max_chunks =
      parallel_chunk_count(0, rows.max_window(), kPointGrain);
  std::vector<double> resp(kStore ? n * k : 0);
  std::vector<double> ll_partial(max_chunks);
  std::vector<double> nk_partial(max_chunks * k);
  std::vector<double> stat_partial(max_chunks * k * d);
  std::vector<double> nk(k), mean_sum(k * d), var_sum(k * d);
  std::vector<char> dead(k);
  double prev_ll = -std::numeric_limits<double>::infinity();
  for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
    double ll = 0.0;
    std::fill(nk.begin(), nk.end(), 0.0);
    std::fill(mean_sum.begin(), mean_sum.end(), 0.0);
    // Fused E step + first M-step pass.
    rows.for_each_window([&](std::size_t start, const Tensor& window) {
      const std::size_t m = window.dim(0);
      const std::size_t chunks = parallel_chunk_count(0, m, kPointGrain);
      std::fill(ll_partial.begin(), ll_partial.begin() + chunks, 0.0);
      std::fill(nk_partial.begin(), nk_partial.begin() + chunks * k, 0.0);
      std::fill(stat_partial.begin(), stat_partial.begin() + chunks * k * d,
                0.0);
      parallel_for_chunks(
          0, m, kPointGrain,
          [&](std::size_t ch, std::size_t lo, std::size_t hi) {
            TermBuffer buffer(k);
            double* terms = buffer.data();
            double* nk_p = nk_partial.data() + ch * k;
            double* mean_p = stat_partial.data() + ch * k * d;
            for (std::size_t i = lo; i < hi; ++i) {
              const auto row = window.row_span(i);
              model.component_log_terms(row, terms);
              const double log_z =
                  log_sum_exp(std::span<const double>(terms, k));
              ll_partial[ch] += log_z;
              for (std::size_t c = 0; c < k; ++c) {
                const double r = std::exp(terms[c] - log_z);
                if constexpr (kStore) resp[(start + i) * k + c] = r;
                nk_p[c] += r;
                double* mp = mean_p + c * d;
                for (std::size_t j = 0; j < d; ++j) {
                  mp[j] += r * static_cast<double>(row[j]);
                }
              }
            }
          });
      for (std::size_t ch = 0; ch < chunks; ++ch) ll += ll_partial[ch];
      for (std::size_t ch = 0; ch < chunks; ++ch) {
        for (std::size_t c = 0; c < k; ++c) {
          nk[c] += nk_partial[ch * k + c];
          const double* mp = stat_partial.data() + (ch * k + c) * d;
          for (std::size_t j = 0; j < d; ++j) mean_sum[c * d + j] += mp[j];
        }
      }
    });
    // Mean update; dead components re-seed at a random row with global
    // spread (serial, c-ascending: rng order matters).
    std::fill(dead.begin(), dead.end(), 0);
    for (std::size_t c = 0; c < k; ++c) {
      auto& comp = model.components_[c];
      if (nk[c] < 1e-10) {
        dead[c] = 1;
        const Tensor row = rows.row(rng.uniform_index(n));
        for (std::size_t j = 0; j < d; ++j) comp.mean[j] = row.data()[j];
        comp.variance = global_var;
        comp.weight = 1.0 / static_cast<double>(n);
        continue;
      }
      for (std::size_t j = 0; j < d; ++j) {
        comp.mean[j] = mean_sum[c * d + j] / nk[c];
      }
    }
    // Second M-step pass: weighted squared deviations about the fresh
    // means.
    std::fill(var_sum.begin(), var_sum.end(), 0.0);
    rows.for_each_window([&](std::size_t start, const Tensor& window) {
      const std::size_t m = window.dim(0);
      const std::size_t chunks = parallel_chunk_count(0, m, kPointGrain);
      std::fill(stat_partial.begin(), stat_partial.begin() + chunks * k * d,
                0.0);
      parallel_for_chunks(
          0, m, kPointGrain,
          [&](std::size_t ch, std::size_t lo, std::size_t hi) {
            TermBuffer buffer(k);
            double* var_p = stat_partial.data() + ch * k * d;
            for (std::size_t i = lo; i < hi; ++i) {
              const auto row = window.row_span(i);
              const double* r = buffer.data();
              if constexpr (kStore) {
                r = resp.data() + (start + i) * k;
              } else {
                model.posterior(row, buffer.data());
              }
              for (std::size_t c = 0; c < k; ++c) {
                if (dead[c]) continue;
                const auto& mean = model.components_[c].mean;
                double* v = var_p + c * d;
                for (std::size_t j = 0; j < d; ++j) {
                  const double diff = static_cast<double>(row[j]) - mean[j];
                  v[j] += r[c] * diff * diff;
                }
              }
            }
          });
      for (std::size_t ch = 0; ch < chunks; ++ch) {
        for (std::size_t c = 0; c < k; ++c) {
          const double* vp = stat_partial.data() + (ch * k + c) * d;
          for (std::size_t j = 0; j < d; ++j) var_sum[c * d + j] += vp[j];
        }
      }
    });
    for (std::size_t c = 0; c < k; ++c) {
      if (dead[c]) continue;
      auto& comp = model.components_[c];
      for (std::size_t j = 0; j < d; ++j) {
        comp.variance[j] =
            std::max(var_sum[c * d + j] / nk[c], config.variance_floor);
      }
      comp.weight = nk[c] / static_cast<double>(n);
    }
    // Renormalise weights (dead-component reseeding can unbalance them).
    double wsum = 0.0;
    for (const auto& comp : model.components_) wsum += comp.weight;
    for (auto& comp : model.components_) comp.weight /= wsum;
    model.refresh_cache();

    const double mean_ll = ll / static_cast<double>(n);
    if (trace) trace->mean_log_likelihood.push_back(mean_ll);
    if (iter > 0 &&
        std::fabs(mean_ll - prev_ll) <
            config.tolerance * (std::fabs(prev_ll) + 1e-12)) {
      break;
    }
    prev_ll = mean_ll;
  }
  return model;
}

namespace {

constexpr std::uint32_t kGmmMagic = 0x4f50474d;  // "OPGM"

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!is) throw IoError("unexpected end of GMM stream");
  return value;
}

}  // namespace

void save_gmm(const GaussianMixtureModel& model, std::ostream& os) {
  write_pod(os, kGmmMagic);
  write_pod(os, static_cast<std::uint64_t>(model.components().size()));
  write_pod(os, static_cast<std::uint64_t>(model.dim()));
  for (const auto& c : model.components()) {
    write_pod(os, c.weight);
    for (double m : c.mean) write_pod(os, m);
    for (double v : c.variance) write_pod(os, v);
  }
  if (!os) throw IoError("failed writing GMM stream");
}

GaussianMixtureModel load_gmm(std::istream& is) {
  if (read_pod<std::uint32_t>(is) != kGmmMagic) {
    throw IoError("bad magic in GMM stream");
  }
  const auto count = read_pod<std::uint64_t>(is);
  const auto dim = read_pod<std::uint64_t>(is);
  if (count == 0 || dim == 0 || count > (1u << 20) || dim > (1u << 20)) {
    throw IoError("implausible GMM header");
  }
  std::vector<GaussianMixtureModel::Component> components(count);
  for (auto& c : components) {
    c.weight = read_pod<double>(is);
    c.mean.resize(dim);
    c.variance.resize(dim);
    for (double& m : c.mean) m = read_pod<double>(is);
    for (double& v : c.variance) v = read_pod<double>(is);
    // Checked here, before construction, so that every malformed field
    // surfaces as an IoError rather than the constructor's
    // PreconditionError.
    if (!(std::isfinite(c.weight) && c.weight > 0.0)) {
      throw IoError("non-positive or non-finite weight in GMM stream");
    }
    for (double m : c.mean) {
      if (!std::isfinite(m)) throw IoError("non-finite mean in GMM stream");
    }
    for (double v : c.variance) {
      if (!(std::isfinite(v) && v > 0.0)) {
        throw IoError("non-positive or non-finite variance in GMM stream");
      }
    }
  }
  double total_weight = 0.0;
  for (const auto& c : components) total_weight += c.weight;
  if (!std::isfinite(total_weight)) {
    throw IoError("GMM weights overflow when normalised");
  }
  return GaussianMixtureModel(std::move(components));
}

void save_gmm_file(const GaussianMixtureModel& model,
                   const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot open " + path + " for writing");
  save_gmm(model, out);
}

GaussianMixtureModel load_gmm_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open " + path + " for reading");
  return load_gmm(in);
}

}  // namespace opad
