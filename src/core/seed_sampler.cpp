#include "core/seed_sampler.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "nn/metrics.h"

namespace opad {

const char* auxiliary_kind_name(AuxiliaryKind kind) {
  switch (kind) {
    case AuxiliaryKind::kMargin:
      return "margin";
    case AuxiliaryKind::kEntropy:
      return "entropy";
    case AuxiliaryKind::kSurprise:
      return "surprise";
    case AuxiliaryKind::kNone:
      return "none";
  }
  return "?";
}

SeedSampler::SeedSampler(SeedSamplerConfig config, ProfilePtr profile)
    : config_(std::move(config)), profile_(std::move(profile)) {
  OPAD_EXPECTS(config_.gamma >= 0.0 && config_.gamma <= 1.0);
  if (config_.aux == AuxiliaryKind::kSurprise) {
    OPAD_EXPECTS_MSG(config_.surprise_reference.has_value(),
                     "kSurprise requires surprise_reference");
    OPAD_EXPECTS(config_.surprise_k >= 1);
  }
}

std::vector<double> SeedSampler::auxiliary_scores(Classifier& model,
                                                  const Dataset& pool) const {
  const std::size_t n = pool.size();
  std::vector<double> aux(n, 1.0);
  switch (config_.aux) {
    case AuxiliaryKind::kNone:
      break;
    case AuxiliaryKind::kMargin: {
      const auto margins = batch_margins(model, pool.inputs());
      for (std::size_t i = 0; i < n; ++i) {
        // Failure-proneness: 1 - margin in (0, 1]; floor keeps every seed
        // reachable.
        aux[i] = std::max(1.0 - margins[i], 1e-3);
      }
      break;
    }
    case AuxiliaryKind::kEntropy: {
      const auto entropies = batch_entropies(model, pool.inputs());
      const double max_h = std::log(static_cast<double>(model.num_classes()));
      for (std::size_t i = 0; i < n; ++i) {
        aux[i] = std::max(entropies[i] / max_h, 1e-3);
      }
      break;
    }
    case AuxiliaryKind::kSurprise: {
      const Tensor& ref = *config_.surprise_reference;
      OPAD_EXPECTS(ref.rank() == 2 && ref.dim(1) == pool.dim());
      const std::size_t k = std::min<std::size_t>(config_.surprise_k,
                                                  ref.dim(0));
      double max_surprise = 1e-9;
      for (std::size_t i = 0; i < n; ++i) {
        const auto x = pool.row(i);
        // Mean distance to k nearest reference rows (larger = more
        // surprising = more failure-prone).
        std::vector<double> dists(ref.dim(0));
        for (std::size_t r = 0; r < ref.dim(0); ++r) {
          const auto row = ref.row_span(r);
          double d = 0.0;
          for (std::size_t j = 0; j < row.size(); ++j) {
            const double diff = static_cast<double>(x[j]) - row[j];
            d += diff * diff;
          }
          dists[r] = d;
        }
        std::nth_element(dists.begin(),
                         dists.begin() + static_cast<std::ptrdiff_t>(k - 1),
                         dists.end());
        double total = 0.0;
        for (std::size_t j = 0; j < k; ++j) total += std::sqrt(dists[j]);
        aux[i] = total / static_cast<double>(k);
        max_surprise = std::max(max_surprise, aux[i]);
      }
      for (double& a : aux) a = std::max(a / max_surprise, 1e-3);
      break;
    }
  }
  return aux;
}

std::vector<double> SeedSampler::weights(Classifier& model,
                                         const Dataset& pool) const {
  OPAD_EXPECTS(!pool.empty());
  const std::size_t n = pool.size();
  const auto aux = auxiliary_scores(model, pool);

  std::vector<double> density(n, 1.0);
  if (profile_ && config_.gamma > 0.0) {
    // Work with shifted log densities to avoid under/overflow, then
    // exponentiate the gamma-scaled values.
    std::vector<double> log_p(n);
    log_density_batch(*profile_, pool.inputs(), log_p);
    double max_lp = -std::numeric_limits<double>::infinity();
    for (double lp : log_p) max_lp = std::max(max_lp, lp);
    for (std::size_t i = 0; i < n; ++i) {
      // Floor at exp(-30) relative density so no seed is unreachable.
      density[i] = std::exp(std::max(log_p[i] - max_lp, -30.0));
    }
  }

  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = std::pow(density[i], config_.gamma) *
           std::pow(aux[i], 1.0 - config_.gamma);
    OPAD_ENSURES(std::isfinite(w[i]) && w[i] >= 0.0);
  }
  return w;
}

std::vector<std::size_t> SeedSampler::sample(Classifier& model,
                                             const Dataset& pool,
                                             std::size_t k, Rng& rng) const {
  OPAD_EXPECTS(k <= pool.size());
  const auto w = weights(model, pool);
  return rng.weighted_sample_without_replacement(w, k);
}

std::vector<std::size_t> SeedSampler::sample_with_allocation(
    Classifier& model, const Dataset& pool, const CellPartition& partition,
    std::span<const std::size_t> cell_allocation, Rng& rng) const {
  OPAD_EXPECTS(cell_allocation.size() == partition.cell_count());
  const auto w = weights(model, pool);

  // Group pool indices by cell.
  std::vector<std::vector<std::size_t>> by_cell(partition.cell_count());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    by_cell[partition.cell_index(pool.sample(i).x)].push_back(i);
  }

  std::vector<std::size_t> chosen;
  std::vector<bool> taken(pool.size(), false);
  std::size_t shortfall = 0;
  for (std::size_t c = 0; c < by_cell.size(); ++c) {
    const std::size_t want = cell_allocation[c];
    if (want == 0) continue;
    auto& members = by_cell[c];
    if (members.empty()) {
      shortfall += want;
      continue;
    }
    std::vector<double> cw(members.size());
    std::size_t positive = 0;
    for (std::size_t m = 0; m < members.size(); ++m) {
      cw[m] = w[members[m]];
      if (cw[m] > 0.0) ++positive;
    }
    const std::size_t take = std::min({want, members.size(), positive});
    shortfall += want - take;
    if (take == 0) continue;
    const auto picks = rng.weighted_sample_without_replacement(cw, take);
    for (std::size_t p : picks) {
      chosen.push_back(members[p]);
      taken[members[p]] = true;
    }
  }

  // Redistribute any shortfall by global weight over untaken rows.
  if (shortfall > 0) {
    std::vector<double> residual = w;
    std::size_t available = 0;
    for (std::size_t i = 0; i < residual.size(); ++i) {
      if (taken[i]) {
        residual[i] = 0.0;
      } else if (residual[i] > 0.0) {
        ++available;
      }
    }
    const std::size_t extra = std::min(shortfall, available);
    if (extra > 0) {
      const auto picks =
          rng.weighted_sample_without_replacement(residual, extra);
      chosen.insert(chosen.end(), picks.begin(), picks.end());
    }
  }
  return chosen;
}

std::vector<double> SeedSampler::sampling_distribution(
    Classifier& model, const Dataset& pool) const {
  auto w = weights(model, pool);
  const double total = std::accumulate(w.begin(), w.end(), 0.0);
  OPAD_EXPECTS(total > 0.0);
  for (double& v : w) v /= total;
  return w;
}

}  // namespace opad
