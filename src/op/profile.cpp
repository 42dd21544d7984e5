#include "op/profile.h"

#include <cmath>
#include <limits>
#include <vector>

#include "op/class_conditional.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/special_math.h"

namespace opad {

Tensor OperationalProfile::log_density_gradient(const Tensor&) const {
  throw PreconditionError(
      "this OperationalProfile does not support log-density gradients");
}

double OperationalProfile::density(const Tensor& x) const {
  return std::exp(log_density(x));
}

namespace {

/// Rows per worker chunk for the generic per-row sweep.
constexpr std::size_t kRowGrain = 8;
/// (row, class) terms per worker chunk for the sharded sweep.
constexpr std::size_t kTermGrain = 4;

/// Class-conditional sharding: the [n, k] grid of per-class terms
/// log(prior_c) + log p_c(row_r) is embarrassingly parallel, so it is
/// chunked across the pool; the per-row mixture is then folded serially
/// in ascending class order from -inf — the exact expression and fold
/// order of ClassConditionalProfile::log_density, hence bitwise equal.
void class_sharded_sweep(const ClassConditionalProfile& profile,
                         const Tensor& inputs, std::span<double> out) {
  const std::size_t n = inputs.dim(0);
  const std::size_t k = profile.num_classes();
  const std::vector<double> priors = profile.class_priors();
  std::vector<double> terms(n * k);
  parallel_for(0, n * k, kTermGrain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t idx = lo; idx < hi; ++idx) {
      const std::size_t r = idx / k;
      const std::size_t c = idx % k;
      terms[idx] = std::log(priors[c]) +
                   profile.class_model(c).log_density(inputs.row(r));
    }
  });
  for (std::size_t r = 0; r < n; ++r) {
    double acc = -std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < k; ++c) {
      acc = log_add_exp(acc, terms[r * k + c]);
    }
    out[r] = acc;
  }
}

}  // namespace

void log_density_batch(const OperationalProfile& profile, const Tensor& inputs,
                       std::span<double> out) {
  OPAD_EXPECTS(inputs.rank() == 2 && inputs.dim(1) == profile.dim());
  OPAD_EXPECTS(out.size() == inputs.dim(0));
  if (const auto* cc =
          dynamic_cast<const ClassConditionalProfile*>(&profile)) {
    class_sharded_sweep(*cc, inputs, out);
    return;
  }
  parallel_for(0, inputs.dim(0), kRowGrain,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t r = lo; r < hi; ++r) {
                   out[r] = profile.log_density(inputs.row(r));
                 }
               });
}

}  // namespace opad
