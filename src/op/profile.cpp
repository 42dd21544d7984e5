#include "op/profile.h"

#include <cmath>

#include "util/error.h"
#include "util/parallel.h"

namespace opad {

Tensor OperationalProfile::log_density_gradient(const Tensor&) const {
  throw PreconditionError(
      "this OperationalProfile does not support log-density gradients");
}

double OperationalProfile::density(const Tensor& x) const {
  return std::exp(log_density(x));
}

namespace {

/// Rows per worker chunk.
constexpr std::size_t kRowGrain = 8;

}  // namespace

void log_density_batch(const OperationalProfile& profile, const Tensor& inputs,
                       std::span<double> out) {
  OPAD_EXPECTS(inputs.rank() == 2 && inputs.dim(1) == profile.dim());
  OPAD_EXPECTS(out.size() == inputs.dim(0));
  parallel_for(0, inputs.dim(0), kRowGrain,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t r = lo; r < hi; ++r) {
                   out[r] = profile.log_density(inputs.row(r));
                 }
               });
}

}  // namespace opad
