// Operational profile (OP) abstraction.
//
// Following Musa's definition, an OP is a probability distribution over
// the input domain quantifying how the software will be operated. OpAD
// models it as a density that supports evaluation, sampling, and — for
// the gradient-guided fuzzer — differentiation of the log-density.
#pragma once

#include <memory>
#include <span>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace opad {

/// A probability density over flat input vectors.
class OperationalProfile {
 public:
  virtual ~OperationalProfile() = default;

  virtual std::size_t dim() const = 0;

  /// Natural log of the density at x (rank-1, length dim()).
  virtual double log_density(const Tensor& x) const = 0;

  /// Draws a sample from the profile.
  virtual Tensor sample(Rng& rng) const = 0;

  /// Whether log_density_gradient is implemented.
  virtual bool has_gradient() const { return false; }

  /// Gradient of log_density w.r.t. x. Implementations that return
  /// has_gradient() == false throw PreconditionError.
  virtual Tensor log_density_gradient(const Tensor& x) const;

  /// Convenience: density (not log).
  double density(const Tensor& x) const;
};

using ProfilePtr = std::shared_ptr<const OperationalProfile>;

/// Writes log p_OP(row) for every row of `inputs` [n, d] into `out`
/// (size n). Rows are scored in parallel on the global pool, each by
/// profile.log_density(), so the result is bitwise equal to the row-by-row
/// loop for any thread count (test-pinned — the seed sampler's and the
/// serve layer's invariance rest on it).
void log_density_batch(const OperationalProfile& profile, const Tensor& inputs,
                       std::span<double> out);

}  // namespace opad
