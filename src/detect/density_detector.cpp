#include "detect/density_detector.h"

#include <utility>

#include "util/error.h"

namespace opad {

DensityDetector::DensityDetector(ProfilePtr profile)
    : profile_(std::move(profile)) {
  OPAD_EXPECTS(profile_ != nullptr);
}

DensityDetector::DensityDetector(ClassConditionalConfig config)
    : config_(std::move(config)) {}

std::size_t DensityDetector::dim() const {
  OPAD_EXPECTS_MSG(profile_ != nullptr, "DensityDetector is not fitted");
  return profile_->dim();
}

void DensityDetector::fit(const Dataset& reference, Rng& rng) {
  OPAD_EXPECTS(!reference.empty());
  profile_ = std::make_shared<ClassConditionalProfile>(
      ClassConditionalProfile::fit(reference, config_, rng));
}

void DensityDetector::score_batch(const Tensor& inputs,
                                  std::span<double> out) const {
  OPAD_EXPECTS_MSG(profile_ != nullptr, "DensityDetector is not fitted");
  log_density_batch(*profile_, inputs, out);
}

bool DensityDetector::has_gradient() const {
  return profile_ != nullptr && profile_->has_gradient();
}

Tensor DensityDetector::score_gradient(const Tensor& x) const {
  OPAD_EXPECTS_MSG(has_gradient(), "profile has no density gradient");
  return profile_->log_density_gradient(x);
}

}  // namespace opad
