// The paper's own detection path behind the zoo interface: score = OP
// log-density under a (class-conditional) generative profile, flag below
// a quantile of clean operational scores. This is the detector the serve
// layer has always run; extracting it here lets the campaign compare it
// head-to-head with the activation/behavioural baselines.
#pragma once

#include "detect/detector.h"
#include "op/class_conditional.h"
#include "op/profile.h"

namespace opad {

class DensityDetector : public Detector {
 public:
  /// Wraps an already-fitted profile (the campaign path: RQ1 learns the
  /// OP long before any detector exists). fitted() is true immediately.
  explicit DensityDetector(ProfilePtr profile);

  /// Deferred construction: fit() learns a ClassConditionalProfile with
  /// `config` on the reference data.
  explicit DensityDetector(ClassConditionalConfig config);

  std::string name() const override { return "Density"; }
  std::size_t dim() const override;
  void fit(const Dataset& reference, Rng& rng) override;
  bool fitted() const override { return profile_ != nullptr; }
  void score_batch(const Tensor& inputs,
                   std::span<double> out) const override;
  bool has_gradient() const override;
  Tensor score_gradient(const Tensor& x) const override;

  /// The wrapped profile (never null once fitted).
  ProfilePtr profile() const { return profile_; }

 private:
  ClassConditionalConfig config_;
  ProfilePtr profile_;
};

}  // namespace opad
