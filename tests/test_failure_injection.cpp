// Failure-injection suite: feed the library malformed, extreme, or
// adversarially degenerate inputs and verify it fails loudly (typed
// exceptions) or degrades gracefully — never silently corrupts results.
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "attack/pgd.h"
#include "core/methods.h"
#include "core/seed_sampler.h"
#include "data/generators.h"
#include "naturalness/density_naturalness.h"
#include "op/gmm.h"
#include "op/histogram.h"
#include "op/kde.h"
#include "reliability/cell_model.h"
#include "tensor/tensor_ops.h"
#include "test_helpers.h"

namespace opad {
namespace {

TEST(FailureInjection, GmmDensityWithWrongDimensionThrows) {
  GaussianMixtureModel::Component c;
  c.weight = 1.0;
  c.mean = {0.0, 0.0};
  c.variance = {1.0, 1.0};
  auto c2 = c;
  const GaussianMixtureModel gmm({c, c2});
  EXPECT_THROW(gmm.log_density(Tensor({3})), PreconditionError);
  EXPECT_THROW(gmm.log_density(Tensor({2, 2})), PreconditionError);
}

TEST(FailureInjection, GmmDensityOfExtremePointIsFiniteLog) {
  GaussianMixtureModel::Component c;
  c.weight = 1.0;
  c.mean = {0.0};
  c.variance = {1.0};
  auto c2 = c;
  const GaussianMixtureModel gmm({c, c2});
  Tensor far({1});
  far.at(0) = 1e6f;
  const double lp = gmm.log_density(far);
  // Astronomically small density but a well-defined log value.
  EXPECT_TRUE(std::isfinite(lp) ||
              lp == -std::numeric_limits<double>::infinity());
  EXPECT_LT(lp, -1e6);
}

/// A component carrying one non-finite parameter, named by field and value.
struct NonFiniteGmmCase {
  std::string name;
  GaussianMixtureModel::Component bad;
};

/// The six non-finite parameter cases, each in the second of two
/// otherwise valid 2-d components.
std::vector<NonFiniteGmmCase> non_finite_gmm_cases() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  GaussianMixtureModel::Component ok;
  ok.weight = 0.5;
  ok.mean = {1.0, -1.0};
  ok.variance = {0.5, 2.0};
  std::vector<NonFiniteGmmCase> cases;
  for (const double v : {nan, inf}) {
    const std::string tag = std::isnan(v) ? "NaN " : "+inf ";
    auto weight = ok;
    weight.weight = v;
    auto mean = ok;
    mean.mean[1] = v;
    auto variance = ok;
    variance.variance[0] = v;
    cases.push_back({tag + "weight", weight});
    cases.push_back({tag + "mean", mean});
    cases.push_back({tag + "variance", variance});
  }
  return cases;
}

/// Serialises components in the save_gmm format without constructing a
/// model (save_gmm itself only sees valid models).
std::string gmm_stream(const std::vector<GaussianMixtureModel::Component>& cs) {
  std::ostringstream os;
  auto put = [&](const auto& value) {
    os.write(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  put(std::uint32_t{0x4f50474d});
  put(static_cast<std::uint64_t>(cs.size()));
  put(static_cast<std::uint64_t>(cs.front().mean.size()));
  for (const auto& c : cs) {
    put(c.weight);
    for (double m : c.mean) put(m);
    for (double v : c.variance) put(v);
  }
  return os.str();
}

TEST(FailureInjection, GmmRejectsNonFiniteParameters) {
  GaussianMixtureModel::Component ok;
  ok.weight = 0.5;
  ok.mean = {0.0, 0.0};
  ok.variance = {1.0, 1.0};
  for (const auto& c : non_finite_gmm_cases()) {
    SCOPED_TRACE(c.name);
    EXPECT_THROW(GaussianMixtureModel({ok, c.bad}), PreconditionError);
    std::istringstream is(gmm_stream({ok, c.bad}));
    EXPECT_THROW(load_gmm(is), IoError);
  }
  // The valid stream itself loads.
  std::istringstream is(gmm_stream({ok, ok}));
  EXPECT_EQ(load_gmm(is).components().size(), 2u);
}

TEST(FailureInjection, AttackRejectsWrongSeedShape) {
  Rng rng(1);
  Classifier model = testing::make_mlp(4, 8, 3, rng);
  PgdConfig config;
  config.ball.eps = 0.1f;
  const Pgd attack(config);
  EXPECT_THROW(attack.run(model, Tensor({5}), 0, rng), PreconditionError);
  EXPECT_THROW(attack.run(model, Tensor({1, 4}), 0, rng),
               PreconditionError);
}

TEST(FailureInjection, ClassifierRejectsOutOfRangeLabelGradients) {
  Rng rng(2);
  Classifier model = testing::make_mlp(4, 8, 3, rng);
  EXPECT_THROW(model.input_gradient(Tensor({4}), 3), PreconditionError);
  EXPECT_THROW(model.input_gradient(Tensor({4}), -1), PreconditionError);
}

TEST(FailureInjection, NanInputDoesNotCorruptAttackSilently) {
  Rng rng(3);
  auto task = testing::make_ring_task(200, 50, 31);
  Rng train_rng(32);
  Classifier model = testing::train_mlp(task.train, 8, 5, train_rng);
  Tensor seed({2});
  seed.at(0) = std::numeric_limits<float>::quiet_NaN();
  PgdConfig config;
  config.ball.eps = 0.3f;
  config.ball.input_lo = -5.0f;
  config.ball.input_hi = 5.0f;
  config.steps = 3;
  config.restarts = 1;
  const Pgd attack(config);
  // The attack itself must not crash; projection clamps the iterate into
  // the valid box, so the *result* is finite even from a NaN seed... or
  // the result flags non-success. Either way, no silent garbage verdict:
  const AttackResult r = attack.run(model, seed, 0, rng);
  if (r.success) {
    EXPECT_NE(model.predict_single(r.adversarial), 0);
  }
}

TEST(FailureInjection, SeedSamplerWithDegenerateWeightsStillSamples) {
  // A pool where the model is maximally confident everywhere: margins
  // ~1, so aux scores hit their floor — sampling must still work.
  Rng rng(4);
  auto task = testing::make_ring_task(400, 100, 33);
  Rng train_rng(34);
  Classifier model = testing::train_mlp(task.train, 24, 30, train_rng);
  SeedSamplerConfig config;
  config.gamma = 0.0;
  const SeedSampler sampler(config, nullptr);
  const auto picks = sampler.sample(model, task.test, 10, rng);
  EXPECT_EQ(picks.size(), 10u);
}

TEST(FailureInjection, CellModelRejectsDegenerateWeights) {
  auto partition = std::make_shared<const CellPartition>(
      std::vector<double>{0.0}, std::vector<double>{1.0}, 4);
  // NaN weight.
  std::vector<double> w = {0.25, 0.25, 0.25,
                           std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(CellReliabilityModel(partition, w), PreconditionError);
  // Negative weight.
  w = {0.5, 0.6, -0.1, 0.0};
  EXPECT_THROW(CellReliabilityModel(partition, w), PreconditionError);
}

TEST(FailureInjection, HistogramOnConstantDataStillNormalises) {
  Rng rng(5);
  Tensor constant({50, 2});
  constant.fill(0.5f);
  auto partition = std::make_shared<const CellPartition>(
      CellPartition::fit(constant, 4, 2, rng));
  const HistogramProfile hist(partition, constant, 0.5);
  double total = 0.0;
  for (double p : hist.cell_probabilities()) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(FailureInjection, KdeHandlesDuplicatePoints) {
  Rng rng(6);
  Tensor dup({30, 2});
  dup.fill(1.0f);  // all identical: variance 0 -> bandwidth floor kicks in
  const KernelDensityEstimator kde(dup, KdeConfig{}, rng);
  Tensor probe({2});
  probe.fill(1.0f);
  EXPECT_TRUE(std::isfinite(kde.log_density(probe)));
  for (double h : kde.bandwidth()) EXPECT_GT(h, 0.0);
}

TEST(FailureInjection, MethodContextMissingPiecesRejected) {
  Rng rng(7);
  auto task = testing::make_ring_task(200, 50, 35);
  Rng train_rng(36);
  Classifier model = testing::train_mlp(task.train, 8, 5, train_rng);
  const auto opad = make_opad_method(MethodSuiteConfig{});
  MethodContext ctx;  // everything null
  EXPECT_THROW(opad->detect(model, ctx, 100, rng), PreconditionError);
  ctx.seeds.balanced = &task.test;
  EXPECT_THROW(opad->detect(model, ctx, 100, rng), PreconditionError);
  ctx.seeds.operational = &task.test;
  // metric still missing
  EXPECT_THROW(opad->detect(model, ctx, 100, rng), PreconditionError);
}

TEST(FailureInjection, DensityNaturalnessNullProfileRejected) {
  EXPECT_THROW(DensityNaturalness{nullptr}, PreconditionError);
}

TEST(FailureInjection, ProjectionDegenerateEpsKeepsSeed) {
  // eps = 0 ball: projection must return the seed itself.
  Tensor seed({3}, std::vector<float>{0.2f, 0.5f, 0.8f});
  Tensor candidate({3}, std::vector<float>{0.9f, 0.1f, 0.3f});
  project_linf_ball(candidate, seed, 0.0f, 0.0f, 1.0f);
  EXPECT_TRUE(candidate == seed);
}

}  // namespace
}  // namespace opad
