#include "op/gmm.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "op/class_conditional.h"
#include "test_helpers.h"
#include "util/special_math.h"

namespace opad {
namespace {

GaussianMixtureModel two_component_model() {
  GaussianMixtureModel::Component a;
  a.weight = 0.3;
  a.mean = {-2.0, 0.0};
  a.variance = {0.5, 0.5};
  GaussianMixtureModel::Component b;
  b.weight = 0.7;
  b.mean = {3.0, 1.0};
  b.variance = {1.0, 2.0};
  return GaussianMixtureModel({a, b});
}

TEST(Gmm, WeightsNormalised) {
  GaussianMixtureModel::Component a;
  a.weight = 2.0;
  a.mean = {0.0};
  a.variance = {1.0};
  GaussianMixtureModel::Component b = a;
  b.weight = 6.0;
  b.mean = {5.0};
  const GaussianMixtureModel gmm({a, b});
  EXPECT_NEAR(gmm.components()[0].weight, 0.25, 1e-12);
  EXPECT_NEAR(gmm.components()[1].weight, 0.75, 1e-12);
}

TEST(Gmm, LogDensityMatchesSingleGaussian) {
  GaussianMixtureModel::Component c;
  c.weight = 1.0;
  c.mean = {0.0, 0.0};
  c.variance = {1.0, 1.0};
  GaussianMixtureModel::Component dup = c;  // two identical components
  const GaussianMixtureModel gmm({c, dup});
  Tensor x({2});
  x.at(0) = 1.0f;
  x.at(1) = -1.0f;
  const double expected = -std::log(2.0 * M_PI) - 1.0;
  EXPECT_NEAR(gmm.log_density(x), expected, 1e-6);
}

TEST(Gmm, DensityIntegratesToOne) {
  const auto gmm = two_component_model();
  double integral = 0.0;
  const double step = 0.15;
  for (double x = -10.0; x < 12.0; x += step) {
    for (double y = -8.0; y < 10.0; y += step) {
      Tensor p({2});
      p.at(0) = static_cast<float>(x);
      p.at(1) = static_cast<float>(y);
      integral += std::exp(gmm.log_density(p)) * step * step;
    }
  }
  EXPECT_NEAR(integral, 1.0, 0.02);
}

TEST(Gmm, ResponsibilitiesSumToOneAndPickNearest) {
  const auto gmm = two_component_model();
  Tensor near_a({2});
  near_a.at(0) = -2.0f;
  const auto r = gmm.responsibilities(near_a);
  EXPECT_NEAR(r[0] + r[1], 1.0, 1e-9);
  EXPECT_GT(r[0], 0.95);
}

TEST(Gmm, SampleMomentsMatchMixture) {
  const auto gmm = two_component_model();
  Rng rng(1);
  const int n = 40000;
  double mx = 0.0;
  for (int i = 0; i < n; ++i) mx += gmm.sample(rng)(0);
  // E[x0] = 0.3*(-2) + 0.7*3 = 1.5.
  EXPECT_NEAR(mx / n, 1.5, 0.05);
}

TEST(Gmm, GradientMatchesFiniteDifference) {
  const auto gmm = two_component_model();
  Rng rng(2);
  for (int trial = 0; trial < 5; ++trial) {
    const Tensor x = Tensor::randn({2}, rng, 0.5f, 2.0f);
    const Tensor analytic = gmm.log_density_gradient(x);
    auto objective = [&gmm](const Tensor& probe) {
      return gmm.log_density(probe);
    };
    const Tensor numeric = testing::numerical_gradient(objective, x);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_NEAR(analytic.at(i), numeric.at(i),
                  2e-2 * (1.0 + std::fabs(numeric.at(i))));
    }
  }
}

TEST(Gmm, GradientPointsTowardHigherDensity) {
  const auto gmm = two_component_model();
  Tensor x({2});
  x.at(0) = 0.0f;
  x.at(1) = 0.0f;
  const Tensor grad = gmm.log_density_gradient(x);
  // One gradient step should increase log density.
  Tensor stepped = x;
  Tensor scaled = grad;
  scaled *= 0.01f;
  stepped += scaled;
  EXPECT_GT(gmm.log_density(stepped), gmm.log_density(x));
}

TEST(GmmFit, RecoversWellSeparatedClusters) {
  Rng rng(3);
  const auto generator = GaussianClustersGenerator::make_ring(3, 4.0, 0.1);
  const Dataset data = generator.make_dataset(600, rng);
  GmmConfig config;
  config.components = 3;
  const auto gmm = GaussianMixtureModel::fit(data.inputs(), config, rng);
  // Each fitted mean must be close to one true cluster center.
  for (const auto& comp : gmm.components()) {
    double best = 1e9;
    for (int k = 0; k < 3; ++k) {
      const double angle = 2.0 * M_PI * k / 3.0;
      const double dx = comp.mean[0] - 4.0 * std::cos(angle);
      const double dy = comp.mean[1] - 4.0 * std::sin(angle);
      best = std::min(best, std::sqrt(dx * dx + dy * dy));
    }
    EXPECT_LT(best, 0.5);
    EXPECT_NEAR(comp.weight, 1.0 / 3.0, 0.1);
  }
}

TEST(GmmFit, LikelihoodImprovesWithFit) {
  Rng rng(4);
  const auto generator = GaussianClustersGenerator::make_ring(4, 3.0, 0.2);
  const Dataset data = generator.make_dataset(400, rng);
  GmmConfig config;
  config.components = 4;
  const auto fitted = GaussianMixtureModel::fit(data.inputs(), config, rng);

  // A deliberately bad single-blob model.
  GaussianMixtureModel::Component blob;
  blob.weight = 1.0;
  blob.mean = {0.0, 0.0};
  blob.variance = {25.0, 25.0};
  GaussianMixtureModel::Component blob2 = blob;
  const GaussianMixtureModel bad({blob, blob2});

  EXPECT_GT(fitted.mean_log_likelihood(data.inputs()),
            bad.mean_log_likelihood(data.inputs()) + 0.5);
}

TEST(GmmFit, MoreDataImprovesHeldOutLikelihood) {
  Rng rng(5);
  const auto generator = GaussianClustersGenerator::make_ring(3, 3.0, 0.3);
  const Dataset heldout = generator.make_dataset(500, rng);
  GmmConfig config;
  config.components = 3;
  const Dataset small = generator.make_dataset(30, rng);
  const Dataset large = generator.make_dataset(1000, rng);
  const auto gmm_small = GaussianMixtureModel::fit(small.inputs(), config, rng);
  const auto gmm_large = GaussianMixtureModel::fit(large.inputs(), config, rng);
  EXPECT_GE(gmm_large.mean_log_likelihood(heldout.inputs()),
            gmm_small.mean_log_likelihood(heldout.inputs()) - 0.05);
}

TEST(GmmFit, VarianceFloorPreventsCollapse) {
  Rng rng(6);
  // Many duplicated points: naive EM would collapse variance to zero.
  Tensor data({50, 2});
  for (std::size_t i = 0; i < 50; ++i) {
    data(i, 0) = i < 25 ? 0.0f : 5.0f;
    data(i, 1) = 0.0f;
  }
  GmmConfig config;
  config.components = 2;
  config.variance_floor = 1e-3;
  const auto gmm = GaussianMixtureModel::fit(data, config, rng);
  for (const auto& comp : gmm.components()) {
    for (double v : comp.variance) {
      EXPECT_GE(v, 1e-3 - 1e-12);
    }
  }
  Tensor probe({2});
  EXPECT_TRUE(std::isfinite(gmm.log_density(probe)));
}

TEST(GmmFit, TraceRecordsMonotonishLikelihoodPerIteration) {
  Rng rng(8);
  const auto generator = GaussianClustersGenerator::make_ring(3, 3.0, 0.3);
  const Dataset data = generator.make_dataset(300, rng);
  GmmConfig config;
  config.components = 3;
  config.max_iterations = 30;
  GmmFitTrace trace;
  const auto gmm =
      GaussianMixtureModel::fit(data.inputs(), config, rng, &trace);
  ASSERT_GE(trace.mean_log_likelihood.size(), 2u);
  ASSERT_LE(trace.mean_log_likelihood.size(), config.max_iterations);
  for (double ll : trace.mean_log_likelihood) {
    EXPECT_TRUE(std::isfinite(ll));
  }
  // EM's guarantee: the likelihood of the parameters each iteration
  // starts from never decreases (up to the variance floor's projection).
  EXPECT_GT(trace.mean_log_likelihood.back(),
            trace.mean_log_likelihood.front() - 1e-9);
  // The final trace entry evaluates the second-to-last parameter set; the
  // returned model is one M step newer and must score at least as well.
  EXPECT_GE(gmm.mean_log_likelihood(data.inputs()),
            trace.mean_log_likelihood.back() - 1e-6);
}

// --- Bit identity of the evaluation kernel against the plain formula ---
//
// The reference below is the per-component evaluation spelled out the
// obvious way: for each component, j-ascending sums of the Mahalanobis
// term and of log variance, then log w + (-0.5 (d log 2pi + log det +
// quad)), folded k-ascending with log_add_exp from -inf. The kernel
// caches the normalisers and reorders memory, never arithmetic, so every
// query must match it bit for bit.

using Component = GaussianMixtureModel::Component;

double reference_log_term(const Component& c, const Tensor& x) {
  double quad = 0.0, log_det = 0.0;
  for (std::size_t j = 0; j < c.mean.size(); ++j) {
    const double diff = static_cast<double>(x.at(j)) - c.mean[j];
    quad += diff * diff / c.variance[j];
    log_det += std::log(c.variance[j]);
  }
  return std::log(c.weight) +
         -0.5 * (static_cast<double>(c.mean.size()) * std::log(2.0 * M_PI) +
                 log_det + quad);
}

double reference_log_density(const GaussianMixtureModel& gmm,
                             const Tensor& x) {
  double acc = -std::numeric_limits<double>::infinity();
  for (const auto& c : gmm.components()) {
    acc = log_add_exp(acc, reference_log_term(c, x));
  }
  return acc;
}

std::vector<double> reference_responsibilities(const GaussianMixtureModel& gmm,
                                               const Tensor& x) {
  std::vector<double> terms;
  for (const auto& c : gmm.components()) {
    terms.push_back(reference_log_term(c, x));
  }
  const double log_z = log_sum_exp(terms);
  for (double& t : terms) t = std::exp(t - log_z);
  return terms;
}

Tensor reference_gradient(const GaussianMixtureModel& gmm, const Tensor& x) {
  const auto resp = reference_responsibilities(gmm, x);
  Tensor grad({gmm.dim()});
  for (std::size_t k = 0; k < resp.size(); ++k) {
    const auto& c = gmm.components()[k];
    for (std::size_t j = 0; j < gmm.dim(); ++j) {
      grad.at(j) += static_cast<float>(
          resp[k] * -(static_cast<double>(x.at(j)) - c.mean[j]) /
          c.variance[j]);
    }
  }
  return grad;
}

/// Query points for `gmm`: standard-normal rows, a copy of every
/// component mean, and one far point where most responsibilities
/// underflow.
std::vector<Tensor> query_points(const GaussianMixtureModel& gmm, Rng& rng) {
  std::vector<Tensor> points;
  for (int i = 0; i < 4; ++i) points.push_back(Tensor::randn({gmm.dim()}, rng));
  for (const auto& c : gmm.components()) {
    Tensor x({gmm.dim()});
    for (std::size_t j = 0; j < gmm.dim(); ++j) {
      x.at(j) = static_cast<float>(c.mean[j]);
    }
    points.push_back(std::move(x));
  }
  Tensor far({gmm.dim()});
  for (std::size_t j = 0; j < gmm.dim(); ++j) {
    far.at(j) = j % 2 == 0 ? 40.0f : -25.0f;
  }
  points.push_back(std::move(far));
  return points;
}

void expect_matches_reference(const GaussianMixtureModel& gmm, Rng& rng) {
  for (const Tensor& x : query_points(gmm, rng)) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(gmm.log_density(x)),
              std::bit_cast<std::uint64_t>(reference_log_density(gmm, x)));
    const auto resp = gmm.responsibilities(x);
    const auto ref_resp = reference_responsibilities(gmm, x);
    ASSERT_EQ(resp.size(), ref_resp.size());
    for (std::size_t c = 0; c < resp.size(); ++c) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(resp[c]),
                std::bit_cast<std::uint64_t>(ref_resp[c]))
          << "component " << c;
    }
    const Tensor grad = gmm.log_density_gradient(x);
    const Tensor ref_grad = reference_gradient(gmm, x);
    for (std::size_t j = 0; j < gmm.dim(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(grad.at(j)),
                std::bit_cast<std::uint32_t>(ref_grad.at(j)))
          << "coordinate " << j;
    }
  }
}

TEST(GmmKernel, BitIdenticalToReferenceAcrossShapes) {
  Rng rng(41);
  // k = 40 also covers more components than the kernel keeps on the stack.
  for (const std::size_t d : {1u, 2u, 64u}) {
    for (const std::size_t k : {1u, 3u, 10u, 17u, 40u}) {
      std::vector<Component> comps(k);
      for (auto& c : comps) {
        c.weight = rng.uniform(0.1, 2.0);
        for (std::size_t j = 0; j < d; ++j) {
          c.mean.push_back(rng.normal(0.0, 2.0));
          c.variance.push_back(rng.uniform(0.05, 3.0));
        }
      }
      SCOPED_TRACE(::testing::Message() << "d " << d << " k " << k);
      expect_matches_reference(GaussianMixtureModel(std::move(comps)), rng);
    }
  }
}

TEST(GmmKernel, BitIdenticalToReferenceAfterFitAndReload) {
  Rng rng(42);
  const Tensor data = Tensor::randn({300, 8}, rng);
  GmmConfig config;
  config.components = 5;
  config.max_iterations = 15;
  const auto fitted = GaussianMixtureModel::fit(data, config, rng);
  {
    SCOPED_TRACE("fitted");
    expect_matches_reference(fitted, rng);
  }
  std::stringstream buffer;
  save_gmm(fitted, buffer);
  const auto reloaded = load_gmm(buffer);
  {
    SCOPED_TRACE("reloaded");
    expect_matches_reference(reloaded, rng);
  }
}

TEST(GmmKernel, BitIdenticalToReferenceInsideClassConditionalProfile) {
  Rng rng(43);
  const auto generator = GaussianClustersGenerator::make_ring(3, 3.0, 0.4);
  const Dataset data = generator.make_dataset(240, rng);
  ClassConditionalConfig config;
  config.gmm.components = 2;
  config.gmm.max_iterations = 10;
  const auto profile = ClassConditionalProfile::fit(data, config, rng);
  const auto priors = profile.class_priors();
  for (std::size_t cls = 0; cls < profile.num_classes(); ++cls) {
    SCOPED_TRACE(::testing::Message() << "class " << cls);
    expect_matches_reference(profile.class_model(cls), rng);
  }
  for (std::size_t i = 0; i < 8; ++i) {
    const Tensor x = data.sample(i).x;
    double acc = -std::numeric_limits<double>::infinity();
    for (std::size_t cls = 0; cls < profile.num_classes(); ++cls) {
      acc = log_add_exp(acc, std::log(priors[cls]) + reference_log_density(
                                                         profile.class_model(cls), x));
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(profile.log_density(x)),
              std::bit_cast<std::uint64_t>(acc));
  }
}

TEST(GmmFit, RejectsTooFewSamples) {
  Rng rng(7);
  GmmConfig config;
  config.components = 5;
  EXPECT_THROW(GaussianMixtureModel::fit(Tensor({3, 2}), config, rng),
               PreconditionError);
}

}  // namespace
}  // namespace opad
