// Property suite over all attacks: for every attack and every eps, any
// returned input (success or best-effort) must lie inside the L-inf ball
// AND the valid input box, and a reported success must actually be
// misclassified. These are the invariants the rest of the system builds
// on (verdicts, budget accounting, retraining labels).
#include <memory>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "attack/fgsm.h"
#include "attack/genetic_fuzzer.h"
#include "attack/momentum_pgd.h"
#include "attack/natural_fuzzer.h"
#include "attack/pgd.h"
#include "attack/random_fuzzer.h"
#include "naturalness/density_naturalness.h"
#include "op/generator_profile.h"
#include "tensor/tensor_ops.h"
#include "test_helpers.h"

namespace opad {
namespace {

struct AttackCase {
  std::string name;
  float eps;
};

// Without a printer gtest dumps the raw bytes of the case, which include
// the std::string's heap pointer, so the listed test name would change
// from one run to the next.
void PrintTo(const AttackCase& c, std::ostream* os) {
  *os << c.name << " eps=" << c.eps;
}

class AttackInvariants : public ::testing::TestWithParam<AttackCase> {
 protected:
  static void SetUpTestSuite() {
    task_ = new testing::RingTask(testing::make_ring_task(400, 100, 91));
    Rng rng(92);
    model_ = new Classifier(testing::train_mlp(task_->train, 16, 15, rng));
    profile_ = std::make_shared<GaussianGeneratorProfile>(task_->generator);
    metric_ = std::make_shared<DensityNaturalness>(profile_);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete task_;
    model_ = nullptr;
    task_ = nullptr;
    profile_.reset();
    metric_.reset();
  }

  static std::vector<AttackPtr> make_attacks(float eps) {
    BallConfig ball;
    ball.eps = eps;
    ball.input_lo = -4.0f;
    ball.input_hi = 4.0f;
    std::vector<AttackPtr> attacks;
    attacks.push_back(std::make_shared<Fgsm>(ball));
    PgdConfig pc;
    pc.ball = ball;
    pc.steps = 8;
    pc.restarts = 2;
    attacks.push_back(std::make_shared<Pgd>(pc));
    MomentumPgdConfig mc;
    mc.ball = ball;
    mc.steps = 8;
    mc.restarts = 2;
    attacks.push_back(std::make_shared<MomentumPgd>(mc));
    RandomFuzzerConfig rc;
    rc.ball = ball;
    rc.trials = 20;
    attacks.push_back(std::make_shared<RandomFuzzer>(rc));
    GeneticFuzzerConfig gc;
    gc.ball = ball;
    gc.population = 8;
    gc.generations = 3;
    attacks.push_back(std::make_shared<GeneticFuzzer>(gc));
    NaturalFuzzerConfig nc;
    nc.ball = ball;
    nc.steps = 8;
    nc.restarts = 2;
    nc.lambda = 0.5;
    attacks.push_back(
        std::make_shared<NaturalnessGuidedFuzzer>(nc, metric_));
    return attacks;
  }

  static testing::RingTask* task_;
  static Classifier* model_;
  static ProfilePtr profile_;
  static NaturalnessPtr metric_;
};

testing::RingTask* AttackInvariants::task_ = nullptr;
Classifier* AttackInvariants::model_ = nullptr;
ProfilePtr AttackInvariants::profile_;
NaturalnessPtr AttackInvariants::metric_;

TEST_P(AttackInvariants, ResultInsideBallAndBoxAndHonest) {
  const AttackCase param = GetParam();
  Rng rng(101);
  for (const AttackPtr& attack : make_attacks(param.eps)) {
    for (int trial = 0; trial < 6; ++trial) {
      const LabeledSample seed = task_->generator.sample(rng);
      const AttackResult result = attack->run(*model_, seed.x, seed.y, rng);
      SCOPED_TRACE(attack->name() + " eps=" + std::to_string(param.eps));
      // Ball invariant.
      EXPECT_LE(linf_distance(result.adversarial, seed.x),
                param.eps + 1e-5f);
      EXPECT_FLOAT_EQ(result.linf_distance,
                      linf_distance(result.adversarial, seed.x));
      // Box invariant.
      EXPECT_GE(result.adversarial.min(), -4.0f - 1e-6f);
      EXPECT_LE(result.adversarial.max(), 4.0f + 1e-6f);
      // Honesty: success <=> actual misclassification.
      if (result.success) {
        EXPECT_NE(model_->predict_single(result.adversarial), seed.y);
      }
      // Accounting: every attack consumes at least one query.
      EXPECT_GE(result.queries, 1u);
      // Output sanity.
      EXPECT_TRUE(result.adversarial.all_finite());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EpsSweep, AttackInvariants,
    ::testing::Values(AttackCase{"tiny", 0.05f}, AttackCase{"small", 0.2f},
                      AttackCase{"medium", 0.5f}, AttackCase{"large", 1.0f}),
    [](const ::testing::TestParamInfo<AttackCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace opad
