#include "setup.h"

#include <cstdio>
#include <cstring>

#include "data/augment.h"
#include "naturalness/density_naturalness.h"
#include "nn/activation.h"
#include "nn/dense.h"
#include "nn/trainer.h"

namespace opad::perf {

namespace {

std::unique_ptr<Classifier> train_mlp(const Dataset& train, std::size_t hidden,
                                      std::size_t epochs, Rng& rng) {
  Sequential net(train.dim());
  net.emplace<Dense>(train.dim(), hidden, rng);
  net.emplace<ReLU>();
  net.emplace<Dense>(hidden, train.num_classes(), rng);
  auto model =
      std::make_unique<Classifier>(std::move(net), train.num_classes());
  TrainConfig config;
  config.epochs = epochs;
  config.batch_size = 32;
  config.learning_rate = 0.05;
  config.momentum = 0.9;
  train_classifier(*model, train.inputs(), train.labels(), config, rng);
  return model;
}

/// RQ1 + naturalness judge + tau, shared by both workloads.
void learn_op(Setup& w, const SynthesizerConfig& synth, double tau_quantile,
              Rng& rng) {
  const std::uint64_t start = now_ns();
  w.op = learn_operational_profile(w.operational_sample, synth, rng);
  w.gmm_fit_us = static_cast<double>(now_ns() - start) * 1e-3;
  w.metric = std::make_shared<DensityNaturalness>(w.op.profile);
  w.tau = naturalness_threshold(*w.metric, w.op.operational_dataset.inputs(),
                                tau_quantile);
}

}  // namespace

MethodContext Setup::context() const {
  MethodContext ctx;
  ctx.seeds.balanced = &test;
  ctx.seeds.operational = &op.operational_dataset;
  ctx.seeds.observed = &operational_sample;
  ctx.profile = op.profile;
  ctx.metric = metric;
  ctx.tau = tau;
  ctx.ball = ball;
  return ctx;
}

Setup make_digits(bool smoke) {
  Rng rng(2021);
  Setup w;
  const SyntheticDigitsGenerator train_generator =
      SyntheticDigitsGenerator::training_distribution();
  w.op_generator = std::make_shared<const SyntheticDigitsGenerator>(
      SyntheticDigitsGenerator::operational_distribution());
  w.train = train_generator.make_dataset(smoke ? 400 : 1500, rng);
  w.test = train_generator.make_dataset(smoke ? 200 : 500, rng);
  w.operational_sample = w.op_generator->make_dataset(400, rng);
  w.model = train_mlp(w.train, 64, smoke ? 4 : 18, rng);

  SynthesizerConfig synth;
  synth.synthetic_size = smoke ? 800 : 4000;
  synth.gmm.components = 10;
  synth.gmm.max_iterations = smoke ? 10 : 40;
  synth.augment = compose_augments(
      {image_shift_augment(SyntheticDigitsGenerator::kSide, 1),
       brightness_augment(0.06), gaussian_noise_augment(0.04, 0.0f, 1.0f)});
  learn_op(w, synth, /*tau_quantile=*/0.25, rng);
  w.ball.eps = 0.08f;
  w.ball.input_lo = 0.0f;
  w.ball.input_hi = 1.0f;
  return w;
}

Setup make_ring() {
  Rng rng(2021);
  Setup w;
  const GaussianClustersGenerator balanced =
      GaussianClustersGenerator::make_ring(3, 2.0, 0.5);
  w.op_generator = std::make_shared<const GaussianClustersGenerator>(
      balanced.with_class_priors({0.6, 0.3, 0.1}));
  w.train = balanced.make_dataset(600, rng);
  w.test = balanced.make_dataset(300, rng);
  w.operational_sample = w.op_generator->make_dataset(250, rng);
  w.model = train_mlp(w.train, 24, 25, rng);

  SynthesizerConfig synth;
  synth.synthetic_size = 800;
  synth.gmm.components = 3;
  learn_op(w, synth, /*tau_quantile=*/0.05, rng);
  w.ball.eps = 0.45f;
  w.ball.input_lo = -6.0f;
  w.ball.input_hi = 6.0f;
  return w;
}

std::uint64_t derive_seed(std::uint64_t variant, std::uint64_t index) {
  // splitmix64 finaliser over a combined key.
  std::uint64_t z = variant * 0x9E3779B97F4A7C15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string digest(const std::vector<double>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const double v : values) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &v, sizeof(double));
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace opad::perf
