// M1 — microbenchmarks of the computational substrates (google-benchmark):
// tensor matmul, conv2d forward/backward, classifier input gradients (the
// unit of attack cost), one PGD step, GMM density and EM fitting, KDE
// density, and the naturalness-guided fuzzer step.
#include <benchmark/benchmark.h>

#include <limits>

#include "attack/natural_fuzzer.h"
#include "attack/pgd.h"
#include "core/methods.h"
#include "data/digits.h"
#include "naturalness/density_naturalness.h"
#include "nn/activation.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/quantized.h"
#include "op/gmm.h"
#include "op/kde.h"
#include "tensor/gemm.h"
#include "tensor/gemm_kernels.h"
#include "tensor/qgemm.h"
#include "tensor/tensor_ops.h"
#include "util/resource.h"

namespace {

using namespace opad;

/// Peak-RSS column for every CSV row. ru_maxrss is a process-lifetime
/// high-water mark, so values are monotone across the benchmarks of one
/// run; the per-benchmark column still pins which stage first crossed a
/// given footprint.
void set_rss_counter(benchmark::State& state) {
  state.counters["peak_rss_kb"] = static_cast<double>(peak_rss_kb());
}

/// Reports the square-matmul rate both as items/s (madds, the historic
/// counter) and GFLOP/s (2mnk flops per product).
void set_gemm_counters(benchmark::State& state, std::size_t m, std::size_t k,
                       std::size_t n) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m * k * n));
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * static_cast<double>(m * k * n) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
  set_rss_counter(state);
}

void BM_MatMul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// Small-shape GEMM, routed explicitly: second arg 0 measures the packed
// path (fast-path limit 0), 1 measures the no-pack small kernel driven
// directly (squares past kGemmSmallPathMaxRows never qualify for the
// dispatcher's gate). The two columns are the measurement behind the
// fast-path gate recorded in DESIGN.md "SIMD micro-kernel dispatch" —
// on an AVX2 host the packed route wins every square size, which is
// why the gate keys on skinny m, not on m*n*k alone.
void BM_MatMulSmall(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool fast_path = state.range(1) != 0;
  const std::size_t previous_limit = gemm_small_path_limit();
  set_gemm_small_path_limit(0);
  Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  if (fast_path) {
    const detail::Operand a_op{a.data().data(), n, 1};
    const detail::Operand b_op{b.data().data(), n, 1};
    Tensor c({n, n});
    for (auto _ : state) {
      c.fill(0.0f);
      detail::gemm_small_strided(n, n, n, 256, a_op, b_op,
                                 c.data().data());
      benchmark::DoNotOptimize(c.data().data());
    }
  } else {
    for (auto _ : state) {
      benchmark::DoNotOptimize(matmul(a, b));
    }
  }
  set_gemm_small_path_limit(previous_limit);
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_MatMulSmall)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({64, 0})
    ->Args({64, 1});

// Row-skinny GEMM [m, 64] x [64, 64] — the dense-layer-on-few-samples /
// surviving-attack-lanes shape the fast path exists for. Second arg as
// in BM_MatMulSmall; here m <= kGemmSmallPathMaxRows shapes route
// through the fast path in normal dispatch too, and the m sweep pins
// where the win dies out (the data behind kGemmSmallPathMaxRows).
void BM_MatMulSkinny(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const bool fast_path = state.range(1) != 0;
  const std::size_t previous_limit = gemm_small_path_limit();
  set_gemm_small_path_limit(
      fast_path ? std::numeric_limits<std::size_t>::max() : 0);
  const std::size_t k = 64, n = 64;
  Rng rng(1);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  if (fast_path && m > kGemmSmallPathMaxRows) {
    const detail::Operand a_op{a.data().data(), k, 1};
    const detail::Operand b_op{b.data().data(), n, 1};
    Tensor c({m, n});
    for (auto _ : state) {
      c.fill(0.0f);
      detail::gemm_small_strided(m, n, k, 256, a_op, b_op,
                                 c.data().data());
      benchmark::DoNotOptimize(c.data().data());
    }
  } else {
    for (auto _ : state) {
      benchmark::DoNotOptimize(matmul(a, b));
    }
  }
  set_gemm_small_path_limit(previous_limit);
  set_gemm_counters(state, m, k, n);
}
BENCHMARK(BM_MatMulSkinny)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({3, 0})
    ->Args({3, 1})
    ->Args({6, 0})
    ->Args({6, 1});

// Micro-kernel comparison at a packed-path shape: second arg selects
// the kernel (0 = scalar, 1 = avx2, 2 = fma, 3 = avx512). Unsupported
// kernels are skipped with an error row rather than silently
// re-measuring another kernel, so CSVs from different hosts stay
// comparable; the label column pins which kernel each row measured.
void BM_MatMulKernel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto kernel = static_cast<GemmKernel>(state.range(1));
  if (!gemm_kernel_supported(kernel)) {
    state.SkipWithError("kernel not supported on this CPU");
    return;
  }
  const GemmKernel previous = active_gemm_kernel();
  set_gemm_kernel(kernel);
  state.SetLabel(gemm_kernel_name(kernel));
  Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  set_gemm_kernel(previous);
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_MatMulKernel)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({64, 3})
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 3});

// int8 GEMM against the float packed path at the same square shapes:
// items/s counts madds like BM_MatMul, so the int8 speedup reads
// directly off the two tables. Quantization of the weight matrix is
// setup (done once per layer in QuantizedClassifier); the measured loop
// pays activation quantization + integer kernels + dequantization,
// exactly what serving pays per batch.
void BM_QGemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  const QuantizedMatrix qb = QuantizedMatrix::quantize(b);
  state.SetLabel(qgemm_path_name(active_qgemm_path()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(qgemm(a, qb));
  }
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_QGemm)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_MatMulTransposeA(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul_transpose_a(a, b));
  }
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_MatMulTransposeA)->Arg(64)->Arg(256);

void BM_MatMulTransposeB(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul_transpose_b(a, b));
  }
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_MatMulTransposeB)->Arg(64)->Arg(256);

void BM_Conv2dForward(benchmark::State& state) {
  Rng rng(2);
  Conv2D conv({1, 8, 8}, 8, 3, 1, 1, rng);
  const Tensor batch = Tensor::rand_uniform({32, 64}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(batch, false));
  }
  set_rss_counter(state);
}
BENCHMARK(BM_Conv2dForward);

void BM_Conv2dBackward(benchmark::State& state) {
  Rng rng(3);
  Conv2D conv({1, 8, 8}, 8, 3, 1, 1, rng);
  const Tensor batch = Tensor::rand_uniform({32, 64}, rng);
  const Tensor grad = Tensor::randn({32, conv.output_geometry().features()},
                                    rng);
  conv.forward(batch, true);
  for (auto _ : state) {
    conv.zero_gradients();
    benchmark::DoNotOptimize(conv.backward(grad));
  }
  set_rss_counter(state);
}
BENCHMARK(BM_Conv2dBackward);

// Batched conv lowering on a larger geometry: 3x16x16 -> 16 channels,
// batch 64 gives the GEMM a [27, 16384] column matrix — the large-n
// shape the per-sample dispatch used to chop into 64 tiny products.
void BM_Conv2dBatchedForward(benchmark::State& state) {
  Rng rng(11);
  Conv2D conv({3, 16, 16}, 16, 3, 1, 1, rng);
  const Tensor batch = Tensor::rand_uniform({64, 3 * 16 * 16}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(batch, false));
  }
  set_rss_counter(state);
}
BENCHMARK(BM_Conv2dBatchedForward);

void BM_Conv2dBatchedBackward(benchmark::State& state) {
  Rng rng(12);
  Conv2D conv({3, 16, 16}, 16, 3, 1, 1, rng);
  const Tensor batch = Tensor::rand_uniform({64, 3 * 16 * 16}, rng);
  const Tensor grad = Tensor::randn({64, conv.output_geometry().features()},
                                    rng);
  conv.forward(batch, true);
  for (auto _ : state) {
    conv.zero_gradients();
    benchmark::DoNotOptimize(conv.backward(grad));
  }
  set_rss_counter(state);
}
BENCHMARK(BM_Conv2dBatchedBackward);

Classifier make_digit_model(Rng& rng) {
  Sequential net(64);
  net.emplace<Dense>(64, 64, rng);
  net.emplace<ReLU>();
  net.emplace<Dense>(64, 10, rng);
  return Classifier(std::move(net), 10);
}

// Serving-tier forward pass, float vs int8: predict_batch on the digit
// model at micro-batch sizes the online service coalesces. Items/s
// counts samples; the quantized variant is the BM_PredictBatch row's
// direct comparison (same model weights, same inputs).
void BM_PredictBatch(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(21);
  Classifier model = make_digit_model(rng);
  const Tensor inputs = Tensor::rand_uniform({batch, 64}, rng);
  std::vector<int> labels(batch);
  for (auto _ : state) {
    model.predict_batch(inputs, labels);
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
  set_rss_counter(state);
}
BENCHMARK(BM_PredictBatch)->Arg(16)->Arg(64)->Arg(256);

void BM_PredictBatchQuant(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(21);
  Classifier model = make_digit_model(rng);
  QuantizedClassifier quant(model);
  const Tensor inputs = Tensor::rand_uniform({batch, 64}, rng);
  std::vector<int> labels(batch);
  state.SetLabel(qgemm_path_name(active_qgemm_path()));
  for (auto _ : state) {
    quant.predict_batch(inputs, labels);
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
  set_rss_counter(state);
}
BENCHMARK(BM_PredictBatchQuant)->Arg(16)->Arg(64)->Arg(256);

void BM_InputGradient(benchmark::State& state) {
  Rng rng(4);
  Classifier model = make_digit_model(rng);
  const Tensor x = Tensor::rand_uniform({64}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.input_gradient(x, 3));
  }
  set_rss_counter(state);
}
BENCHMARK(BM_InputGradient);

void BM_PgdAttack(benchmark::State& state) {
  Rng rng(5);
  Classifier model = make_digit_model(rng);
  PgdConfig config;
  config.ball.eps = 0.08f;
  config.steps = 10;
  config.restarts = 1;
  const Pgd attack(config);
  const auto generator = SyntheticDigitsGenerator::training_distribution();
  const LabeledSample seed = generator.sample(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack.run(model, seed.x, seed.y, rng));
  }
  set_rss_counter(state);
}
BENCHMARK(BM_PgdAttack);

// Lane-based PGD: (lanes, steps). Fixed schedule (no early stop) so every
// lane pays the full step count and the per-seed rate isolates the
// batching win: one forward+backward per step amortised over all lanes,
// versus `lanes` separate passes on the serial path. Items/s counts
// seeds, so rates are directly comparable across lane widths.
void BM_AttackBatch(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  const auto steps = static_cast<std::size_t>(state.range(1));
  Rng rng(15);
  Classifier model = make_digit_model(rng);
  PgdConfig config;
  config.ball.eps = 0.08f;
  config.steps = steps;
  config.restarts = 1;
  config.early_stop = false;
  const Pgd attack(config);
  const auto generator = SyntheticDigitsGenerator::training_distribution();
  Tensor seeds({lanes, 64});
  std::vector<int> labels(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    const LabeledSample s = generator.sample(rng);
    seeds.set_row(i, s.x.data());
    labels[i] = s.y;
  }
  for (auto _ : state) {
    std::vector<Rng> rngs;
    rngs.reserve(lanes);
    for (std::size_t i = 0; i < lanes; ++i) {
      rngs.emplace_back(derive_stream_seed(16, i));
    }
    benchmark::DoNotOptimize(attack.run_batch(model, seeds, labels, rngs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes));
  set_rss_counter(state);
}
BENCHMARK(BM_AttackBatch)
    ->Args({1, 10})
    ->Args({4, 10})
    ->Args({8, 10})
    ->Args({8, 40});

// Fitted GMM for the density-query benchmarks: `d`-dimensional, `k`
// components, fitted on standard-normal rows.
GaussianMixtureModel bench_gmm(std::size_t d, std::size_t k, Rng& rng) {
  const Tensor data = Tensor::randn({400, d}, rng);
  GmmConfig config;
  config.components = k;
  config.max_iterations = 10;
  return GaussianMixtureModel::fit(data, config, rng);
}

void BM_GmmLogDensity(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  Rng rng(6);
  const auto gmm = bench_gmm(d, k, rng);
  const Tensor x = Tensor::randn({d}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gmm.log_density(x));
  }
  set_rss_counter(state);
}
// (d, k): the small 8-d models plus the digits shape (64-d, k = 10), the
// OP model every seed weight and fuzzing step queries.
BENCHMARK(BM_GmmLogDensity)->Args({8, 4})->Args({8, 16})->Args({64, 10});

void BM_GmmLogDensityGradient(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  Rng rng(6);
  const auto gmm = bench_gmm(d, k, rng);
  const Tensor x = Tensor::randn({d}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gmm.log_density_gradient(x));
  }
  set_rss_counter(state);
}
BENCHMARK(BM_GmmLogDensityGradient)->Args({8, 4})->Args({64, 10});

void BM_GmmFit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto d = static_cast<std::size_t>(state.range(1));
  const auto k = static_cast<std::size_t>(state.range(2));
  Rng rng(7);
  const Tensor data = Tensor::randn({n, d}, rng);
  GmmConfig config;
  config.components = k;
  config.max_iterations = 20;
  for (auto _ : state) {
    Rng fit_rng(8);
    benchmark::DoNotOptimize(
        GaussianMixtureModel::fit(data, config, fit_rng));
  }
}
// The historic pipeline-startup shape (300x8, k=4), the larger OP models
// the parallel-EM work targets (RQ1 at digits scale and beyond), and the
// digits OP shape (4000x64, k=10) that the benchmark workloads fit at
// setup.
BENCHMARK(BM_GmmFit)
    ->Args({300, 8, 4})
    ->Args({2000, 16, 8})
    ->Args({4000, 64, 10})
    ->Args({4000, 64, 16})
    ->Unit(benchmark::kMillisecond);

// Full OperationalTest baseline campaign on a digits-scale pool: one
// model query per operational draw, plus the naturalness/density scoring
// of every misprediction. This is the per-sample stream walk the batched
// execution path replaces.
void BM_OperationalTest(benchmark::State& state) {
  const auto budget = static_cast<std::uint64_t>(state.range(0));
  Rng rng(13);
  Classifier model = make_digit_model(rng);
  const auto generator = SyntheticDigitsGenerator::training_distribution();
  const Dataset pool = generator.make_dataset(2000, rng);
  GmmConfig gmm_config;
  gmm_config.components = 8;
  gmm_config.max_iterations = 15;
  auto profile = std::make_shared<GaussianMixtureModel>(
      GaussianMixtureModel::fit(pool.inputs(), gmm_config, rng));
  auto metric = std::make_shared<DensityNaturalness>(profile);
  MethodContext context;
  context.seeds.balanced = &pool;
  context.seeds.operational = &pool;
  context.profile = profile;
  context.metric = metric;
  context.tau = naturalness_threshold(*metric, pool.inputs(), 0.25);
  const auto method = make_operational_testing_method();
  for (auto _ : state) {
    Rng detect_rng(14);
    benchmark::DoNotOptimize(
        method->detect(model, context, budget, detect_rng));
  }
  set_rss_counter(state);
  set_rss_counter(state);
}
BENCHMARK(BM_OperationalTest)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_KdeLogDensity(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  const Tensor data = Tensor::randn({n, 8}, rng);
  const KernelDensityEstimator kde(data, KdeConfig{}, rng);
  const Tensor x = Tensor::randn({8}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kde.log_density(x));
  }
  set_rss_counter(state);
}
BENCHMARK(BM_KdeLogDensity)->Arg(100)->Arg(1000)->Arg(5000);

void BM_NaturalFuzzerAttack(benchmark::State& state) {
  Rng rng(10);
  Classifier model = make_digit_model(rng);
  const Tensor data = Tensor::rand_uniform({300, 64}, rng);
  GmmConfig gmm_config;
  gmm_config.components = 8;
  gmm_config.max_iterations = 15;
  auto profile = std::make_shared<GaussianMixtureModel>(
      GaussianMixtureModel::fit(data, gmm_config, rng));
  auto metric = std::make_shared<DensityNaturalness>(profile);
  NaturalFuzzerConfig config;
  config.ball.eps = 0.08f;
  config.steps = 10;
  config.restarts = 1;
  config.lambda = 1.0;
  const NaturalnessGuidedFuzzer attack(config, metric);
  const auto generator = SyntheticDigitsGenerator::training_distribution();
  const LabeledSample seed = generator.sample(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack.run(model, seed.x, seed.y, rng));
  }
  set_rss_counter(state);
}
BENCHMARK(BM_NaturalFuzzerAttack);

}  // namespace

BENCHMARK_MAIN();
