// Tests for the online detection service: queue semantics, detector-pass
// bit-identity, batch-composition invariance, shedding, request
// validation, and the drift-triggered background re-fit swap.
#include "serve/service.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "detect/density_detector.h"
#include "naturalness/density_naturalness.h"
#include "op/class_conditional.h"
#include "op/gmm.h"
#include "serve/detector.h"
#include "test_helpers.h"
#include "util/channel.h"
#include "util/parallel.h"

namespace opad {
namespace {

using serve::DetectionService;
using serve::DetectResult;
using serve::OnlineDriftTrigger;
using serve::ServiceConfig;

/// Restores the global pool to its OPAD_THREADS / hardware default when a
/// thread-count-sweeping test exits (also on failure).
struct GlobalPoolGuard {
  ~GlobalPoolGuard() { ThreadPool::configure_global(0); }
};

// The service's bounded request queue is an opad::Channel.

TEST(BoundedQueue, FifoAndBatchDrain) {
  Channel<int> queue(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(queue.try_push(i));
  EXPECT_EQ(queue.size(), 5u);
  const auto batch =
      queue.pop_batch(3, std::chrono::microseconds(0));
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0], 0);
  EXPECT_EQ(batch[2], 2);
  EXPECT_EQ(queue.size(), 2u);
}

TEST(BoundedQueue, TryPushShedsWhenFull) {
  Channel<int> queue(2);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3));
  queue.close();
  EXPECT_FALSE(queue.try_push(4));
  // Pending items stay poppable after close.
  EXPECT_EQ(queue.pop_batch(8, std::chrono::microseconds(0)).size(), 2u);
  EXPECT_TRUE(queue.pop_batch(8, std::chrono::microseconds(0)).empty());
}

TEST(BoundedQueue, PopBatchWaitsForDelayThenReturnsPartial) {
  Channel<int> queue(8);
  std::thread producer([&] {
    queue.try_push(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    queue.try_push(2);
  });
  // max_delay far above the producer gap: both items coalesce.
  const auto batch =
      queue.pop_batch(8, std::chrono::microseconds(200000));
  producer.join();
  // At least the first item arrives; typically both coalesce. The strict
  // guarantee is "no blocking past the deadline", pinned by the test
  // finishing at all.
  EXPECT_GE(batch.size(), 1u);
}

TEST(BoundedQueue, PushBlocksUntilSpace) {
  Channel<int> queue(1);
  EXPECT_TRUE(queue.push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.push(2));  // blocks until the consumer drains
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(queue.pop_batch(1, std::chrono::microseconds(0)).size(), 1u);
  producer.join();
  EXPECT_TRUE(pushed.load());
}

TEST(Channel, MultiProducerDeliversEverythingOnce) {
  Channel<int> channel(64);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&channel, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(channel.push(p * kPerProducer + i));
      }
    });
  }
  std::vector<int> seen(kProducers * kPerProducer, 0);
  std::size_t received = 0;
  while (received < seen.size()) {
    const auto batch =
        channel.pop_batch(32, std::chrono::microseconds(2000));
    for (int v : batch) {
      ASSERT_GE(v, 0);
      ASSERT_LT(static_cast<std::size_t>(v), seen.size());
      seen[static_cast<std::size_t>(v)] += 1;
    }
    received += batch.size();
  }
  for (std::thread& t : producers) t.join();
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(Channel, TryPushShedsWhenFull) {
  Channel<int> channel(2);
  EXPECT_TRUE(channel.try_push(1));
  EXPECT_TRUE(channel.try_push(2));
  EXPECT_FALSE(channel.try_push(3));  // full: shed, not block
  const auto first = channel.pop_batch(1, std::chrono::microseconds(0));
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0], 1);
  EXPECT_TRUE(channel.try_push(3));  // space again
  EXPECT_EQ(channel.size(), 2u);
}

TEST(Channel, CloseFailsPushesButDrainsPendingItems) {
  Channel<int> channel(8);
  EXPECT_TRUE(channel.push(1));
  EXPECT_TRUE(channel.push(2));
  channel.close();
  EXPECT_TRUE(channel.closed());
  EXPECT_FALSE(channel.push(3));
  EXPECT_FALSE(channel.try_push(3));
  // Pending items remain poppable after close.
  const auto first = channel.pop_batch(1, std::chrono::microseconds(0));
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0], 1);
  const auto rest = channel.pop_batch(8, std::chrono::microseconds(0));
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0], 2);
  // Closed and drained: pop_batch returns empty instead of blocking.
  EXPECT_TRUE(channel.pop_batch(8, std::chrono::microseconds(0)).empty());
}

TEST(Channel, CloseWakesBlockedProducer) {
  Channel<int> channel(1);
  ASSERT_TRUE(channel.push(1));
  std::atomic<int> result{-1};
  std::thread producer([&] { result = channel.push(2) ? 1 : 0; });
  channel.close();
  producer.join();
  EXPECT_EQ(result.load(), 0);  // woken with failure, item dropped
}

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    task_ = new testing::RingTask(testing::make_ring_task(600, 200, 91));
    Rng rng(92);
    model_ = new Classifier(testing::train_mlp(task_->train, 24, 25, rng));
    ClassConditionalConfig config;
    config.gmm.components = 2;
    profile_ = std::make_shared<ClassConditionalProfile>(
        ClassConditionalProfile::fit(task_->train, config, rng));
    const DensityNaturalness metric(profile_);
    tau_ = naturalness_threshold(metric, task_->test.inputs(), 0.05);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete task_;
    model_ = nullptr;
    task_ = nullptr;
    profile_.reset();
  }

  /// Reference verdicts computed one row at a time, no batching, no
  /// service — the ground truth every coalesced configuration must match
  /// bit for bit.
  static std::vector<DetectResult> reference_results(
      const std::vector<Tensor>& inputs) {
    std::vector<DetectResult> results(inputs.size());
    Classifier replica = model_->clone();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      results[i].label = replica.predict_single(inputs[i]);
      results[i].naturalness = profile_->log_density(inputs[i]);
      results[i].natural = results[i].naturalness >= tau_;
    }
    return results;
  }

  static std::vector<Tensor> make_inputs(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Tensor> inputs;
    inputs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      inputs.push_back(task_->generator.sample(rng).x);
    }
    return inputs;
  }

  static testing::RingTask* task_;
  static Classifier* model_;
  static std::shared_ptr<const ClassConditionalProfile> profile_;
  static double tau_;
};

testing::RingTask* ServeTest::task_ = nullptr;
Classifier* ServeTest::model_ = nullptr;
std::shared_ptr<const ClassConditionalProfile> ServeTest::profile_;
double ServeTest::tau_ = 0.0;

TEST_F(ServeTest, ScoreBatchMatchesPerRowReference) {
  const auto inputs = make_inputs(40, 93);
  const auto expected = reference_results(inputs);
  Tensor batch({inputs.size(), task_->train.dim()});
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    batch.set_row(i, inputs[i].data());
  }
  Classifier replica = model_->clone();
  std::vector<DetectResult> results(inputs.size());
  serve::score_batch(replica, *profile_, tau_, batch, results);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(results[i].label, expected[i].label);
    EXPECT_EQ(results[i].naturalness, expected[i].naturalness)
        << "row " << i << " density must be bitwise equal";
    EXPECT_EQ(results[i].natural, expected[i].natural);
  }
}

TEST_F(ServeTest, LogDensityBatchBitIdenticalAcrossThreadCounts) {
  GlobalPoolGuard guard;
  const auto inputs = make_inputs(30, 94);
  Tensor batch({inputs.size(), task_->train.dim()});
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    batch.set_row(i, inputs[i].data());
  }
  ThreadPool::configure_global(1);
  std::vector<double> serial(inputs.size());
  opad::log_density_batch(*profile_, batch, serial);
  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool::configure_global(threads);
    std::vector<double> parallel(inputs.size());
    opad::log_density_batch(*profile_, batch, parallel);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      EXPECT_EQ(parallel[i], serial[i])
          << "row " << i << " at " << threads << " threads";
    }
  }
}

TEST_F(ServeTest, BatchCompositionInvariance) {
  // The acceptance pin: per-request results are bit-identical at any
  // max_batch and thread count, and equal to the unbatched reference —
  // batch composition is timing-dependent, the verdicts are not.
  GlobalPoolGuard guard;
  const auto inputs = make_inputs(64, 95);
  const auto expected = reference_results(inputs);
  for (const std::size_t threads : {1u, 8u}) {
    ThreadPool::configure_global(threads);
    for (const std::size_t max_batch : {1u, 8u, 32u}) {
      ServiceConfig config;
      config.max_batch = max_batch;
      config.max_delay_us = 100;
      DetectionService service(model_->clone(), profile_, tau_, config);
      service.start();
      std::vector<std::future<DetectResult>> futures;
      futures.reserve(inputs.size());
      for (const Tensor& x : inputs) futures.push_back(service.submit(x));
      for (std::size_t i = 0; i < futures.size(); ++i) {
        const DetectResult result = futures[i].get();
        EXPECT_EQ(result.label, expected[i].label)
            << "request " << i << " max_batch " << max_batch << " threads "
            << threads;
        EXPECT_EQ(result.naturalness, expected[i].naturalness)
            << "request " << i << " max_batch " << max_batch << " threads "
            << threads;
        EXPECT_EQ(result.natural, expected[i].natural);
      }
      service.stop();
      const auto stats = service.stats();
      EXPECT_EQ(stats.served, inputs.size());
      EXPECT_LE(stats.max_batch_seen, max_batch);
      EXPECT_GE(stats.batches, (inputs.size() + max_batch - 1) / max_batch);
    }
  }
}

TEST_F(ServeTest, ConcurrentProducersGetCorrectResults) {
  const auto inputs = make_inputs(48, 96);
  const auto expected = reference_results(inputs);
  ServiceConfig config;
  config.max_batch = 16;
  config.max_delay_us = 200;
  DetectionService service(model_->clone(), profile_, tau_, config);
  service.start();
  constexpr std::size_t kProducers = 4;
  std::vector<std::thread> producers;
  std::vector<int> mismatches(kProducers, 0);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = p; i < inputs.size(); i += kProducers) {
        const DetectResult result = service.submit(inputs[i]).get();
        if (result.label != expected[i].label ||
            result.naturalness != expected[i].naturalness) {
          ++mismatches[p];
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  service.stop();
  for (std::size_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(mismatches[p], 0) << "producer " << p;
  }
  EXPECT_EQ(service.stats().served, inputs.size());
}

TEST_F(ServeTest, QueueFullShedding) {
  const auto inputs = make_inputs(6, 97);
  ServiceConfig config;
  config.queue_capacity = 4;
  config.max_batch = 4;
  // Not started: admissions queue up, so the bound is hit deterministically.
  DetectionService service(model_->clone(), profile_, tau_, config);
  std::vector<std::future<DetectResult>> futures;
  for (int i = 0; i < 4; ++i) {
    auto f = service.try_submit(inputs[i]);
    ASSERT_TRUE(f.has_value()) << "admission " << i;
    futures.push_back(std::move(*f));
  }
  EXPECT_FALSE(service.try_submit(inputs[4]).has_value());
  EXPECT_FALSE(service.try_submit(inputs[5]).has_value());
  EXPECT_EQ(service.stats().shed, 2u);
  // The admitted requests are served once the scheduler starts.
  service.start();
  for (auto& f : futures) f.get();
  service.stop();
  EXPECT_EQ(service.stats().served, 4u);
  EXPECT_EQ(service.stats().shed, 2u);
}

TEST_F(ServeTest, SubmitAfterStopThrows) {
  ServiceConfig config;
  DetectionService service(model_->clone(), profile_, tau_, config);
  service.start();
  service.stop();
  EXPECT_THROW(service.submit(make_inputs(1, 98)[0]), PreconditionError);
  EXPECT_FALSE(service.try_submit(make_inputs(1, 98)[0]).has_value());
}

TEST_F(ServeTest, InvalidRequestThrowsOnCallerAndServiceKeepsServing) {
  ServiceConfig config;
  DetectionService service(model_->clone(), profile_, tau_, config);
  service.start();
  const std::size_t dim = task_->train.dim();
  Tensor nan_row = make_inputs(1, 100)[0];
  nan_row.data()[0] = std::nanf("");
  Tensor inf_row = make_inputs(1, 101)[0];
  inf_row.data()[dim - 1] = -INFINITY;
  for (const Tensor& bad : {Tensor({dim + 1}), Tensor({dim - 1}), nan_row,
                            inf_row}) {
    EXPECT_THROW(service.submit(bad), PreconditionError);
    EXPECT_THROW(service.try_submit(bad), PreconditionError);
  }
  EXPECT_EQ(service.stats().shed, 0u);  // a rejected request is not shed

  const auto inputs = make_inputs(3, 102);
  const auto expected = reference_results(inputs);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const DetectResult result = service.submit(inputs[i]).get();
    EXPECT_EQ(result.label, expected[i].label) << i;
    EXPECT_EQ(result.naturalness, expected[i].naturalness) << i;
    EXPECT_EQ(result.natural, expected[i].natural) << i;
  }
  service.stop();
  EXPECT_EQ(service.stats().served, inputs.size());
}

TEST_F(ServeTest, DriftTriggeredRefitSwapsProfileWithoutStalling) {
  // A shifted operational stream must (i) raise the drift alarm, (ii)
  // re-fit in the background while requests keep completing, (iii) swap
  // the profile + tau atomically so the shifted inputs become natural.
  Rng rng(99);
  auto partition = std::make_shared<const CellPartition>(
      CellPartition::fit(task_->train.inputs(), 6, 2, rng));
  serve::DriftTriggerConfig trigger_config;
  trigger_config.monitor.window = 100;
  trigger_config.monitor.calibration_draws = 100;
  trigger_config.persistence = 10;
  trigger_config.refit_sample = 150;
  auto trigger = std::make_unique<OnlineDriftTrigger>(
      partition, task_->train.inputs(), trigger_config,
      [](const Tensor& recent, Rng& refit_rng) -> ProfilePtr {
        GmmConfig gmm;
        gmm.components = 3;
        return std::make_shared<GaussianMixtureModel>(
            GaussianMixtureModel::fit(recent, gmm, refit_rng));
      },
      rng);

  ServiceConfig config;
  config.max_batch = 8;
  config.max_delay_us = 100;
  DetectionService service(model_->clone(), profile_, tau_, config,
                           std::move(trigger));
  const ProfilePtr before = service.profile();
  service.start();

  const auto shifted_gen = task_->generator.shifted({2.5, 2.5});
  Rng stream_rng(100);
  std::size_t submitted = 0;
  // Drive the shifted stream until the swap lands (bounded by the loop
  // cap, not by wall-clock sleeps: every submit round-trips).
  for (int i = 0; i < 2000 && service.stats().refits == 0; ++i) {
    service.submit(shifted_gen.sample(stream_rng).x).get();
    ++submitted;
  }
  ASSERT_GE(service.stats().refits, 1u) << "after " << submitted
                                        << " shifted requests";
  const ProfilePtr after = service.profile();
  EXPECT_NE(before.get(), after.get());

  // Under the swapped profile the shifted stream is the new normal.
  std::size_t natural = 0;
  constexpr std::size_t kProbe = 100;
  std::vector<std::future<DetectResult>> futures;
  for (std::size_t i = 0; i < kProbe; ++i) {
    futures.push_back(service.submit(shifted_gen.sample(stream_rng).x));
  }
  for (auto& f : futures) {
    if (f.get().natural) ++natural;
  }
  service.stop();
  EXPECT_GT(natural, kProbe / 2)
      << "shifted inputs should score natural under the refitted profile";
}

}  // namespace
}  // namespace opad
