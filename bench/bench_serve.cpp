// SERVE — online detection service under load.
//
// Load-generates against the DetectionService on the ring workload and
// reports throughput plus latency percentiles across micro-batch
// configurations:
//  - closed loop: P producer threads, each submitting synchronously
//    (submit -> wait), measuring request round-trip latency. Concurrency
//    is the offered load; the scheduler coalesces whatever is pending.
//  - open loop: a paced dispatcher targeting a fixed arrival rate with
//    shedding admission (try_submit), a drainer recording completion
//    latency. Overload shows up as shed requests, not queue collapse.
//
// Expected shape: max_batch=1 pays one forward pass per request (lowest
// batching efficiency, best isolation); larger micro-batches trade a
// bounded coalescing delay (max_delay_us) for per-batch amortisation of
// the forward pass and density sweep — throughput rises with offered
// concurrency while p50 stays near the coalescing window.
//
// Every configuration runs under both serving engines — the float32
// replica and its opt-in int8 snapshot (DESIGN.md "Quantized
// inference") — so the quantized throughput win is recorded side by
// side with the float baseline in the same CSV.
//
// --smoke runs a seconds-scale variant of the same sweep (used by the
// CI TSan soak leg); numbers from smoke mode are not meaningful.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "detect/density_detector.h"
#include "nn/quantized.h"
#include "serve/service.h"
#include "util/channel.h"
#include "util/stopwatch.h"

using namespace opad;
using namespace opad::bench;
using Clock = std::chrono::steady_clock;

namespace {

double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Percentiles {
  double p50 = 0.0, p99 = 0.0, p999 = 0.0;
};

Percentiles percentiles(std::vector<double> latencies_us) {
  Percentiles p;
  if (latencies_us.empty()) return p;
  std::sort(latencies_us.begin(), latencies_us.end());
  const auto at = [&](double q) {
    const std::size_t idx = std::min(
        latencies_us.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(latencies_us.size())));
    return latencies_us[idx];
  };
  p.p50 = at(0.50);
  p.p99 = at(0.99);
  p.p999 = at(0.999);
  return p;
}

struct BatchConfig {
  std::size_t max_batch;
  std::uint64_t max_delay_us;
};

constexpr BatchConfig kConfigs[] = {{1, 0}, {8, 100}, {32, 200}};

struct LoadResult {
  double wall_s = 0.0;
  std::vector<double> latencies_us;
  serve::ServiceStats stats;
};

/// The serving engines under comparison: the float32 model replica, or
/// its int8 snapshot (opt-in quantized inference). Detector scoring is
/// identical in both — only the per-batch forward pass changes.
constexpr bool kEngines[] = {false, true};

std::unique_ptr<serve::DetectionService> make_service(
    const RingWorkload& workload, const serve::ServiceConfig& config,
    bool quantized) {
  if (!quantized) {
    return std::make_unique<serve::DetectionService>(
        workload.model->clone(), workload.op.profile, workload.tau, config);
  }
  auto detector = std::make_shared<DensityDetector>(workload.op.profile);
  detector->set_threshold(workload.tau);
  return std::make_unique<serve::DetectionService>(
      QuantizedClassifier(*workload.model), std::move(detector), config);
}

LoadResult closed_loop(const RingWorkload& workload,
                       const std::vector<Tensor>& inputs,
                       const BatchConfig& batch, bool quantized,
                       std::size_t producers, std::size_t per_producer) {
  serve::ServiceConfig config;
  config.max_batch = batch.max_batch;
  config.max_delay_us = batch.max_delay_us;
  const auto service_ptr = make_service(workload, config, quantized);
  serve::DetectionService& service = *service_ptr;
  service.start();
  std::vector<std::vector<double>> latencies(producers);
  const auto begin = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      latencies[p].reserve(per_producer);
      for (std::size_t i = 0; i < per_producer; ++i) {
        const Tensor& x = inputs[(p * per_producer + i) % inputs.size()];
        const auto t0 = Clock::now();
        service.submit(x).get();
        latencies[p].push_back(micros_between(t0, Clock::now()));
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto end = Clock::now();
  service.stop();
  LoadResult result;
  result.wall_s = micros_between(begin, end) / 1e6;
  for (auto& lane : latencies) {
    result.latencies_us.insert(result.latencies_us.end(), lane.begin(),
                               lane.end());
  }
  result.stats = service.stats();
  return result;
}

LoadResult open_loop(const RingWorkload& workload,
                     const std::vector<Tensor>& inputs,
                     const BatchConfig& batch, bool quantized,
                     double rate_per_s, std::size_t total) {
  serve::ServiceConfig config;
  config.max_batch = batch.max_batch;
  config.max_delay_us = batch.max_delay_us;
  config.queue_capacity = 256;
  const auto service_ptr = make_service(workload, config, quantized);
  serve::DetectionService& service = *service_ptr;
  service.start();

  struct Timed {
    Clock::time_point submitted;
    std::future<serve::DetectResult> future;
  };
  // Dispatcher -> drainer handoff; batches complete in FIFO order, so a
  // drainer waiting in admission order reads completion times accurately.
  Channel<Timed> handoff(total + 1);
  std::vector<double> latencies;
  latencies.reserve(total);
  std::thread drainer([&] {
    while (true) {
      auto batch_out =
          handoff.pop_batch(64, std::chrono::microseconds(1000));
      if (batch_out.empty()) break;  // closed and drained
      for (Timed& timed : batch_out) {
        timed.future.get();
        latencies.push_back(micros_between(timed.submitted, Clock::now()));
      }
    }
  });

  const auto interval_us = 1e6 / rate_per_s;
  const auto begin = Clock::now();
  for (std::size_t i = 0; i < total; ++i) {
    const auto due =
        begin + std::chrono::microseconds(
                    static_cast<std::int64_t>(interval_us * double(i)));
    std::this_thread::sleep_until(due);
    const auto t0 = Clock::now();
    auto future = service.try_submit(inputs[i % inputs.size()]);
    if (future) handoff.push(Timed{t0, std::move(*future)});
  }
  handoff.close();
  drainer.join();
  const auto end = Clock::now();
  service.stop();
  LoadResult result;
  result.wall_s = micros_between(begin, end) / 1e6;
  result.latencies_us = std::move(latencies);
  result.stats = service.stats();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  Stopwatch watch;
  std::cout << "SERVE: online detection service under load (2-D ring"
            << (smoke ? ", smoke mode" : "") << ")\n\n";

  RingWorkloadConfig workload_config;
  const RingWorkload workload = make_ring_workload(workload_config);
  Rng rng(77);
  std::vector<Tensor> inputs;
  inputs.reserve(512);
  for (std::size_t i = 0; i < 512; ++i) {
    inputs.push_back(workload.op_generator.sample(rng).x);
  }

  const std::size_t per_producer = smoke ? 100 : 1000;
  const std::vector<std::size_t> producer_counts =
      smoke ? std::vector<std::size_t>{2} : std::vector<std::size_t>{1, 4, 8};

  {
    Table table({"engine", "max_batch", "delay_us", "producers", "requests",
                 "throughput_rps", "p50_us", "p99_us", "p999_us",
                 "mean_batch"});
    std::vector<std::vector<std::string>> csv_rows;
    for (const bool quantized : kEngines) {
      for (const BatchConfig& batch : kConfigs) {
        for (const std::size_t producers : producer_counts) {
          const LoadResult result = closed_loop(
              workload, inputs, batch, quantized, producers, per_producer);
          const auto p = percentiles(result.latencies_us);
          const double rps =
              static_cast<double>(result.stats.served) / result.wall_s;
          const double mean_batch =
              static_cast<double>(result.stats.served) /
              static_cast<double>(
                  std::max<std::uint64_t>(1, result.stats.batches));
          std::vector<std::string> row{
              quantized ? "int8" : "float32",
              std::to_string(batch.max_batch),
              std::to_string(batch.max_delay_us),
              std::to_string(producers),
              std::to_string(result.stats.served),
              Table::num(rps, 0),
              Table::num(p.p50, 1),
              Table::num(p.p99, 1),
              Table::num(p.p999, 1),
              Table::num(mean_batch, 2)};
          table.add_row(row);
          csv_rows.push_back(std::move(row));
        }
      }
    }
    table.print(std::cout, "closed loop — P synchronous producers");
    emit_table(table, "serve_closed_loop",
               {"engine", "max_batch", "delay_us", "producers", "requests",
                "throughput_rps", "p50_us", "p99_us", "p999_us",
                "mean_batch"},
               csv_rows);
    std::cout << "\n";
  }

  {
    const std::vector<double> rates =
        smoke ? std::vector<double>{5000.0}
              : std::vector<double>{5000.0, 20000.0};
    const std::size_t total = smoke ? 500 : 5000;
    Table table({"engine", "max_batch", "delay_us", "offered_rps", "served",
                 "shed", "p50_us", "p99_us", "p999_us", "mean_batch"});
    std::vector<std::vector<std::string>> csv_rows;
    for (const bool quantized : kEngines) {
      for (const BatchConfig& batch : kConfigs) {
        for (const double rate : rates) {
          const LoadResult result =
              open_loop(workload, inputs, batch, quantized, rate, total);
          const auto p = percentiles(result.latencies_us);
          const double mean_batch =
              static_cast<double>(result.stats.served) /
              static_cast<double>(
                  std::max<std::uint64_t>(1, result.stats.batches));
          std::vector<std::string> row{
              quantized ? "int8" : "float32",
              std::to_string(batch.max_batch),
              std::to_string(batch.max_delay_us),
              Table::num(rate, 0),
              std::to_string(result.stats.served),
              std::to_string(result.stats.shed),
              Table::num(p.p50, 1),
              Table::num(p.p99, 1),
              Table::num(p.p999, 1),
              Table::num(mean_batch, 2)};
          table.add_row(row);
          csv_rows.push_back(std::move(row));
        }
      }
    }
    table.print(std::cout, "open loop — paced arrivals, shedding admission");
    emit_table(table, "serve_open_loop",
               {"engine", "max_batch", "delay_us", "offered_rps", "served",
                "shed", "p50_us", "p99_us", "p999_us", "mean_batch"},
               csv_rows);
  }

  std::cout << "\ntotal wall time " << Table::num(watch.seconds(), 1)
            << "s\n";
  return 0;
}
