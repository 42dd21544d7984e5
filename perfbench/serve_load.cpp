// Serving under load, for the traced detect run: an open-loop load
// generator against DetectionService.
//
// One dispatcher thread (the caller) sends request i at its due time
// t0 + i / rate with shedding admission; one completion thread waits on
// the futures in admission order and stamps each completion. Latency is
// completion minus *due* time, so a late generator cannot hide queueing
// delay, and a shed or failed request counts as a miss (+inf latency).
// How late the dispatcher ran is reported separately. Percentiles are
// only reported with at least 10 samples beyond them.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <limits>
#include <optional>
#include <thread>

#include "detect/density_detector.h"
#include "serve/service.h"
#include "setup.h"
#include "trace.h"
#include "util/parallel.h"

namespace opad::perf {

namespace {

using serve::DetectionService;
using serve::DetectResult;

constexpr double kMiss = std::numeric_limits<double>::infinity();
/// The ladder's latency limit (see sustainable()).
constexpr double kLimitUs = 1000.0;
/// Ladder step between rungs (refined by square roots at the top).
constexpr double kLadderStep = 1.3;
/// Ladder ceiling (well above the service's capacity).
constexpr double kMaxLadderRate = 400000.0;
constexpr double kLowRate = 2000.0;
constexpr double kHighRate = 16000.0;
constexpr int kWindows = 10;
/// Pool lanes while serving: with the dispatcher, completion and
/// scheduler threads this fits four cores.
constexpr std::size_t kServeThreads = 2;
/// Ladder rung length, as a share of --seconds.
constexpr double kRungS = 0.02;

/// Request inputs plus the offline reference every served result must
/// equal: predict_labels + DensityDetector::score_batch over the pool.
struct Probe {
  std::vector<Tensor> rows;
  std::vector<int> labels;
  std::vector<double> naturalness;
  double tau = 0.0;

  bool matches(std::size_t i, const DetectResult& r) const {
    return r.label == labels[i] && r.naturalness == naturalness[i] &&
           r.natural == (naturalness[i] >= tau);
  }
};

struct Phase {
  std::size_t sent = 0, served = 0, shed = 0, errored = 0, wrong = 0;
  std::vector<double> latency_us;  // per sent request; kMiss if not served
  std::vector<double> late_us;     // dispatcher lateness per request
  std::vector<std::uint64_t> due_ns;  // per admitted request, in order
  double completed_per_s = 0.0;
};

/// Sleeps until `due_ns`. No spinning: a spinning dispatcher takes a core
/// from the service threads it is measuring.
void wait_until(std::uint64_t due_ns) {
  const std::uint64_t now = now_ns();
  if (now < due_ns) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
  }
}

/// Drives `count` requests in an open loop: request i is due at
/// t0 + i / rate, and try_submit sheds.
Phase drive(DetectionService& service, const Probe& probe, double rate,
            std::size_t count, std::size_t& cursor) {
  Phase phase;
  phase.sent = count;
  phase.latency_us.assign(count, kMiss);
  phase.late_us.assign(count, 0.0);
  std::vector<std::optional<std::future<DetectResult>>> futures(count);
  std::vector<std::size_t> row_of(count);
  std::vector<std::uint64_t> due(count);
  std::atomic<std::size_t> published{0};
  std::uint64_t last_completion = 0;

  std::thread completion([&] {
    for (std::size_t i = 0; i < count; ++i) {
      std::size_t seen = published.load(std::memory_order_acquire);
      while (seen <= i) {
        published.wait(seen, std::memory_order_acquire);
        seen = published.load(std::memory_order_acquire);
      }
      if (futures[i].has_value()) {
        futures[i]->wait();
        const std::uint64_t t = now_ns();
        try {
          const DetectResult r = futures[i]->get();
          ++phase.served;
          if (!probe.matches(row_of[i], r)) ++phase.wrong;
          phase.latency_us[i] = static_cast<double>(t - due[i]) * 1e-3;
        } catch (...) {
          ++phase.errored;
        }
        last_completion = t;
      }
    }
  });

  const double period_ns = 1e9 / rate;
  const std::uint64_t t0 = now_ns() + 1'000'000;
  // If dispatch throws, publish the unsent (empty) slots so the
  // completion thread finishes and can be joined.
  struct JoinOnExit {
    std::thread& thread;
    std::atomic<std::size_t>& published;
    std::size_t count;
    ~JoinOnExit() {
      published.store(count, std::memory_order_release);
      published.notify_one();
      thread.join();
    }
  };
  {
    const JoinOnExit joiner{completion, published, count};
    for (std::size_t i = 0; i < count; ++i) {
      row_of[i] = cursor++ % probe.rows.size();
      due[i] = t0 + static_cast<std::uint64_t>(period_ns * i);
      wait_until(due[i]);
      phase.late_us[i] = static_cast<double>(now_ns() - due[i]) * 1e-3;
      futures[i] = service.try_submit(probe.rows[row_of[i]]);
      if (!futures[i].has_value()) ++phase.shed;
      if (futures[i].has_value()) phase.due_ns.push_back(due[i]);
      published.store(i + 1, std::memory_order_release);
      published.notify_one();
    }
  }
  const std::uint64_t first = due.front();
  phase.completed_per_s =
      last_completion > first
          ? static_cast<double>(phase.served) * 1e9 /
                static_cast<double>(last_completion - first)
          : 0.0;
  return phase;
}

/// Requests in `seconds` at `rate`; at least 100.
std::size_t count_for(double rate, double seconds) {
  return std::max<std::size_t>(
      static_cast<std::size_t>(std::llround(rate * seconds)), 100);
}

/// A rung is sustainable when nothing failed, its median latency stays
/// within the limit, and so does the median over its last tenth: a
/// backlog that grows through the rung fails the second test. (A p99
/// test was measured too noisy on shared hosts: single scheduling stalls
/// of a few ms fail rungs far below capacity.)
bool sustainable(const Phase& p) {
  if (p.shed + p.errored > 0) return false;
  const std::size_t tail = std::max<std::size_t>(p.sent / 10, 20);
  const std::vector<double> last(p.latency_us.end() - tail,
                                 p.latency_us.end());
  return median(p.latency_us) <= kLimitUs && median(last) <= kLimitUs;
}

/// Folds a phase into the run totals and the correctness record.
void account(Report& report, const Phase& p, const char* name) {
  report.attempted += p.sent;
  report.failed += p.shed + p.errored;
  if (p.wrong > 0) {
    report.errors.push_back(std::string(name) + ": " +
                            std::to_string(p.wrong) +
                            " served results differ from the offline "
                            "reference");
  }
  if (p.served + p.shed + p.errored != p.sent) {
    report.errors.push_back(std::string(name) +
                            ": served + failed != sent");
  }
}

/// Rate ladder: climbs in kLadderStep steps from `start_rate` while rungs
/// are sustainable (a failing rung gets one retry, so one burst of host
/// noise does not end the climb), then bisects the last step three
/// times, geometrically. Returns the completion rate measured on the
/// best sustainable rung.
double rate_ladder(DetectionService& service, const Probe& probe,
                   double start_rate, double seconds, std::size_t& cursor,
                   Report& report) {
  double best = 0.0;
  std::string rungs;
  const auto try_rate = [&](double rate) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      const Phase rung = drive(service, probe, rate,
                               count_for(rate, kRungS * seconds), cursor);
      account(report, rung, "ladder");
      const bool ok = sustainable(rung);
      if (!rungs.empty()) rungs += ' ';
      rungs += std::to_string(std::llround(rate));
      rungs += ok ? '+' : '-';
      if (ok) {
        best = std::max(best, rung.completed_per_s);
        return true;
      }
    }
    return false;
  };
  double good = start_rate;
  double step = kLadderStep;
  // Start where the rate is sustainable: step down if noise fails it.
  for (int down = 0; down < 4 && !try_rate(good); ++down) good /= step;
  while (good < kMaxLadderRate && try_rate(good * step)) good *= step;
  for (int refine = 0; refine < 3; ++refine) {
    step = std::sqrt(step);
    if (try_rate(good * step)) good *= step;
  }
  report.info["ladder"] = rungs;
  return best;
}

/// A DetectionService over one model and density detector, with the
/// request rows and their offline reference.
class ServeBench {
 public:
  ServeBench(const Classifier& model, const ProfilePtr& profile, double tau,
             const DataGenerator& rows_from, std::uint64_t seed)
      : model_(&model),
        detector_(std::make_shared<DensityDetector>(profile)) {
    detector_->set_threshold(tau);
    Rng rng(seed);
    pool_ = rows_from.make_dataset(2048, rng).inputs();
    Classifier reference = model.clone();
    probe_.labels = reference.predict_labels(pool_);
    probe_.naturalness.resize(pool_.dim(0));
    detector_->score_batch(pool_, probe_.naturalness);
    probe_.tau = tau;
    for (std::size_t i = 0; i < pool_.dim(0); ++i) {
      probe_.rows.push_back(pool_.row(i));
    }
    config_.max_batch = 32;
    config_.max_delay_us = 200;
    config_.queue_capacity = 1 << 15;
    // Accurate sleeps for the dispatcher (the calling thread).
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  }
  // A traced service's scheduler thread writes into log_.
  ServeBench(const ServeBench&) = delete;
  ServeBench& operator=(const ServeBench&) = delete;

  /// Starts a service; a traced one serves through the decorators.
  std::unique_ptr<DetectionService> start(bool traced) {
    std::unique_ptr<ForwardScorer> scorer =
        std::make_unique<Classifier>(model_->clone());
    DetectorPtr detector = detector_;
    if (traced) {
      scorer = std::make_unique<TimedScorer>(std::move(scorer), &log_);
      detector = std::make_shared<TimedDetector>(detector_);
    }
    auto service = std::make_unique<DetectionService>(std::move(scorer),
                                                      detector, config_);
    service->start();
    drive(*service, probe_, kLowRate, count_for(kLowRate, 0.1), cursor_);
    log_.clear();  // the warm-up is not recorded
    return service;
  }

  struct Windows {
    std::vector<double> p50_low, p99_low, p50_high, p99_high, late;
    std::size_t sent = 0, failed = 0, low_batches = 0;
    Phase last_low, last_high;
  };

  /// Alternating low/high open-loop windows, `seconds` in total, so slow
  /// shifts in host load touch both; callers report medians over
  /// windows.
  Windows windows(DetectionService& service, int count, double seconds,
                  Report& report) {
    const double window_s = seconds / count;
    const std::size_t low_n = count_for(kLowRate, window_s * 2 / 3);
    const std::size_t high_n = count_for(kHighRate, window_s / 3);
    Windows out;
    for (int i = 0; i < count; ++i) {
      const std::size_t marks_before = log_.size();
      Phase low = drive(service, probe_, kLowRate, low_n, cursor_);
      out.low_batches = log_.size() - marks_before;
      Phase high = drive(service, probe_, kHighRate, high_n, cursor_);
      for (const Phase* p : {&low, &high}) {
        account(report, *p, p == &low ? "low" : "high");
        out.sent += p->sent;
        out.failed += p->shed + p->errored;
        out.late.insert(out.late.end(), p->late_us.begin(), p->late_us.end());
      }
      out.p50_low.push_back(tail_percentile(low.latency_us, 0.50));
      out.p99_low.push_back(tail_percentile(low.latency_us, 0.99));
      out.p50_high.push_back(tail_percentile(high.latency_us, 0.50));
      out.p99_high.push_back(tail_percentile(high.latency_us, 0.99));
      out.last_low = std::move(low);
      out.last_high = std::move(high);
    }
    report.info["samples.low"] = std::to_string(low_n * count);
    report.info["samples.high"] = std::to_string(high_n * count);
    return out;
  }

  double ladder(DetectionService& service, double seconds, Report& report) {
    return rate_ladder(service, probe_, kHighRate, seconds, cursor_, report);
  }

  const BatchLog& log() const { return log_; }

 private:
  const Classifier* model_;
  std::shared_ptr<DensityDetector> detector_;
  Tensor pool_;  // the request rows, one per row
  Probe probe_;
  serve::ServiceConfig config_;
  BatchLog log_;
  std::size_t cursor_ = 0;
};

}  // namespace

void trace_serving(const Setup& w, const Options& options, Report& report) {
  ThreadPool::configure_global(kServeThreads);
  ServeBench bench(*w.model, w.op.profile, w.tau, *w.op_generator,
                   derive_seed(options.seed, 400));
  const double s = options.seconds;
  const int windows = options.smoke ? 1 : kWindows;

  // Untraced: latency windows, then the rate ladder.
  auto service = bench.start(false);
  const auto plain = bench.windows(*service, windows, 0.4 * s, report);
  report.layers["serve.p50_us.low"] = median(plain.p50_low);
  report.layers["serve.p50_us.high"] = median(plain.p50_high);
  report.layers["serve.p99_us.low"] = median(plain.p99_low);
  report.layers["serve.p99_us.high"] = median(plain.p99_high);
  report.layers["serve.max_rps"] = bench.ladder(*service, s, report);
  service->stop();

  // Traced: one window through the decorators.
  service = bench.start(true);
  Tracer::set_enabled(true);
  const auto traced = bench.windows(*service, 1, 0.1 * s, report);
  service->stop();
  Tracer::set_enabled(false);
  ThreadPool::configure_global(0);
  const std::map<std::string, SpanTotals> spans = Tracer::collect();
  const auto span = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? SpanTotals{} : it->second;
  };

  // Queue wait of the low window: batch dispatch minus due time, with
  // requests matched to batches in admission (FIFO) order.
  const BatchLog& marks = bench.log();
  std::vector<double> waits;
  std::size_t request = 0;
  const Phase& low = traced.last_low;
  for (std::size_t b = 0; b < traced.low_batches; ++b) {
    for (std::size_t r = 0; r < marks[b].second; ++r, ++request) {
      if (request < low.due_ns.size()) {
        waits.push_back(
            static_cast<double>(marks[b].first - low.due_ns[request]) * 1e-3);
      }
    }
  }
  report.layers["serve.queue_wait_us"] = median(waits);
  const std::size_t high_batches = marks.size() - traced.low_batches;
  report.layers["serve.batch_size.mean"] =
      high_batches == 0 ? 0.0
                        : static_cast<double>(traced.last_high.served) /
                              static_cast<double>(high_batches);
  const SpanTotals logits = span("nn.logits");
  const SpanTotals scores = span("detect.score_batch");
  report.layers["nn.logits_us_per_row"] =
      logits.rows == 0 ? 0.0 : logits.total_us / logits.rows;
  report.layers["detect.score_batch_us_per_row"] =
      scores.rows == 0 ? 0.0 : scores.total_us / scores.rows;
  report.layers["serve.gen_late_us.p99"] = tail_percentile(traced.late, 0.99);
  report.layers["serve.fail_share"] =
      static_cast<double>(plain.failed + traced.failed) /
      static_cast<double>(plain.sent + traced.sent);
}

}  // namespace opad::perf
