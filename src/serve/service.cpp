#include "serve/service.h"

#include <cmath>
#include <utility>
#include <vector>

#include "detect/density_detector.h"
#include "naturalness/density_naturalness.h"
#include "serve/detector.h"
#include "util/error.h"

namespace opad::serve {

namespace {

/// Rejects a request the scheduler could not serve, on the caller's
/// thread: a row of the wrong width would throw inside the batch, and a
/// non-finite value would be served as a plausible-looking verdict.
void validate_request(const Tensor& x, std::size_t input_dim) {
  OPAD_EXPECTS_MSG(x.size() == input_dim,
                   "request has " << x.size() << " values, the model takes "
                                  << input_dim);
  for (const float v : x.data()) {
    OPAD_EXPECTS_MSG(std::isfinite(v), "request holds a non-finite value");
  }
}

/// The legacy {profile, tau} pair as a zoo detector.
std::shared_ptr<const Detector> wrap_profile(ProfilePtr profile, double tau) {
  OPAD_EXPECTS(profile != nullptr);
  auto detector = std::make_shared<DensityDetector>(std::move(profile));
  detector->set_threshold(tau);
  return detector;
}

}  // namespace

DetectionService::DetectionService(std::unique_ptr<ForwardScorer> model,
                                   std::shared_ptr<const Detector> detector,
                                   ServiceConfig config,
                                   std::unique_ptr<OnlineDriftTrigger> trigger)
    : model_(std::move(model)),
      config_(config),
      trigger_(std::move(trigger)),
      queue_(config.queue_capacity) {
  OPAD_EXPECTS(model_ != nullptr);
  OPAD_EXPECTS(detector != nullptr);
  OPAD_EXPECTS_MSG(detector->fitted(),
                   "DetectionService requires a fitted detector");
  OPAD_EXPECTS(detector->dim() == model_->input_dim());
  OPAD_EXPECTS(config.max_batch > 0);
  OPAD_EXPECTS(config.tau_quantile > 0.0 && config.tau_quantile < 1.0);
  scoring_.store(std::make_shared<const Scoring>(
      Scoring{std::move(detector)}));
}

DetectionService::DetectionService(Classifier model,
                                   std::shared_ptr<const Detector> detector,
                                   ServiceConfig config,
                                   std::unique_ptr<OnlineDriftTrigger> trigger)
    : DetectionService(
          std::unique_ptr<ForwardScorer>(
              std::make_unique<Classifier>(std::move(model))),
          std::move(detector), config, std::move(trigger)) {}

DetectionService::DetectionService(QuantizedClassifier model,
                                   std::shared_ptr<const Detector> detector,
                                   ServiceConfig config,
                                   std::unique_ptr<OnlineDriftTrigger> trigger)
    : DetectionService(
          std::unique_ptr<ForwardScorer>(
              std::make_unique<QuantizedClassifier>(std::move(model))),
          std::move(detector), config, std::move(trigger)) {}

DetectionService::DetectionService(Classifier model, ProfilePtr profile,
                                   double tau, ServiceConfig config,
                                   std::unique_ptr<OnlineDriftTrigger> trigger)
    : DetectionService(std::move(model),
                       wrap_profile(std::move(profile), tau), config,
                       std::move(trigger)) {}

DetectionService::~DetectionService() { stop(); }

void DetectionService::start() {
  if (started_) return;
  started_ = true;
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

void DetectionService::stop() {
  queue_.close();
  if (scheduler_.joinable()) scheduler_.join();
}

std::future<DetectResult> DetectionService::submit(Tensor x) {
  validate_request(x, model_->input_dim());
  Request request{std::move(x), {}};
  std::future<DetectResult> future = request.promise.get_future();
  OPAD_EXPECTS_MSG(queue_.push(std::move(request)),
                   "submit() on a stopped DetectionService");
  return future;
}

std::optional<std::future<DetectResult>> DetectionService::try_submit(
    Tensor x) {
  validate_request(x, model_->input_dim());
  Request request{std::move(x), {}};
  std::future<DetectResult> future = request.promise.get_future();
  if (!queue_.try_push(std::move(request))) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  return future;
}

void DetectionService::scheduler_loop() {
  while (true) {
    std::vector<Request> batch = queue_.pop_batch(
        config_.max_batch, std::chrono::microseconds(config_.max_delay_us));
    if (batch.empty()) break;  // closed and drained
    serve_batch(batch);

    // Drift bookkeeping happens between batches on the scheduler: feed
    // every served input in completion order, then collect any finished
    // background re-fit and swap the scoring snapshot atomically.
    if (!trigger_) continue;
    for (const Request& request : batch) trigger_->observe(request.x);
    if (auto refit = trigger_->poll()) {
      // Re-fits always produce a density snapshot: the trigger's RefitFn
      // returns a profile, and tau is recalibrated on the refit sample —
      // numerically the exact pre-zoo swap.
      const DensityNaturalness metric(refit->profile);
      const double tau = naturalness_threshold(metric, refit->sample,
                                               config_.tau_quantile);
      scoring_.store(std::make_shared<const Scoring>(
          Scoring{wrap_profile(std::move(refit->profile), tau)}));
      refits_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void DetectionService::serve_batch(std::vector<Request>& batch) {
  const std::size_t n = batch.size();
  Tensor inputs({n, model_->input_dim()});
  for (std::size_t i = 0; i < n; ++i) {
    inputs.set_row(i, batch[i].x.data());
  }
  const std::shared_ptr<const Scoring> scoring = scoring_.load();
  std::vector<DetectResult> results(n);
  score_batch(*model_, *scoring->detector, inputs, results);
  for (std::size_t i = 0; i < n; ++i) {
    batch[i].promise.set_value(results[i]);
  }
  served_.fetch_add(n, std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t seen = max_batch_seen_.load(std::memory_order_relaxed);
  while (n > seen &&
         !max_batch_seen_.compare_exchange_weak(seen, n,
                                                std::memory_order_relaxed)) {
  }
}

ServiceStats DetectionService::stats() const {
  ServiceStats stats;
  stats.served = served_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.max_batch_seen = max_batch_seen_.load(std::memory_order_relaxed);
  stats.refits = refits_.load(std::memory_order_relaxed);
  return stats;
}

std::shared_ptr<const Detector> DetectionService::detector() const {
  return scoring_.load()->detector;
}

ProfilePtr DetectionService::profile() const {
  const std::shared_ptr<const Detector> detector = scoring_.load()->detector;
  if (const auto* density =
          dynamic_cast<const DensityDetector*>(detector.get())) {
    return density->profile();
  }
  return nullptr;
}

double DetectionService::tau() const {
  return scoring_.load()->detector->threshold();
}

}  // namespace opad::serve
