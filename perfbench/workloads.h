// The benchmark's three workloads over the library's public API.
//
// Every workload builds its inputs from the run's seed, measures for the
// requested number of seconds (whole cycles of its unit of work, timed
// with the host's steal taken out), and returns a Report: end-to-end
// metrics, per-layer metrics (traced runs), and a payload of exact output
// values that run.py checks against the values pinned in pins.json.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace opad::perf {

struct Options {
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  // seconds-scale sizes; pins are kept separately
  bool record = false;  // run every input variant once, for the pins
};

struct Report {
  std::map<std::string, double> metrics;  // end-to-end
  std::map<std::string, double> layers;   // per-layer (traced runs)
  /// Exact outputs per input variant, for the pins.
  std::map<std::string, std::map<std::string, std::string>> payloads;
  std::map<std::string, std::string> info;     // sizes, sample counts
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// In-process correctness failures (payload drift between repeats,
  /// served results that differ from the offline reference).
  std::vector<std::string> errors;

  /// Records a repeat's payload: the first repeat of a variant sets it,
  /// later repeats (other thread counts included) must reproduce it.
  void check_payload(std::uint64_t variant,
                     const std::map<std::string, std::string>& p,
                     const std::string& context);
};

/// Number of pinned input variants. A measured run visits them in turn,
/// starting at seed % kVariants; a traced run uses variant
/// seed % kVariants alone.
inline constexpr std::uint64_t kVariants = 8;

Report run_detect(const Options& options);
Report run_pipeline(const Options& options);
Report run_stream(const Options& options);

// ---- shared helpers ----

double median(std::vector<double> values);

/// Nearest-rank percentile q in (0, 1) of `values` (misses included as
/// +inf); returns -1 unless at least 10 samples lie beyond it.
double tail_percentile(std::vector<double> values, double q);

/// Seconds since `start`.
double seconds_since(std::uint64_t start_ns);
std::uint64_t now_ns();

/// The clocks a measured interval is timed with: wall time, the
/// process's CPU time, and the host's steal time (/proc/stat: time the
/// hypervisor gave this machine's virtual CPUs to other guests while they
/// had work to run). A reading from now(), or the difference of two.
struct HostClock {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double steal_s = 0.0;

  static HostClock now();
  HostClock operator-(const HostClock& start) const {
    return {wall_s - start.wall_s, cpu_s - start.cpu_s,
            steal_s - start.steal_s};
  }
  HostClock& operator+=(const HostClock& other) {
    wall_s += other.wall_s;
    cpu_s += other.cpu_s;
    steal_s += other.steal_s;
    return *this;
  }
};

/// Wall seconds of an interval with the host's steal taken out: its wall
/// time scaled by cpu / (cpu + steal). On a shared host a busy phase
/// steals 30-50% of the benchmark's CPU time for minutes at a time and
/// stretches its wall time with it; scaled back, the interval reads what
/// it takes on CPUs the host does not take away. Idle pool lanes still
/// count, so thread scaling shows. The steal is that of the whole
/// machine, in which the benchmark is the only busy process; without
/// steal accounting the factor is 1.
double unstolen_s(const HostClock& interval);

/// The share of the process's CPU time the host stole over an interval.
double steal_share(const HostClock& interval);

/// Space-separated whole numbers, for per-repeat values in the report.
std::string join(const std::vector<double>& values);

/// Exact decimal spelling of a double (round-trips).
std::string exact(double v);

/// Peak RSS and the metrics every workload reports about itself.
void finish_report(Report& report);

}  // namespace opad::perf
