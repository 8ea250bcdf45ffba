// Result bookkeeping shared by every workload: the metric map printed as the
// run's last stdout line, the pass/fail tally behind `correct`, `attempted`
// and `failed`, and the tail statistic timings are reported with (medians
// and percentiles come from util/stats.hpp).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// One attempted unit of work (a tenant step, a request, a job); `ok`
  /// false counts it as failed and logs `what` to stderr.
  void attempt(bool ok, const std::string& what = "") {
    attempts(1, ok ? 0 : 1, what);
  }
  /// `n` attempts of which `failed` failed (logged once with `what`).
  void attempts(std::size_t n, std::size_t failed, const std::string& what);
  /// A correctness check that is not itself an attempt (a replay identity,
  /// a conservation law): a failure marks the run incorrect and is counted
  /// as one failed attempt.
  void check(bool ok, const std::string& what);

  bool correct() const noexcept { return failed_ == 0; }
  std::size_t attempted() const noexcept { return attempted_; }
  std::size_t failed() const noexcept { return failed_; }
  const std::map<std::string, Metric>& metrics() const noexcept {
    return metrics_;
  }

  /// The result object: {"correct", "attempted", "failed", "metrics"}.
  std::string to_json() const;

 private:
  std::map<std::string, Metric> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// The tail statistic every timing is reported with: the highest
/// percentile that still has at least ten samples beyond it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  // in (0, 100)
  std::size_t samples = 0;
};
/// Throws std::invalid_argument when fewer than 11 samples exist.
Tail tail_of(std::vector<double> xs);

}  // namespace perfbench
