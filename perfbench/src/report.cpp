#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value))
    throw std::logic_error("metric " + name + " is not finite");
  metrics_[name] = Metric{value, unit};
}

void Report::attempts(std::size_t n, std::size_t failed,
                      const std::string& what) {
  attempted_ += n;
  failed_ += failed;
  if (failed > 0)
    std::cerr << "perfbench: FAILED " << failed << " of " << n << ": " << what
              << "\n";
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) attempts(1, 1, "check: " + what);
}

std::string Report::to_json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    char value[64];
    // %.17g keeps every digit the double holds.
    std::snprintf(value, sizeof value, "%.17g", m.value);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

Tail tail_of(std::vector<double> xs) {
  constexpr std::size_t kBeyond = 10;
  if (xs.size() <= kBeyond)
    throw std::invalid_argument("tail needs more than 10 samples");
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  Tail t;
  t.value = xs[n - kBeyond - 1];
  t.percentile = 100.0 * static_cast<double>(n - kBeyond) /
                 static_cast<double>(n);
  t.samples = n;
  return t;
}

}  // namespace perfbench
