#include "tracer.hpp"

#include <chrono>
#include <fstream>
#include <iomanip>
#include <stdexcept>

namespace perfbench {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t Tracer::begin(const char* layer, const char* call) {
  const std::size_t parent = open_.empty() ? kNoParent : open_.back();
  spans_.push_back(Record{layer, call, group_, parent, now_ms(), 0.0});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t span) {
  if (open_.empty() || open_.back() != span)
    throw std::logic_error("perfbench tracer: spans closed out of order");
  spans_[span].end_ms = now_ms();
  open_.pop_back();
}

std::map<std::string, Tracer::LayerTime> Tracer::layer_times() const {
  // Children are nested and never overlap, so the time they cover is the
  // sum of their durations.
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Record& r : spans_)
    if (r.parent != kNoParent) child_ms[r.parent] += r.end_ms - r.start_ms;
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    LayerTime& t = out[r.layer];
    t.span_ms += r.end_ms - r.start_ms;
    t.self_ms += r.end_ms - r.start_ms - child_ms[i];
    ++t.spans;
  }
  return out;
}

void Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start_ms;
  out << std::fixed << std::setprecision(3) << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << r.layer << ':' << r.call
        << "\",\"cat\":\"" << r.layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << (r.start_ms - t0) * 1000.0
        << ",\"dur\":" << (r.end_ms - r.start_ms) * 1000.0
        << ",\"args\":{\"span\":" << i << ",\"parent\":"
        << (r.parent == kNoParent ? -1 : static_cast<long long>(r.parent))
        << ",\"id\":" << r.group << "}}";
  }
  out << "\n]\n";
  if (!out) throw std::runtime_error("perfbench: short write to " + path);
}

}  // namespace perfbench
