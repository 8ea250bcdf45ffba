// Span recorder for the traced run. The benchmark wraps every call it makes
// into a library layer in a Span: layer, call name, start, end, the span
// that was open when it started (its parent), and the id of the step or
// pump it belongs to. Spans stay in memory and are written as Chrome trace
// JSON when the run ends. A disabled tracer records nothing, so the timed
// runs pay one branch per wrapped call.
//
// The benchmark drives the library from one thread, so spans nest strictly:
// a child starts and ends inside its parent, and siblings never overlap.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Milliseconds on the steady clock.
double now_ms();

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }
  /// Toggle only while no span is open (the overhead comparison runs the
  /// same loop with recording off, then on).
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Spans begun from now on carry a fresh id, shared by every span of one
  /// step or pump, until end_group() returns them to id 0 (set-up, probes).
  void begin_group() noexcept { group_ = ++last_group_; }
  void end_group() noexcept { group_ = 0; }

  std::size_t begin(const char* layer, const char* call);
  void end(std::size_t span);

  struct LayerTime {
    double span_ms = 0.0;  // summed duration of the layer's spans
    double self_ms = 0.0;  // the same minus time covered by child spans
    std::size_t spans = 0;
  };
  /// Per-layer totals. Nested spans of one layer each count, so span_ms
  /// can exceed wall time; self_ms never double-counts.
  std::map<std::string, LayerTime> layer_times() const;

  /// Chrome trace-event JSON (complete "X" events, microseconds).
  void write_chrome(const std::string& path) const;

  std::size_t size() const noexcept { return spans_.size(); }

 private:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
  struct Record {
    const char* layer;
    const char* call;
    std::uint64_t group;
    std::size_t parent;
    double start_ms;
    double end_ms;
  };

  bool enabled_;
  std::uint64_t group_ = 0;
  std::uint64_t last_group_ = 0;
  std::vector<Record> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a no-op on a disabled tracer.
class Span {
 public:
  Span(Tracer& tracer, const char* layer, const char* call)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.begin(layer, call) : 0) {}
  ~Span() {
    if (tracer_.enabled()) tracer_.end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::size_t index_;
};

}  // namespace perfbench
