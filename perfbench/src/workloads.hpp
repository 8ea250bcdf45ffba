// The benchmark's workloads and the layer measurements they share.
//
// Every run prints the same metric names whatever the workload (see
// README.md): a workload that does not exercise a layer itself measures it
// on a small fixed probe, so every figure is a real measurement.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <vector>

#include "graph/graph.hpp"
#include "report.hpp"
#include "tracer.hpp"

namespace perfbench {

struct Context {
  std::uint64_t seed = 1;
  /// Wall seconds the timed part of the run should last.
  double seconds = 10.0;
  /// The traced run: spans on, per-layer metrics out.
  bool traced = false;
  Tracer& tracer;
  Report& report;
  /// Progress and diagnostic lines (stderr).
  std::ostream& log;
};

void run_train_resnet152(Context& ctx);
void run_corun_fuzz_pair(Context& ctx);
void run_serve_fleet(Context& ctx);

// -- layer measurements shared across workloads -----------------------------

/// The tenants a host run steps: the graphs to build for a session (timed
/// as set-up) and the graph each tenant steps. Tenants may share a graph;
/// their tensors are namespaced by tenant index, so their checksums still
/// differ.
struct HostPlan {
  std::function<std::vector<opsched::Graph>(std::size_t session)> build;
  std::vector<std::size_t> tenant_graph;
  std::uint64_t tensor_seed = 0;
  /// Independent set-ups a run makes, each followed by an equal share of
  /// the timed loop (see README.md, Sessions); a multiple of four, so the
  /// quietest quarter holds whole sessions and at least 11 steps.
  std::size_t sessions = 24;
  /// Whether build() draws a different graph for each session; if not, the
  /// serial reference is computed once for the whole run.
  bool graph_per_session = false;
};

/// Traced run of a workload that is not host-bound (serve_fleet): steps
/// `plan` co-located for `seconds` and emits every host-layer per-layer
/// metric (models, ops, perf, core, baseline) from it.
void host_layer_probe(Context& ctx, const HostPlan& plan, double seconds);

/// Traced run of a host workload: replays the fleet mix's base rung on a
/// short trace and emits every serve/cluster per-layer metric from it.
void fleet_layer_probe(Context& ctx);

/// threading.fork_join_us and threading.handoff_us.
void threading_probe(Context& ctx);

/// machine.sim_step_us: wall µs per simulated co-located step of `graphs`.
void machine_probe(Context& ctx,
                   const std::vector<const opsched::Graph*>& graphs);

}  // namespace perfbench
