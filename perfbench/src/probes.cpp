// Layer probes that do not depend on the workload's own loop: thread-team
// fork/join and launcher hand-off latency (threading), and the simulator's
// wall cost per co-located step (machine).
#include <algorithm>
#include <atomic>
#include <thread>

#include "core/runtime.hpp"
#include "threading/launch_pad.hpp"
#include "threading/team_pool.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace opsched;

namespace {
constexpr int kProbeIters = 2000;
}  // namespace

void threading_probe(Context& ctx) {
  const std::size_t cores = host_logical_cores();

  // A no-op run_on_all on a cores-wide pinned team: one fork and one join.
  TeamPool pool(cores);
  ThreadTeam& team = pool.team_pinned(cores, CoreSet::all(cores));
  const auto noop = [](std::size_t) {};
  team.run_on_all(noop);  // workers spawned and parked
  std::vector<double> fork_join;
  for (int i = 0; i < kProbeIters; ++i) {
    Span span(ctx.tracer, "threading", "run_on_all");
    const double t0 = now_ms();
    team.run_on_all(noop);
    fork_join.push_back((now_ms() - t0) * 1000.0);
  }
  ctx.report.metric("threading.fork_join_us", median(fork_join), "us");

  // A no-op LaunchPad::launch, waited on until the launcher has run it.
  LaunchPad pad(cores);
  std::vector<double> handoff;
  for (int i = 0; i < kProbeIters; ++i) {
    Span span(ctx.tracer, "threading", "LaunchPad::launch");
    std::atomic<bool> done{false};
    const double t0 = now_ms();
    pad.launch([&done] { done.store(true, std::memory_order_release); });
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
    handoff.push_back((now_ms() - t0) * 1000.0);
  }
  ctx.report.metric("threading.handoff_us", median(handoff), "us");
}

void machine_probe(Context& ctx, const std::vector<const Graph*>& graphs) {
  Runtime rt(MachineSpec::knl());
  {
    Span span(ctx.tracer, "perf", "profile_multi");
    rt.profile_multi(graphs);
  }
  // Time-boxed: a simulated step over the fuzz pair's graphs takes seconds.
  std::vector<double> us;
  const double stop = now_ms() + 1000.0;
  while (us.empty() || (now_ms() < stop && us.size() < 200)) {
    Span span(ctx.tracer, "machine", "run_step_multi");
    const double t0 = now_ms();
    const std::vector<StepResult> r = rt.run_step_multi(graphs);
    us.push_back((now_ms() - t0) * 1000.0);
    std::size_t ops = 0, want = 0;
    for (const StepResult& x : r) ops += x.ops_run;
    for (const Graph* g : graphs) want += g->size();
    ctx.report.check(ops == want, "simulated step dropped ops");
  }
  ctx.report.metric("machine.sim_step_us", median(us), "us");
}

}  // namespace perfbench
