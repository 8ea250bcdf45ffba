// The host workloads: real kernels on real threads through the native
// executor, stepped in a closed loop (the next step starts when the previous
// one ends).
//   train_resnet152  one tenant, the ResNet-152 host training graph;
//   corun_fuzz_pair  two tenants of one seeded 1,000-op tiny-tensor fuzz
//                    graph, stepped co-located by run_step_multi_host.
// Every step's checksum must equal its tenant's serial reference and every
// op must run; anything else is a failed attempt.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>

#include "core/runtime.hpp"
#include "models/zoo.hpp"
#include "testing/graph_fuzz.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace opsched;

namespace {

constexpr int kWarmupSteps = 2;
/// Closed-loop step deadline for the host workloads' SLO metrics: a step
/// taking more than this multiple of its session's median step is a stall.
constexpr double kStallFactor = 1.5;
/// The run's figures come from the pooled steps of its quietest quarter of
/// sessions, ranked by median step. Interference from outside the process
/// only adds time, and comes in episodes of seconds that can slow a run's
/// steps fivefold; this keeps it out of the figures unless it covers more
/// than three quarters of the run.
constexpr std::size_t kQuietShare = 4;
/// Every session's timed loop takes at least this many steps, so the quiet
/// pool holds enough for a tail with ten steps beyond it.
constexpr std::size_t kMinSteps = 5;
/// corun_fuzz_pair draws one graph per session, so it needs more sessions
/// to average out graph structure (see README.md, Sessions).
constexpr std::size_t kPairSessions = 48;

struct SetupTimes {
  double build_ms = 0.0;
  double bind_ms = 0.0;
  double profile_ms = 0.0;
  double setup_ms = 0.0;  // all of the above plus the warm-up steps
};

/// One complete set-up: graphs built, programs bound, every unique op
/// profiled on real teams, warm-up steps run.
struct HostSession {
  std::vector<Graph> graphs;
  std::vector<std::unique_ptr<HostGraphProgram>> owned;
  std::vector<HostGraphProgram*> programs;
  std::unique_ptr<Runtime> rt;
  ProfilingReport profile;
  SetupTimes times;

  std::vector<const Graph*> graph_ptrs() const {
    std::vector<const Graph*> out;
    for (const HostGraphProgram* p : programs) out.push_back(&p->graph());
    return out;
  }
  std::size_t ops_per_step() const {
    std::size_t n = 0;
    for (const HostGraphProgram* p : programs) n += p->graph().size();
    return n;
  }
};

std::vector<StepResult> step(Context& ctx, HostSession& s) {
  if (s.programs.size() == 1) {
    Span span(ctx.tracer, "core", "run_step_host");
    return {s.rt->run_step_host(*s.programs[0])};
  }
  Span span(ctx.tracer, "core", "run_step_multi_host");
  return s.rt->run_step_multi_host(s.programs);
}

/// Checks every tenant's result of one timed step: one attempt per tenant.
void gate_step(Context& ctx, const HostSession& s,
               const std::vector<double>& reference,
               const std::vector<StepResult>& results) {
  ctx.report.check(results.size() == s.programs.size(),
                   "a step returned the wrong number of tenant results");
  for (std::size_t t = 0; t < results.size() && t < s.programs.size(); ++t)
    ctx.report.attempt(results[t].checksum == reference[t] &&
                           results[t].ops_run == s.programs[t]->graph().size(),
                       "timed step: tenant " + std::to_string(t) +
                           " checksum or op count differs from the serial "
                           "reference");
}

HostSession set_up(Context& ctx, const HostPlan& plan, std::size_t session) {
  HostSession s;
  Span span(ctx.tracer, "bench", "setup");
  const double t0 = now_ms();
  {
    Span build(ctx.tracer, "models", "build");
    s.graphs = plan.build(session);
  }
  const double t1 = now_ms();
  {
    Span bind(ctx.tracer, "ops", "HostGraphProgram");
    for (std::size_t t = 0; t < plan.tenant_graph.size(); ++t) {
      s.owned.push_back(std::make_unique<HostGraphProgram>(
          s.graphs.at(plan.tenant_graph[t]), plan.tensor_seed, t));
      s.programs.push_back(s.owned.back().get());
    }
  }
  const double t2 = now_ms();
  s.rt = std::make_unique<Runtime>(MachineSpec::knl());
  {
    Span profile(ctx.tracer, "perf", "profile_host_multi");
    s.profile = s.rt->profile_host_multi(s.programs, /*repeats=*/1);
  }
  const double t3 = now_ms();
  for (int w = 0; w < kWarmupSteps; ++w) (void)step(ctx, s);
  s.times.build_ms = t1 - t0;
  s.times.bind_ms = t2 - t1;
  s.times.profile_ms = t3 - t2;
  s.times.setup_ms = now_ms() - t0;
  return s;
}

/// Serial reference checksum per tenant, from freshly bound programs.
/// Runs outside the timed set-up: it is the benchmark's check, not a cost a
/// user pays.
std::vector<double> serial_references(Context& ctx, const HostSession& s,
                                      const HostPlan& plan, double* ms) {
  Span span(ctx.tracer, "ops", "run_node_reference");
  const double t0 = now_ms();
  std::vector<double> out;
  for (std::size_t t = 0; t < s.programs.size(); ++t) {
    const Graph& g = s.programs[t]->graph();
    HostGraphProgram ref(g, plan.tensor_seed, t);
    for (const Node& node : g.nodes()) ref.run_node_reference(node.id);
    out.push_back(ref.step_checksum());
  }
  *ms = now_ms() - t0;
  return out;
}

/// The closed loop: steps back to back for `seconds` (and at least
/// kMinSteps steps), gating each.
struct TimedSteps {
  std::vector<double> wall_ms;  // per co-located step
  std::vector<std::vector<StepResult>> results;  // event traces dropped
  /// Per step, the p99 over the step's ops (every tenant's) of an op's
  /// latency from ready (its last input done, or the step's start) to done.
  std::vector<double> op_p99_ms;
};

/// Appends each op's ready-to-done latency in `r`'s event trace.
void add_op_latencies(const Graph& g, const StepResult& r,
                      std::vector<double>& out) {
  std::vector<double> done(g.size(), 0.0);
  for (const TraceEvent& e : r.trace.events())
    if (!e.is_launch) done[e.node] = e.time_ms;
  for (const Node& node : g.nodes()) {
    double ready = 0.0;
    for (const NodeId in : node.inputs) ready = std::max(ready, done[in]);
    out.push_back(done[node.id] - ready);
  }
}

TimedSteps closed_loop(Context& ctx, HostSession& s,
                       const std::vector<double>& reference, double seconds) {
  TimedSteps out;
  const double stop = now_ms() + seconds * 1000.0;
  while (now_ms() < stop || out.wall_ms.size() < kMinSteps) {
    ctx.tracer.begin_group();
    Span span(ctx.tracer, "bench", "step");
    const double t0 = now_ms();
    std::vector<StepResult> r = step(ctx, s);
    out.wall_ms.push_back(now_ms() - t0);
    gate_step(ctx, s, reference, r);
    std::vector<double> op_ms;
    for (std::size_t t = 0; t < r.size() && t < s.programs.size(); ++t) {
      add_op_latencies(s.programs[t]->graph(), r[t], op_ms);
      r[t].trace = EventTrace();
    }
    out.op_p99_ms.push_back(percentile(op_ms, 99.0));
    out.results.push_back(std::move(r));
  }
  ctx.tracer.end_group();
  return out;
}

/// The end-to-end figures over the pooled timed steps of `quiet`. The
/// rates and costs are taken at the pool's median step, not over the
/// loops' wall time, so a stall moves them no more than it moves the p50.
std::map<std::string, double> quiet_figures(
    Context& ctx, const std::vector<const TimedSteps*>& quiet,
    double tenants, double ops_per_step) {
  std::vector<double> wall_ms, op_p99_ms;
  double tenant_steps = 0.0, on_time = 0.0;
  for (const TimedSteps* timed : quiet) {
    wall_ms.insert(wall_ms.end(), timed->wall_ms.begin(),
                   timed->wall_ms.end());
    op_p99_ms.insert(op_p99_ms.end(), timed->op_p99_ms.begin(),
                     timed->op_p99_ms.end());
    std::vector<double> tenant_ms;
    for (const auto& step_results : timed->results)
      for (const StepResult& r : step_results) tenant_ms.push_back(r.time_ms);
    // Sessions may step different graphs, so each has its own deadline.
    const double deadline = kStallFactor * median(tenant_ms);
    on_time += static_cast<double>(
        std::count_if(tenant_ms.begin(), tenant_ms.end(),
                      [&](double ms) { return ms <= deadline; }));
    tenant_steps += static_cast<double>(tenant_ms.size());
  }
  const Tail tail = tail_of(wall_ms);
  const double p50 = median(wall_ms);
  const double attainment = on_time / tenant_steps;
  ctx.log << "quiet pool: " << quiet.size() << " sessions, "
          << wall_ms.size() << " steps, p50 " << p50 << " ms, tail (p"
          << tail.percentile << ") " << tail.value << " ms, op p99 "
          << median(op_p99_ms) << " ms\n";
  return {
      {"step_ms_p50", p50},
      {"step_ms_tail", tail.value},
      {"train_steps_per_s", tenants * 1000.0 / p50},
      {"latency_p99_ms", median(op_p99_ms)},
      {"slo_attainment", attainment},
      {"max_rps_at_slo", attainment * tenants * 1000.0 / p50},
      // A host "request" is one op the runtime replays.
      {"replay_us_per_request", p50 * 1000.0 / ops_per_step},
  };
}

// -- traced-run analysis -----------------------------------------------------

struct NodeTimes {
  std::vector<double> w1;  // ms on a width-1 pool team
  std::vector<double> wn;  // ms on a full-width pinned pool team
};

/// Times every node of every tenant with run_node at width 1 and at full
/// width (best of `reps` runs each).
std::vector<NodeTimes> time_nodes(Context& ctx, HostSession& s, int reps) {
  TeamPool& pool = s.rt->host_pool();
  const std::size_t cores = pool.max_width();
  ThreadTeam& one = pool.team(1);
  ThreadTeam& all = pool.team_pinned(cores, CoreSet::all(cores));
  std::vector<NodeTimes> out;
  for (HostGraphProgram* p : s.programs) {
    NodeTimes nt;
    for (const Node& node : p->graph().nodes()) {
      double best1 = INFINITY, bestn = INFINITY;
      for (int r = 0; r < reps; ++r) {
        {
          Span span(ctx.tracer, "ops", "run_node/width1");
          const double t0 = now_ms();
          p->run_node(node.id, one);
          best1 = std::min(best1, now_ms() - t0);
        }
        {
          Span span(ctx.tracer, "ops", "run_node/full");
          const double t0 = now_ms();
          p->run_node(node.id, all);
          bestn = std::min(bestn, now_ms() - t0);
        }
      }
      nt.w1.push_back(best1);
      nt.wn.push_back(bestn);
    }
    out.push_back(std::move(nt));
  }
  return out;
}

/// Median step of `fn` over `n` runs after one warm-up, gating checksums.
template <typename Fn>
double baseline_step_ms(Context& ctx, const HostSession& s, std::size_t t,
                        double reference, int n, Fn fn) {
  std::vector<double> ms;
  for (int i = 0; i <= n; ++i) {
    const StepResult r = fn();
    const bool ok = r.checksum == reference &&
                    r.ops_run == s.programs[t]->graph().size();
    ctx.report.attempt(ok, "baseline step: checksum or op count differs");
    if (i > 0) ms.push_back(r.time_ms);
  }
  return median(ms);
}

void emit_layers(Context& ctx, HostSession& s, const TimedSteps& timed,
                 const std::vector<double>& reference,
                 const std::vector<SetupTimes>& setups, double reference_ms) {
  Report& rep = ctx.report;
  const std::size_t cores = s.rt->host_pool().max_width();

  // models / ops / perf: set-up phases, medians over the set-ups.
  std::vector<double> build, bind, profile;
  for (const SetupTimes& x : setups) {
    build.push_back(x.build_ms);
    bind.push_back(x.bind_ms);
    profile.push_back(x.profile_ms);
  }
  rep.metric("models.build_ms", median(build), "ms");
  rep.metric("ops.bind_ms", median(bind), "ms");
  rep.metric("perf.profile_ms", median(profile), "ms");
  rep.metric("perf.unique_ops", static_cast<double>(s.profile.unique_ops),
             "count");
  rep.metric("perf.samples", static_cast<double>(s.profile.total_samples),
             "count");
  rep.metric("ops.reference_pass_ms", reference_ms, "ms");
  std::size_t exact = 0;
  for (const HostGraphProgram* p : s.programs) exact += p->exact_bindings();
  rep.metric("ops.exact_share",
             static_cast<double>(exact) /
                 static_cast<double>(s.ops_per_step()),
             "frac");

  // ops: per-node kernel time, and the two lower bounds built from it.
  const std::vector<NodeTimes> nodes = time_nodes(ctx, s, /*reps=*/3);
  double w1_total = 0.0, work = 0.0, critical = 0.0;
  std::map<std::string, double> kind_ms;
  for (std::size_t t = 0; t < s.programs.size(); ++t) {
    const Graph& g = s.programs[t]->graph();
    const NodeTimes& nt = nodes[t];
    std::vector<double> finish(g.size(), 0.0);
    for (const NodeId id : g.topo_order()) {
      const Node& node = g.node(id);
      w1_total += nt.w1[id];
      kind_ms[std::string(op_kind_name(node.kind))] += nt.w1[id];
      work += std::min(nt.w1[id], static_cast<double>(cores) * nt.wn[id]);
      double ready = 0.0;
      for (const NodeId in : node.inputs) ready = std::max(ready, finish[in]);
      finish[id] = ready + std::min(nt.w1[id], nt.wn[id]);
      critical = std::max(critical, finish[id]);
    }
  }
  work /= static_cast<double>(cores);
  rep.metric("ops.width1_work_ms", w1_total, "ms");
  std::vector<std::pair<double, std::string>> kinds;
  for (const auto& [kind, ms] : kind_ms) kinds.emplace_back(ms, kind);
  std::sort(kinds.rbegin(), kinds.rend());
  for (std::size_t k = 0; k < 5; ++k) {
    const double ms = k < kinds.size() ? kinds[k].first : 0.0;
    rep.metric("ops.kind_ms.top" + std::to_string(k + 1), ms, "ms");
    if (k < kinds.size())
      ctx.log << "ops.kind_ms.top" << k + 1 << " = " << kinds[k].second
              << " " << ms << " ms\n";
  }

  // core.admission and core.host_corun, from the traced timed steps.
  std::vector<double> sched, ns_launch, idle, jain, skew;
  double ops = 0.0, hits = 0.0, guards = 0.0, coruns = 0.0, overlays = 0.0;
  double mean_corun = 0.0;
  for (const auto& results : timed.results) {
    double service = 0.0, makespan = 0.0, step_ops = 0.0;
    double lo = INFINITY, hi = 0.0;
    std::vector<double> per_tenant;
    for (const StepResult& r : results) {
      step_ops += static_cast<double>(r.ops_run);
      hits += static_cast<double>(r.cache_hits);
      guards += static_cast<double>(r.guard_fallbacks);
      coruns += static_cast<double>(r.corun_launches);
      overlays += static_cast<double>(r.overlay_launches);
      mean_corun += r.mean_corun;
      service += r.service_ms;
      makespan = std::max(makespan, r.time_ms);
      lo = std::min(lo, r.time_ms);
      hi = std::max(hi, r.time_ms);
      per_tenant.push_back(r.service_ms);
    }
    ops += step_ops;
    sched.push_back(results.front().sched_ms);
    ns_launch.push_back(results.front().sched_ms * 1e6 / step_ops);
    idle.push_back(static_cast<double>(cores) * makespan - service);
    jain.push_back(jain_index(per_tenant));
    skew.push_back(hi / lo);
  }
  const auto n_steps = static_cast<double>(timed.results.size());
  const double tenant_steps = n_steps * static_cast<double>(s.programs.size());
  const double p50 = median(timed.wall_ms);
  rep.metric("core.sched_ms", median(sched), "ms");
  rep.metric("core.ns_per_launch", median(ns_launch), "ns");
  rep.metric("core.cache_hit_ratio", hits / ops, "frac");
  rep.metric("core.guard_fallbacks", guards / n_steps, "count");
  rep.metric("core.corun_launches", coruns / n_steps, "count");
  rep.metric("core.overlay_launches", overlays / n_steps, "count");
  rep.metric("core.mean_corun", mean_corun / tenant_steps, "ops");
  rep.metric("core.idle_core_ms", median(idle), "ms");
  rep.metric("core.lb_work_ms", work, "ms");
  rep.metric("core.lb_critical_path_ms", critical, "ms");
  rep.metric("core.efficiency", std::max(work, critical) / p50, "frac");
  rep.metric("core.fairness_jain", median(jain), "frac");
  rep.metric("core.tenant_skew", median(skew), "ratio");

  // core.controller: a decision rebuild over the workload's graphs.
  std::vector<double> rebuild;
  for (int i = 0; i < 5; ++i) {
    Span span(ctx.tracer, "core", "rebuild_decisions");
    const double t0 = now_ms();
    s.rt->rebuild_decisions(s.graph_ptrs());
    rebuild.push_back(now_ms() - t0);
  }
  rep.metric("core.rebuild_ms", median(rebuild), "ms");

  // Paper-claim baselines on the same programs, summed over tenants.
  double recommendation = 0.0, fifo = 0.0, solo = 0.0;
  for (std::size_t t = 0; t < s.programs.size(); ++t) {
    HostGraphProgram& p = *s.programs[t];
    Runtime& rt = *s.rt;
    recommendation += baseline_step_ms(ctx, s, t, reference[t], 3, [&] {
      Span span(ctx.tracer, "core", "run_step_host_recommendation");
      return rt.run_step_host_recommendation(p);
    });
    fifo += baseline_step_ms(ctx, s, t, reference[t], 2, [&] {
      Span span(ctx.tracer, "core", "run_step_host_fifo");
      return rt.run_step_host_fifo(p, 1, 1);
    });
    solo += baseline_step_ms(ctx, s, t, reference[t], 3, [&] {
      Span span(ctx.tracer, "core", "run_step_host");
      return rt.run_step_host(p);
    });
  }
  rep.metric("baseline.recommendation_step_ms", recommendation, "ms");
  rep.metric("baseline.fifo1x1_step_ms", fifo, "ms");
  rep.metric("baseline.solo_sequential_ms", solo, "ms");
  ctx.log << "baselines: adaptive p50 " << p50 << " ms; recommendation "
          << recommendation << " ms; fifo(1,1) " << fifo
          << " ms; solo-sequential " << solo << " ms (sums over tenants)\n";
}

/// Timed loop of a traced run: the same loop with spans off, then on; the
/// p50 difference is the tracing overhead.
TimedSteps traced_loops(Context& ctx, HostSession& s,
                        const std::vector<double>& reference, double seconds) {
  ctx.tracer.set_enabled(false);
  const TimedSteps plain = closed_loop(ctx, s, reference, seconds / 2.0);
  ctx.tracer.set_enabled(true);
  TimedSteps traced = closed_loop(ctx, s, reference, seconds / 2.0);
  const double overhead =
      median(traced.wall_ms) / median(plain.wall_ms) - 1.0;
  ctx.report.metric("trace.overhead_frac", overhead, "frac");
  ctx.log << "tracing overhead: step p50 " << median(traced.wall_ms)
          << " ms traced vs " << median(plain.wall_ms)
          << " ms untraced\n";
  return traced;
}

void run_host(Context& ctx, const HostPlan& plan) {
  HostSession s;
  std::vector<SetupTimes> setups;
  std::vector<double> reference;
  double reference_ms = 0.0;
  std::vector<TimedSteps> sessions;
  for (std::size_t i = 0; i < plan.sessions; ++i) {
    s = HostSession();  // one bound session alive at a time
    s = set_up(ctx, plan, i);
    setups.push_back(s.times);
    if (i == 0 || plan.graph_per_session)
      reference = serial_references(ctx, s, plan, &reference_ms);
    if (ctx.traced) continue;
    sessions.push_back(closed_loop(
        ctx, s, reference, ctx.seconds / static_cast<double>(plan.sessions)));
    ctx.log << "session " << i << ": set-up " << s.times.setup_ms
            << " ms, " << sessions.back().wall_ms.size() << " steps, p50 "
            << median(sessions.back().wall_ms) << " ms\n";
  }
  if (!ctx.traced) {
    std::vector<std::pair<double, const TimedSteps*>> ranked;
    for (const TimedSteps& t : sessions)
      ranked.emplace_back(median(t.wall_ms), &t);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<const TimedSteps*> quiet;
    for (std::size_t i = 0; i < plan.sessions / kQuietShare; ++i)
      quiet.push_back(ranked[i].second);
    static const std::map<std::string, std::string> units = {
        {"step_ms_p50", "ms"},
        {"step_ms_tail", "ms"},
        {"train_steps_per_s", "steps/s"},
        {"latency_p99_ms", "ms"},
        {"slo_attainment", "frac"},
        {"max_rps_at_slo", "req/s"},
        {"replay_us_per_request", "us"}};
    for (const auto& [name, value] :
         quiet_figures(ctx, quiet, static_cast<double>(s.programs.size()),
                       static_cast<double>(s.ops_per_step())))
      ctx.report.metric(name, value, units.at(name));
    std::vector<double> setup_s;
    for (const SetupTimes& x : setups) setup_s.push_back(x.setup_ms / 1000.0);
    ctx.report.metric("setup_s", percentile(setup_s, 25.0), "s");
    return;
  }
  const TimedSteps timed = traced_loops(ctx, s, reference, ctx.seconds);
  emit_layers(ctx, s, timed, reference, setups, reference_ms);
  machine_probe(ctx, s.graph_ptrs());
  threading_probe(ctx);
  fleet_layer_probe(ctx);
}

}  // namespace

void host_layer_probe(Context& ctx, const HostPlan& plan, double seconds) {
  HostSession s = set_up(ctx, plan, 0);
  double reference_ms = 0.0;
  const std::vector<double> reference =
      serial_references(ctx, s, plan, &reference_ms);
  const TimedSteps timed = closed_loop(ctx, s, reference, seconds);
  emit_layers(ctx, s, timed, reference, {s.times}, reference_ms);
}

void run_train_resnet152(Context& ctx) {
  HostPlan plan;
  plan.build = [](std::size_t) {
    const models::ZooEntry* entry = models::zoo_find("resnet152");
    std::vector<Graph> g;
    g.push_back(entry->build(entry->default_batch));
    return g;
  };
  plan.tenant_graph = {0};
  plan.tensor_seed = ctx.seed;
  run_host(ctx, plan);
}

void run_corun_fuzz_pair(Context& ctx) {
  HostPlan plan;
  const std::uint64_t seed = ctx.seed;
  // Each session draws its own graph from the workload seed: step time
  // moves with graph structure, so a run spans many graphs instead of
  // resting on one.
  plan.sessions = kPairSessions;
  plan.graph_per_session = true;
  plan.build = [seed](std::size_t session) {
    testing::FuzzGraphParams params;
    params.min_nodes = 1000;
    params.max_nodes = 1000;
    params.max_dim = 6;  // the micro_dispatch shape: kernels are negligible
    std::vector<Graph> g;
    g.push_back(testing::fuzz_graph(seed * kPairSessions + session, params));
    return g;
  };
  plan.tenant_graph = {0, 0};
  plan.tensor_seed = seed;
  run_host(ctx, plan);
}

}  // namespace perfbench
